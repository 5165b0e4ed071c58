//! Property tests for the math engine:
//! * MathML and infix round-trips preserve the AST,
//! * Fig. 7 patterns are invariant under random commutative shuffles,
//! * patterns distinguish structurally different expressions,
//! * evaluation agrees before/after round-trips and shuffles.

use proptest::prelude::*;
use sbml_math::{
    ast::{MathExpr, Op},
    eval::{evaluate, Env},
    infix,
    parse_mathml,
    pattern::Pattern,
    to_mathml,
    writer::{to_infix, write_math},
};

/// Strategy for closed arithmetic expressions over a tiny variable alphabet.
fn expr_strategy() -> impl Strategy<Value = MathExpr> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(|n| MathExpr::num(n as f64)),
        (1u32..=4).prop_map(|n| MathExpr::num(n as f64 / 2.0)),
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("k1"), Just("k2")]
            .prop_map(MathExpr::ci),
    ];
    leaf.prop_recursive(5, 48, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|args| MathExpr::apply(Op::Plus, args)),
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|args| MathExpr::apply(Op::Times, args)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MathExpr::apply(Op::Minus, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MathExpr::apply(Op::Divide, vec![a, b])),
            // Unary minus over a literal would constant-fold on reparse
            // (`-3` lexes as a negative number), so shield literals with abs.
            inner.clone().prop_map(|a| {
                let a = match a {
                    MathExpr::Num(v) => MathExpr::apply(Op::Abs, vec![MathExpr::num(v)]),
                    other => other,
                };
                MathExpr::apply(Op::Minus, vec![a])
            }),
            inner.prop_map(|a| MathExpr::apply(Op::Abs, vec![a])),
        ]
    })
}

/// Recursively shuffle arguments of commutative operators using `seed`.
fn shuffle_commutative(expr: &MathExpr, seed: u64) -> MathExpr {
    match expr {
        MathExpr::Apply { op, args } => {
            let mut new_args: Vec<MathExpr> = args
                .iter()
                .enumerate()
                .map(|(i, a)| shuffle_commutative(a, seed.wrapping_mul(31).wrapping_add(i as u64)))
                .collect();
            if op.is_commutative() {
                // Deterministic pseudo-shuffle: rotate by seed, then swap.
                let n = new_args.len();
                new_args.rotate_left((seed as usize) % n.max(1));
                if n >= 2 && seed.is_multiple_of(2) {
                    new_args.swap(0, n - 1);
                }
            }
            MathExpr::Apply { op: *op, args: new_args }
        }
        other => other.clone(),
    }
}

/// Richer strategy for the rename tests: adds function calls, piecewise
/// and lambda nodes so every canonical-pattern construct is exercised.
fn rename_expr_strategy() -> impl Strategy<Value = MathExpr> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(|n| MathExpr::num(n as f64)),
        prop_oneof![
            Just("a"),
            Just("b"),
            Just("c"),
            Just("k1"),
            Just("k2"),
            Just("x"),
            Just("zz")
        ]
        .prop_map(MathExpr::ci),
    ];
    leaf.prop_recursive(4, 40, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|args| MathExpr::apply(Op::Plus, args)),
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|args| MathExpr::apply(Op::Times, args)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MathExpr::apply(Op::Minus, vec![a, b])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| MathExpr::apply(Op::Divide, vec![a, b])),
            (prop_oneof![Just("f"), Just("g"), Just("k1")], proptest::collection::vec(inner.clone(), 1..3))
                .prop_map(|(name, args)| MathExpr::Call { function: name.to_owned(), args }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(v, c, o)| {
                MathExpr::Piecewise {
                    pieces: vec![(v, MathExpr::apply(Op::Lt, vec![c, MathExpr::num(5.0)]))],
                    otherwise: Some(Box::new(o)),
                }
            }),
            // Lambda params deliberately collide with free ids ("a", "x")
            // so bound-variable shadowing of mappings is exercised.
            (prop_oneof![Just("a"), Just("x"), Just("p")], inner)
                .prop_map(|(p, body)| MathExpr::Lambda {
                    params: vec![p.to_owned()],
                    body: Box::new(body),
                }),
        ]
    })
}

/// Strategy for mapping tables over the same alphabet: includes no-op
/// entries (unused ids), identity-adjacent targets and order-changing
/// renames (short → long, long → short).
fn mapping_strategy() -> impl Strategy<Value = std::collections::HashMap<String, String>> {
    let sources = ["a", "b", "c", "k1", "k2", "x", "zz", "f", "g", "unused"];
    let targets = ["a0", "zzz", "m", "k9", "b", "w_1", "longer_name"];
    proptest::collection::vec((0..sources.len(), 0..targets.len()), 0..6).prop_map(
        move |pairs| {
            let mut map = std::collections::HashMap::new();
            for (s, t) in pairs {
                map.insert(sources[s].to_owned(), targets[t].to_owned());
            }
            map
        },
    )
}

fn env() -> Env {
    Env::new()
        .with_var("a", 1.25)
        .with_var("b", -2.0)
        .with_var("c", 3.5)
        .with_var("k1", 0.5)
        .with_var("k2", 7.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mathml_round_trip(expr in expr_strategy()) {
        let back = parse_mathml(&to_mathml(&expr)).unwrap();
        prop_assert_eq!(back, expr);
    }

    #[test]
    fn mathml_survives_xml_serialization(expr in expr_strategy()) {
        // AST -> indented MathML text -> AST
        let mut w = sbml_xml::XmlWriter::new(Some(2));
        write_math(&mut w, &expr);
        let pretty = w.finish();
        prop_assert_eq!(parse_mathml(&pretty).unwrap(), expr.clone());
        // The DOM reprints the streamed text byte for byte.
        let compact = to_mathml(&expr);
        let doc = sbml_xml::parse_document(&compact).unwrap();
        prop_assert_eq!(sbml_xml::writer::element_to_string(&doc.root), compact);
        prop_assert_eq!(sbml_xml::write_pretty(&doc), pretty);
    }

    #[test]
    fn infix_round_trip(expr in expr_strategy()) {
        let printed = to_infix(&expr);
        let back = infix::parse(&printed).unwrap();
        // Infix printing may re-nest n-ary chains; compare via patterns,
        // which canonicalise associativity, and check evaluation agrees.
        prop_assert_eq!(Pattern::of(&back), Pattern::of(&expr), "printed: {}", printed);
        let e = env();
        match (evaluate(&expr, &e), evaluate(&back, &e)) {
            (Ok(x), Ok(y)) => {
                if x.is_finite() && y.is_finite() {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    prop_assert!(((x - y) / scale).abs() < 1e-9, "{} vs {} from {}", x, y, printed);
                }
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "eval disagreement: {:?} vs {:?}", x, y),
        }
    }

    #[test]
    fn pattern_invariant_under_commutative_shuffle(expr in expr_strategy(), seed in 0u64..1000) {
        let shuffled = shuffle_commutative(&expr, seed);
        prop_assert_eq!(Pattern::of(&expr), Pattern::of(&shuffled));
    }

    #[test]
    fn shuffle_preserves_evaluation(expr in expr_strategy(), seed in 0u64..1000) {
        let shuffled = shuffle_commutative(&expr, seed);
        let e = env();
        if let (Ok(x), Ok(y)) = (evaluate(&expr, &e), evaluate(&shuffled, &e)) {
            if x.is_finite() && y.is_finite() {
                let scale = x.abs().max(y.abs()).max(1.0);
                prop_assert!(((x - y) / scale).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pattern_stability(expr in expr_strategy()) {
        // Pattern computation is deterministic.
        prop_assert_eq!(Pattern::of(&expr), Pattern::of(&expr.clone()));
    }

    #[test]
    fn infix_parser_never_panics(src in "[a-z0-9+*/() ^.,<>=!&|-]{0,64}") {
        let _ = infix::parse(&src);
    }

    #[test]
    fn rename_mapped_equals_of_mapped(
        expr in rename_expr_strategy(),
        map in mapping_strategy(),
    ) {
        // The incremental string-level rename of a cached canonical
        // pattern must be byte-identical to re-canonicalising the
        // expression under the mappings — including lambda shadowing,
        // dirty-group re-sorting and no-op mappings.
        let cached = Pattern::of(&expr);
        let renamed = cached.rename_mapped(&map);
        let rebuilt = Pattern::of_mapped(&expr, &map);
        prop_assert_eq!(renamed.as_ref(), &rebuilt, "pattern: {}", cached);
    }

    #[test]
    fn rename_mapped_noop_is_borrowed(expr in rename_expr_strategy()) {
        // A mapping that touches no identifier of the expression returns
        // the original pattern without allocating.
        let cached = Pattern::of(&expr);
        let mut map = std::collections::HashMap::new();
        map.insert("not_present_anywhere".to_owned(), "whatever".to_owned());
        let out = cached.rename_mapped(&map);
        prop_assert!(matches!(out, std::borrow::Cow::Borrowed(_)));
    }
}
