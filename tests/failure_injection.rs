//! Failure-injection tests: every layer must reject malformed input with a
//! clean error (never a panic), and the merge must stay robust when fed
//! pathological but well-formed models.

use sbmlcompose::compose::{
    Budget, ComposeOptions, Composer, CompositionSession, ExecError, Meter, SharedModel, Site,
};
use sbmlcompose::model::builder::ModelBuilder;
use sbmlcompose::model::{parse_sbml, write_sbml, Model, ModelError};
use sbmlcompose::xml::{XmlError, MAX_DEPTH};
use std::sync::Arc;

mod common;
use common::nested_kinetic_law;

#[test]
fn malformed_xml_rejected_cleanly() {
    let cases = [
        "",
        "<",
        "<sbml>",
        "<sbml><model></sbml>",
        "<sbml><model id='x'/></sbml><extra/>",
        "<sbml><model id=\"unterminated></sbml>",
        "<sbml>&undefined;</sbml>",
        "<sbml><model id=\"a\" id=\"b\"/></sbml>",
    ];
    for text in cases {
        let result = parse_sbml(text);
        assert!(result.is_err(), "{text:?} must be rejected");
    }
}

#[test]
fn structurally_invalid_sbml_rejected_with_context() {
    // species without compartment
    let err = parse_sbml(
        "<sbml><model id=\"m\"><listOfSpecies><species id=\"A\"/></listOfSpecies></model></sbml>",
    )
    .unwrap_err();
    assert!(matches!(err, ModelError::Structure { .. }), "{err}");
    assert!(err.to_string().contains("compartment"), "{err}");

    // kinetic law without math
    let err = parse_sbml(
        "<sbml><model id=\"m\"><listOfReactions><reaction id=\"r\"><kineticLaw/></reaction></listOfReactions></model></sbml>",
    )
    .unwrap_err();
    assert!(err.to_string().contains("math"), "{err}");

    // bad number in attribute
    let err = parse_sbml(
        "<sbml><model id=\"m\"><listOfParameters><parameter id=\"k\" value=\"lots\"/></listOfParameters></model></sbml>",
    )
    .unwrap_err();
    assert!(err.to_string().contains("lots"), "{err}");
}

#[test]
fn bad_mathml_rejected_with_context() {
    let err = parse_sbml(
        "<sbml><model id=\"m\"><listOfRules><assignmentRule variable=\"x\"><math><apply><divide/><cn>1</cn></apply></math></assignmentRule></listOfRules></model></sbml>",
    )
    .unwrap_err();
    assert!(matches!(err, ModelError::Math { .. }), "{err}");
}

#[test]
fn merge_survives_models_with_cyclic_function_definitions() {
    // Validation flags the cycle; composition must not hang or crash.
    let cyclic = ModelBuilder::new("cyclic").function("f", &["x"], "f(x)").build();
    let issues = sbmlcompose::model::validate(&cyclic);
    assert!(issues.iter().any(|i| i.message.contains("recursive")));

    let other = ModelBuilder::new("other").function("f", &["x"], "x + 1").build();
    let result = Composer::new(ComposeOptions::default()).compose(&cyclic, &other);
    // Same id, different body: conflict, first model wins.
    assert_eq!(result.model.function_definitions.len(), 1);
    assert_eq!(result.log.conflict_count(), 1);
}

#[test]
fn merge_survives_nan_and_infinite_values() {
    let mut weird = ModelBuilder::new("weird")
        .compartment("cell", 1.0)
        .species("A", 1.0)
        .parameter("k", 1.0)
        .build();
    weird.parameters[0].value = Some(f64::INFINITY);
    weird.species[0].initial_amount = Some(f64::NAN);

    let normal = ModelBuilder::new("normal")
        .compartment("cell", 1.0)
        .species("A", 1.0)
        .parameter("k", 1.0)
        .build();
    // Both directions must terminate and produce *some* model.
    let r1 = Composer::new(ComposeOptions::default()).compose(&weird, &normal);
    let r2 = Composer::new(ComposeOptions::default()).compose(&normal, &weird);
    assert_eq!(r1.model.species.len(), 1);
    assert_eq!(r2.model.species.len(), 1);
    // NaN initial amounts can never "agree" — must be flagged, not merged
    // silently as equal.
    assert!(r1.log.conflict_count() + r2.log.conflict_count() >= 1);
}

#[test]
fn merge_survives_unicode_and_hostile_names() {
    let a = ModelBuilder::new("a")
        .compartment("cell", 1.0)
        .species_named("s1", "α-D-糖 <& \"quoted\">", 1.0)
        .build();
    let b = ModelBuilder::new("b")
        .compartment("cell", 1.0)
        .species_named("s2", "α-D-糖 <& \"quoted\">", 1.0)
        .build();
    let result = Composer::new(ComposeOptions::default()).compose(&a, &b);
    assert_eq!(result.model.species.len(), 1, "same hostile name must unify");
    // ...and the result must survive an XML round trip with escaping.
    let xml = sbmlcompose::model::write_sbml(&result.model);
    let back = parse_sbml(&xml).unwrap();
    assert_eq!(back, result.model);
}

#[test]
fn simulation_rejects_unsimulable_models_cleanly() {
    // Reaction math references an identifier that does not exist.
    let broken = ModelBuilder::new("broken")
        .compartment("cell", 1.0)
        .species("A", 1.0)
        .reaction("r", &["A"], &[], "ghost_parameter*A")
        .build();
    let err = sbmlcompose::sim::ode::simulate_rk4(&broken, 1.0, 0.1).unwrap_err();
    assert!(err.to_string().contains("ghost_parameter"), "{err}");

    let err = sbmlcompose::sim::ssa::simulate_ssa(&broken, 1.0, 0.1, 0).unwrap_err();
    assert!(err.to_string().contains("ghost_parameter"), "{err}");
}

#[test]
fn mc2_surfaces_atom_errors() {
    let model = ModelBuilder::new("m")
        .compartment("cell", 1.0)
        .species("A", 5.0)
        .parameter("k", 1.0)
        .reaction("r", &["A"], &[], "k*A")
        .build();
    let phi = sbmlcompose::mc2::Formula::parse("G(no_such_species > 0)").unwrap();
    let err = sbmlcompose::mc2::check_probability(&model, &phi, 3, 1.0, 0.5).unwrap_err();
    assert!(err.contains("no_such_species"), "{err}");
}

#[test]
fn huge_id_collision_chains_resolve() {
    // Force a long rename chain: both models define k, k_1, k_2 with
    // different values — renames must keep probing forward, never clobber.
    let mut a = ModelBuilder::new("a").compartment("c", 1.0).build();
    let mut b = ModelBuilder::new("b").compartment("c", 1.0).build();
    for i in 0..10 {
        let id = if i == 0 { "k".to_owned() } else { format!("k_{i}") };
        a.parameters.push(sbmlcompose::model::Parameter::new(&id, i as f64));
        b.parameters.push(sbmlcompose::model::Parameter::new(&id, 100.0 + i as f64));
    }
    let result = Composer::new(ComposeOptions::default()).compose(&a, &b);
    assert_eq!(result.model.parameters.len(), 20, "all parameters kept");
    // ids unique
    let ids: std::collections::BTreeSet<_> =
        result.model.parameters.iter().map(|p| p.id.clone()).collect();
    assert_eq!(ids.len(), 20);
}

#[test]
fn empty_vs_empty() {
    let empty = sbmlcompose::model::Model::new("e");
    let result = Composer::new(ComposeOptions::default()).compose(&empty, &empty);
    assert!(result.model.is_empty());
    assert!(result.log.events.is_empty());
}

#[test]
fn hostile_infix_nesting_errors_instead_of_overflowing() {
    // Each of these would recurse once per level in the parser; at 10k
    // levels only the explicit depth limit stands between a clean error
    // and a stack overflow.
    let n = 10_000;
    let hostile = [
        format!("{}x{}", "(".repeat(n), ")".repeat(n)),
        format!("{}x", "-".repeat(n)),
        format!("{}x", "!".repeat(n)),
        format!("{}x", "+".repeat(n)),
        format!("x{}", "^x".repeat(n)),
        format!("{}x{}", "f(".repeat(n), ")".repeat(n)),
    ];
    for formula in &hostile {
        let err = sbmlcompose::math::infix::parse(formula)
            .expect_err("hostile nesting must be rejected");
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}

/// A minimal multiplicative congruential generator — deterministic
/// "randomness" without pulling in a dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

#[test]
fn mutated_sbml_never_panics_through_parse_and_push() {
    // Serialize a well-formed model, then feed deterministic truncations
    // and byte corruptions through the full parse → prepare → push path.
    // Whatever still parses must also still compose; nothing may panic.
    let base = ModelBuilder::new("base")
        .compartment("cell", 1.0)
        .species("A", 1.0)
        .species("B", 0.0)
        .parameter("k", 0.5)
        .reaction("r", &["A"], &["B"], "k * A")
        .initial_assignment("A", "2 + 2")
        .assignment_rule("B", "A / 2")
        .constraint("A > 0", None)
        .event("e", "A > 5", &[("B", "0")])
        .build();
    let xml = write_sbml(&base);
    let bytes = xml.as_bytes();

    let mut rng = Lcg(0x5bd1e995);
    let mut parsed_ok = 0usize;
    for trial in 0..200 {
        let mutated = if trial % 2 == 0 {
            // Truncate at a pseudo-random offset.
            let cut = (rng.next() as usize) % bytes.len();
            String::from_utf8_lossy(&bytes[..cut]).into_owned()
        } else {
            // Corrupt a handful of bytes.
            let mut copy = bytes.to_vec();
            for _ in 0..1 + rng.next() % 4 {
                let at = (rng.next() as usize) % copy.len();
                copy[at] = (rng.next() % 256) as u8;
            }
            String::from_utf8_lossy(&copy).into_owned()
        };
        if let Ok(model) = parse_sbml(&mutated) {
            parsed_ok += 1;
            let options = ComposeOptions::default();
            let mut session = CompositionSession::new(&options);
            session.push_guarded(&base, None).expect("clean base push");
            session.push_guarded(&model, None).expect("mutant merges or is rejected earlier");
        }
    }
    // Sanity: the corruption actually exercised both outcomes.
    assert!(parsed_ok > 0, "some mutants must survive parsing");
    assert!(parsed_ok < 200, "some mutants must be rejected");
}

#[test]
fn budget_exhausted_push_leaves_accumulator_unchanged() {
    let a = ModelBuilder::new("a")
        .compartment("cell", 1.0)
        .species("A", 1.0)
        .parameter("k", 0.5)
        .reaction("r", &["A"], &[], "k * A")
        .build();
    let b = ModelBuilder::new("b")
        .compartment("cell", 1.0)
        .species("B", 2.0)
        .parameter("j", 0.25)
        .reaction("s", &[], &["B"], "j")
        .build();

    // Exactly enough steps for the first push; the second must exhaust.
    let options = ComposeOptions::default();
    let budget = Budget::unlimited().with_max_steps(a.component_count() as u64);
    let meter = budget.start();
    let mut session = CompositionSession::new(&options);
    session.push_guarded(&a, Some(&meter)).expect("first push fits");
    let err = session.push_guarded(&b, Some(&meter)).expect_err("second push exhausts");
    match err {
        ExecError::StepsExhausted { site, limit } => {
            assert_eq!(site, Site::Push(1));
            assert_eq!(limit, a.component_count() as u64);
        }
        other => panic!("expected steps exhaustion, got {other:?}"),
    }

    // The failed push must be invisible: same model, same log as a
    // single-push session.
    let after = session.finish();
    let reference = {
        let mut s = CompositionSession::new(&options);
        s.push_guarded(&a, None).expect("push");
        s.finish()
    };
    assert_eq!(write_sbml(&after.model), write_sbml(&reference.model));
    assert_eq!(after.log.to_text(), reference.log.to_text());
}

#[test]
fn deeply_nested_math_round_trips() {
    // 64 levels of nesting through parser, pattern, writer.
    let mut formula = String::from("x");
    for _ in 0..64 {
        formula = format!("({formula} + 1)");
    }
    let expr = sbmlcompose::math::infix::parse(&formula).unwrap();
    let pattern = sbmlcompose::math::pattern::Pattern::of(&expr);
    assert!(!pattern.as_str().is_empty());
    let mathml = sbmlcompose::math::to_mathml(&expr);
    let back = sbmlcompose::math::parse_mathml(&mathml).unwrap();
    assert_eq!(back, expr);

    // A document nested exactly to the tokenizer's limit still parses,
    // composes and writes on a worker-sized (2 MiB) stack.
    on_small_stack(|| {
        let text = nested_kinetic_law(MAX_DEPTH - 7);
        let model = parse_sbml(&text).expect("a document at the depth limit parses");
        let options = ComposeOptions::default();
        let mut session = CompositionSession::new(&options);
        session.push_guarded(&model, None).expect("push");
        session.push_guarded(&model, None).expect("push the duplicate");
        let composed = session.finish().model;
        let written = write_sbml(&composed);
        assert_eq!(parse_sbml(&written).expect("reparse"), composed);
        assert_eq!(written, write_sbml(&model), "self-composition is the identity");
    });
}

#[test]
fn documents_nested_past_the_limit_are_rejected_on_a_small_stack() {
    // Walked recursively, each of these would overflow a 2 MiB stack and
    // abort the process.
    on_small_stack(|| {
        let too_deep = |text: &str| match parse_sbml(text) {
            Err(ModelError::Xml(XmlError::TooDeep { limit, .. })) => assert_eq!(limit, MAX_DEPTH),
            other => panic!("expected TooDeep, got {:?}", other.map(|m| m.id)),
        };
        for levels in [MAX_DEPTH - 6, 10_000, 100_000, 1_000_000] {
            too_deep(&nested_kinetic_law(levels));
        }
        for depth in [10_000, 100_000, 1_000_000] {
            too_deep(&format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth)));
        }
    });
}

#[test]
fn push_past_its_deadline_fails_and_rolls_back() {
    // Regression: a push that overran its deadline used to be rolled back
    // and retried without a deadline check, returning Ok late. The
    // deadline is checked before every merge pass; this one passes at
    // the reactions pass, after earlier passes have logged decisions.
    let (largest, twin) = largest_and_synonym_twin();
    let options = ComposeOptions::default();
    let mut session = CompositionSession::new(&options);
    session.push_guarded(&twin, None).expect("base push");
    let model_before = write_sbml(session.model());
    let log_before = session.log().to_text();

    let meter = Meter::expiring_at(CUT);
    let err = session.push_guarded(&largest, Some(&meter)).expect_err("the deadline passes");
    assert!(matches!(err, ExecError::DeadlineExceeded { site: CUT, .. }), "{err:?}");
    assert_eq!(write_sbml(session.model()), model_before, "model rolled back");
    assert_eq!(session.log().to_text(), log_before, "log rolled back");
}

/// Where the deadline tests cut a push: before the reactions pass.
const CUT: Site = Site::Pass(10);

/// The largest Fig. 8 model and its synonym-renamed twin. Merging the
/// model into its twin logs decisions before [`CUT`] (checked here), so a
/// push cut there has state to roll back.
fn largest_and_synonym_twin() -> (Model, Model) {
    use sbmlcompose::corpus::{corpus_187, synonym_variant};
    let largest = corpus_187()
        .into_iter()
        .max_by_key(|m| m.component_count())
        .expect("non-empty corpus");
    let twin = synonym_variant(&largest);
    let options = ComposeOptions::default();
    let mut session = CompositionSession::new(&options);
    session.push(&twin);
    session.push(&largest);
    assert!(
        session.log().events.iter().any(|e| e.component == "species"),
        "the species pass, which runs before the cut, logs decisions"
    );
    (largest, twin)
}

#[test]
fn prepared_push_past_its_deadline_fails_and_rolls_back() {
    // The prepared-model path checks the same per-pass deadline; after
    // the rollback an unbudgeted retry gives the result of a session that
    // never saw the failed push.
    let (largest, twin) = largest_and_synonym_twin();
    let options = ComposeOptions::default();
    let composer = Composer::new(options.clone());
    let (base, incoming) = (composer.prepare(&twin), composer.prepare(&largest));
    let mut session = CompositionSession::with_prepared_base(&options, &base);
    let model_before = write_sbml(session.model());
    let log_before = session.log().to_text();

    let meter = Meter::expiring_at(CUT);
    let err =
        session.push_prepared_guarded(&incoming, Some(&meter)).expect_err("the deadline passes");
    assert!(matches!(err, ExecError::DeadlineExceeded { site: CUT, .. }), "{err:?}");
    assert_eq!(write_sbml(session.model()), model_before, "model rolled back");
    assert_eq!(session.log().to_text(), log_before, "log rolled back");

    session.push_prepared_guarded(&incoming, None).expect("unbudgeted retry");
    let mut clean = CompositionSession::with_prepared_base(&options, &base);
    clean.push_prepared(&incoming);
    assert_eq!(write_sbml(session.model()), write_sbml(clean.model()));
    assert_eq!(session.log().to_text(), clean.log().to_text());
}

#[test]
fn deadline_on_a_shared_base_leaves_it_shared() {
    // A push that times out on a copy-on-write session rolls back to the
    // untouched base: nothing stays materialised, and finishing hands back
    // the caller's own Arc.
    let (largest, twin) = largest_and_synonym_twin();
    let options = ComposeOptions::default();
    let base = Arc::new(Composer::new(options.clone()).prepare(&twin));
    let mut session = CompositionSession::with_shared_base(&options, Arc::clone(&base));

    let meter = Meter::expiring_at(CUT);
    let err = session.push_guarded(&largest, Some(&meter)).expect_err("the deadline passes");
    assert!(matches!(err, ExecError::DeadlineExceeded { site: CUT, .. }), "{err:?}");
    assert!(session.is_base_shared(), "rollback re-adopts the shared base");
    assert!(session.log().events.is_empty(), "log rolled back");
    match session.finish_shared().model {
        SharedModel::Base(model) => assert!(Arc::ptr_eq(&model, &base)),
        SharedModel::Owned(_) => panic!("a rolled-back push must not materialise the base"),
    }
}

/// Run `f` on a thread with a 2 MiB stack (a worker thread's default).
pub fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("no panic on the 2 MiB thread")
}
