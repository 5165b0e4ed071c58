//! **Index-structure ablation** (the paper's future-work item 7): does the
//! lookup index take composition from O(nm) to O(n+m)?
//!
//! Composes same-size model pairs of growing size under three index
//! structures: hash map (the paper's implementation), B-tree, and a
//! deliberate linear scan (no index). The linear scan exhibits the O(nm)
//! growth the paper measured; the hash map grows ~linearly in n+m.
//!
//! Two lookup-cost ablations ride along:
//!
//! * the **math-pattern cache** — the paper stores mappings/patterns "to
//!   reduce comparison time": cached vs uncached composition of a
//!   reaction-heavy pair whose reactions can only match by content, plus
//!   the cost of computing the Fig. 7 pattern of four kinetic laws;
//! * the **Fig. 6 unit machinery** — signature computation, conversion
//!   factors and the deterministic↔stochastic rate bridge used during
//!   conflict checking.
//!
//! Usage: `cargo run --release -p compose-bench --bin ablation_index`
//! Output: `results/ablation_index.csv`, `results/ablation_cache.csv`,
//! `results/ablation_units.csv`.

use compose_bench::{compare, sample, write_csv};
use sbml_compose::{ComposeOptions, Composer, IndexKind};
use sbml_math::{infix, pattern::Pattern};
use sbml_units::convert::{conversion_factor, deterministic_to_stochastic, ReactionOrder};
use sbml_units::{Unit, UnitDefinition, UnitKind};

/// Calls per timed unit-machinery sample: one call is nanoseconds.
const UNIT_REPS: usize = 10_000;

fn main() {
    let corpus = biomodels_corpus::corpus_187();
    // Pick models spanning the size range; pair each with its neighbour.
    let picks = [20usize, 60, 100, 130, 155, 170, 180, 186];
    let kinds =
        [("hashmap", IndexKind::HashMap), ("btree", IndexKind::BTree), ("linear", IndexKind::LinearScan)];

    let mut rows = Vec::new();
    println!("index ablation over {} size points", picks.len());
    println!("{:>6} {:>6} {:>12} {:>12} {:>12}", "size_a", "size_b", "hashmap_ms", "btree_ms", "linear_ms");
    for &i in &picks {
        let a = &corpus[i];
        let b = &corpus[i - 1];
        let mut cells = Vec::new();
        for (_, kind) in kinds {
            let composer = Composer::new(ComposeOptions::default().with_index(kind));
            cells.push(sample(5, |_| composer.compose(a, b)).median * 1e3);
        }
        let (sa, sb) = (a.size(), b.size());
        println!("{sa:>6} {sb:>6} {:>12.4} {:>12.4} {:>12.4}", cells[0], cells[1], cells[2]);
        rows.push(format!("{sa},{sb},{:.6},{:.6},{:.6}", cells[0], cells[1], cells[2]));
    }
    let path = write_csv("ablation_index.csv", "size_a,size_b,hashmap_ms,btree_ms,linear_ms", &rows);
    println!("series written to {}", path.display());

    // Pattern cache: rename the second model's reaction ids so every
    // reaction must be matched by *content* (pattern), the cache-sensitive
    // path.
    let a = corpus[150].clone();
    let mut b = corpus[150].clone();
    for (k, r) in b.reactions.iter_mut().enumerate() {
        r.id = format!("other_{k}");
    }
    let cached = Composer::new(ComposeOptions::default().with_pattern_cache(true));
    let uncached = Composer::new(ComposeOptions::default().with_pattern_cache(false));
    assert_eq!(cached.compose(&a, &b).model, uncached.compose(&a, &b).model, "pattern cache changed the output");
    let cache = compare(9, |_| uncached.compose(&a, &b), |_| cached.compose(&a, &b));
    let laws: Vec<_> = ["k1*A", "k1*A*B - k2*C", "Vmax*S/(Km+S)", "(a+b+c+d)*(e+f+g+h)/(i+j+k)"]
        .iter()
        .map(|s| infix::parse(s).expect("kinetic law parses"))
        .collect();
    let patterns = sample(9, |_| laws.iter().map(Pattern::of).collect::<Vec<_>>());
    let (size, uncached_ms, cached_ms) = (a.size(), cache.a.median * 1e3, cache.b.median * 1e3);
    let (speedup, pattern_us) = (cache.ratio.median, patterns.median * 1e6);
    println!("\npattern cache (model size {size}): uncached {uncached_ms:.4}ms, cached {cached_ms:.4}ms ({speedup:.2}x)");
    println!("pattern of {} laws: {pattern_us:.2}us", laws.len());
    let path = write_csv(
        "ablation_cache.csv",
        "model_size,uncached_ms,cached_ms,speedup,pattern_of_4_laws_us",
        &[format!("{size},{uncached_ms:.6},{cached_ms:.6},{speedup:.3},{pattern_us:.3}")],
    );
    println!("series written to {}", path.display());

    // Fig. 6 unit machinery, per call.
    let per_molar_per_s = |id: &str, mole: Unit| {
        let (litre, per_s) = (Unit::of(UnitKind::Litre), Unit::of(UnitKind::Second).pow(-1));
        UnitDefinition::new(id, vec![mole, litre, per_s])
    };
    let per_mm_per_s = per_molar_per_s("per_mM_per_s", Unit::of(UnitKind::Mole).pow(-1).scaled(-3));
    let per_m_per_s = per_molar_per_s("per_M_per_s", Unit::of(UnitKind::Mole).pow(-1));
    let per_call_ns = |f: &dyn Fn()| {
        sample(9, |_| (0..UNIT_REPS).for_each(|_| f())).median / UNIT_REPS as f64 * 1e9
    };
    let units = [
        ("signature", per_call_ns(&|| {
            std::hint::black_box(per_mm_per_s.signature());
        })),
        ("conversion_factor", per_call_ns(&|| {
            std::hint::black_box(conversion_factor(&per_mm_per_s, &per_m_per_s));
        })),
        ("det_to_stoch_all_orders", per_call_ns(&|| {
            for order in [ReactionOrder::Zeroth, ReactionOrder::First, ReactionOrder::Second] {
                std::hint::black_box(deterministic_to_stochastic(std::hint::black_box(1e-3), order, 1e-15));
            }
        })),
    ];
    println!();
    for (name, ns) in &units {
        println!("fig6 {name:<24} {ns:>9.1} ns/call");
    }
    let unit_rows: Vec<String> = units.iter().map(|(name, ns)| format!("{name},{ns:.2}")).collect();
    let path = write_csv("ablation_units.csv", "operation,ns_per_call", &unit_rows);
    println!("series written to {}", path.display());
}
