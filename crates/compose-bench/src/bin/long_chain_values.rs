//! Long-chain initial-value maintenance: incremental store vs per-push
//! re-collect.
//!
//! Before this scenario's tentpole, every [`CompositionSession`] push
//! re-ran `initial_values::collect` over the *whole accumulator* — the
//! last O(n) per-push cost, so an n-model chain paid O(n²) evaluation
//! work on value-heavy corpora. The incremental store
//! (`IncrementalValues`) seeds once and re-evaluates only each push's
//! dependency closure, making the same chain O(total assignments).
//!
//! This binary times both paths — identical options except for
//! [`ComposeOptions::incremental_initial_values`] — on chains of
//! value-heavy models (many parameters and chained initial assignments,
//! the workload the paper's §3 initial-value collection step exists for)
//! and writes `BENCH_values.json` at the workspace root. `ci.sh` gates
//! the length-128 speedup at ≥ 2x.
//!
//! Run with: `cargo run --release -p compose-bench --bin long_chain_values`
//!
//! [`CompositionSession`]: sbml_compose::session::CompositionSession
//! [`ComposeOptions::incremental_initial_values`]: sbml_compose::ComposeOptions::incremental_initial_values

use compose_bench::{compare, Json};
use sbml_compose::{compose_many, ComposeOptions, Composer};
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

const CHAIN_LENGTHS: [usize; 4] = [2, 8, 32, 128];

/// Parameters + chained initial assignments per chain model.
const VALUES_PER_MODEL: usize = 24;

/// Model `i` of the chain: a couple of shared species link neighbours
/// (so merging does real matching work), and `VALUES_PER_MODEL`
/// parameters with chained initial assignments make value collection the
/// dominant per-push cost — each model's assignment chain starts from its
/// own seed parameter, so the accumulator's assignment count grows
/// linearly with chain length.
fn value_heavy_model(i: usize) -> Model {
    let mut b = ModelBuilder::new(format!("m{i}"))
        .compartment("cell", 1.0)
        .species(&format!("S{i}"), i as f64)
        .species(&format!("S{}", i + 1), 0.0)
        .parameter(&format!("seed{i}"), 1.0 + i as f64)
        .reaction(
            &format!("r{i}"),
            &[format!("S{i}").as_str()],
            &[format!("S{}", i + 1).as_str()],
            &format!("seed{i}*S{i}"),
        );
    for j in 0..VALUES_PER_MODEL {
        let id = format!("p{i}_{j}");
        b = b.parameter(&id, 0.0);
        let previous = if j == 0 { format!("seed{i}") } else { format!("p{i}_{}", j - 1) };
        b = b.initial_assignment(&id, &format!("{previous} * 1.0625 + {j}"));
    }
    b.build()
}

fn main() {
    let incremental_options = ComposeOptions::default();
    let recollect_options = ComposeOptions::default().with_incremental_initial_values(false);
    let incremental = Composer::new(incremental_options);
    let recollect = Composer::new(recollect_options);

    println!("long-chain initial values — per-push re-collect vs incremental store");
    println!(
        "{:>7} {:>16} {:>16} {:>9} {:>12}",
        "length", "re-collect (s)", "incremental (s)", "speedup", "assignments"
    );

    let mut rows = Vec::new();
    let mut final_speedup = 0.0;
    for length in CHAIN_LENGTHS {
        let chain: Vec<Model> = (0..length).map(value_heavy_model).collect();
        let rounds = if length >= 32 { 5 } else { 7 };

        let reference = compose_many(&recollect, &chain);
        let candidate = compose_many(&incremental, &chain);
        assert_eq!(
            candidate.model, reference.model,
            "incremental and re-collect outputs diverged at length {length}"
        );
        assert_eq!(candidate.log.events, reference.log.events);
        assert_eq!(candidate.mappings, reference.mappings);

        let c = compare(
            rounds,
            |_| compose_many(&recollect, &chain),
            |_| compose_many(&incremental, &chain),
        );
        final_speedup = c.ratio.median;
        let assignments = reference.model.initial_assignments.len();
        println!(
            "{length:>7} {:>16.6} {:>16.6} {final_speedup:>8.2}x {assignments:>12}",
            c.a.median, c.b.median,
        );
        rows.push(
            Json::new()
                .int("length", length)
                .num("speedup", final_speedup)
                .int("merged_initial_assignments", assignments)
                .compared("seconds", "recollect", "incremental", &c),
        );
    }

    Json::new()
        // Single-threaded measurement; recorded for cross-machine comparability.
        .int("threads", 1)
        .str("benchmark", "long_chain_values")
        .str("corpus", "deterministic value-heavy chain models (24 chained initial assignments each)")
        .obj(
            "engines",
            Json::new()
                .str("recollect", "CompositionSession with incremental_initial_values=false: initial_values::collect re-run over the whole accumulator before every push")
                .str("incremental", "CompositionSession default: IncrementalValues store seeded once, each push re-evaluates only its dependency closure"),
        )
        .rows("chains", rows)
        .num("speedup_incremental_values_at_length_128", final_speedup)
        .write("values");
    println!(
        "length-128 chain: incremental initial values are {final_speedup:.2}x faster than per-push re-collect"
    );
}
