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

use std::fs;
use std::io::Write as _;

use compose_bench::{time_median, workspace_root};
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

struct Row {
    length: usize,
    recollect_seconds: f64,
    incremental_seconds: f64,
    assignments: usize,
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
    for length in CHAIN_LENGTHS {
        let chain: Vec<Model> = (0..length).map(value_heavy_model).collect();
        let runs = if length >= 32 { 3 } else { 5 };

        let reference = compose_many(&recollect, &chain);
        let candidate = compose_many(&incremental, &chain);
        assert_eq!(
            candidate.model, reference.model,
            "incremental and re-collect outputs diverged at length {length}"
        );
        assert_eq!(candidate.log.events, reference.log.events);
        assert_eq!(candidate.mappings, reference.mappings);

        let recollect_seconds = time_median(runs, || {
            std::hint::black_box(compose_many(&recollect, &chain));
        });
        let incremental_seconds = time_median(runs, || {
            std::hint::black_box(compose_many(&incremental, &chain));
        });

        let row = Row {
            length,
            recollect_seconds,
            incremental_seconds,
            assignments: reference.model.initial_assignments.len(),
        };
        println!(
            "{:>7} {:>16.6} {:>16.6} {:>8.2}x {:>12}",
            row.length,
            row.recollect_seconds,
            row.incremental_seconds,
            row.recollect_seconds / row.incremental_seconds.max(1e-12),
            row.assignments,
        );
        rows.push(row);
    }

    let last = rows.last().expect("at least one chain length");
    let final_speedup = last.recollect_seconds / last.incremental_seconds.max(1e-12);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        compose_bench::host_parallelism()
    ));
    // Single-threaded measurement; recorded for cross-machine comparability.
    json.push_str("  \"threads\": 1,\n");
    json.push_str("  \"benchmark\": \"long_chain_values\",\n");
    json.push_str("  \"corpus\": \"deterministic value-heavy chain models (24 chained initial assignments each)\",\n");
    json.push_str("  \"engines\": {\n");
    json.push_str("    \"recollect\": \"CompositionSession with incremental_initial_values=false: initial_values::collect re-run over the whole accumulator before every push\",\n");
    json.push_str("    \"incremental\": \"CompositionSession default: IncrementalValues store seeded once, each push re-evaluates only its dependency closure\"\n");
    json.push_str("  },\n");
    json.push_str("  \"chains\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"length\": {}, \"recollect_seconds\": {:.6}, \"incremental_seconds\": {:.6}, \"speedup\": {:.2}, \"merged_initial_assignments\": {} }}{}\n",
            row.length,
            row.recollect_seconds,
            row.incremental_seconds,
            row.recollect_seconds / row.incremental_seconds.max(1e-12),
            row.assignments,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_incremental_values_at_length_{}\": {:.2}\n",
        last.length, final_speedup
    ));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_values.json");
    let mut out = fs::File::create(&path).expect("create BENCH_values.json");
    out.write_all(json.as_bytes()).expect("write BENCH_values.json");
    println!("\nwrote {}", path.display());
    println!(
        "length-{} chain: incremental initial values are {final_speedup:.2}x faster than per-push re-collect",
        last.length
    );
}
