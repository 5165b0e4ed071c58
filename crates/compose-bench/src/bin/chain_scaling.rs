//! Chain-composition scaling: the workload the incremental
//! [`CompositionSession`] engine exists for.
//!
//! Subnetwork-hierarchy and flux-mode work composes dozens-to-hundreds of
//! subnetworks left-to-right. The paper's pairwise algorithm redoes the
//! whole accumulator every step (clone + index rebuild + content-key
//! recomputation), so an *n*-model chain costs O(n²) accumulator work;
//! the session does each piece once. This binary times both engines on
//! chains of length {2, 8, 32, 128} drawn from the deterministic
//! synthetic corpus and writes `BENCH_chain.json` at the workspace root
//! so every future PR has a perf trajectory to compare against.
//!
//! Run with: `cargo run --release -p compose-bench --bin chain_scaling`
//!
//! [`CompositionSession`]: sbml_compose::session::CompositionSession

use std::fs;
use std::io::Write as _;

use compose_bench::{time_median, workspace_root};
use sbml_compose::{compose_many, compose_many_pairwise, ComposeOptions, Composer};
use sbml_model::Model;

const CHAIN_LENGTHS: [usize; 4] = [2, 8, 32, 128];

struct Row {
    length: usize,
    pairwise_seconds: f64,
    session_seconds: f64,
    merged_components: usize,
    merged_size: usize,
}

fn main() {
    let corpus = biomodels_corpus::corpus_187();
    let composer = Composer::new(ComposeOptions::default());
    println!("chain composition scaling — pairwise fold (seed) vs CompositionSession");
    println!("{:>7} {:>16} {:>16} {:>9} {:>12} {:>10}", "length", "pairwise (s)", "session (s)", "speedup", "components", "size");

    let mut rows = Vec::new();
    for length in CHAIN_LENGTHS {
        // The corpus is in ascending size order and starts with empty
        // models; skip ahead so even the shortest chain has content.
        let chain: Vec<Model> = corpus.iter().skip(30).take(length).cloned().collect();
        // Fewer timing runs for the slow quadratic baseline on long chains.
        let runs = if length >= 32 { 3 } else { 5 };

        let reference = compose_many_pairwise(&composer, &chain);
        let session_result = compose_many(&composer, &chain);
        assert_eq!(
            session_result.model, reference.model,
            "session and pairwise outputs diverged at length {length}"
        );
        assert_eq!(session_result.log.events, reference.log.events);
        assert_eq!(session_result.mappings, reference.mappings);

        let pairwise_seconds = time_median(runs, || {
            std::hint::black_box(compose_many_pairwise(&composer, &chain));
        });
        let session_seconds = time_median(runs, || {
            std::hint::black_box(compose_many(&composer, &chain));
        });

        let row = Row {
            length,
            pairwise_seconds,
            session_seconds,
            merged_components: reference.model.component_count(),
            merged_size: reference.model.size(),
        };
        println!(
            "{:>7} {:>16.6} {:>16.6} {:>8.2}x {:>12} {:>10}",
            row.length,
            row.pairwise_seconds,
            row.session_seconds,
            row.pairwise_seconds / row.session_seconds.max(1e-12),
            row.merged_components,
            row.merged_size,
        );
        rows.push(row);
    }

    let last = rows.last().expect("at least one chain length");
    let final_speedup = last.pairwise_seconds / last.session_seconds.max(1e-12);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        compose_bench::host_parallelism()
    ));
    // Single-threaded measurement; recorded for cross-machine comparability.
    json.push_str("  \"threads\": 1,\n");
    json.push_str("  \"benchmark\": \"chain_scaling\",\n");
    json.push_str("  \"corpus\": \"biomodels_corpus::corpus_187 (deterministic synthetic)\",\n");
    json.push_str("  \"engines\": {\n");
    json.push_str("    \"pairwise\": \"seed compose_many: left fold of Composer::compose, accumulator cloned and re-indexed every step\",\n");
    json.push_str("    \"session\": \"CompositionSession: persistent indexes, cached content keys, zero-clone accumulator\"\n");
    json.push_str("  },\n");
    json.push_str("  \"chains\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"length\": {}, \"pairwise_seconds\": {:.6}, \"session_seconds\": {:.6}, \"speedup\": {:.2}, \"merged_component_count\": {}, \"merged_model_size\": {} }}{}\n",
            row.length,
            row.pairwise_seconds,
            row.session_seconds,
            row.pairwise_seconds / row.session_seconds.max(1e-12),
            row.merged_components,
            row.merged_size,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_at_length_{}\": {:.2}\n",
        last.length, final_speedup
    ));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_chain.json");
    let mut out = fs::File::create(&path).expect("create BENCH_chain.json");
    out.write_all(json.as_bytes()).expect("write BENCH_chain.json");
    println!("\nwrote {}", path.display());
    println!("length-{} chain: session is {final_speedup:.2}x faster than the seed pairwise fold", last.length);
}
