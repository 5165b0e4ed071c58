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

use compose_bench::{compare, Json};
use sbml_compose::{compose_many, compose_many_pairwise, ComposeOptions, Composer};
use sbml_model::Model;

const CHAIN_LENGTHS: [usize; 4] = [2, 8, 32, 128];

fn main() {
    let corpus = biomodels_corpus::corpus_187();
    let composer = Composer::new(ComposeOptions::default());
    println!("chain composition scaling — pairwise fold (seed) vs CompositionSession");
    println!("{:>7} {:>16} {:>16} {:>9} {:>12} {:>10}", "length", "pairwise (s)", "session (s)", "speedup", "components", "size");

    let mut rows = Vec::new();
    let mut final_speedup = 0.0;
    for length in CHAIN_LENGTHS {
        // The corpus is in ascending size order and starts with empty
        // models; skip ahead so even the shortest chain has content.
        let chain: Vec<Model> = corpus.iter().skip(30).take(length).cloned().collect();
        // Fewer timing rounds for the slow quadratic baseline on long chains.
        let rounds = if length >= 32 { 5 } else { 7 };

        let reference = compose_many_pairwise(&composer, &chain);
        let session_result = compose_many(&composer, &chain);
        assert_eq!(
            session_result.model, reference.model,
            "session and pairwise outputs diverged at length {length}"
        );
        assert_eq!(session_result.log.events, reference.log.events);
        assert_eq!(session_result.mappings, reference.mappings);

        let c = compare(
            rounds,
            |_| compose_many_pairwise(&composer, &chain),
            |_| compose_many(&composer, &chain),
        );
        final_speedup = c.ratio.median;
        let (components, size) = (reference.model.component_count(), reference.model.size());
        println!(
            "{length:>7} {:>16.6} {:>16.6} {final_speedup:>8.2}x {components:>12} {size:>10}",
            c.a.median, c.b.median,
        );
        rows.push(
            Json::new()
                .int("length", length)
                .num("speedup", final_speedup)
                .int("merged_component_count", components)
                .int("merged_model_size", size)
                .compared("seconds", "pairwise", "session", &c),
        );
    }

    Json::new()
        // Single-threaded measurement; recorded for cross-machine comparability.
        .int("threads", 1)
        .str("benchmark", "chain_scaling")
        .str("corpus", "biomodels_corpus::corpus_187 (deterministic synthetic)")
        .obj(
            "engines",
            Json::new()
                .str("pairwise", "seed compose_many: left fold of Composer::compose, accumulator cloned and re-indexed every step")
                .str("session", "CompositionSession: persistent indexes, cached content keys, zero-clone accumulator"),
        )
        .rows("chains", rows)
        .num("speedup_at_length_128", final_speedup)
        .write("chain");
    println!("length-128 chain: session is {final_speedup:.2}x faster than the seed pairwise fold");
}
