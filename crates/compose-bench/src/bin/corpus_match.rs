//! Corpus matching: indexed candidate generation vs naïve per-model VF2
//! over the 187-model Figure 8 corpus.
//!
//! The workload is the corpus-search question the matching subsystem
//! exists for: "which corpus models contain this pathway fragment?" for a
//! deterministic battery of query fragments
//! ([`biomodels_corpus::query_fragment`], one per fourth corpus model).
//! Two engines answer it:
//!
//! * **naïve** — [`MatchIndex::naive_hits`]: run the VF2 refiner against
//!   every one of the 187 models, no pruning (the per-model subgraph
//!   search a system without an index would do);
//! * **indexed** — posting-list candidate generation
//!   ([`MatchIndex::candidates`]: intersect the node-key and edge-key
//!   postings) followed by VF2 refinement of the survivors only
//!   ([`MatchIndex::query_corpus`], pinned to one thread so the gate
//!   measures the index, not the fan-out).
//!
//! Before any timing, the indexed exact hit set is asserted equal to the
//! naïve hit set for **every query under every semantics level** — the
//! acceptance property of the subsystem. Writes `BENCH_match.json` with
//! corpus size, query count, per-query candidate statistics, thread
//! configuration and host parallelism; `ci.sh` gates
//! `speedup_candidate_generation` (pure candidate generation vs the full
//! naïve scan) at ≥ 5x and the end-to-end `speedup_query_vs_naive` is
//! reported alongside.
//!
//! Run with: `cargo run --release -p compose-bench --bin corpus_match`

use biomodels_corpus::{corpus_187, query_fragment};
use compose_bench::{compare, sample, Json};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::Model;

fn build_index(models: &[Model], options: &ComposeOptions, threads: usize) -> MatchIndex {
    let batch = BatchComposer::new(Composer::new(options.clone())).with_threads(threads);
    MatchIndex::build_with_threads(&batch.prepare_corpus(models), options, threads)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let models = corpus_187();
    let n = models.len();

    // One connected 1-hop fragment per fourth corpus model (skipping the
    // species-free models at the bottom of the size ramp).
    let queries: Vec<Model> = (0..n)
        .step_by(4)
        .map(|i| query_fragment(&models[i], i, 1))
        .filter(|q| !q.species.is_empty())
        .collect();

    // Correctness first: indexed exact hits ≡ naïve hits for every query
    // under every semantics level (the subsystem's acceptance property).
    for options in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()] {
        let index = build_index(&models, &options, 0);
        for (qi, query) in queries.iter().enumerate() {
            let naive = index.naive_hits(query);
            let exact: Vec<usize> =
                index.query_corpus(query).exact.iter().map(|h| h.model).collect();
            assert_eq!(
                exact, naive,
                "hit-set divergence on query {qi} under {:?}",
                options.semantics
            );
            let candidates = index.candidates(query);
            assert!(
                naive.iter().all(|h| candidates.contains(h)),
                "candidate pruning dropped a hit on query {qi} under {:?}",
                options.semantics
            );
        }
    }
    println!("hit-set equivalence verified: {} queries x 3 semantics levels", queries.len());

    // Timing runs under the default (heavy) semantics, single-threaded so
    // the gate isolates the index from the fan-out. Queries are prepared
    // once up front ([`MatchIndex::prepare_query`]) — both engines consume
    // the identical prepared artefact, so the comparison is pure
    // scan-vs-index.
    let options = ComposeOptions::default();
    let index = build_index(&models, &options, 1);
    let prepared_queries: Vec<_> = queries.iter().map(|q| index.prepare_query(q)).collect();
    let (node_keys, edge_keys, participant_keys) = index.posting_stats();
    let candidate_total: usize =
        prepared_queries.iter().map(|q| index.candidates_prepared(q).len()).sum();
    let hit_total: usize =
        prepared_queries.iter().map(|q| index.naive_hits_prepared(q).len()).sum();
    println!(
        "corpus {n} models; {} queries; postings: {node_keys} node keys, {edge_keys} edge keys, \
         {participant_keys} participant keys; {candidate_total} candidates, {hit_total} hits",
        queries.len()
    );

    // Each timed sample sweeps the whole query battery REPS times so the
    // sample is milliseconds, not timer noise; REPS cancels out of every
    // reported speedup.
    let reps = if quick { 8 } else { 32 };
    let rounds = if quick { 3 } else { 9 };
    let sweep = |f: &dyn Fn(&sbml_match::PreparedQuery) -> usize| {
        let mut acc = 0usize;
        for _ in 0..reps {
            for q in &prepared_queries {
                acc += f(q);
            }
        }
        acc
    };
    let naive = |_: usize| sweep(&|q| index.naive_hits_prepared(q).len());
    let candgen = compare(rounds, naive, |_| sweep(&|q| index.candidates_prepared(q).len()));
    let query = compare(rounds, naive, |_| sweep(&|q| index.query_corpus_prepared(q).exact.len()));
    let threaded_index = build_index(&models, &options, 0);
    let threaded =
        sample(rounds, |_| sweep(&|q| threaded_index.query_corpus_prepared(q).exact.len()));

    let (candgen_speedup, query_speedup) = (candgen.ratio.median, query.ratio.median);
    println!("naive per-model VF2:      {:.4}s", candgen.a.median);
    println!("candidate generation:     {:.4}s  ({candgen_speedup:.1}x vs naive)", candgen.b.median);
    println!("indexed query (1 thread): {:.4}s  ({query_speedup:.1}x vs naive)", query.b.median);
    println!("indexed query (threads):  {:.4}s", threaded.median);

    if quick {
        println!("(--quick run: BENCH_match.json not written)");
        return;
    }

    Json::new()
        .str("benchmark", "corpus_match")
        .str("corpus", "biomodels_corpus::corpus_187 (fig8 ramp); one 1-hop query fragment per fourth model")
        .obj(
            "engines",
            Json::new()
                .str("naive", "VF2 subgraph search against every corpus model, no pruning")
                .str("indexed", "posting-list intersection (node keys + edge keys) to candidates, then VF2 on survivors only"),
        )
        .int("models", n)
        .int("queries", queries.len())
        .int("sweeps_per_sample", reps)
        .str("semantics", "heavy")
        .int("posting_node_keys", node_keys)
        .int("posting_edge_keys", edge_keys)
        .int("posting_participant_keys", participant_keys)
        .int("candidates_total", candidate_total)
        .num("candidates_mean", candidate_total as f64 / queries.len() as f64)
        .int("exact_hits_total", hit_total)
        .int("threads", 1)
        .compared("candidate_generation_seconds", "naive", "candidates", &candgen)
        .compared("indexed_query_seconds", "naive", "query", &query)
        .spread("indexed_query_threaded_seconds", &threaded)
        .num("speedup_query_vs_naive", query_speedup)
        .num("speedup_candidate_generation", candgen_speedup)
        .write("match");
}
