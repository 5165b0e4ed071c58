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

use std::fs;
use std::io::Write as _;

use biomodels_corpus::{corpus_187, query_fragment};
use compose_bench::{host_parallelism, time_median, workspace_root};
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
    let runs = if quick { 3 } else { 5 };
    let naive_s = time_median(runs, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            for q in &prepared_queries {
                acc += index.naive_hits_prepared(q).len();
            }
        }
        std::hint::black_box(acc);
    });
    let candgen_s = time_median(runs, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            for q in &prepared_queries {
                acc += index.candidates_prepared(q).len();
            }
        }
        std::hint::black_box(acc);
    });
    let query_s = time_median(runs, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            for q in &prepared_queries {
                acc += index.query_corpus_prepared(q).exact.len();
            }
        }
        std::hint::black_box(acc);
    });
    let threaded_index = build_index(&models, &options, 0);
    let query_threaded_s = time_median(runs, || {
        let mut acc = 0usize;
        for _ in 0..reps {
            for q in &prepared_queries {
                acc += threaded_index.query_corpus_prepared(q).exact.len();
            }
        }
        std::hint::black_box(acc);
    });

    let candgen_speedup = naive_s / candgen_s.max(1e-12);
    let query_speedup = naive_s / query_s.max(1e-12);
    println!("naive per-model VF2:      {naive_s:.4}s");
    println!("candidate generation:     {candgen_s:.4}s  ({candgen_speedup:.1}x vs naive)");
    println!("indexed query (1 thread): {query_s:.4}s  ({query_speedup:.1}x vs naive)");
    println!("indexed query (threads):  {query_threaded_s:.4}s");

    if quick {
        println!("(--quick run: BENCH_match.json not written)");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"corpus_match\",\n");
    json.push_str(
        "  \"corpus\": \"biomodels_corpus::corpus_187 (fig8 ramp); one 1-hop query fragment per fourth model\",\n",
    );
    json.push_str("  \"engines\": {\n");
    json.push_str(
        "    \"naive\": \"VF2 subgraph search against every corpus model, no pruning\",\n",
    );
    json.push_str(
        "    \"indexed\": \"posting-list intersection (node keys + edge keys) to candidates, then VF2 on survivors only\"\n",
    );
    json.push_str("  },\n");
    json.push_str(&format!("  \"models\": {n},\n"));
    json.push_str(&format!("  \"queries\": {},\n", queries.len()));
    json.push_str(&format!("  \"semantics\": \"heavy\",\n"));
    json.push_str(&format!("  \"posting_node_keys\": {node_keys},\n"));
    json.push_str(&format!("  \"posting_edge_keys\": {edge_keys},\n"));
    json.push_str(&format!("  \"posting_participant_keys\": {participant_keys},\n"));
    json.push_str(&format!("  \"candidates_total\": {candidate_total},\n"));
    json.push_str(&format!(
        "  \"candidates_mean\": {:.2},\n",
        candidate_total as f64 / queries.len() as f64
    ));
    json.push_str(&format!("  \"exact_hits_total\": {hit_total},\n"));
    json.push_str("  \"threads\": 1,\n");
    json.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    json.push_str(&format!("  \"naive_seconds\": {naive_s:.6},\n"));
    json.push_str(&format!("  \"candidate_generation_seconds\": {candgen_s:.6},\n"));
    json.push_str(&format!("  \"indexed_query_seconds\": {query_s:.6},\n"));
    json.push_str(&format!(
        "  \"indexed_query_threaded_seconds\": {query_threaded_s:.6},\n"
    ));
    json.push_str(&format!("  \"speedup_query_vs_naive\": {query_speedup:.2},\n"));
    json.push_str(&format!("  \"speedup_candidate_generation\": {candgen_speedup:.2}\n"));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_match.json");
    let mut out = fs::File::create(&path).expect("create BENCH_match.json");
    out.write_all(json.as_bytes()).expect("write BENCH_match.json");
    println!("wrote {}", path.display());
}
