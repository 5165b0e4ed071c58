//! Snapshot load vs full corpus rebuild, and warm vs cold query latency —
//! the startup- and steady-state costs `sbml-serve` exists to remove.
//!
//! Two ways to get the 187-model Figure 8 corpus ready to answer queries:
//!
//! * **rebuild** — what a one-shot CLI run does every time: parse every
//!   corpus document from SBML text, canonicalise and prepare each model
//!   ([`BatchComposer::prepare_corpus`]), then build the posting-list
//!   [`MatchIndex`] from scratch;
//! * **snapshot load** — [`Snapshot::load_bytes`]: one copy of a
//!   versioned binary image, a checksum pass over it and a decode of the
//!   index skeleton — no re-canonicalisation, no re-analysis, and no
//!   model decoded until a query first needs it.
//!
//! Before any timing, the loaded index is asserted to answer a query
//! battery identically to the freshly built one. The second comparison is
//! per-request steady state: **cold** runs the full indexed query
//! ([`MatchIndex::query_corpus_prepared`]); **warm** replays the daemon's
//! content-key cache hit path ([`QueryCache::get`] on rendered bytes).
//!
//! Each load also reports where its time went
//! ([`sbml_serve::LoadStages`]: checksums, MODELS offset table, LAYOUT,
//! SHARD sections, index assembly); the JSON records every stage's
//! min / median / p95 over the load samples next to `host_parallelism`.
//!
//! Writes `BENCH_serve.json`; `ci.sh` gates `speedup_snapshot_load` at
//! ≥ 10x — if loading a snapshot is not an order of magnitude faster than
//! rebuilding, persistent snapshots have no reason to exist.
//!
//! Run with: `cargo run --release -p compose-bench --bin serve_snapshot`

use std::sync::Arc;

use biomodels_corpus::{corpus_187, query_fragment};
use compose_bench::{compare, stats, Json};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::{parse_sbml, write_sbml};
use sbml_serve::{QueryCache, Snapshot};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let options = ComposeOptions::default();
    let models = corpus_187();
    let n = models.len();

    // The rebuild path starts from SBML text, exactly like a one-shot CLI
    // run over a corpus directory (minus the filesystem reads, which only
    // widen the gap the gate measures).
    let documents: Vec<String> = models.iter().map(write_sbml).collect();
    let rebuild = || {
        let parsed: Vec<_> = documents
            .iter()
            .map(|xml| parse_sbml(xml).expect("corpus documents are well-formed"))
            .collect();
        let batch = BatchComposer::new(Composer::new(options.clone()));
        let prepared = batch.prepare_corpus(&parsed);
        let index = MatchIndex::build(&prepared, &options);
        (prepared, index)
    };

    let (_prepared, index) = rebuild();
    let bytes = Snapshot::encode(&index, &options);

    // One connected 1-hop fragment per eighth corpus model (skipping the
    // species-free models at the bottom of the size ramp).
    let queries: Vec<_> = (0..n)
        .step_by(8)
        .map(|i| query_fragment(&models[i], i, 1))
        .filter(|q| !q.species.is_empty())
        .collect();

    // Correctness first: the loaded snapshot must answer the battery
    // identically to the index it was encoded from.
    let loaded = Snapshot::load_bytes(&bytes, &options, 0).expect("snapshot loads");
    assert_eq!(loaded.index.posting_stats(), index.posting_stats());
    for (qi, query) in queries.iter().enumerate() {
        assert_eq!(
            index.query_corpus(query).exact,
            loaded.index.query_corpus(query).exact,
            "loaded snapshot diverges on query {qi}"
        );
    }
    println!(
        "snapshot fidelity verified: {n} models, {} queries, {} snapshot bytes",
        queries.len(),
        bytes.len()
    );

    // Both sides are timed in alternating rounds, each with its result
    // dropped outside the clock (tearing down a 187-model corpus costs
    // milliseconds of its own); even rounds rebuild first, so a load
    // follows a fresh corpus teardown in half the rounds and precedes it
    // in the other half (on a 2-vCPU host the former were not slower).
    let rounds = if quick { 3 } else { 9 };
    let mut stage_samples = Vec::new();
    let load = |_| {
        let loaded = Snapshot::load_bytes(&bytes, &options, 0).expect("snapshot loads");
        stage_samples.push(loaded.stages);
        loaded
    };
    let builds = compare(rounds, |_| rebuild(), load);
    let load_speedup = builds.ratio.median;
    println!("full rebuild (parse + prepare + index): {:.4}s", builds.a.median);
    println!(
        "snapshot load:                          {:.4}s  ({load_speedup:.1}x)",
        builds.b.median
    );
    let stage_names = ["checksums", "models", "layout", "shards", "index"];
    let mut stage_json = Json::new();
    for (k, name) in stage_names.iter().enumerate() {
        let series: Vec<f64> = stage_samples
            .iter()
            .map(|s| [s.checksums_s, s.models_s, s.layout_s, s.shards_s, s.index_s][k])
            .collect();
        let s = stats(&series);
        println!(
            "  load stage {name:<9}  min {:.4}s  median {:.4}s  p95 {:.4}s",
            s.min, s.median, s.p95
        );
        stage_json = stage_json.spread(name, &s);
    }

    // Steady state. Cold: the full indexed query per request. Warm: the
    // daemon's cache hit path — a content-key lookup returning the bytes
    // rendered on the first answer.
    let prepared_queries: Vec<_> = queries.iter().map(|q| loaded.index.prepare_query(q)).collect();
    let reps = if quick { 8 } else { 32 };
    let mut cache = QueryCache::new(queries.len().max(1));
    for (qi, query) in queries.iter().enumerate() {
        let rendered = format!("{:?}", loaded.index.query_corpus(query).exact);
        cache.put(format!("match\n{qi}"), Arc::from(rendered.into_bytes().into_boxed_slice()));
    }
    let keys: Vec<String> = (0..queries.len()).map(|qi| format!("match\n{qi}")).collect();
    let queries_cold = compare(
        rounds,
        |_| {
            let mut acc = 0usize;
            for _ in 0..reps {
                for q in &prepared_queries {
                    acc += loaded.index.query_corpus_prepared(q).exact.len();
                }
            }
            acc
        },
        |_| {
            let mut acc = 0usize;
            for _ in 0..reps {
                for key in &keys {
                    acc += cache.get(key).expect("warm cache holds every query").len();
                }
            }
            acc
        },
    );
    let per_query = |total_s: f64| total_s / (reps * queries.len()) as f64 * 1e6;
    let (cold_us, warm_us) = (per_query(queries_cold.a.median), per_query(queries_cold.b.median));
    let warm_speedup = queries_cold.ratio.median;
    println!("cold query (full indexed search): {cold_us:.2}us/query");
    println!("warm query (cache hit path):      {warm_us:.2}us/query  ({warm_speedup:.1}x)");

    if quick {
        println!("(--quick run: BENCH_serve.json not written)");
        return;
    }

    let (node_keys, edge_keys, participant_keys) = loaded.index.posting_stats();
    Json::new()
        .str("benchmark", "serve_snapshot")
        .str("corpus", "biomodels_corpus::corpus_187 (fig8 ramp); one 1-hop query fragment per eighth model")
        .obj(
            "engines",
            Json::new()
                .str("rebuild", "parse every SBML document, prepare the corpus, build the match index from scratch")
                .str("snapshot_load", "copy a versioned binary snapshot into one checksummed image, decode the index skeleton; models decode on first touch"),
        )
        .int("models", n)
        .int("queries", queries.len())
        .str("semantics", "heavy")
        .int("snapshot_bytes", bytes.len())
        .int("posting_node_keys", node_keys)
        .int("posting_edge_keys", edge_keys)
        .int("posting_participant_keys", participant_keys)
        .compared("build_seconds", "rebuild", "snapshot_load", &builds)
        .obj("load_stage_seconds", stage_json)
        .compared("query_seconds_per_sweep", "cold", "warm", &queries_cold)
        .num("cold_query_microseconds", cold_us)
        .num("warm_query_microseconds", warm_us)
        .num("speedup_warm_cache", warm_speedup)
        .int("threads", 0)
        .num("speedup_snapshot_load", load_speedup)
        .write("serve");
}
