//! Index construction and query latency at the 10k-model **scale tier** —
//! the costs the incremental, sharded [`MatchIndex`] exists to control.
//!
//! Three questions, all on [`biomodels_corpus::corpus_scale`] (size-skewed,
//! 48 shared-motif families, deterministic per model):
//!
//! * **incremental append vs full rebuild** — a daemon absorbing an
//!   `UPSERT` batch calls [`MatchIndex::insert`] per model; the
//!   alternative is rebuilding the whole index. At the 10k tier, how much
//!   cheaper is appending a 100-model batch than a from-scratch
//!   [`MatchIndex::build_sharded`] over all 10 000 prepared models?
//!   Appends are sampled as *fresh disjoint batches onto the same growing
//!   index* (`scale_model(i)` is independent of corpus size), so each
//!   sample is the true steady-state marginal cost — no index clone, no
//!   allocator warm-up asymmetry.
//! * **query latency vs corpus size** — the same 24-query battery against
//!   1k/2.5k/5k/10k-model indexes: candidate generation must grow with
//!   posting-list hits, not with corpus size.
//! * **query latency vs shard count** — the 10k index partitioned into
//!   1/2/4/8 shards, queried through the same scatter-gather path. Before
//!   timing, every shard count is asserted to return bit-identical exact
//!   hits; the gate then demands latency stays flat-to-sublinear as the
//!   shard count grows (fan-out overhead must not eat the partitioning).
//!
//! Writes `BENCH_scale.json`; `ci.sh` gates `speedup_incremental_append`
//! at ≥ 10x and `latency_ratio_shards_8_vs_1` at ≤ 1.5.
//!
//! Run with: `cargo run --release -p compose-bench --bin index_scale`
//! (`--quick` shrinks every tier and skips the JSON).

use std::fs;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use biomodels_corpus::{corpus_scale, query_fragment, scale_model};
use compose_bench::{best, host_parallelism, time_median, workspace_root};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::Model;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let options = ComposeOptions::default();

    // Corpus-size ramp; the last tier is where the gates measure.
    let tiers: &[usize] = if quick { &[250, 500, 1000] } else { &[1000, 2500, 5000, 10_000] };
    let top = *tiers.last().expect("tier list is non-empty");
    let shard_counts = [1usize, 2, 4, 8];
    let (runs, append_batch) = if quick { (3, 25) } else { (5, 100) };

    // One preparation pass covers every tier (prefixes) plus the fresh
    // models the append samples consume — preparation cost is identical
    // on both sides of the rebuild-vs-append comparison and is excluded
    // from both.
    let extra = runs * append_batch;
    let t0 = Instant::now();
    let mut models = corpus_scale(top);
    models.extend((top..top + extra).map(scale_model));
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    assert_eq!(prepared.len(), top + extra, "every scale-tier model survives preparation");
    println!("prepared {} models in {:.2}s", prepared.len(), t0.elapsed().as_secs_f64());

    // 24 connected 1-hop fragments spread across the motif families.
    let queries: Vec<Model> = (0..24)
        .map(|qi| {
            let i = qi * (top / 24).max(1);
            query_fragment(&models[i], i, 1)
        })
        .filter(|q| !q.species.is_empty())
        .collect();

    // --- correctness before any timing: every shard count answers the
    // battery identically at the top tier.
    let reference = MatchIndex::build_sharded(&prepared[..top], &options, 0, 1);
    let baseline: Vec<_> = queries.iter().map(|q| reference.query_corpus(q).exact).collect();
    assert!(
        baseline.iter().any(|hits| !hits.is_empty()),
        "the battery must exercise real posting collisions"
    );
    for &shards in &shard_counts[1..] {
        let index = MatchIndex::build_sharded(&prepared[..top], &options, 0, shards);
        for (qi, query) in queries.iter().enumerate() {
            assert_eq!(
                index.query_corpus(query).exact,
                baseline[qi],
                "query {qi}: {shards}-shard answers diverge from the single shard"
            );
        }
    }
    println!("scatter-gather fidelity verified: {} queries x {:?} shards", queries.len(), shard_counts);

    // --- full rebuild at the top tier: index construction from already
    // prepared models, min-of-N (the standard uncontended-cost estimator
    // on shared CI hosts), applied symmetrically to both sides.
    let rebuild_s = best(
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                let index = MatchIndex::build_sharded(&prepared[..top], &options, 0, 4);
                let elapsed = start.elapsed().as_secs_f64();
                drop(std::hint::black_box(index));
                elapsed
            })
            .collect(),
    );

    // --- incremental append: each sample pushes a fresh disjoint batch
    // of `append_batch` prepared models onto the same live index.
    let mut growing = MatchIndex::build_sharded(&prepared[..top], &options, 0, 4);
    let append_s = best(
        (0..runs)
            .map(|run| {
                let batch = &prepared[top + run * append_batch..top + (run + 1) * append_batch];
                let start = Instant::now();
                for p in batch {
                    std::hint::black_box(growing.insert(Arc::clone(p)));
                }
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    assert_eq!(growing.len(), top + extra, "every appended model is live");
    let append_speedup = rebuild_s / append_s.max(1e-12);
    let append_us = append_s / append_batch as f64 * 1e6;
    println!("full rebuild ({top} models, 4 shards): {rebuild_s:.4}s");
    println!(
        "incremental append ({append_batch}-model batch): {append_s:.5}s  \
         ({append_us:.1}us/model, {append_speedup:.0}x cheaper than rebuild)"
    );

    // --- query latency vs corpus size (fixed 4 shards).
    let mut by_models: Vec<(usize, f64)> = Vec::new();
    for &n in tiers {
        let index = MatchIndex::build_sharded(&prepared[..n], &options, 0, 4);
        let pq: Vec<_> = queries.iter().map(|q| index.prepare_query(q)).collect();
        let total = time_median(runs, || {
            let mut acc = 0usize;
            for q in &pq {
                acc += index.query_corpus_prepared(q).exact.len();
            }
            std::hint::black_box(acc);
        });
        let us = total / queries.len() as f64 * 1e6;
        println!("query latency at {n:>6} models: {us:.2}us/query");
        by_models.push((n, us));
    }

    // --- query latency vs shard count at the top tier.
    let mut by_shards: Vec<(usize, f64)> = Vec::new();
    for &shards in &shard_counts {
        let index = MatchIndex::build_sharded(&prepared[..top], &options, 0, shards);
        let pq: Vec<_> = queries.iter().map(|q| index.prepare_query(q)).collect();
        let total = time_median(runs, || {
            let mut acc = 0usize;
            for q in &pq {
                acc += index.query_corpus_prepared(q).exact.len();
            }
            std::hint::black_box(acc);
        });
        let us = total / queries.len() as f64 * 1e6;
        println!("query latency at {shards} shard(s), {top} models: {us:.2}us/query");
        by_shards.push((shards, us));
    }
    let shard_ratio = by_shards.last().expect("shard tiers ran").1
        / by_shards.first().expect("shard tiers ran").1.max(1e-12);
    println!("8-shard vs 1-shard latency ratio: {shard_ratio:.2} (flat-to-sublinear gate: <= 1.5)");

    if quick {
        println!("(--quick run: BENCH_scale.json not written)");
        return;
    }

    let series = |pairs: &[(usize, f64)]| {
        pairs
            .iter()
            .map(|(k, us)| format!("    \"{k}\": {us:.3}"))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"index_scale\",\n");
    json.push_str(
        "  \"corpus\": \"biomodels_corpus::corpus_scale (size-skewed, 48 shared-motif families); 24 1-hop query fragments\",\n",
    );
    json.push_str("  \"engines\": {\n");
    json.push_str(
        "    \"rebuild\": \"MatchIndex::build_sharded over every prepared model from scratch\",\n",
    );
    json.push_str(
        "    \"incremental_append\": \"MatchIndex::insert per model, fresh disjoint batches onto the live index\"\n",
    );
    json.push_str("  },\n");
    json.push_str(&format!("  \"models\": {top},\n"));
    json.push_str(&format!("  \"queries\": {},\n", queries.len()));
    json.push_str("  \"semantics\": \"heavy\",\n");
    json.push_str(&format!("  \"append_batch_models\": {append_batch},\n"));
    json.push_str(&format!("  \"rebuild_seconds\": {rebuild_s:.6},\n"));
    json.push_str(&format!("  \"append_batch_seconds\": {append_s:.6},\n"));
    json.push_str(&format!("  \"append_per_model_microseconds\": {append_us:.3},\n"));
    json.push_str("  \"query_microseconds_by_models\": {\n");
    json.push_str(&series(&by_models));
    json.push_str("\n  },\n");
    json.push_str("  \"query_microseconds_by_shards\": {\n");
    json.push_str(&series(&by_shards));
    json.push_str("\n  },\n");
    json.push_str(&format!("  \"latency_ratio_shards_8_vs_1\": {shard_ratio:.3},\n"));
    json.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    json.push_str(&format!("  \"speedup_incremental_append\": {append_speedup:.2}\n"));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_scale.json");
    let mut out = fs::File::create(&path).expect("create BENCH_scale.json");
    out.write_all(json.as_bytes()).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
}
