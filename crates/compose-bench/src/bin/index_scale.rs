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

use std::sync::Arc;

use biomodels_corpus::{corpus_scale, query_fragment, scale_model};
use compose_bench::{compare, sample, timed, Json};
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
    let (rounds, append_batch) = if quick { (3, 25) } else { (9, 100) };

    // One preparation pass covers every tier (prefixes) plus the fresh
    // models the append samples consume — preparation cost is identical
    // on both sides of the rebuild-vs-append comparison and is excluded
    // from both.
    let extra = rounds * append_batch;
    let mut models = corpus_scale(top);
    models.extend((top..top + extra).map(scale_model));
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let (prepared, preparing) = timed(|| batch.prepare_corpus(&models));
    assert_eq!(prepared.len(), top + extra, "every scale-tier model survives preparation");
    println!("prepared {} models in {preparing:.2}s", prepared.len());

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

    // --- full rebuild at the top tier (index construction from already
    // prepared models) against incremental append: each round pushes a
    // fresh disjoint batch of `append_batch` prepared models onto the
    // same live index.
    let mut growing = MatchIndex::build_sharded(&prepared[..top], &options, 0, 4);
    let append = compare(
        rounds,
        |_| MatchIndex::build_sharded(&prepared[..top], &options, 0, 4),
        |round| {
            for p in &prepared[top + round * append_batch..top + (round + 1) * append_batch] {
                std::hint::black_box(growing.insert(Arc::clone(p)));
            }
        },
    );
    assert_eq!(growing.len(), top + extra, "every appended model is live");
    drop(growing);
    let append_speedup = append.ratio.median;
    let append_us = append.b.median / append_batch as f64 * 1e6;
    println!("full rebuild ({top} models, 4 shards): {:.4}s", append.a.median);
    println!(
        "incremental append ({append_batch}-model batch): {:.5}s  \
         ({append_us:.1}us/model, {append_speedup:.0}x cheaper than rebuild)",
        append.b.median
    );

    // One sweep of the battery over an index.
    let sweep = |index: &MatchIndex, pq: &[sbml_match::PreparedQuery]| {
        pq.iter().map(|q| index.query_corpus_prepared(q).exact.len()).sum::<usize>()
    };
    let per_query = |seconds: f64| seconds / queries.len() as f64 * 1e6;

    // --- query latency vs corpus size (fixed 4 shards).
    let mut by_models = Json::new();
    for &n in tiers {
        let index = MatchIndex::build_sharded(&prepared[..n], &options, 0, 4);
        let pq: Vec<_> = queries.iter().map(|q| index.prepare_query(q)).collect();
        let us = per_query(sample(rounds, |_| sweep(&index, &pq)).median);
        println!("query latency at {n:>6} models: {us:.2}us/query");
        by_models = by_models.num(&n.to_string(), us);
    }

    // --- query latency vs shard count at the top tier; the gated 8-vs-1
    // pair runs interleaved.
    let sharded = |shards: usize| {
        let index = MatchIndex::build_sharded(&prepared[..top], &options, 0, shards);
        let pq: Vec<_> = queries.iter().map(|q| index.prepare_query(q)).collect();
        (index, pq)
    };
    let ((eight, pq8), (one, pq1)) = (sharded(8), sharded(1));
    let widths = compare(2 * rounds + 1, |_| sweep(&eight, &pq8), |_| sweep(&one, &pq1));
    drop((eight, one));
    let (one_us, eight_us) = (per_query(widths.b.median), per_query(widths.a.median));
    let mut by_shards = Json::new().num("1", one_us);
    for shards in [2, 4] {
        let (index, pq) = sharded(shards);
        let us = per_query(sample(rounds, |_| sweep(&index, &pq)).median);
        println!("query latency at {shards} shard(s), {top} models: {us:.2}us/query");
        by_shards = by_shards.num(&shards.to_string(), us);
    }
    let by_shards = by_shards.num("8", eight_us);
    let shard_ratio = widths.ratio.median;
    println!("query latency at 1 and 8 shard(s), {top} models: {one_us:.2} / {eight_us:.2}us/query");
    println!("8-shard vs 1-shard latency ratio: {shard_ratio:.2} (flat-to-sublinear gate: <= 1.5)");

    if quick {
        println!("(--quick run: BENCH_scale.json not written)");
        return;
    }

    Json::new()
        .str("benchmark", "index_scale")
        .str("corpus", "biomodels_corpus::corpus_scale (size-skewed, 48 shared-motif families); 24 1-hop query fragments")
        .obj(
            "engines",
            Json::new()
                .str("rebuild", "MatchIndex::build_sharded over every prepared model from scratch")
                .str("incremental_append", "MatchIndex::insert per model, fresh disjoint batches onto the live index"),
        )
        .int("models", top)
        .int("queries", queries.len())
        .str("semantics", "heavy")
        .int("append_batch_models", append_batch)
        .compared("append_seconds", "rebuild", "append_batch", &append)
        .num("append_per_model_microseconds", append_us)
        .obj("query_microseconds_by_models", by_models)
        .obj("query_microseconds_by_shards", by_shards)
        .compared("battery_seconds_by_shards", "shards_8", "shards_1", &widths)
        .num("latency_ratio_shards_8_vs_1", shard_ratio)
        .num("speedup_incremental_append", append_speedup)
        .write("scale");
}
