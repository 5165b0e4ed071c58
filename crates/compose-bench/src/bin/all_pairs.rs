//! Figure 8 at batch scale: the all-pairs composition of the 187-model
//! corpus, run the way the seed API forces it (every pair re-derives both
//! models' analysis from scratch) versus the prepared-model API (each
//! model analysed once, the preparation shared — `Arc` — across all of
//! its 186 pairs, optionally fanned out over worker threads).
//!
//! The two serial engines are timed **interleaved by corpus row** (row
//! `i` = pairs `(i, i+1..n)`): each row is measured for both engines,
//! first one then the other, so slow machine-speed drift over the
//! minutes-long run hits both engines equally instead of whichever ran
//! second. The gated speedups divide side totals summed over rows (and,
//! for the fixed cost, over base sizes).
//!
//! Two further series ride along: all-pairs wall time at explicit worker
//! counts (thread scaling), and the per-pair *fixed cost* — a tiny
//! duplicate-only push against growing bases, timing eager clone-on-adopt
//! (`compose_prepared`) against copy-on-write adoption (`compose_shared`)
//! on scenarios generated by `compose_bench::oracle`, the same generators
//! the differential harness proves bit-identical.
//!
//! Writes `BENCH_fig8.json` at the workspace root; `ci.sh` gates on the
//! recorded prepared-reuse and fixed-cost speedups. Run with:
//! `cargo run --release -p compose-bench --bin all_pairs [--quick]`
//! (`--quick` restricts the corpus to the first 60 models for a smoke
//! run — the JSON is only written for the full corpus).

use std::sync::Arc;

use compose_bench::{compare, oracle, timed, Json};
use sbml_compose::{BatchComposer, ComposeOptions, Composer, SharedModel};
use sbml_model::Model;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let corpus: Vec<Model> =
        if quick { biomodels_corpus::corpus_slice(0..60) } else { biomodels_corpus::corpus_187() };
    let n = corpus.len();
    let pair_count = n * (n - 1) / 2;
    let composer = Composer::new(ComposeOptions::default());
    println!("all-pairs composition — {n} models, {pair_count} unordered pairs");

    // Prepared once, shared across every pair (and charged to the
    // prepared engine's wall time below).
    let serial = BatchComposer::new(composer.clone()).with_threads(1);
    let (prepared, prepare_seconds) = timed(|| serial.prepare_corpus(&corpus));

    // Row-interleaved serial comparison: baseline (per-pair recompute,
    // the seed behaviour) vs prepared reuse over identical pair rows.
    let mut baseline_components = 0usize;
    let mut prepared_components = 0usize;
    let rows = compare(
        n,
        |i| {
            for j in i + 1..n {
                baseline_components += composer.compose(&corpus[i], &corpus[j]).model.component_count();
            }
        },
        |i| {
            for j in i + 1..n {
                let result = composer.compose_prepared(&prepared[i], &prepared[j]);
                prepared_components += result.model.component_count();
            }
        },
    );
    let baseline_seconds = rows.a.total;
    let prepared_seconds = rows.b.total + prepare_seconds;
    println!("  per-pair recompute (seed) : {baseline_seconds:>9.3}s");
    println!(
        "  prepared, shared, serial  : {prepared_seconds:>9.3}s  (of which prepare: {prepare_seconds:.3}s)"
    );

    // The same workload through BatchComposer's thread-per-shard fan-out
    // (auto thread count); on a single-core host this tracks the serial
    // number, on multi-core hosts it divides by the worker count.
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let fanned = BatchComposer::new(composer.clone());
    let ((prepared_threaded, batch_components), threaded_seconds) = timed(|| {
        let prepared = fanned.prepare_corpus(&corpus);
        let components: usize = fanned.all_pairs(&prepared).iter().map(|s| s.components).sum();
        (prepared, components)
    });
    println!("  BatchComposer, {threads} worker(s): {threaded_seconds:>9.3}s");

    // The engines must agree: identical per-pair component totals between
    // baseline, serial prepared and the batch fan-out.
    assert_eq!(
        baseline_components, prepared_components,
        "prepared all-pairs diverged from the per-pair recompute baseline"
    );
    assert_eq!(baseline_components, batch_components, "batch fan-out diverged");

    // All-pairs thread scaling: the same COW batch engine at explicit
    // worker counts. On a single-core host the series is flat (the JSON
    // records host_parallelism so readers can tell); on multi-core hosts
    // it should track 1/threads.
    let mut scaling = Vec::new();
    let mut serial_secs = 0.0;
    for t in [1usize, 2, 4, 8] {
        if t > threads.max(4) {
            break;
        }
        let batch = BatchComposer::new(composer.clone()).with_threads(t);
        let (comps, secs) = timed(|| {
            batch.all_pairs(&prepared_threaded).iter().map(|s| s.components).sum::<usize>()
        });
        assert_eq!(baseline_components, comps, "thread-scaling run diverged at {t} threads");
        println!("  all-pairs at {t} explicit worker(s): {secs:>9.3}s");
        if t == 1 {
            serial_secs = secs;
        }
        scaling.push(
            Json::new()
                .int("threads", t)
                .num("seconds", secs)
                .num("speedup_vs_serial", serial_secs / secs.max(1e-12)),
        );
    }

    // Per-pair fixed cost: a tiny duplicate-only push against bases of
    // growing size. The merge work is constant (and fully absorbed), so
    // what remains is the cost of adopting the base — a full model+index
    // clone on the eager path, nothing on the copy-on-write path. The
    // scenario generators are `compose_bench::oracle`'s, i.e. exactly the
    // workload the differential harness proves bit-identical.
    let fixed_reps = if quick { 3 } else { 10 };
    let mut fixed_series = Vec::new();
    let mut fixed_clone_seconds = 0.0f64;
    let mut fixed_cow_seconds = 0.0f64;
    for size in [16usize, 64, 256] {
        let base = Arc::new(composer.prepare(&oracle::base_model(size)));
        let dup = composer.prepare(&oracle::duplicate_push(4));
        let clone_result = composer.compose_prepared(&base, &dup);
        let cow_result = composer.compose_shared(Arc::clone(&base), &dup);
        assert!(
            matches!(cow_result.model, SharedModel::Base(_)),
            "duplicate-only pair must not materialise"
        );
        assert_eq!(
            clone_result.model.component_count(),
            cow_result.model.as_model().component_count(),
            "fixed-cost engines diverged at size {size}"
        );
        let c = compare(
            fixed_reps,
            |_| composer.compose_prepared(&base, &dup),
            |_| composer.compose_shared(Arc::clone(&base), &dup),
        );
        let (clone_s, cow_s) = (c.a.total, c.b.total);
        let reps = fixed_reps as f64;
        println!(
            "  fixed cost, base size {size:>3}: clone {:>9.1}us/pair, cow {:>9.1}us/pair",
            clone_s / reps * 1e6,
            cow_s / reps * 1e6
        );
        fixed_series.push(
            Json::new()
                .int("base_reactions", size)
                .num("clone_adopt_seconds_per_pair", clone_s / reps)
                .num("cow_adopt_seconds_per_pair", cow_s / reps)
                .spread("ratio", &c.ratio),
        );
        fixed_clone_seconds += clone_s;
        fixed_cow_seconds += cow_s;
    }
    let fixed_speedup = fixed_clone_seconds / fixed_cow_seconds.max(1e-12);
    println!("  fixed-cost speedup (copy-on-write adoption): {fixed_speedup:.2}x");

    let reuse_speedup = baseline_seconds / prepared_seconds.max(1e-12);
    let threaded_speedup = baseline_seconds / threaded_seconds.max(1e-12);
    println!(
        "  speedup: {reuse_speedup:.2}x from prepared reuse, {threaded_speedup:.2}x with fan-out"
    );

    if quick {
        println!("(--quick run: BENCH_fig8.json not written)");
        return;
    }

    Json::new()
        .str("benchmark", "fig8_all_pairs")
        .str("corpus", "biomodels_corpus::corpus_187 (deterministic synthetic)")
        .int("models", n)
        .int("pairs", pair_count)
        .obj(
            "engines",
            Json::new()
                .str("baseline", "Composer::compose per pair: both models' keys, indexes and initial values re-derived for every pair (seed behaviour)")
                .str("prepared", "Composer::compose_prepared over Arc<PreparedModel>: each model analysed once, preparation shared across all of its pairs (timed row-interleaved with the baseline)")
                .str("batch", "BatchComposer::all_pairs: same prepared engine behind the thread-per-shard fan-out")
                .str("fixed_cost", "tiny duplicate-only push vs growing bases (compose_bench::oracle generators): eager clone-on-adopt (compose_prepared) vs copy-on-write adoption (compose_shared), order-alternated per rep"),
        )
        .num("baseline_seconds", baseline_seconds)
        .num("prepare_seconds", prepare_seconds)
        .num("prepared_seconds", prepared_seconds)
        .num("batch_threaded_seconds", threaded_seconds)
        .int("threads", threads)
        .num("speedup_threaded", threaded_speedup)
        .num("speedup_prepared_reuse", reuse_speedup)
        .rows("thread_scaling", scaling)
        .int("fixed_cost_reps_per_size", fixed_reps)
        .rows("fixed_cost_series", fixed_series)
        .num("fixed_cost_clone_seconds", fixed_clone_seconds)
        .num("fixed_cost_cow_seconds", fixed_cow_seconds)
        .num("speedup_fixed_cost", fixed_speedup)
        .write("fig8");
}
