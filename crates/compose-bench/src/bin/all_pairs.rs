//! Figure 8 at batch scale: the all-pairs composition of the 187-model
//! corpus, run the way the seed API forces it (every pair re-derives both
//! models' analysis from scratch) versus the prepared-model API (each
//! model analysed once, the preparation shared — `Arc` — across all of
//! its 186 pairs, optionally fanned out over worker threads).
//!
//! The two serial engines are timed **interleaved by corpus row** (row
//! `i` = pairs `(i, i+1..n)`): each row is measured for the baseline and
//! then for the prepared engine, so slow machine-speed drift over the
//! minutes-long run hits both engines equally instead of whichever ran
//! second.
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

use std::fs;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use compose_bench::{oracle, workspace_root};
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
    let prepare_started = Instant::now();
    let prepared = serial.prepare_corpus(&corpus);
    let prepare_seconds = prepare_started.elapsed().as_secs_f64();

    // Row-interleaved serial comparison: baseline (per-pair recompute,
    // the seed behaviour) vs prepared reuse over identical pair rows.
    let mut baseline_seconds = 0.0;
    let mut prepared_seconds = prepare_seconds;
    let mut baseline_components = 0usize;
    let mut prepared_components = 0usize;
    for i in 0..n {
        let t0 = Instant::now();
        for j in i + 1..n {
            let result = composer.compose(&corpus[i], &corpus[j]);
            baseline_components += result.model.component_count();
        }
        baseline_seconds += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for j in i + 1..n {
            let result = composer.compose_prepared(&prepared[i], &prepared[j]);
            prepared_components += result.model.component_count();
        }
        prepared_seconds += t0.elapsed().as_secs_f64();
    }
    println!("  per-pair recompute (seed) : {baseline_seconds:>9.3}s");
    println!(
        "  prepared, shared, serial  : {prepared_seconds:>9.3}s  (of which prepare: {prepare_seconds:.3}s)"
    );

    // The same workload through BatchComposer's thread-per-shard fan-out
    // (auto thread count); on a single-core host this tracks the serial
    // number, on multi-core hosts it divides by the worker count.
    let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let fanned = BatchComposer::new(composer.clone());
    let started = Instant::now();
    let prepared_threaded = fanned.prepare_corpus(&corpus);
    let summaries = fanned.all_pairs(&prepared_threaded);
    let threaded_seconds = started.elapsed().as_secs_f64();
    println!("  BatchComposer, {threads} worker(s): {threaded_seconds:>9.3}s");

    // The engines must agree: identical per-pair component totals between
    // baseline, serial prepared and the batch fan-out.
    assert_eq!(
        baseline_components, prepared_components,
        "prepared all-pairs diverged from the per-pair recompute baseline"
    );
    let batch_components: usize = summaries.iter().map(|s| s.components).sum();
    assert_eq!(baseline_components, batch_components, "batch fan-out diverged");

    // All-pairs thread scaling: the same COW batch engine at explicit
    // worker counts. On a single-core host the series is flat (the JSON
    // records host_parallelism so readers can tell); on multi-core hosts
    // it should track 1/threads.
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for t in [1usize, 2, 4, 8] {
        if t > threads.max(4) {
            break;
        }
        let batch = BatchComposer::new(composer.clone()).with_threads(t);
        let t0 = Instant::now();
        let sums = batch.all_pairs(&prepared_threaded);
        let secs = t0.elapsed().as_secs_f64();
        let comps: usize = sums.iter().map(|s| s.components).sum();
        assert_eq!(baseline_components, comps, "thread-scaling run diverged at {t} threads");
        println!("  all-pairs at {t} explicit worker(s): {secs:>9.3}s");
        scaling.push((t, secs));
    }

    // Per-pair fixed cost: a tiny duplicate-only push against bases of
    // growing size. The merge work is constant (and fully absorbed), so
    // what remains is the cost of adopting the base — a full model+index
    // clone on the eager path, nothing on the copy-on-write path. The
    // scenario generators are `compose_bench::oracle`'s, i.e. exactly the
    // workload the differential harness proves bit-identical.
    let fixed_reps = if quick { 3 } else { 10 };
    let fixed_sizes = [16usize, 64, 256];
    let mut fixed_series: Vec<(usize, f64, f64)> = Vec::new();
    let mut fixed_clone_seconds = 0.0f64;
    let mut fixed_cow_seconds = 0.0f64;
    for &size in &fixed_sizes {
        let base = Arc::new(composer.prepare(&oracle::base_model(size)));
        let dup = composer.prepare(&oracle::duplicate_push(4));
        let (mut clone_s, mut cow_s) = (0.0f64, 0.0f64);
        for rep in 0..fixed_reps {
            // Alternate the order each rep so drift hits both engines.
            let run_clone = |acc: &mut f64| {
                let t0 = Instant::now();
                let result = composer.compose_prepared(&base, &dup);
                *acc += t0.elapsed().as_secs_f64();
                result.model.component_count()
            };
            let run_cow = |acc: &mut f64| {
                let t0 = Instant::now();
                let result = composer.compose_shared(Arc::clone(&base), &dup);
                *acc += t0.elapsed().as_secs_f64();
                assert!(
                    matches!(result.model, SharedModel::Base(_)),
                    "duplicate-only pair must not materialise"
                );
                result.model.as_model().component_count()
            };
            let (clone_c, cow_c) = if rep % 2 == 0 {
                (run_clone(&mut clone_s), run_cow(&mut cow_s))
            } else {
                let cow_c = run_cow(&mut cow_s);
                (run_clone(&mut clone_s), cow_c)
            };
            assert_eq!(clone_c, cow_c, "fixed-cost engines diverged at size {size}");
        }
        let reps = fixed_reps as f64;
        println!(
            "  fixed cost, base size {size:>3}: clone {:>9.1}us/pair, cow {:>9.1}us/pair",
            clone_s / reps * 1e6,
            cow_s / reps * 1e6
        );
        fixed_series.push((size, clone_s / reps, cow_s / reps));
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

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        compose_bench::host_parallelism()
    ));
    json.push_str("  \"benchmark\": \"fig8_all_pairs\",\n");
    json.push_str("  \"corpus\": \"biomodels_corpus::corpus_187 (deterministic synthetic)\",\n");
    json.push_str(&format!("  \"models\": {n},\n"));
    json.push_str(&format!("  \"pairs\": {pair_count},\n"));
    json.push_str("  \"engines\": {\n");
    json.push_str("    \"baseline\": \"Composer::compose per pair: both models' keys, indexes and initial values re-derived for every pair (seed behaviour)\",\n");
    json.push_str("    \"prepared\": \"Composer::compose_prepared over Arc<PreparedModel>: each model analysed once, preparation shared across all of its pairs (timed row-interleaved with the baseline)\",\n");
    json.push_str("    \"batch\": \"BatchComposer::all_pairs: same prepared engine behind the thread-per-shard fan-out\",\n");
    json.push_str("    \"fixed_cost\": \"tiny duplicate-only push vs growing bases (compose_bench::oracle generators): eager clone-on-adopt (compose_prepared) vs copy-on-write adoption (compose_shared), order-alternated per rep\"\n");
    json.push_str("  },\n");
    json.push_str(&format!("  \"baseline_seconds\": {baseline_seconds:.6},\n"));
    json.push_str(&format!("  \"prepare_seconds\": {prepare_seconds:.6},\n"));
    json.push_str(&format!("  \"prepared_seconds\": {prepared_seconds:.6},\n"));
    json.push_str(&format!("  \"batch_threaded_seconds\": {threaded_seconds:.6},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"speedup_threaded\": {threaded_speedup:.2},\n"));
    json.push_str(&format!("  \"speedup_prepared_reuse\": {reuse_speedup:.2},\n"));
    json.push_str("  \"thread_scaling\": [\n");
    for (idx, (t, secs)) in scaling.iter().enumerate() {
        let sep = if idx + 1 == scaling.len() { "" } else { "," };
        let vs_serial = scaling[0].1 / secs.max(1e-12);
        json.push_str(&format!(
            "    {{ \"threads\": {t}, \"seconds\": {secs:.6}, \"speedup_vs_serial\": {vs_serial:.2} }}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"fixed_cost_reps_per_size\": {fixed_reps},\n"));
    json.push_str("  \"fixed_cost_series\": [\n");
    for (idx, (size, clone_pair, cow_pair)) in fixed_series.iter().enumerate() {
        let sep = if idx + 1 == fixed_series.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"base_reactions\": {size}, \"clone_adopt_seconds_per_pair\": {clone_pair:.9}, \"cow_adopt_seconds_per_pair\": {cow_pair:.9} }}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"fixed_cost_clone_seconds\": {fixed_clone_seconds:.6},\n"));
    json.push_str(&format!("  \"fixed_cost_cow_seconds\": {fixed_cow_seconds:.6},\n"));
    json.push_str(&format!("  \"speedup_fixed_cost\": {fixed_speedup:.2}\n"));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_fig8.json");
    let mut out = fs::File::create(&path).expect("create BENCH_fig8.json");
    out.write_all(json.as_bytes()).expect("write BENCH_fig8.json");
    println!("\nwrote {}", path.display());
}
