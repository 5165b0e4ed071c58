//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search_10k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Starts the real daemons (`sbml_serve::Server`, `sbml_cluster::Coordinator`)
//! on loopback inside this process, drives one workload from one client
//! connection in a closed loop, checks every answer, and prints one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! a traced replay with `--trace 1`. `BENCHMARK.json` at the repository
//! root lists the workloads and metrics and why each was chosen.

mod cluster;
mod compose;
mod harness;
mod reference;
mod search;
mod trace;

use std::collections::BTreeMap;

use harness::{Args, Report, Stats};
use reference::MatchCounts;
use trace::SelfTimes;

/// Every per-layer metric of a traced run, with its unit. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("sbml-match.candidates_us", "us"),
    ("sbml-match.candidates_per_query", "count"),
    ("sbml-match.refine_us", "us"),
    ("sbml-match.exact_hits_per_query", "count"),
    ("sbml-match.hit_ratio", "ratio"),
    ("sbml-match.insert_us", "us"),
    ("sbml-match.remove_us", "us"),
    ("sbml-match.compactions", "count"),
    ("sbml-serve.cache_hit_ratio", "ratio"),
    ("sbml-serve.cache_hits", "count"),
    ("sbml-serve.cache_misses", "count"),
    ("sbml-serve.match_requests", "count"),
    ("sbml-serve.compose_requests", "count"),
    ("sbml-serve.upsert_requests", "count"),
    ("sbml-serve.remove_requests", "count"),
    ("sbml-serve.errors", "count"),
    ("sbml-serve.budget_cuts", "count"),
    ("sbml-serve.cache_key_us", "us"),
    ("sbml-serve.format_us", "us"),
    ("sbml-serve.hop_us", "us"),
    ("sbml-serve.snapshot_load_s", "s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("sbml-model.parse_us", "us"),
    ("sbml-model.write_us", "us"),
    ("sbml-compose.prepare_us", "us"),
    ("sbml-compose.push_us", "us"),
    ("sbml-compose.finish_us", "us"),
    ("sbml-compose.duplicates", "count"),
    ("sbml-compose.mapped", "count"),
    ("sbml-compose.renamed", "count"),
    ("sbml-compose.conflicts", "count"),
    ("sbml-cluster.hop_us", "us"),
    ("sbml-cluster.shard_rtt_max_us", "us"),
    ("sbml-cluster.shard_rtt_mean_us", "us"),
    ("sbml-cluster.merge_us", "us"),
    ("sbml-cluster.carve_s", "s"),
    ("perfbench.trace_overhead_us", "us"),
];

/// The per-layer metrics one traced run measured.
#[derive(Default)]
pub struct PerLayer(BTreeMap<&'static str, f64>);

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The matching-path metrics of a traced replay: per-call self times
    /// of each stage and the candidate counts per cache miss.
    pub fn matching(&mut self, selfs: &SelfTimes, counts: &MatchCounts) {
        let mean = |name: &str| selfs.get(name).map(|&(_, us)| us).unwrap_or(0.0);
        let misses = (counts.queries - counts.cache_hits).max(1) as f64;
        self.set(
            "sbml-match.candidates_us",
            mean("sbml-match.prepare_query") + mean("sbml-match.candidates"),
        );
        self.set(
            "sbml-match.candidates_per_query",
            counts.candidates as f64 / misses,
        );
        // `query_corpus_prepared` repeats the candidate generation first.
        self.set(
            "sbml-match.refine_us",
            mean("sbml-match.query_corpus") - mean("sbml-match.candidates"),
        );
        self.set(
            "sbml-match.exact_hits_per_query",
            counts.exact_hits as f64 / misses,
        );
        self.set(
            "sbml-match.hit_ratio",
            counts.exact_hits as f64 / counts.candidates.max(1) as f64,
        );
        self.set("sbml-serve.cache_key_us", mean("sbml-serve.cache_key"));
        self.set("sbml-serve.format_us", mean("sbml-serve.format"));
        self.set("sbml-model.parse_us", mean("sbml-model.parse"));
    }

    /// The daemon counters read from STATS (counter growth over the pass).
    pub fn serve_stats(&mut self, stats: &Stats) {
        let hits = stats.get("cache_hits") as f64;
        let lookups = hits + stats.get("cache_misses") as f64;
        self.set(
            "sbml-serve.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        for (name, key) in [
            ("sbml-serve.cache_hits", "cache_hits"),
            ("sbml-serve.cache_misses", "cache_misses"),
            ("sbml-serve.match_requests", "match"),
            ("sbml-serve.compose_requests", "compose"),
            ("sbml-serve.upsert_requests", "upsert"),
            ("sbml-serve.remove_requests", "remove"),
            ("sbml-serve.errors", "errors"),
            ("sbml-serve.budget_cuts", "budget_cuts"),
        ] {
            self.set(name, stats.get(key) as f64);
        }
    }

    /// Emit every declared metric, in declaration order.
    pub fn finish(self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <search_10k|compose_fold|cluster_rw> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "search_10k" => search::run(&args),
        "compose_fold" => compose::run(&args),
        "cluster_rw" => cluster::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!("{}", report.to_json());
}
