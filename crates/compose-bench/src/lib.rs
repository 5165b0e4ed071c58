//! Shared harness utilities for regenerating the paper's figures.
//!
//! The binaries in `src/bin/` each regenerate one experimental artefact
//! (CSV series + console summary); the Criterion benches in `benches/`
//! give statistically robust micro-measurements of the same code paths.
//!
//! | artefact | binary | bench |
//! |---|---|---|
//! | Figure 8 (all-pairs scaling, 187 models) | `fig8` | `fig8_pairs` |
//! | Figure 8 batch: prepared reuse vs per-pair recompute (`BENCH_fig8.json`) | `all_pairs` | — |
//! | chain scaling: session vs pairwise fold (`BENCH_chain.json`) | `chain_scaling` | — |
//! | Figure 9 (vs semanticSBML, 17 models) | `fig9` | `fig9_baseline` |
//! | corpus match: indexed vs naive VF2 (`BENCH_match.json`) | `corpus_match` | — |
//! | future-work §5.7 index ablation | `ablation_index` | `ablation_index` |
//! | §5 heavy/light/no semantics ablation | `ablation_semantics` | — |
//! | pattern-cache ablation | — | `ablation_cache` |
//! | Fig. 6 unit conversions | — | `ablation_units` |

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod oracle;

/// The host's available parallelism (1 when undetectable). Recorded in
/// every `BENCH_*.json` so perf trajectories are comparable across
/// machines.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Median wall-clock seconds of `runs` executions of `f` (min 1).
pub fn time_median<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let runs = runs.max(1);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// Median wall-clock seconds for two workloads sampled in interleaved
/// rounds (A then B, order flipped every round). For head-to-head
/// overhead comparisons on a loaded host, block sampling (all A, then
/// all B) lets scheduling drift land entirely on one side; interleaving
/// exposes both workloads to the same load profile.
pub fn time_median_interleaved<A: FnMut(), B: FnMut()>(
    runs: usize,
    mut a: A,
    mut b: B,
) -> (f64, f64) {
    let runs = runs.max(1);
    let mut samples_a = Vec::with_capacity(runs);
    let mut samples_b = Vec::with_capacity(runs);
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    for round in 0..runs {
        if round % 2 == 0 {
            samples_a.push(time(&mut a));
            samples_b.push(time(&mut b));
        } else {
            samples_b.push(time(&mut b));
            samples_a.push(time(&mut a));
        }
    }
    let median = |mut s: Vec<f64>| {
        s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        s[s.len() / 2]
    };
    (median(samples_a), median(samples_b))
}

/// `log10` of a time in milliseconds, the paper's Figure 8/9 y-axis.
/// Times are clamped below at 1 µs to keep the log finite.
pub fn log10_ms(seconds: f64) -> f64 {
    (seconds * 1e3).max(1e-3).log10()
}

/// The workspace root, resolved at run time: the nearest directory at
/// or above the current one whose `Cargo.toml` declares a
/// `[workspace]` (the current directory when none does). The harness
/// binaries run from inside the tree (`cargo run -p compose-bench`), so
/// their `BENCH_*.json` and `results/` land in the tree being run, even
/// when another checkout shares its build cache.
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        })
        .map_or_else(|| cwd.clone(), Path::to_path_buf)
}

/// The workspace `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// The minimum of `samples`: on a shared host every sample is its true
/// cost plus non-negative interference, so min-of-N estimates the
/// uncontended cost.
pub fn best(samples: Vec<f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Write a CSV file into `results/`, returning its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut out = fs::File::create(&path).expect("create results CSV");
    writeln!(out, "{header}").expect("write header");
    for row in rows {
        writeln!(out, "{row}").expect("write row");
    }
    path
}

/// Pearson correlation between two equal-length series.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Simple descriptive statistics.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

/// Compute [`Stats`] of a series (NaN-free input expected).
pub fn stats(series: &[f64]) -> Stats {
    assert!(!series.is_empty());
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Stats {
        min: sorted[0],
        median: sorted[sorted.len() / 2],
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p95: sorted[(sorted.len() * 95).div_ceil(100) - 1],
        max: *sorted.last().expect("non-empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_inside_the_tree() {
        // Tests run in this crate's directory, two levels below the root.
        let root = workspace_root();
        let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        assert!(manifest.contains("[workspace]"), "{}", root.display());
        assert!(root.join("crates").join("compose-bench").is_dir(), "{}", root.display());
    }

    #[test]
    fn stats_percentiles_are_nearest_rank() {
        let s = stats(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.min, s.median, s.p95, s.max), (1.0, 3.0, 5.0, 5.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(stats(&hundred).p95, 95.0);
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(vec![0.3, 0.1, 0.2]), 0.1);
    }

    #[test]
    fn timing_positive() {
        let t = time_median(3, || {
            let mut acc = 0u64;
            for i in 0..1000 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        assert!((0.0..1.0).contains(&t));
    }

    #[test]
    fn log10_clamps() {
        assert_eq!(log10_ms(0.0), -3.0);
        assert!((log10_ms(1.0) - 3.0).abs() < 1e-12); // 1 s = 1000 ms
        assert!((log10_ms(0.001) - 0.0).abs() < 1e-12); // 1 ms
    }

    #[test]
    fn correlation_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let anti: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((correlation(&xs, &anti) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_basics() {
        let s = stats(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }
}
