//! Shared harness for regenerating the paper's figures and the
//! `BENCH_*.json` trajectories `ci.sh` gates.
//!
//! Each binary in `src/bin/` regenerates one artefact. Every timing goes
//! through one sampler — [`timed`] for one call, [`sample`] for one
//! workload, [`compare`] for two workloads in rounds that alternate which
//! side runs first — and every `BENCH_*.json` goes through one writer,
//! [`Json`]. **The estimator:** a gate reads the median of [`compare`]'s
//! per-round ratio (baseline ÷ candidate for a speedup, wide ÷ narrow for
//! a latency ratio); the files also carry each side's and the ratio's
//! min / median / p95. Two exceptions: the `all_pairs` gates divide side
//! totals summed over rounds, because each of their rounds is a
//! different workload (a corpus row, a base size); and
//! `speedup_cluster_upsert` divides the fastest of three rebuilds by one
//! `UPSERT` batch, because alternating the two in one process slows the
//! batches round by round (see `cluster_scatter`).
//!
//! | binary | artefact | output | `ci.sh` gate |
//! |---|---|---|---|
//! | `fig8` | Figure 8: all-pairs composition time vs n·m, 187 models | `results/fig8.csv` | — |
//! | `all_pairs` | Figure 8 batch: prepared reuse vs per-pair recompute; copy-on-write vs clone adoption | `BENCH_fig8.json` | `speedup_prepared_reuse` ≥ 2.0, `speedup_fixed_cost` ≥ 1.5 |
//! | `chain_scaling` | chain composition: session vs pairwise fold | `BENCH_chain.json` | `speedup_at_length_128` ≥ 2.0 |
//! | `long_chain_values` | initial values: incremental store vs per-push re-collect | `BENCH_values.json` | `speedup_incremental_values_at_length_128` ≥ 2.0 |
//! | `pipeline_conflict` | conflict corpus: incremental key rename vs re-canonicalisation | `BENCH_pipeline.json` | `speedup_pipelined_vs_serial` ≥ 1.5 |
//! | `robust_overhead` | `push_guarded` (unlimited meter) vs `push` | `BENCH_robust.json` | `guard_overhead_pct` ≤ 5.0 |
//! | `fig9` | Figure 9: SBMLCompose vs semanticSBML, 17 models | `results/fig9.csv` | — |
//! | `corpus_match` | corpus search: indexed vs naïve VF2 | `BENCH_match.json` | `speedup_candidate_generation` ≥ 5.0 |
//! | `serve_snapshot` | snapshot load vs corpus rebuild; warm vs cold query | `BENCH_serve.json` | `speedup_snapshot_load` ≥ 10.0 |
//! | `index_scale` | 10k tier: append vs rebuild; latency by corpus size and shard count | `BENCH_scale.json` | `speedup_incremental_append` ≥ 10.0, `latency_ratio_shards_8_vs_1` ≤ 1.5 |
//! | `cluster_scatter` | 10k tier over TCP: 4 vs 1 shard daemons; coordinator UPSERT vs rebuild | `BENCH_cluster.json` | `latency_ratio_cluster_4_vs_1` ≤ 1.5, `speedup_cluster_upsert` ≥ 10.0 |
//! | `ablation_index` | §5.7 index kinds; pattern cache on/off; Fig. 6 unit conversions | `results/ablation_{index,cache,units}.csv` | — |
//! | `ablation_semantics` | §5 heavy / light / no semantics | `results/ablation_semantics{,_twins}.csv` | — |

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod oracle;

/// The host's available parallelism (1 when undetectable). [`Json::write`]
/// records it in every `BENCH_*.json` so perf trajectories are comparable
/// across machines.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// One call of `f`: its result and its wall-clock seconds. The clock
/// stops before the result is dropped: tearing down a large result is
/// not the work timed.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = std::hint::black_box(f());
    (result, start.elapsed().as_secs_f64())
}

/// Time `rounds` calls of `f` (at least one), passing each its round
/// index so a mutating workload can take a fresh input every round.
pub fn sample<T>(rounds: usize, mut f: impl FnMut(usize) -> T) -> Stats {
    let samples: Vec<f64> = (0..rounds.max(1)).map(|round| timed(|| f(round)).1).collect();
    stats(&samples)
}

/// Spread of a two-sided [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Seconds per call of side a.
    pub a: Stats,
    /// Seconds per call of side b.
    pub b: Stats,
    /// Per-round a ÷ b, each round's two samples paired.
    pub ratio: Stats,
}

/// Time two workloads in `rounds` interleaved rounds (at least one): even
/// rounds run `a` first, odd rounds `b` first, so host drift lands on both
/// sides alike. Each call gets its round index.
pub fn compare<T, U>(
    rounds: usize,
    mut a: impl FnMut(usize) -> T,
    mut b: impl FnMut(usize) -> U,
) -> Comparison {
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for round in 0..rounds.max(1) {
        if round % 2 == 0 {
            sa.push(timed(|| a(round)).1);
            sb.push(timed(|| b(round)).1);
        } else {
            sb.push(timed(|| b(round)).1);
            sa.push(timed(|| a(round)).1);
        }
    }
    let ratio: Vec<f64> = sa.iter().zip(&sb).map(|(x, y)| x / y.max(1e-12)).collect();
    Comparison { a: stats(&sa), b: stats(&sb), ratio: stats(&ratio) }
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

/// Write a CSV file into the workspace `results/` directory, returning
/// its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = workspace_root().join("results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(name);
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
    /// Median (the upper one of an even count).
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sum of the series (a side's seconds over all its rounds).
    pub total: f64,
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
        total: sorted.iter().sum(),
        p95: sorted[(sorted.len() * 95).div_ceil(100) - 1],
        max: *sorted.last().expect("non-empty"),
    }
}

/// A JSON value of the [`Json`] writer.
#[derive(Debug, Clone)]
enum Value {
    Num(f64),
    Str(String),
    Obj(Json),
    Rows(Vec<Json>),
}

/// One JSON object, keys in insertion order. Refuses non-finite numbers
/// and a key repeated within one object (a gate must read one value).
#[derive(Debug, Clone, Default)]
pub struct Json(Vec<(String, Value)>);

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn put(mut self, key: &str, value: Value) -> Self {
        assert!(self.0.iter().all(|(k, _)| k != key), "duplicate JSON key {key:?}");
        self.0.push((key.to_owned(), value));
        self
    }

    /// A number field; panics unless `value` is finite.
    pub fn num(self, key: &str, value: f64) -> Self {
        assert!(value.is_finite(), "JSON key {key:?} is not finite: {value}");
        self.put(key, Value::Num(value))
    }

    /// An integer field.
    pub fn int(self, key: &str, value: usize) -> Self {
        self.num(key, value as f64)
    }

    /// A string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.put(key, Value::Str(value.to_owned()))
    }

    /// A nested object.
    pub fn obj(self, key: &str, value: Json) -> Self {
        self.put(key, Value::Obj(value))
    }

    /// A list of row objects.
    pub fn rows(self, key: &str, rows: Vec<Json>) -> Self {
        self.put(key, Value::Rows(rows))
    }

    /// A `{ "min", "median", "p95" }` spread object.
    pub fn spread(self, key: &str, s: &Stats) -> Self {
        self.obj(key, Json::new().num("min", s.min).num("median", s.median).num("p95", s.p95))
    }

    /// A [`Comparison`] as one object: side a's and side b's spread under
    /// their names, and the per-round ratio's spread under `"ratio"`.
    pub fn compared(self, key: &str, a: &str, b: &str, c: &Comparison) -> Self {
        let sides = Json::new().spread(a, &c.a).spread(b, &c.b).spread("ratio", &c.ratio);
        self.obj(key, sides)
    }

    /// Render as text nested `depth` levels deep: one field per line.
    fn render(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let field = |(k, v): &(String, Value)| {
            let value = match v {
                Value::Num(x) => number(*x),
                Value::Str(s) => quote(s),
                Value::Obj(o) => o.render(depth + 1),
                Value::Rows(rows) => {
                    let items: Vec<String> =
                        rows.iter().map(|r| format!("{pad}  {}", r.render(depth + 2))).collect();
                    format!("[\n{}\n{pad}]", items.join(",\n"))
                }
            };
            format!("{pad}{}: {value}", quote(k))
        };
        let fields: Vec<String> = self.0.iter().map(field).collect();
        format!("{{\n{}\n{}}}", fields.join(",\n"), "  ".repeat(depth))
    }

    /// The full `BENCH_<name>.json` text: `host_parallelism` first, then
    /// the fields in insertion order.
    fn document(self) -> String {
        let mut top = Json::new().int("host_parallelism", host_parallelism());
        for (key, value) in self.0 {
            top = top.put(&key, value);
        }
        top.render(0) + "\n"
    }

    /// Write `BENCH_<name>.json` at the [`workspace_root`], returning its
    /// path.
    pub fn write(self, name: &str) -> PathBuf {
        let path = workspace_root().join(format!("BENCH_{name}.json"));
        fs::write(&path, self.document()).expect("write BENCH json");
        println!("wrote {}", path.display());
        path
    }
}

/// A finite number as JSON text: integers exactly, anything else to six
/// significant digits, never in exponent form (`ci.sh` greps
/// `[-0-9.]*`).
fn number(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        return format!("{x:.0}");
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 15) as usize;
    let text = format!("{x:.digits$}");
    match digits {
        0 => text,
        _ => text.trim_end_matches('0').trim_end_matches('.').to_owned(),
    }
}

/// A JSON string literal. Rust's `Debug` escaping is JSON's for every
/// string without control characters, and the bins write none.
fn quote(s: &str) -> String {
    assert!(!s.chars().any(char::is_control), "JSON string {s:?} holds a control character");
    format!("{s:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

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
    fn compare_alternates_which_side_runs_first() {
        let order = RefCell::new(Vec::new());
        compare(4, |r| order.borrow_mut().push(('a', r)), |r| order.borrow_mut().push(('b', r)));
        let expected =
            [('a', 0), ('b', 0), ('b', 1), ('a', 1), ('a', 2), ('b', 2), ('b', 3), ('a', 3)];
        assert_eq!(order.into_inner(), expected);
    }

    #[test]
    fn each_ratio_pairs_the_samples_of_one_round() {
        // Side a slows down as side b speeds up: paired per round the
        // ratios span 1/16 .. 16; paired any other way they would not.
        let ms = [5u64, 20, 80];
        let c = compare(
            3,
            |r| std::thread::sleep(Duration::from_millis(ms[r])),
            |r| std::thread::sleep(Duration::from_millis(ms[2 - r])),
        );
        assert!(c.ratio.min < 0.25 && c.ratio.max > 4.0, "{:?}", c.ratio);
        assert!((0.5..2.0).contains(&c.ratio.median), "{:?}", c.ratio);
    }

    #[test]
    fn timing_positive() {
        let s = sample(3, |_| (0..1000u64).fold(0u64, u64::wrapping_add));
        assert!(0.0 <= s.min && s.p95 < 1.0, "{s:?}");
    }

    #[test]
    fn dropping_the_result_is_not_timed() {
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let (kept, secs) = timed(|| SlowDrop);
        drop(kept);
        assert!(secs < 0.025, "{secs}");
        let s = sample(2, |_| SlowDrop);
        assert!(s.max < 0.025, "{s:?}");
        let c = compare(1, |_| SlowDrop, |_| ());
        assert!(c.a.max < 0.025, "{c:?}");
    }

    #[test]
    fn one_and_two_rounds_give_sane_stats() {
        for rounds in [0, 1, 2] {
            let calls = RefCell::new(0);
            let c = compare(rounds, |_| *calls.borrow_mut() += 1, |_| *calls.borrow_mut() += 1);
            assert_eq!(calls.into_inner(), 2 * rounds.max(1));
            for s in [c.a, c.b, c.ratio] {
                assert!(s.min.is_finite() && s.min >= 0.0, "{s:?}");
                assert!(s.min <= s.median && s.median <= s.p95 && s.p95 <= s.max, "{s:?}");
            }
            let s = sample(rounds, |_| ());
            assert!(s.min <= s.median && s.median <= s.p95, "{s:?}");
        }
    }

    /// The values `ci.sh`'s `gate` reads for `key`: its pattern
    /// `"<key>": *-?[0-9][0-9.]*`, one match per occurrence.
    fn gate_values(text: &str, key: &str) -> Vec<f64> {
        let needle = format!("\"{key}\":");
        text.match_indices(&needle)
            .filter_map(|(at, _)| {
                let rest = text[at + needle.len()..].trim_start_matches(' ');
                let end = rest.find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit());
                rest[..end.unwrap_or(rest.len())].parse().ok()
            })
            .collect()
    }

    #[test]
    fn gate_pattern_reads_each_top_level_key_once() {
        let c = compare(3, |_| (), |_| ());
        let text = Json::new()
            .str("benchmark", "demo")
            .int("models", 187)
            .compared("speedup", "before_seconds", "after_seconds", &c)
            .rows("chains", vec![Json::new().int("length", 2).num("speedup", 1.25)])
            .num("speedup_at_length_2", 1.25)
            .num("overhead_pct", -0.5)
            .num("tiny_seconds", 0.000_012_345_678)
            .document();
        assert_eq!(gate_values(&text, "host_parallelism"), [host_parallelism() as f64]);
        assert_eq!(gate_values(&text, "models"), [187.0]);
        assert_eq!(gate_values(&text, "speedup_at_length_2"), [1.25]);
        assert_eq!(gate_values(&text, "overhead_pct"), [-0.5]);
        assert_eq!(gate_values(&text, "tiny_seconds"), [0.0000123457]);
        assert!(!text.contains("e-"), "{text}");
    }

    #[test]
    fn numbers_keep_six_significant_digits() {
        assert_eq!(number(2.0), "2");
        assert_eq!(number(-0.5), "-0.5");
        assert_eq!(number(7.720241), "7.72024");
        assert_eq!(number(123450.2), "123450");
        assert_eq!(number(0.000_012_345_678), "0.0000123457");
    }

    #[test]
    fn non_finite_numbers_and_repeated_keys_are_refused() {
        let refused: [fn() -> String; 4] = [
            || Json::new().num("x", f64::NAN).document(),
            || Json::new().num("x", f64::NEG_INFINITY).document(),
            || Json::new().int("x", 1).int("x", 2).document(),
            // The writer adds `host_parallelism` itself.
            || Json::new().int("host_parallelism", 1).document(),
        ];
        for build in refused {
            assert!(std::panic::catch_unwind(build).is_err());
        }
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
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.total, 6.0);
    }
}
