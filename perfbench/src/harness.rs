//! Shared plumbing: arguments, the seeded generator, in-process daemons,
//! the closed-loop timer, latency statistics, STATS parsing and the JSON
//! result line.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sbml_serve::{Client, Request, Response};

/// Command-line arguments: `--workload`, `--seed`, `--seconds`, `--trace`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad("in (0, 600]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// SplitMix64: the workload generator. The same seed gives the same
/// request stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over request bytes: a cheap fingerprint proving that two
/// generations of a stream from one seed are identical.
pub fn fingerprint(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A daemon (or coordinator) running on its own thread in this process.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

impl Daemon {
    pub fn spawn(
        addr: SocketAddr,
        run: impl FnOnce() -> io::Result<()> + Send + 'static,
    ) -> Daemon {
        Daemon {
            addr,
            handle: std::thread::spawn(run),
        }
    }

    pub fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to an in-process daemon on loopback")
    }

    /// SHUTDOWN, then wait for the accept loop and its workers to end.
    pub fn shutdown(self) {
        let acknowledged = self.client().roundtrip(&Request::Shutdown);
        assert!(
            matches!(acknowledged, Ok(Response::Ok { code: 0, .. })),
            "daemon at {} did not acknowledge SHUTDOWN: {acknowledged:?}",
            self.addr,
        );
        self.handle
            .join()
            .expect("daemon thread panicked")
            .expect("daemon accept loop failed");
    }
}

/// One STATS body, split into the front block and one block per
/// `-- shard … --` section (coordinator STATS carries one per shard).
pub struct Stats {
    pub blocks: Vec<BTreeMap<String, u64>>,
}

impl Stats {
    pub fn fetch(client: &mut Client) -> Stats {
        let body = match client.roundtrip(&Request::Stats) {
            Ok(Response::Ok { code: 0, body }) => body,
            other => panic!("STATS failed: {other:?}"),
        };
        let mut blocks = vec![BTreeMap::new()];
        for line in String::from_utf8_lossy(&body).lines() {
            if line.starts_with("-- ") {
                blocks.push(BTreeMap::new());
                continue;
            }
            if let Some((key, value)) = line.split_once(' ') {
                if let Ok(value) = value.trim().parse::<u64>() {
                    blocks
                        .last_mut()
                        .expect("at least one block")
                        .insert(key.to_owned(), value);
                }
            }
        }
        Stats { blocks }
    }

    /// A counter of the front block (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.blocks[0].get(key).copied().unwrap_or(0)
    }

    /// The per-shard blocks of a coordinator STATS body.
    pub fn shards(&self) -> &[BTreeMap<String, u64>] {
        &self.blocks[1..]
    }
}

/// The STATS counters that must repeat exactly for one seed.
pub const EXACT_COUNTERS: &[&str] = &[
    "requests",
    "match",
    "compose",
    "upsert",
    "remove",
    "cache_hits",
    "cache_misses",
    "budget_cuts",
    "errors",
    "live_models",
    "tombstoned_models",
    "index_generation",
];

/// Compare two STATS snapshots on the exact-repeat counters, block by
/// block; returns a description of every difference.
pub fn stats_diff(a: &Stats, b: &Stats) -> Vec<String> {
    let mut out = Vec::new();
    if a.blocks.len() != b.blocks.len() {
        out.push(format!(
            "{} vs {} STATS blocks",
            a.blocks.len(),
            b.blocks.len()
        ));
        return out;
    }
    for (i, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        for key in EXACT_COUNTERS {
            if x.get(*key) != y.get(*key) {
                out.push(format!(
                    "block {i} {key}: {:?} vs {:?}",
                    x.get(*key),
                    y.get(*key)
                ));
            }
        }
    }
    out
}

/// Counter growth between two STATS snapshots of one daemon (the live
/// count is kept as it was at the end).
pub fn delta(before: &Stats, after: &Stats) -> Stats {
    let blocks = before
        .blocks
        .iter()
        .zip(&after.blocks)
        .map(|(b, a)| {
            a.iter()
                .map(|(k, &v)| {
                    let base = if k != "live_models" && EXACT_COUNTERS.contains(&k.as_str()) {
                        b.get(k).copied().unwrap_or(0)
                    } else {
                        0
                    };
                    (k.clone(), v.saturating_sub(base))
                })
                .collect()
        })
        .collect();
    Stats { blocks }
}

/// The answer a daemon gave, decoded: exit code and body, or `None` for
/// an `ERR` frame or an undecodable payload.
pub fn ok_body(raw: &[u8]) -> Option<(u8, Vec<u8>)> {
    match Response::decode(raw) {
        Ok(Response::Ok { code, body }) => Some((code, body)),
        _ => None,
    }
}

/// Latencies of one verb over a window, in nanoseconds, in request order.
#[derive(Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    pub fn push(&mut self, elapsed: Duration) {
        self.0.push(elapsed.as_nanos() as u64);
    }

    /// Nearest-rank percentile in milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
    }
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// How many times each run sets the daemons up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 15;

/// Time `SETUP_REPEATS` cold starts: `start` brings the daemons up and
/// answers one request, returning them with the seconds it took;
/// `stop` tears an instance down. The last instance is returned live,
/// with every sample.
pub fn repeated_setup<T>(
    mut start: impl FnMut() -> (T, f64),
    mut stop: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let (live, seconds) = start();
        samples.push(seconds);
        if i + 1 == SETUP_REPEATS {
            eprintln!("perfbench: set-up seconds: {samples:?}");
            return (live, samples);
        }
        stop(live);
    }
    unreachable!("SETUP_REPEATS is positive")
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What one run reports: the request tally, any structural problems
/// (stationarity, exact repeats), and the metrics by name.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Count one request and whether its answer checked out; a failure
    /// names the request.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A request already counted turned out wrong on a later check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: wrong answer: {what}");
        }
    }

    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.problems.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed.min(self.attempted),
            metrics.join(", "),
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Requests per group of a window: every group holds at least this
/// many, so each group's 99th percentile has ten requests beyond it.
const GROUP: usize = 1000;

/// One timed closed-loop window: when each request completed, how long
/// it took, and whether it was of the workload's primary verb.
pub struct Window {
    start: Instant,
    length: Duration,
    ends: Vec<Duration>,
    primary: Vec<Option<u64>>,
}

impl Window {
    pub fn open(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
            ends: Vec::with_capacity(1 << 16),
            primary: Vec::with_capacity(1 << 16),
        }
    }

    /// True until the window's length has passed; checked between whole
    /// steps of the workload.
    pub fn running(&self) -> bool {
        self.start.elapsed() < self.length
    }

    /// One request completed just now after `took`.
    pub fn record(&mut self, took: Duration, primary: bool) {
        self.ends.push(self.start.elapsed());
        self.primary.push(primary.then_some(took.as_nanos() as u64));
    }

    /// Requests per second and the primary verb's median and 99th
    /// percentile in milliseconds, each the median over up to ten
    /// consecutive equal groups of at least `GROUP` requests: a burst of
    /// interference on the host moves one group, not the result.
    pub fn summary(&self) -> (f64, f64, f64) {
        let n = self.ends.len();
        if n == 0 {
            return (0.0, 0.0, 0.0);
        }
        let groups = (n / GROUP).clamp(1, 10);
        let size = n / groups;
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let mut previous = Duration::ZERO;
        for g in 0..groups {
            let range = g * size..if g + 1 == groups { n } else { (g + 1) * size };
            let last = self.ends[range.end - 1];
            rates.push(range.len() as f64 / (last - previous).as_secs_f64());
            previous = last;
            let latencies = Latencies(self.primary[range].iter().flatten().copied().collect());
            p50s.push(latencies.percentile_ms(50.0));
            p99s.push(latencies.percentile_ms(99.0));
        }
        eprintln!("perfbench: {groups} groups of {size} requests; rates {rates:?} p50 {p50s:?} p99 {p99s:?}");
        (median(&rates), median(&p50s), median(&p99s))
    }
}
