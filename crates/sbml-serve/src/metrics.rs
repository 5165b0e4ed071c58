//! Usage metering for the daemon: request counters, cache hit/miss
//! rates, budget cuts, and latency percentiles, all lock-free on the
//! request path except a bounded latency ring.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many latency samples the ring retains; older samples are
/// overwritten, so percentiles describe recent traffic.
const LATENCY_RING: usize = 4096;

/// Shared counters; one instance per server, updated by every worker.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total requests decoded (including ones that later errored).
    pub requests: AtomicU64,
    /// `MATCH` requests served.
    pub match_requests: AtomicU64,
    /// `QUERY` requests served.
    pub query_requests: AtomicU64,
    /// `COMPOSE` requests served.
    pub compose_requests: AtomicU64,
    /// `UPSERT` requests served (index mutations).
    pub upsert_requests: AtomicU64,
    /// `REMOVE` requests served (index mutations).
    pub remove_requests: AtomicU64,
    /// `STATS` requests served.
    pub stats_requests: AtomicU64,
    /// Responses answered straight from the cache.
    pub cache_hits: AtomicU64,
    /// Cacheable requests that had to be computed.
    pub cache_misses: AtomicU64,
    /// Cached answers a corpus write evicted.
    pub cache_evictions: AtomicU64,
    /// Requests cut short by the per-request budget or deadline.
    pub budget_cuts: AtomicU64,
    /// Requests rejected as unparseable or malformed.
    pub errors: AtomicU64,
    latencies_us: Mutex<LatencyRing>,
}

#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

/// A point-in-time copy of the counters, plus derived percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Total requests decoded.
    pub requests: u64,
    /// Per-verb counts: match, query, compose, upsert, remove, stats.
    pub by_verb: [u64; 6],
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cached answers evicted by writes.
    pub cache_evictions: u64,
    /// Budget/deadline cuts.
    pub budget_cuts: u64,
    /// Malformed or unparseable requests.
    pub errors: u64,
    /// Median request latency in microseconds (0 with no samples).
    pub p50_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one request's wall-clock latency.
    pub fn record_latency_us(&self, micros: u64) {
        let Ok(mut ring) = self.latencies_us.lock() else { return };
        if ring.samples.len() < LATENCY_RING {
            ring.samples.push(micros);
        } else {
            let at = ring.next;
            ring.samples[at] = micros;
        }
        ring.next = (ring.next + 1) % LATENCY_RING;
    }

    /// Snapshot the counters and compute percentiles.
    pub fn report(&self) -> MetricsReport {
        let (p50_us, p99_us) = {
            match self.latencies_us.lock() {
                Ok(ring) if !ring.samples.is_empty() => {
                    let mut sorted = ring.samples.clone();
                    sorted.sort_unstable();
                    let pick = |q: f64| {
                        let at = ((sorted.len() - 1) as f64 * q).round() as usize;
                        sorted[at.min(sorted.len() - 1)]
                    };
                    (pick(0.50), pick(0.99))
                }
                _ => (0, 0),
            }
        };
        MetricsReport {
            requests: self.requests.load(Ordering::Relaxed),
            by_verb: [
                self.match_requests.load(Ordering::Relaxed),
                self.query_requests.load(Ordering::Relaxed),
                self.compose_requests.load(Ordering::Relaxed),
                self.upsert_requests.load(Ordering::Relaxed),
                self.remove_requests.load(Ordering::Relaxed),
                self.stats_requests.load(Ordering::Relaxed),
            ],
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            budget_cuts: self.budget_cuts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p50_us,
            p99_us,
        }
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        Metrics::add(counter, 1);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl MetricsReport {
    /// Render as the `STATS` response body: one `key value` pair per
    /// line, machine- and human-readable.
    pub fn render(&self, cache_entries: usize, models: usize, threads: usize) -> String {
        format!(
            "requests {}\nmatch {}\nquery {}\ncompose {}\nupsert {}\nremove {}\nstats {}\n\
             cache_hits {}\ncache_misses {}\ncache_entries {cache_entries}\ncache_evictions {}\n\
             budget_cuts {}\nerrors {}\np50_us {}\np99_us {}\n\
             models {models}\nthreads {threads}\n",
            self.requests,
            self.by_verb[0],
            self.by_verb[1],
            self.by_verb[2],
            self.by_verb[3],
            self.by_verb[4],
            self.by_verb[5],
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.budget_cuts,
            self.errors,
            self.p50_us,
            self.p99_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_known_samples() {
        let m = Metrics::new();
        for us in 1..=100 {
            m.record_latency_us(us);
        }
        let report = m.report();
        // Nearest-rank over 100 samples: rank round(99 * 0.5) = 50 → 51.
        assert_eq!(report.p50_us, 51);
        assert_eq!(report.p99_us, 99);
    }

    #[test]
    fn empty_metrics_render_zeroes() {
        let report = Metrics::new().report();
        assert_eq!(report.p50_us, 0);
        assert_eq!(report.p99_us, 0);
        let text = report.render(0, 187, 4);
        assert!(text.contains("requests 0\n"));
        assert!(text.contains("models 187\n"));
        assert!(text.contains("threads 4\n"));
    }

    #[test]
    fn ring_overwrites_old_samples() {
        let m = Metrics::new();
        for _ in 0..LATENCY_RING {
            m.record_latency_us(1_000_000);
        }
        for _ in 0..LATENCY_RING {
            m.record_latency_us(5);
        }
        let report = m.report();
        assert_eq!(report.p50_us, 5, "old epoch fully displaced");
        assert_eq!(report.p99_us, 5);
    }
}
