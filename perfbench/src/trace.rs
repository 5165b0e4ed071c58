//! Spans for the traced run, recorded by the benchmark around its own
//! calls into each layer: name, start, end, parent span and request id,
//! kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub type SpanId = usize;

/// Per span name: calls and mean self time in µs.
pub type SelfTimes = BTreeMap<&'static str, (u64, f64)>;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<SpanId>,
    request: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = self.now();
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span measured elsewhere (e.g. on another thread), as an
    /// offset from `started` lasting `took`.
    pub fn record(&mut self, name: &'static str, parent: SpanId, started: Instant, took: Duration) {
        let start = started.saturating_duration_since(self.origin).as_nanos() as u64;
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start,
            end: start + took.as_nanos() as u64,
            parent: Some(parent),
            request,
        });
    }

    pub fn duration_us(&self, id: SpanId) -> f64 {
        (self.spans[id].end - self.spans[id].start) as f64 / 1e3
    }

    /// Total duration in µs of `parent`'s direct children named `name`.
    pub fn child_us(&self, parent: SpanId, name: &str) -> f64 {
        let ns: u64 = self.spans[parent..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.end - s.start)
            .sum();
        ns as f64 / 1e3
    }

    /// Per span name: (calls, mean self time in µs). Self time is the
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end - span.start;
            }
        }
        let mut acc: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = acc.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.end - span.start).saturating_sub(children);
        }
        acc.into_iter()
            .map(|(k, (n, ns))| (k, (n, ns as f64 / n as f64 / 1e3)))
            .collect()
    }

    /// Write every span as tab-separated lines under `.bench_build/`
    /// of the working directory.
    pub fn write_out(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new(".bench_build").join("perfbench-trace");
        let path = dir.join(format!("{workload}-seed{seed}.tsv"));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(out, "span\tparent\trequest\tname\tstart_ns\tend_ns")?;
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s
                    .parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "-".into());
                writeln!(
                    out,
                    "{i}\t{parent}\t{}\t{}\t{}\t{}",
                    s.request, s.name, s.start, s.end
                )?;
            }
            out.flush()
        };
        match write() {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                self.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
}
