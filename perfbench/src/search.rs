//! `search_10k`: one standalone daemon with the default `ServerConfig`
//! (256-entry result cache) over the 10k scale-tier corpus, loaded from a
//! snapshot, taking MATCH requests drawn from a pool of radius-1 query
//! fragments. Matching does nearly all the work; the pool is far larger
//! than the cache, but fragments of one motif family share content keys,
//! so part of the stream hits the cache.

use std::time::Instant;

use biomodels_corpus::{corpus_scale, query_fragment};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::write_sbml;
use sbml_serve::{Client, Request, Server, ServerConfig, Snapshot};

use crate::harness::{
    delta, fingerprint, median, ok_body, peak_rss_mb, repeated_setup, stats_diff, Args, Daemon,
    Latencies, Report, Rng, Stats, Window, FNV_OFFSET,
};
use crate::reference::Reference;
use crate::trace::Tracer;

const CORPUS: usize = 10_000;
const POOL: usize = 4096;
/// Window answers compared byte for byte with the reference afterwards.
const CHECKED: usize = 512;
/// Requests in each pass of the traced run.
const TRACED: usize = 3000;

pub struct Query {
    request: Request,
    xml: String,
    host: String,
    /// The host's `exact` line prefix every correct answer contains.
    needle: String,
}

pub struct Inputs {
    options: ComposeOptions,
    snapshot: Vec<u8>,
    pool: Vec<Query>,
    seed: u64,
}

/// Corpus, preparation, index, snapshot encoding and the query pool:
/// input generation, untimed.
pub fn inputs(seed: u64) -> Inputs {
    let options = ComposeOptions::default();
    let models = corpus_scale(CORPUS);
    let snapshot = {
        let prepared = BatchComposer::new(Composer::new(options.clone()))
            .with_threads(2)
            .prepare_corpus(&models);
        let index = MatchIndex::build_with_threads(&prepared, &options, 2);
        Snapshot::encode(&index, &options)
    };
    Inputs {
        pool: pool(seed, &models),
        options,
        snapshot,
        seed,
    }
}

/// The query pool: radius-1 fragments of uniformly drawn corpus models.
fn pool(seed: u64, models: &[sbml_model::Model]) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1);
    let mut pool = Vec::with_capacity(POOL);
    while pool.len() < POOL {
        let host = &models[rng.below(models.len())];
        let fragment = query_fragment(host, rng.below(1 << 16), 1);
        if fragment.species.is_empty() {
            continue;
        }
        let xml = write_sbml(&fragment);
        pool.push(Query {
            request: Request::Match {
                query_xml: xml.clone(),
            },
            xml,
            host: host.id.clone(),
            needle: format!(" ({}): species [", host.id),
        });
    }
    pool
}

impl Inputs {
    /// The request stream: pool positions, independent uniform draws.
    fn stream(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rng = Rng::new(self.seed, 2);
        std::iter::repeat_with(move || rng.below(POOL))
    }

    /// Fingerprint of the first `n` requests, rendered from `pool`.
    fn stream_fingerprint(&self, pool: &[Query], n: usize) -> u64 {
        self.stream()
            .take(n)
            .fold(FNV_OFFSET, |h, q| fingerprint(h, pool[q].xml.as_bytes()))
    }

    /// Load the snapshot, bind the daemon and have it answer STATS:
    /// what an operator waits for. Returns the daemon, the load time and
    /// the whole set-up time.
    fn start(&self) -> (Daemon, f64, f64) {
        let started = Instant::now();
        let loaded =
            Snapshot::load_bytes(&self.snapshot, &self.options, 0).expect("snapshot loads");
        let load_s = started.elapsed().as_secs_f64();
        let server = Server::bind(
            "127.0.0.1:0",
            loaded.index,
            self.options.clone(),
            ServerConfig::default(),
        )
        .expect("bind the daemon on loopback");
        let daemon = Daemon::spawn(server.local_addr(), move || server.run());
        Stats::fetch(&mut daemon.client());
        (daemon, load_s, started.elapsed().as_secs_f64())
    }

    fn check(&self, q: usize, raw: &[u8]) -> bool {
        match ok_body(raw) {
            Some((0, body)) => String::from_utf8_lossy(&body)
                .lines()
                .any(|line| line.starts_with("exact ") && line.contains(&self.pool[q].needle)),
            _ => false,
        }
    }

    /// Answer every pool query once, so lazily decoded index state is
    /// warm before anything is timed.
    fn warm_up(&self, client: &mut Client) {
        for query in &self.pool {
            client
                .roundtrip_raw(&query.request)
                .expect("warm-up roundtrip");
        }
    }

    /// The reference index, warmed and with its cache replica in the
    /// state `warm_up` leaves the daemon's cache in.
    fn reference(&self) -> Reference {
        let loaded =
            Snapshot::load_bytes(&self.snapshot, &self.options, 0).expect("snapshot loads");
        let mut reference = Reference::new(
            loaded.index,
            &self.options,
            ServerConfig::default().cache_capacity,
        );
        let mut scratch = Tracer::new();
        let root = scratch.open("warm-up", None, 0);
        for query in &self.pool {
            reference.matches(&query.xml, &mut scratch, root);
        }
        reference.counts = Default::default();
        reference
    }
}

pub fn run(args: &Args) -> Report {
    let inputs = inputs(args.seed);
    if args.trace {
        return traced(args, &inputs);
    }
    let mut report = Report::default();
    let (daemon, setups) = repeated_setup(
        || {
            let (daemon, _, setup) = inputs.start();
            (daemon, setup)
        },
        Daemon::shutdown,
    );
    let mut client = daemon.client();
    inputs.warm_up(&mut client);

    let mut captured = Vec::with_capacity(CHECKED);
    let mut stream = inputs.stream();
    let mut window = Window::open(args.seconds);
    while window.running() {
        let q = stream.next().expect("the stream is endless");
        let started = Instant::now();
        let raw = client.roundtrip_raw(&inputs.pool[q].request);
        window.record(started.elapsed(), true);
        let ok = raw.as_ref().is_ok_and(|raw| inputs.check(q, raw));
        report.check(ok, || format!("MATCH for host {}", inputs.pool[q].host));
        if let (Ok(raw), true) = (raw, captured.len() < CHECKED) {
            captured.push((q, raw));
        }
    }
    let peak_rss = peak_rss_mb();
    drop(client);
    daemon.shutdown();

    // Byte-for-byte against the in-process reference, outside the window.
    let loaded =
        Snapshot::load_bytes(&inputs.snapshot, &inputs.options, 0).expect("snapshot loads");
    let mut reference = Reference::new(loaded.index, &inputs.options, 0);
    let mut scratch = Tracer::new();
    let root = scratch.open("check", None, 0);
    for (q, raw) in &captured {
        let (want, _) = reference.matches(&inputs.pool[*q].xml, &mut scratch, root);
        if *want != **raw {
            report.fail(format!(
                "answer for host {} differs from the reference",
                inputs.pool[*q].host
            ));
        }
    }

    let (ops_per_s, p50_ms, p99_ms) = window.summary();
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("p50_ms", p50_ms, "ms");
    report.metric("p99_ms", p99_ms, "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report
}

/// The traced run: the first `TRACED` requests of the stream, once
/// untraced and once traced against the in-process reference, each on a
/// freshly started daemon.
fn traced(args: &Args, inputs: &Inputs) -> Report {
    let mut report = Report::default();
    let regenerated = pool(args.seed, &corpus_scale(CORPUS));
    if inputs.stream_fingerprint(&inputs.pool, TRACED)
        != inputs.stream_fingerprint(&regenerated, TRACED)
    {
        report.problem("the request stream is not a function of the seed".into());
    }

    // Pass A: untraced.
    let (daemon, load_a, _) = inputs.start();
    let mut client = daemon.client();
    inputs.warm_up(&mut client);
    let before_a = Stats::fetch(&mut client);
    let mut untraced = Latencies::default();
    for q in inputs.stream().take(TRACED) {
        let started = Instant::now();
        let raw = client
            .roundtrip_raw(&inputs.pool[q].request)
            .expect("roundtrip");
        untraced.push(started.elapsed());
        report.check(inputs.check(q, &raw), || {
            format!("MATCH for host {}", inputs.pool[q].host)
        });
    }
    let stats_a = delta(&before_a, &Stats::fetch(&mut client));
    drop(client);
    daemon.shutdown();

    // Pass B: traced, every answer replayed in process.
    let mut tracer = Tracer::new();
    let mut reference = inputs.reference();
    let (daemon, load_b, _) = inputs.start();
    let mut client = daemon.client();
    inputs.warm_up(&mut client);
    let before_b = Stats::fetch(&mut client);
    let mut traced = Latencies::default();
    let mut hop_us = 0.0;
    for (r, q) in inputs.stream().take(TRACED).enumerate() {
        let query = &inputs.pool[q];
        let root = tracer.open("request", None, r as u32);
        let rtt = tracer.open("sbml-serve.roundtrip", Some(root), r as u32);
        let started = Instant::now();
        let raw = client.roundtrip_raw(&query.request).expect("roundtrip");
        traced.push(started.elapsed());
        tracer.close(rtt);
        let replay = tracer.open("replay", Some(root), r as u32);
        let (want, _) = reference.matches(&query.xml, &mut tracer, replay);
        tracer.close(replay);
        tracer.close(root);
        report.check(inputs.check(q, &raw) && *want == *raw, || {
            format!(
                "traced MATCH for host {} differs from the reference",
                query.host
            )
        });
        // The daemon's work minus the stages replayed here; the replay's
        // standalone candidate generation is not a daemon stage.
        hop_us += tracer.duration_us(rtt) - stage_us(&tracer, replay);
    }
    let stats_b = delta(&before_b, &Stats::fetch(&mut client));
    drop(client);
    daemon.shutdown();
    tracer.write_out(&args.workload, args.seed);

    for diff in stats_diff(&stats_a, &stats_b) {
        report.problem(format!("STATS counters did not repeat: {diff}"));
    }
    let counts = &reference.counts;
    if stats_b.get("cache_hits") != counts.cache_hits {
        report.problem(format!(
            "daemon cache hits {} vs reference replica {}",
            stats_b.get("cache_hits"),
            counts.cache_hits
        ));
    }

    let mut m = crate::PerLayer::default();
    m.matching(&tracer.self_times(), counts);
    m.set("sbml-serve.hop_us", hop_us / TRACED as f64);
    m.set("sbml-serve.snapshot_load_s", (load_a + load_b) / 2.0);
    m.serve_stats(&stats_b);
    m.set(
        "perfbench.trace_overhead_us",
        traced.mean_us() - untraced.mean_us(),
    );
    m.finish(&mut report);
    report
}

/// Wall time of the daemon-side stages inside a replay span: everything
/// but the standalone candidate generation.
fn stage_us(tracer: &Tracer, replay: crate::trace::SpanId) -> f64 {
    tracer.duration_us(replay) - tracer.child_us(replay, "sbml-match.candidates")
}
