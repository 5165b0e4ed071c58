//! `compose_fold`: one daemon serving COMPOSE requests of 2–4 documents
//! from the Fig. 8 corpus (`corpus_187`). A third of the later documents
//! are `synonym_variant` twins of an earlier document of the request, so
//! heavy-semantics unification, renaming and initial-value work all run.
//! Parse, the merge passes and write dominate; matching, the result cache
//! and the cluster do no work.

use std::sync::Arc;
use std::time::Instant;

use biomodels_corpus::{corpus_187, synonym_variant};
use sbml_compose::{
    BatchComposer, ComposeOptions, Composer, CompositionSession, MergeStats, WorkerPool,
};
use sbml_match::MatchIndex;
use sbml_model::{parse_sbml, write_sbml};
use sbml_serve::{Request, Response, Server, ServerConfig, Snapshot};

use crate::harness::{
    delta, fingerprint, median, ok_body, peak_rss_mb, repeated_setup, stats_diff, Args, Daemon,
    Latencies, Report, Rng, Stats, Window, FNV_OFFSET,
};
use crate::trace::{SpanId, Tracer};

/// Requests in the pool; the stream walks it in a fresh seeded order
/// each cycle, so every run composes the same mix of sizes.
const POOL: usize = 240;
/// The smallest corpus models are empty or near-empty; documents are
/// drawn from the rest of the size ramp.
const FIRST_DOC: usize = 30;
/// Window answers compared byte for byte with the reference afterwards.
const CHECKED: usize = 48;

struct Compose {
    request: Request,
    documents: Vec<String>,
    /// The composed model keeps the first document's id.
    needle: String,
}

struct Inputs {
    options: ComposeOptions,
    snapshot: Vec<u8>,
    pool: Vec<Compose>,
    seed: u64,
}

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The request pool. Every position of every request is stratified over
/// the corpus size ramp (each position sees the same multiset of corpus
/// sizes whatever the seed; the seed decides the pairings), as are the
/// document counts and which later documents are synonym twins.
fn pool(seed: u64) -> Vec<Compose> {
    let corpus = corpus_187();
    let span = corpus.len() - FIRST_DOC;
    let mut rng = Rng::new(seed, 3);
    let counts = permutation(&mut rng, POOL);
    let positions: Vec<Vec<usize>> = (0..4).map(|_| permutation(&mut rng, POOL)).collect();
    let twins: Vec<Vec<usize>> = (0..4).map(|_| permutation(&mut rng, POOL)).collect();
    (0..POOL)
        .map(|j| {
            let k = 2 + counts[j] % 3;
            let mut models = Vec::with_capacity(k);
            for d in 0..k {
                let model = if d > 0 && twins[d][j].is_multiple_of(3) {
                    let earlier: &sbml_model::Model = &models[rng.below(d)];
                    synonym_variant(earlier)
                } else {
                    corpus[FIRST_DOC + positions[d][j] * span / POOL].clone()
                };
                models.push(model);
            }
            let documents: Vec<String> = models.iter().map(write_sbml).collect();
            Compose {
                request: Request::Compose {
                    models_xml: documents.clone(),
                },
                needle: format!("id=\"{}\"", models[0].id),
                documents,
            }
        })
        .collect()
}

fn inputs(seed: u64) -> Inputs {
    let options = ComposeOptions::default();
    let snapshot = {
        let prepared = BatchComposer::new(Composer::new(options.clone()))
            .with_threads(2)
            .prepare_corpus(&corpus_187());
        Snapshot::encode(
            &MatchIndex::build_with_threads(&prepared, &options, 2),
            &options,
        )
    };
    Inputs {
        options,
        snapshot,
        pool: pool(seed),
        seed,
    }
}

impl Inputs {
    fn stream(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rng = Rng::new(self.seed, 4);
        std::iter::repeat_with(move || permutation(&mut rng, POOL)).flatten()
    }

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
        matches!(ok_body(raw), Some((0, body)) if !body.is_empty()
            && String::from_utf8_lossy(&body[..body.len().min(4096)]).contains(&self.pool[q].needle))
    }
}

/// The daemon's COMPOSE, in process: parse every document, push each into
/// one session, finish, write. Returns the encoded answer and the merge
/// counts. Preparation (`sbml-compose.prepare`) is timed on the side: the
/// canonicalisation a push performs internally, measured standalone.
fn reference(
    options: &ComposeOptions,
    pool: &Arc<WorkerPool>,
    batch: &BatchComposer,
    documents: &[String],
    tr: &mut Tracer,
    parent: SpanId,
) -> (Vec<u8>, MergeStats) {
    let mut models = Vec::with_capacity(documents.len());
    for xml in documents {
        match tr.time("sbml-model.parse", parent, || parse_sbml(xml)) {
            Ok(model) => models.push(model),
            Err(e) => {
                return (
                    format!("reference could not parse: {e}").into_bytes(),
                    MergeStats::default(),
                )
            }
        }
    }
    for model in &models {
        tr.time("sbml-compose.prepare", parent, || {
            batch.prepare_corpus(std::slice::from_ref(model))
        });
    }
    let mut session = CompositionSession::new(options);
    session.set_pool(Arc::clone(pool));
    for model in &models {
        let pushed = tr.time("sbml-compose.push", parent, || {
            session.push_guarded(model, None)
        });
        if let Err(e) = pushed {
            return (
                format!("reference push failed: {e}").into_bytes(),
                MergeStats::default(),
            );
        }
    }
    let result = tr.time("sbml-compose.finish", parent, || session.finish());
    let body = tr.time("sbml-model.write", parent, || write_sbml(&result.model));
    (
        Response::Ok {
            code: 0,
            body: body.into_bytes(),
        }
        .encode(),
        result.log.stats(),
    )
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
    let mut captured = Vec::with_capacity(CHECKED);
    let mut stream = inputs.stream();
    let mut window = Window::open(args.seconds);
    while window.running() {
        let q = stream.next().expect("the stream is endless");
        let started = Instant::now();
        let raw = client.roundtrip_raw(&inputs.pool[q].request);
        window.record(started.elapsed(), true);
        let ok = raw.as_ref().is_ok_and(|raw| inputs.check(q, raw));
        report.check(ok, || format!("COMPOSE of pool request {q}"));
        if let (Ok(raw), true) = (raw, captured.len() < CHECKED) {
            captured.push((q, raw));
        }
    }
    let peak_rss = peak_rss_mb();
    drop(client);
    daemon.shutdown();

    let pool = Arc::new(WorkerPool::for_host());
    let batch = BatchComposer::new(Composer::new(inputs.options.clone())).with_threads(1);
    let mut scratch = Tracer::new();
    let root = scratch.open("check", None, 0);
    for (q, raw) in &captured {
        let (want, _) = reference(
            &inputs.options,
            &pool,
            &batch,
            &inputs.pool[*q].documents,
            &mut scratch,
            root,
        );
        if want != *raw {
            report.fail(format!(
                "COMPOSE of pool request {q} differs from the reference"
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

/// One pool cycle, untraced and then traced against the in-process
/// reference, each on a freshly started daemon.
fn traced(args: &Args, inputs: &Inputs) -> Report {
    let mut report = Report::default();
    let stream_print = |pool: &[Compose]| {
        inputs.stream().take(POOL).fold(FNV_OFFSET, |h, q| {
            pool[q]
                .documents
                .iter()
                .fold(h, |h, d| fingerprint(h, d.as_bytes()))
        })
    };
    if stream_print(&inputs.pool) != stream_print(&pool(args.seed)) {
        report.problem("the request stream is not a function of the seed".into());
    }

    let (daemon, load_a, _) = inputs.start();
    let mut client = daemon.client();
    let before_a = Stats::fetch(&mut client);
    let mut untraced = Latencies::default();
    for q in inputs.stream().take(POOL) {
        let started = Instant::now();
        let raw = client
            .roundtrip_raw(&inputs.pool[q].request)
            .expect("roundtrip");
        untraced.push(started.elapsed());
        report.check(inputs.check(q, &raw), || {
            format!("COMPOSE of pool request {q}")
        });
    }
    let stats_a = delta(&before_a, &Stats::fetch(&mut client));
    drop(client);
    daemon.shutdown();

    let pool = Arc::new(WorkerPool::for_host());
    let batch = BatchComposer::new(Composer::new(inputs.options.clone())).with_threads(1);
    let mut tracer = Tracer::new();
    let (daemon, load_b, _) = inputs.start();
    let mut client = daemon.client();
    let before_b = Stats::fetch(&mut client);
    let mut traced = Latencies::default();
    let mut merged = MergeStats::default();
    let mut hop_us = 0.0;
    for (r, q) in inputs.stream().take(POOL).enumerate() {
        let root = tracer.open("request", None, r as u32);
        let rtt = tracer.open("sbml-serve.roundtrip", Some(root), r as u32);
        let started = Instant::now();
        let raw = client
            .roundtrip_raw(&inputs.pool[q].request)
            .expect("roundtrip");
        traced.push(started.elapsed());
        tracer.close(rtt);
        let replay = tracer.open("replay", Some(root), r as u32);
        let (want, stats) = reference(
            &inputs.options,
            &pool,
            &batch,
            &inputs.pool[q].documents,
            &mut tracer,
            replay,
        );
        tracer.close(replay);
        tracer.close(root);
        report.check(inputs.check(q, &raw) && want == raw, || {
            format!("traced COMPOSE of pool request {q} differs from the reference")
        });
        merged.duplicates += stats.duplicates;
        merged.mapped += stats.mapped;
        merged.renamed += stats.renamed;
        merged.conflicts += stats.conflicts;
        hop_us += tracer.duration_us(rtt) - tracer.duration_us(replay)
            + tracer.child_us(replay, "sbml-compose.prepare");
    }
    let stats_b = delta(&before_b, &Stats::fetch(&mut client));
    drop(client);
    daemon.shutdown();
    tracer.write_out(&args.workload, args.seed);
    for diff in stats_diff(&stats_a, &stats_b) {
        report.problem(format!("STATS counters did not repeat: {diff}"));
    }

    let selfs = tracer.self_times();
    let mean = |name: &str| selfs.get(name).map(|&(_, us)| us).unwrap_or(0.0);
    let mut m = crate::PerLayer::default();
    m.set("sbml-model.parse_us", mean("sbml-model.parse"));
    m.set("sbml-model.write_us", mean("sbml-model.write"));
    m.set("sbml-compose.prepare_us", mean("sbml-compose.prepare"));
    m.set("sbml-compose.push_us", mean("sbml-compose.push"));
    m.set("sbml-compose.finish_us", mean("sbml-compose.finish"));
    m.set("sbml-compose.duplicates", merged.duplicates as f64);
    m.set("sbml-compose.mapped", merged.mapped as f64);
    m.set("sbml-compose.renamed", merged.renamed as f64);
    m.set("sbml-compose.conflicts", merged.conflicts as f64);
    m.set("sbml-serve.hop_us", hop_us / POOL as f64);
    m.set("sbml-serve.snapshot_load_s", (load_a + load_b) / 2.0);
    m.serve_stats(&stats_b);
    m.set(
        "perfbench.trace_overhead_us",
        traced.mean_us() - untraced.mean_us(),
    );
    m.finish(&mut report);
    report
}
