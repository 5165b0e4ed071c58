//! `cluster_rw`: a coordinator in front of two shard daemons carved from
//! a scale-tier corpus, taking 80% MATCH and 20% writes. Reads come from a
//! hot set that fits in the coordinator cache; every write clears that
//! cache. The writes — a fresh UPSERT, a replacing UPSERT and a REMOVE per
//! 15-request cycle — keep the live count level while tombstones pile up,
//! so every shard compacts during a run. Scatter, merge and the write
//! path do real work.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use biomodels_corpus::{corpus_scale, query_fragment, scale_model, SCALE_MOTIF_FAMILIES};
use sbml_cluster::{carve_all, merge_matches, Coordinator, CoordinatorConfig};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::write_sbml;
use sbml_serve::{
    Client, PartialMatches, Request, Response, Server, ServerConfig, ShardIdentity, Snapshot,
};

use crate::harness::{
    delta, fingerprint, median, ok_body, peak_rss_mb, repeated_setup, stats_diff, Args, Daemon,
    Latencies, Report, Rng, Stats, Window, FNV_OFFSET,
};
use crate::reference::Reference;
use crate::trace::Tracer;

const CORPUS: usize = 2000;
const SHARDS: usize = 2;
/// Hot read set: fragments of models no write ever touches.
const HOT: usize = 128;
/// Every fourth block of `SCALE_MOTIF_FAMILIES` consecutive corpus
/// models may be replaced or removed: the same number of models of every
/// motif family.
const CHURN_EVERY: usize = 4;
/// Fresh models available to UPSERT; ids are reused only long after
/// their previous incarnation was removed.
const FRESH: usize = 4096;
/// Requests per cycle and the positions of its three writes.
const CYCLE: usize = 15;
const FRESH_AT: usize = 4;
const REPLACE_AT: usize = 9;
const REMOVE_AT: usize = 14;
/// Window cycles compared byte for byte with the reference afterwards.
const CHECKED_CYCLES: usize = 40;
/// Cycles in each pass of the traced run.
const TRACED_CYCLES: usize = 480;
const TOP_K: usize = 10;

#[derive(Clone, Copy)]
enum Op {
    Read(usize),
    Upsert { doc: usize, fresh: bool },
    Remove(usize),
}

struct Doc {
    id: String,
    xml: String,
    upsert: Request,
    remove: Request,
}

struct Hot {
    xml: String,
    request: Request,
    needle: String,
    host: String,
}

struct Inputs {
    options: ComposeOptions,
    snapshot: Vec<u8>,
    hot: Vec<Hot>,
    /// Churn-set corpus models first, then the fresh models.
    docs: Vec<Doc>,
    churn: usize,
    seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let options = ComposeOptions::default();
    let models = corpus_scale(CORPUS);
    let index = build(&models, &options);
    let snapshot = Snapshot::encode(&index, &options);
    let (hot, docs, churn) = requests(seed, &models, &index);
    Inputs {
        options,
        snapshot,
        hot,
        docs,
        churn,
        seed,
    }
}

fn build(models: &[sbml_model::Model], options: &ComposeOptions) -> MatchIndex {
    let prepared = BatchComposer::new(Composer::new(options.clone()))
        .with_threads(2)
        .prepare_corpus(models);
    MatchIndex::build_sharded(&prepared, options, 2, SHARDS)
}

/// The hot read set and the write documents, from the seed. The hot set
/// is stratified by candidate count: drawn as `STRATA` times too many
/// fragments, ranked by how many corpus models they are candidates in,
/// and thinned to every `STRATA`-th, so every seed reads the same mix of
/// cheap (unique-tail) and expensive (shared-motif) queries.
fn requests(
    seed: u64,
    models: &[sbml_model::Model],
    index: &MatchIndex,
) -> (Vec<Hot>, Vec<Doc>, usize) {
    const STRATA: usize = 4;
    let mut rng = Rng::new(seed, 5);
    let mut drawn = Vec::with_capacity(HOT * STRATA);
    while drawn.len() < HOT * STRATA {
        let i = rng.below(models.len());
        let fragment = query_fragment(&models[i], rng.below(1 << 16), 1);
        if churns(i) || fragment.species.is_empty() {
            continue;
        }
        drawn.push((index.candidates(&fragment).len(), i, fragment));
    }
    drawn.sort_by_key(|&(candidates, ..)| candidates);
    let offset = rng.below(STRATA);
    let hot: Vec<Hot> = drawn
        .into_iter()
        .skip(offset)
        .step_by(STRATA)
        .map(|(_, i, fragment)| {
            let xml = write_sbml(&fragment);
            Hot {
                request: Request::Match {
                    query_xml: xml.clone(),
                },
                xml,
                needle: format!(" ({}): species [", models[i].id),
                host: models[i].id.clone(),
            }
        })
        .collect();
    let doc = |model: &sbml_model::Model| {
        let xml = write_sbml(model);
        Doc {
            id: model.id.clone(),
            upsert: Request::Upsert {
                model_xml: xml.clone(),
                slot: None,
            },
            remove: Request::Remove {
                model_id: model.id.clone(),
            },
            xml,
        }
    };
    let mut docs: Vec<Doc> = models
        .iter()
        .enumerate()
        .filter(|&(i, _)| churns(i))
        .map(|(_, m)| doc(m))
        .collect();
    let churn = docs.len();
    docs.extend((0..FRESH).map(|k| doc(&scale_model(CORPUS + k))));
    (hot, docs, churn)
}

fn churns(model: usize) -> bool {
    (model / SCALE_MOTIF_FAMILIES).is_multiple_of(CHURN_EVERY)
}

/// The motif family of corpus or fresh model `i`.
fn family(i: usize) -> usize {
    i % SCALE_MOTIF_FAMILIES
}

/// The request stream. Removals take the oldest churn-set member, fresh
/// inserts join the back of the queue, and replacements re-upsert a
/// random member. The initial queue is ordered so that the model the
/// k-th cycle removes is of the same motif family as the one it
/// inserts: at every cycle boundary the live count, and the live count
/// of every family, are what they were at the start.
struct Stream {
    rng: Rng,
    queue: VecDeque<usize>,
    fresh: usize,
    churn: usize,
}

impl Stream {
    fn new(inputs: &Inputs) -> Stream {
        let mut rng = Rng::new(inputs.seed, 6);
        let mut by_family: Vec<Vec<usize>> = vec![Vec::new(); SCALE_MOTIF_FAMILIES];
        for (doc, model) in (0..CORPUS).filter(|&i| churns(i)).enumerate() {
            by_family[family(model)].push(doc);
        }
        for members in &mut by_family {
            for i in (1..members.len()).rev() {
                members.swap(i, rng.below(i + 1));
            }
        }
        let queue = (0..inputs.churn)
            .map(|k| {
                by_family[family(CORPUS + k)]
                    .pop()
                    .expect("every family churns equally")
            })
            .collect();
        Stream {
            rng,
            queue,
            fresh: 0,
            churn: inputs.churn,
        }
    }

    /// The next whole cycle of operations.
    fn cycle(&mut self) -> [Op; CYCLE] {
        let mut ops = [Op::Read(0); CYCLE];
        for (i, op) in ops.iter_mut().enumerate() {
            *op = match i {
                FRESH_AT => {
                    let doc = self.churn + self.fresh % FRESH;
                    self.fresh += 1;
                    self.queue.push_back(doc);
                    Op::Upsert { doc, fresh: true }
                }
                REPLACE_AT => Op::Upsert {
                    doc: self.queue[self.rng.below(self.queue.len())],
                    fresh: false,
                },
                REMOVE_AT => Op::Remove(
                    self.queue
                        .pop_front()
                        .expect("the churn queue never empties"),
                ),
                _ => Op::Read(self.rng.below(HOT)),
            };
        }
        ops
    }
}

/// The cluster under test: coordinator plus shard daemons.
struct Cluster {
    coordinator: Daemon,
    shards: Vec<Daemon>,
}

impl Cluster {
    fn stop(self) {
        self.coordinator.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Bind one shard daemon per carved shard.
fn bind_shards(carved: Vec<(MatchIndex, ShardIdentity)>, options: &ComposeOptions) -> Vec<Daemon> {
    carved
        .into_iter()
        .map(|(local, identity)| {
            let server = Server::bind_shard(
                "127.0.0.1:0",
                local,
                options.clone(),
                ServerConfig::default(),
                identity,
            )
            .expect("bind a shard daemon on loopback");
            Daemon::spawn(server.local_addr(), move || server.run())
        })
        .collect()
}

impl Inputs {
    /// Load the snapshot, carve it, bind the shards and the coordinator,
    /// and have the coordinator answer STATS. Returns the cluster, load
    /// time, carve time and the whole set-up time.
    fn start(&self) -> (Cluster, f64, f64, f64) {
        let started = Instant::now();
        let loaded =
            Snapshot::load_bytes(&self.snapshot, &self.options, 0).expect("snapshot loads");
        let load_s = started.elapsed().as_secs_f64();
        let carve_started = Instant::now();
        let carved = carve_all(&loaded.index, &self.options, 0).expect("carve every shard");
        let carve_s = carve_started.elapsed().as_secs_f64();
        drop(loaded);
        let shards = bind_shards(carved, &self.options);
        let addrs: Vec<String> = shards.iter().map(|s| s.addr.to_string()).collect();
        let config = CoordinatorConfig {
            options: Some(self.options.clone()),
            ..CoordinatorConfig::default()
        };
        let coordinator =
            Coordinator::bind("127.0.0.1:0", &addrs, config).expect("bind the coordinator");
        let coordinator = Daemon::spawn(coordinator.local_addr(), move || coordinator.run());
        Stats::fetch(&mut coordinator.client());
        (
            Cluster {
                coordinator,
                shards,
            },
            load_s,
            carve_s,
            started.elapsed().as_secs_f64(),
        )
    }

    fn request(&self, op: Op) -> &Request {
        match op {
            Op::Read(h) => &self.hot[h].request,
            Op::Upsert { doc, .. } => &self.docs[doc].upsert,
            Op::Remove(doc) => &self.docs[doc].remove,
        }
    }

    /// The answer's shape: a read names its host, a write acknowledges
    /// exactly what was asked.
    fn check(&self, op: Op, raw: &[u8]) -> bool {
        let Some((code, body)) = ok_body(raw) else {
            return false;
        };
        let body = String::from_utf8_lossy(&body);
        match op {
            Op::Read(h) => {
                code == 0
                    && body
                        .lines()
                        .any(|l| l.starts_with("exact ") && l.contains(&self.hot[h].needle))
            }
            Op::Upsert { doc, fresh } => {
                let verb = if fresh { "inserted" } else { "replaced" };
                code == 0 && body.starts_with(&format!("{verb} {} model ", self.docs[doc].id))
            }
            Op::Remove(doc) => code == 0 && body == format!("removed {}\n", self.docs[doc].id),
        }
    }

    fn describe(&self, op: Op) -> String {
        match op {
            Op::Read(h) => format!("MATCH for host {}", self.hot[h].host),
            Op::Upsert { doc, .. } => format!("UPSERT {}", self.docs[doc].id),
            Op::Remove(doc) => format!("REMOVE {}", self.docs[doc].id),
        }
    }

    fn warm_up(&self, client: &mut Client) {
        for hot in &self.hot {
            client
                .roundtrip_raw(&hot.request)
                .expect("warm-up roundtrip");
        }
    }

    fn reference(&self, cache_capacity: usize) -> Reference {
        let loaded =
            Snapshot::load_bytes(&self.snapshot, &self.options, 0).expect("snapshot loads");
        Reference::new(loaded.index, &self.options, cache_capacity)
    }

    /// The reference's answer to `op`.
    fn expect(
        &self,
        reference: &mut Reference,
        op: Op,
        tr: &mut Tracer,
        parent: usize,
    ) -> (Vec<u8>, bool) {
        match op {
            Op::Read(h) => {
                let (answer, hit) = reference.matches(&self.hot[h].xml, tr, parent);
                (answer.to_vec(), hit)
            }
            Op::Upsert { doc, .. } => (
                reference.upsert(&self.docs[doc].xml, tr, parent).to_vec(),
                false,
            ),
            Op::Remove(doc) => (
                reference.remove(&self.docs[doc].id, tr, parent).to_vec(),
                false,
            ),
        }
    }
}

/// Live models, tombstones, generations and the compactions between two
/// coordinator STATS snapshots: per shard, the index generation grows by
/// one per insert, remove and compaction.
struct Drift {
    live_before: u64,
    live_after: u64,
    compactions: u64,
}

fn drift(before: &Stats, after: &Stats) -> Drift {
    let sum = |s: &Stats, key: &str| {
        s.shards()
            .iter()
            .map(|b| b.get(key).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let mut compactions = 0;
    for (b, a) in before.shards().iter().zip(after.shards()) {
        let get = |m: &std::collections::BTreeMap<String, u64>, k: &str| {
            m.get(k).copied().unwrap_or(0) as i64
        };
        let removes = get(a, "tombstoned_models") - get(b, "tombstoned_models");
        let inserts = get(a, "live_models") - get(b, "live_models") + removes;
        let generations = get(a, "index_generation") - get(b, "index_generation");
        compactions += (generations - inserts - removes).max(0) as u64;
    }
    Drift {
        live_before: sum(before, "live_models"),
        live_after: sum(after, "live_models"),
        compactions,
    }
}

pub fn run(args: &Args) -> Report {
    let inputs = inputs(args.seed);
    if args.trace {
        return traced(args, &inputs);
    }
    let mut report = Report::default();
    let (cluster, setups) = repeated_setup(
        || {
            let (cluster, _, _, setup) = inputs.start();
            (cluster, setup)
        },
        Cluster::stop,
    );
    let mut client = cluster.coordinator.client();
    inputs.warm_up(&mut client);
    let before = Stats::fetch(&mut client);

    let mut captured: Vec<(Op, Vec<u8>)> = Vec::with_capacity(CHECKED_CYCLES * CYCLE);
    let mut stream = Stream::new(&inputs);
    let mut window = Window::open(args.seconds);
    while window.running() {
        for op in stream.cycle() {
            let started = Instant::now();
            let raw = client.roundtrip_raw(inputs.request(op));
            let took = started.elapsed();
            window.record(took, matches!(op, Op::Read(_)));
            let ok = raw.as_ref().is_ok_and(|raw| inputs.check(op, raw));
            report.check(ok, || inputs.describe(op));
            if captured.len() < CHECKED_CYCLES * CYCLE {
                captured.push((op, raw.unwrap_or_default()));
            }
        }
    }
    let after = Stats::fetch(&mut client);
    let peak_rss = peak_rss_mb();
    drop(client);
    cluster.stop();
    stationarity(&mut report, &before, &after, true);

    // Byte for byte against the in-process reference, in request order.
    let mut reference = inputs.reference(0);
    let mut scratch = Tracer::new();
    let root = scratch.open("check", None, 0);
    for (op, raw) in &captured {
        let (want, _) = inputs.expect(&mut reference, *op, &mut scratch, root);
        if want != *raw {
            report.fail(format!(
                "{} differs from the reference",
                inputs.describe(*op)
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

/// Fail the run when the live count drifted over a window, or when the
/// window was meant to compact and no shard did.
fn stationarity(report: &mut Report, before: &Stats, after: &Stats, must_compact: bool) -> Drift {
    let d = drift(before, after);
    if d.live_before != d.live_after {
        report.problem(format!(
            "live models drifted from {} to {}",
            d.live_before, d.live_after
        ));
    }
    if must_compact && d.compactions == 0 {
        report.problem("no shard compacted during the window".into());
    }
    d
}

/// The shard daemons the traced run probes directly: a replica of the
/// cluster's shards receiving the PMATCH frames the coordinator sends
/// (so their caches evolve like the real shards') and the same routed
/// writes.
struct Probes {
    daemons: Vec<Daemon>,
    clients: Vec<Client>,
    universe: u64,
}

impl Probes {
    fn new(inputs: &Inputs) -> Probes {
        let loaded =
            Snapshot::load_bytes(&inputs.snapshot, &inputs.options, 0).expect("snapshot loads");
        let universe = loaded.index.slot_universe() as u64;
        let carved = carve_all(&loaded.index, &inputs.options, 0).expect("carve every shard");
        let daemons = bind_shards(carved, &inputs.options);
        let clients = daemons.iter().map(Daemon::client).collect();
        Probes {
            daemons,
            clients,
            universe,
        }
    }

    /// PMATCH on every shard at once, as the coordinator scatters it:
    /// each shard's start and round trip, and its partial answer.
    fn scatter(&mut self, xml: &str) -> Vec<(Instant, Duration, Option<PartialMatches>)> {
        let request = Request::PartialMatch {
            query_xml: xml.to_owned(),
        };
        std::thread::scope(|scope| {
            let calls: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let request = &request;
                    scope.spawn(move || {
                        let started = Instant::now();
                        let raw = client.roundtrip_raw(request);
                        let took = started.elapsed();
                        let part = raw.ok().and_then(|raw| match Response::decode(&raw) {
                            Ok(Response::Ok { body, .. }) => PartialMatches::decode(&body).ok(),
                            _ => None,
                        });
                        (started, took, part)
                    })
                })
                .collect();
            calls
                .into_iter()
                .map(|c| c.join().expect("probe thread"))
                .collect()
        })
    }

    /// Route a write exactly as the coordinator does.
    fn write(&mut self, op: Op, inputs: &Inputs) {
        let n = self.clients.len();
        let send = |client: &mut Client, request: &Request| {
            client.roundtrip(request).expect("probe write");
        };
        match op {
            Op::Upsert { doc, .. } => {
                let target = (self.universe % n as u64) as usize;
                let pinned = Request::Upsert {
                    model_xml: inputs.docs[doc].xml.clone(),
                    slot: Some(self.universe),
                };
                send(&mut self.clients[target], &pinned);
                for (i, client) in self.clients.iter_mut().enumerate() {
                    if i != target {
                        send(client, &inputs.docs[doc].remove);
                    }
                }
                self.universe += 1;
            }
            Op::Remove(doc) => {
                for client in &mut self.clients {
                    send(client, &inputs.docs[doc].remove);
                }
            }
            Op::Read(_) => {}
        }
    }

    fn stop(self) {
        drop(self.clients);
        for daemon in self.daemons {
            daemon.shutdown();
        }
    }
}

/// `TRACED_CYCLES` cycles untraced, then the same cycles traced: the
/// coordinator, a single daemon over the same corpus, the probe shards
/// and the in-process reference all see every operation in lockstep.
fn traced(args: &Args, inputs: &Inputs) -> Report {
    let mut report = Report::default();
    let print = |inputs: &Inputs, hot: &[Hot], docs: &[Doc]| {
        let mut stream = Stream::new(inputs);
        let mut h = FNV_OFFSET;
        for _ in 0..TRACED_CYCLES {
            for op in stream.cycle() {
                h = fingerprint(
                    h,
                    match op {
                        Op::Read(i) => hot[i].xml.as_bytes(),
                        Op::Upsert { doc, .. } | Op::Remove(doc) => docs[doc].xml.as_bytes(),
                    },
                );
            }
        }
        h
    };
    let models = corpus_scale(CORPUS);
    let (hot2, docs2, _) = requests(args.seed, &models, &build(&models, &inputs.options));
    if print(inputs, &inputs.hot, &inputs.docs) != print(inputs, &hot2, &docs2) {
        report.problem("the request stream is not a function of the seed".into());
    }
    drop((hot2, docs2, models));

    // Pass A: untraced, through the coordinator only.
    let (cluster, load_a, carve_a, _) = inputs.start();
    let mut client = cluster.coordinator.client();
    inputs.warm_up(&mut client);
    let before_a = Stats::fetch(&mut client);
    let mut reads_a = Latencies::default();
    let mut writes_a = Latencies::default();
    let mut stream = Stream::new(inputs);
    for _ in 0..TRACED_CYCLES {
        for op in stream.cycle() {
            let started = Instant::now();
            let raw = client.roundtrip_raw(inputs.request(op)).expect("roundtrip");
            match op {
                Op::Read(_) => reads_a.push(started.elapsed()),
                _ => writes_a.push(started.elapsed()),
            }
            report.check(inputs.check(op, &raw), || inputs.describe(op));
        }
    }
    let after_a = Stats::fetch(&mut client);
    drop(client);
    cluster.stop();
    stationarity(&mut report, &before_a, &after_a, false);

    // Pass B: traced, in lockstep with the single daemon, the probe
    // shards and the reference.
    let (cluster, load_b, carve_b, _) = inputs.start();
    let oracle = {
        let index = Snapshot::load_bytes(&inputs.snapshot, &inputs.options, 0)
            .expect("snapshot loads")
            .index;
        let server = Server::bind(
            "127.0.0.1:0",
            index,
            inputs.options.clone(),
            ServerConfig::default(),
        )
        .expect("bind the single daemon");
        Daemon::spawn(server.local_addr(), move || server.run())
    };
    let mut lockstep = Lockstep {
        inputs,
        coordinator: cluster.coordinator.client(),
        single: oracle.client(),
        probes: Probes::new(inputs),
        reference: inputs.reference(ServerConfig::default().cache_capacity),
        tracer: Tracer::new(),
        reads: Latencies::default(),
        hop_us: Vec::new(),
        rtt_max_us: Vec::new(),
        rtt_mean_us: Vec::new(),
    };
    let mut warm_report = Report::default();
    for h in 0..HOT {
        lockstep.step(u32::MAX, Op::Read(h), &mut warm_report, false);
    }
    if !warm_report.correct() {
        report.problem("traced warm-up answers disagree".into());
    }
    // The warm-up's spans and counts are not part of the measurement.
    lockstep.reference.counts = Default::default();
    lockstep.tracer = Tracer::new();
    let before_b = Stats::fetch(&mut cluster.coordinator.client());
    let mut stream = Stream::new(inputs);
    let mut r = 0u32;
    for _ in 0..TRACED_CYCLES {
        for op in stream.cycle() {
            lockstep.step(r, op, &mut report, true);
            r += 1;
        }
    }
    let after_b = Stats::fetch(&mut cluster.coordinator.client());
    let Lockstep {
        coordinator,
        single,
        probes,
        reference,
        tracer,
        reads,
        hop_us,
        rtt_max_us,
        rtt_mean_us,
        ..
    } = lockstep;
    drop((coordinator, single));
    cluster.stop();
    oracle.shutdown();
    probes.stop();
    tracer.write_out(&args.workload, args.seed);

    let d = stationarity(&mut report, &before_b, &after_b, false);
    let stats_a = delta(&before_a, &after_a);
    let stats_b = delta(&before_b, &after_b);
    for diff in stats_diff(&stats_a, &stats_b) {
        report.problem(format!("STATS counters did not repeat: {diff}"));
    }
    let counts = reference.counts.clone();
    if d.compactions != counts.compactions {
        report.problem(format!(
            "shards compacted {} times, the reference {} times",
            d.compactions, counts.compactions
        ));
    }

    let selfs = tracer.self_times();
    let mean = |name: &str| selfs.get(name).map(|&(_, us)| us).unwrap_or(0.0);
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mut m = crate::PerLayer::default();
    m.matching(&selfs, &counts);
    m.set("sbml-match.insert_us", mean("sbml-match.insert"));
    m.set("sbml-match.remove_us", mean("sbml-match.remove"));
    m.set("sbml-match.compactions", d.compactions as f64);
    m.set("sbml-compose.prepare_us", mean("sbml-compose.prepare"));
    m.set("sbml-serve.snapshot_load_s", (load_a + load_b) / 2.0);
    m.set("write_p50_ms", writes_a.percentile_ms(50.0));
    m.set("write_p99_ms", writes_a.percentile_ms(99.0));
    m.set("sbml-cluster.hop_us", avg(&hop_us));
    m.set("sbml-cluster.shard_rtt_max_us", avg(&rtt_max_us));
    m.set("sbml-cluster.shard_rtt_mean_us", avg(&rtt_mean_us));
    m.set("sbml-cluster.merge_us", mean("sbml-cluster.merge"));
    m.set("sbml-cluster.carve_s", (carve_a + carve_b) / 2.0);
    m.serve_stats(&stats_b);
    m.set(
        "perfbench.trace_overhead_us",
        reads.mean_us() - reads_a.mean_us(),
    );
    m.finish(&mut report);
    report
}

/// Everything the traced pass drives in lockstep.
struct Lockstep<'a> {
    inputs: &'a Inputs,
    coordinator: Client,
    single: Client,
    probes: Probes,
    reference: Reference,
    tracer: Tracer,
    reads: Latencies,
    hop_us: Vec<f64>,
    rtt_max_us: Vec<f64>,
    rtt_mean_us: Vec<f64>,
}

impl Lockstep<'_> {
    /// One operation: the coordinator's answer must equal the single
    /// daemon's, the reference's and — on a coordinator cache miss — the
    /// merge of the probe shards' partial answers.
    fn step(&mut self, r: u32, op: Op, report: &mut Report, timed: bool) {
        let inputs = self.inputs;
        let tracer = &mut self.tracer;
        let root = tracer.open("request", None, r);
        let is_read = matches!(op, Op::Read(_));
        let (c_name, s_name) = if is_read {
            ("sbml-cluster.roundtrip", "sbml-serve.roundtrip")
        } else {
            ("sbml-cluster.write_roundtrip", "sbml-serve.write_roundtrip")
        };
        let c_span = tracer.open(c_name, Some(root), r);
        let started = Instant::now();
        let got = self
            .coordinator
            .roundtrip_raw(inputs.request(op))
            .expect("coordinator roundtrip");
        let took = started.elapsed();
        tracer.close(c_span);
        let s_span = tracer.open(s_name, Some(root), r);
        let single = self
            .single
            .roundtrip_raw(inputs.request(op))
            .expect("single daemon roundtrip");
        tracer.close(s_span);
        let replay = tracer.open("replay", Some(root), r);
        let (want, hit) = inputs.expect(&mut self.reference, op, tracer, replay);
        tracer.close(replay);
        let mut merged_ok = true;
        match op {
            Op::Read(h) if !hit => {
                let scatter = tracer.open("scatter", Some(root), r);
                let parts = self.probes.scatter(&inputs.hot[h].xml);
                tracer.close(scatter);
                let (mut max, mut sum) = (0.0f64, 0.0);
                for (started, took, _) in &parts {
                    tracer.record("sbml-cluster.shard_rtt", scatter, *started, *took);
                    max = max.max(took.as_secs_f64() * 1e6);
                    sum += took.as_secs_f64() * 1e6;
                }
                let parts: Option<Vec<PartialMatches>> =
                    parts.into_iter().map(|(_, _, p)| p).collect();
                merged_ok = parts.is_some_and(|parts| {
                    let (code, text) =
                        tracer.time("sbml-cluster.merge", root, || merge_matches(&parts, TOP_K));
                    Response::Ok {
                        code,
                        body: text.into_bytes(),
                    }
                    .encode()
                        == want
                });
                if timed {
                    self.rtt_max_us.push(max);
                    self.rtt_mean_us.push(sum / SHARDS as f64);
                    self.hop_us
                        .push(tracer.duration_us(c_span) - tracer.duration_us(s_span));
                }
            }
            Op::Read(_) => {}
            _ => self.probes.write(op, inputs),
        }
        tracer.close(root);
        if timed && is_read {
            self.reads.push(took);
        }
        report.check(
            inputs.check(op, &got) && got == single && got == want && merged_ok,
            || {
                format!(
                    "traced {} disagrees with the single daemon or the reference",
                    inputs.describe(op)
                )
            },
        );
    }
}
