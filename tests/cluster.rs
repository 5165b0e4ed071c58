//! In-process cluster tests: real shard daemons and a real coordinator
//! on ephemeral loopback ports, checked bit-for-bit against a
//! single-process daemon over the same corpus.
//!
//! The load-bearing property: every `MATCH`/`QUERY`/`UPSERT`/`REMOVE`
//! answer a coordinator gives is the exact bytes the single-process
//! daemon gives, at every shard count and semantics level, including
//! under randomized write interleavings. Fault injection rides the same
//! harness: a killed shard degrades reads to a partial answer (exit 4,
//! shard named) and fails writes loudly.

use std::net::SocketAddr;
use std::thread;

use sbmlcompose::cluster::{carve_all, Coordinator, CoordinatorConfig, RetryPolicy};
use sbmlcompose::compose::{BatchComposer, ComposeOptions, Composer};
use sbmlcompose::corpus::{corpus_slice, query_fragment, scale_model};
use sbmlcompose::matching::MatchIndex;
use sbmlcompose::model::{write_sbml, Model};
use sbmlcompose::serve::{Client, Request, Response, Server, ServerConfig};

/// A deterministic LCG — the tests need reproducible "random"
/// interleavings, not entropy.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

struct Cluster {
    coordinator: SocketAddr,
    shards: Vec<SocketAddr>,
    shard_handles: Vec<Option<thread::JoinHandle<()>>>,
    coordinator_handle: Option<thread::JoinHandle<()>>,
}

impl Cluster {
    /// Carve `index` into one daemon per physical shard, bind each on an
    /// ephemeral port, and put a coordinator in front.
    fn spawn(
        index: &MatchIndex,
        options: &ComposeOptions,
        retry: RetryPolicy,
        cache_capacity: usize,
    ) -> Cluster {
        let carved = carve_all(index, options, 2).expect("carve every shard");
        let mut shards = Vec::new();
        let mut addr_strings = Vec::new();
        let mut shard_handles = Vec::new();
        for (local, identity) in carved {
            let config =
                ServerConfig { threads: 2, cache_capacity, ..ServerConfig::default() };
            let server =
                Server::bind_shard("127.0.0.1:0", local, options.clone(), config, identity)
                    .expect("bind shard daemon");
            let addr = server.local_addr();
            shards.push(addr);
            addr_strings.push(addr.to_string());
            shard_handles.push(Some(thread::spawn(move || {
                let _ = server.run();
            })));
        }
        let config = CoordinatorConfig {
            threads: 2,
            cache_capacity,
            retry,
            ..CoordinatorConfig::default()
        };
        let coordinator = Coordinator::bind("127.0.0.1:0", &addr_strings, config)
            .expect("bind coordinator");
        let addr = coordinator.local_addr();
        let coordinator_handle = Some(thread::spawn(move || {
            let _ = coordinator.run();
        }));
        Cluster { coordinator: addr, shards, shard_handles, coordinator_handle }
    }

    /// SHUTDOWN one shard daemon and wait for its thread to exit — only
    /// then is the port certifiably dead (the daemon drains in-flight
    /// requests before closing, so a live socket could still answer).
    fn kill_shard(&mut self, shard: usize) {
        let mut victim = Client::connect(self.shards[shard]).expect("connect victim");
        match victim.roundtrip(&Request::Shutdown).expect("shutdown victim") {
            Response::Ok { code: 0, .. } => {}
            other => panic!("victim shutdown not acknowledged: {other:?}"),
        }
        if let Some(handle) = self.shard_handles[shard].take() {
            handle.join().expect("victim daemon thread exits");
        }
    }

    /// Shut everything down (coordinator first) and join the threads.
    /// Already-dead daemons are fine — fault tests kill shards early.
    fn shutdown(self) {
        for addr in std::iter::once(self.coordinator).chain(self.shards) {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.roundtrip(&Request::Shutdown);
            }
        }
        for handle in
            self.shard_handles.into_iter().chain(std::iter::once(self.coordinator_handle))
        {
            let _ = handle.map(|h| h.join());
        }
    }
}

/// Bind a single-process daemon over `index` with a `cache_capacity`
/// entry cache (0: uncached, the oracle the cluster must be
/// indistinguishable from).
fn spawn_daemon(
    index: MatchIndex,
    options: &ComposeOptions,
    cache_capacity: usize,
) -> (SocketAddr, thread::JoinHandle<()>) {
    let config = ServerConfig { threads: 2, cache_capacity, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", index, options.clone(), config)
        .expect("bind daemon");
    let addr = server.local_addr();
    let handle = thread::spawn(move || {
        let _ = server.run();
    });
    (addr, handle)
}

fn prepare(options: &ComposeOptions, models: &[Model]) -> Vec<std::sync::Arc<sbmlcompose::compose::PreparedModel>> {
    BatchComposer::new(Composer::new(options.clone())).with_threads(2).prepare_corpus(models)
}

/// The `models` counts of a coordinator STATS answer: the coordinator's
/// own, then one entry per shard block (`None` for a dead shard).
fn stats_models(coord: &mut Client) -> (u64, Vec<Option<u64>>) {
    let body = match coord.roundtrip(&Request::Stats).expect("stats") {
        Response::Ok { code: 0, body } => String::from_utf8(body).expect("utf-8 stats"),
        other => panic!("STATS failed: {other:?}"),
    };
    let mut own = None;
    let mut shards: Vec<Option<u64>> = Vec::new();
    for line in body.lines() {
        if line.starts_with("-- ") {
            shards.push(None);
        } else if let Some(count) = line.strip_prefix("models ") {
            let count = Some(count.parse().expect("models count"));
            match shards.last_mut() {
                Some(shard) => *shard = count,
                None => own = count,
            }
        }
    }
    (own.expect("coordinator models line"), shards)
}

/// Send `request` to the uncached oracle (`peers[0]`) and to every
/// other peer, and require byte-identical frames — response header,
/// exit code, and body all at once.
fn lockstep(peers: &mut [(&str, Client)], request: &Request, what: &str) {
    let (oracle, others) = peers.split_first_mut().expect("an oracle");
    let want = oracle.1.roundtrip_raw(request).expect("oracle roundtrip");
    for (name, peer) in others {
        let got = peer.roundtrip_raw(request).expect("peer roundtrip");
        assert_eq!(
            got,
            want,
            "{what}: the {name} diverged from the uncached single-process daemon\n\
             oracle: {:?}\n{name}: {:?}",
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
        );
    }
}

/// MATCH and QUERY of every query, in lockstep.
fn reread(peers: &mut [(&str, Client)], queries: &[String], what: &str) {
    for (i, xml) in queries.iter().enumerate() {
        let request = Request::Match { query_xml: xml.clone() };
        lockstep(peers, &request, &format!("{what}, MATCH query {i}"));
        let request = Request::Query { query_xml: xml.clone() };
        lockstep(peers, &request, &format!("{what}, QUERY query {i}"));
    }
}

/// The core property, and the oracle for caching: at shard counts 1, 2
/// and 4, a freshly carved cached cluster and a cached standalone daemon
/// answer every read bit-identically to an *uncached* daemon, stay so
/// through a randomized UPSERT/REMOVE interleaving with every query
/// re-read after every write, and the writes themselves echo the same
/// bytes. A cached answer a write should have evicted shows up as a
/// divergence from the oracle.
fn bit_identity_under_interleaving(options: ComposeOptions, seed: u64) {
    let models = corpus_slice(58..70);
    let prepared = prepare(&options, &models);
    let mut queries: Vec<Model> = (0..4)
        .map(|i| query_fragment(&models[(i * 3) % models.len()], i, 1 + i % 2))
        .collect();
    // Fragments of models a fresh UPSERT may insert (their answers gain
    // a hit), and a query without species (it embeds everywhere, so
    // every write changes its answer).
    queries.push(query_fragment(&scale_model(200), 0, 1));
    queries.push(query_fragment(&scale_model(203), 1, 1));
    queries.push(Model::new("no_species"));
    let queries: Vec<String> = queries.iter().map(write_sbml).collect();

    for shards in [1usize, 2, 4] {
        let index = MatchIndex::build_sharded(&prepared, &options, 2, shards);
        let cluster = Cluster::spawn(&index, &options, RetryPolicy::default(), 16);
        let oracle_index = MatchIndex::build_sharded(&prepared, &options, 2, shards);
        let (oracle_addr, oracle_handle) = spawn_daemon(oracle_index, &options, 0);
        let daemon_index = MatchIndex::build_sharded(&prepared, &options, 2, shards);
        let (daemon_addr, daemon_handle) = spawn_daemon(daemon_index, &options, 16);
        let mut peers = [
            ("oracle", Client::connect(oracle_addr).expect("connect oracle")),
            ("cached daemon", Client::connect(daemon_addr).expect("connect daemon")),
            ("coordinator", Client::connect(cluster.coordinator).expect("connect coordinator")),
        ];
        reread(&mut peers, &queries, &format!("{shards} shard(s)"));

        // A randomized write interleaving, replayed in lockstep. Fresh
        // inserts, same-id replacements, removals of live and absent
        // ids — every query re-read after every write.
        let mut rng = seed ^ shards as u64;
        let mut ids: Vec<String> = models.iter().map(|m| m.id.clone()).collect();
        for step in 0..16 {
            let what = format!("{shards} shard(s), step {step}");
            match lcg(&mut rng) % 4 {
                0 => {
                    let fresh = scale_model(200 + step);
                    ids.push(fresh.id.clone());
                    let request =
                        Request::Upsert { model_xml: write_sbml(&fresh), slot: None };
                    lockstep(&mut peers, &request, &format!("{what}, fresh UPSERT"));
                }
                1 => {
                    let target = &models[lcg(&mut rng) as usize % models.len()];
                    let request =
                        Request::Upsert { model_xml: write_sbml(target), slot: None };
                    lockstep(&mut peers, &request, &format!("{what}, replace UPSERT"));
                }
                2 if !ids.is_empty() => {
                    let id = ids.remove(lcg(&mut rng) as usize % ids.len());
                    let request = Request::Remove { model_id: id };
                    lockstep(&mut peers, &request, &format!("{what}, REMOVE"));
                }
                _ => {
                    let request = Request::Remove { model_id: "no_such_model".into() };
                    lockstep(&mut peers, &request, &format!("{what}, miss REMOVE"));
                }
            }
            reread(&mut peers, &queries, &format!("{what}, after the write"));
        }

        drop(peers);
        for (addr, handle) in [(oracle_addr, oracle_handle), (daemon_addr, daemon_handle)] {
            if let Ok(mut client) = Client::connect(addr) {
                let _ = client.roundtrip(&Request::Shutdown);
            }
            let _ = handle.join();
        }
        cluster.shutdown();
    }
}

#[test]
fn coordinator_is_bit_identical_heavy() {
    bit_identity_under_interleaving(ComposeOptions::heavy(), 0xfeed);
}

#[test]
fn coordinator_is_bit_identical_light() {
    bit_identity_under_interleaving(ComposeOptions::light(), 0xbeef);
}

#[test]
fn coordinator_is_bit_identical_none() {
    bit_identity_under_interleaving(ComposeOptions::none(), 0xcafe);
}

#[test]
fn killed_shard_degrades_reads_and_fails_writes_loudly() {
    let options = ComposeOptions::heavy();
    let models = corpus_slice(58..67);
    let prepared = prepare(&options, &models);
    let index = MatchIndex::build_sharded(&prepared, &options, 2, 3);
    // No cache (a degraded answer must be recomputed, never replayed)
    // and a fast retry policy so the dead shard is declared quickly.
    let retry = RetryPolicy { attempts: 2, backoff_ms: 1 };
    let mut cluster = Cluster::spawn(&index, &options, retry, 0);
    let mut coord = Client::connect(cluster.coordinator).expect("connect coordinator");
    let query = write_sbml(&query_fragment(&models[2], 0, 1));

    // Baseline: all shards up, the read is whole.
    match coord.roundtrip(&Request::Match { query_xml: query.clone() }).expect("match") {
        Response::Ok { code, body } => {
            assert_ne!(code, 4, "healthy cluster must not be partial");
            assert!(
                !String::from_utf8_lossy(&body).contains("dead shard"),
                "healthy cluster must not report dead shards"
            );
        }
        other => panic!("healthy MATCH failed: {other:?}"),
    }

    // What shard 1 holds when it dies: it can change no more after.
    let (models_before, shards_before) = stats_models(&mut coord);
    assert_eq!(models_before, shards_before.iter().flatten().sum::<u64>());
    let dead_models = shards_before[1].expect("shard 1 is up");

    // Kill shard 1 mid-flight (drained SHUTDOWN straight to the daemon).
    cluster.kill_shard(1);

    // Reads degrade: partial exit code, the dead shard named, and the
    // surviving shards' answer still present after the marker lines.
    match coord.roundtrip(&Request::Match { query_xml: query.clone() }).expect("match") {
        Response::Ok { code, body } => {
            let text = String::from_utf8_lossy(&body).into_owned();
            assert_eq!(code, 4, "a dead shard must yield the partial exit code: {text}");
            assert!(text.contains("dead shard 1 ("), "names the dead shard: {text}");
            let tail = text.lines().skip_while(|l| l.starts_with("dead ")).count();
            assert!(tail > 0, "the surviving shards' answer must follow: {text}");
        }
        other => panic!("degraded MATCH must still answer: {other:?}"),
    }
    match coord.roundtrip(&Request::Query { query_xml: query }).expect("query") {
        Response::Ok { code, body } => {
            let text = String::from_utf8_lossy(&body).into_owned();
            assert_eq!(code, 4, "QUERY degrades like MATCH: {text}");
            assert!(text.contains("dead shard 1 ("), "names the dead shard: {text}");
            assert!(text.contains("candidates "), "merged summary survives: {text}");
        }
        other => panic!("degraded QUERY must still answer: {other:?}"),
    }

    // Writes never degrade silently: the cluster would hold a model the
    // client believes gone (or miss one it believes present).
    match coord
        .roundtrip(&Request::Remove { model_id: models[0].id.clone() })
        .expect("remove")
    {
        Response::Err { message, .. } => {
            // Slot 0 lives on shard 0, which removed it; only the dead
            // shard failed. The answer must not read like a refused write.
            assert!(
                message.contains(&format!("REMOVE {} removed by 1 live shard(s)", models[0].id)),
                "says how many live shards removed it: {message}"
            );
            assert!(message.contains("shard 1 ("), "names the dead shard: {message}");
        }
        other => panic!("REMOVE through a dead shard must fail loudly: {other:?}"),
    }
    match coord
        .roundtrip(&Request::Upsert { model_xml: write_sbml(&scale_model(300)), slot: None })
        .expect("upsert")
    {
        Response::Err { message, .. } => {
            // The insert landed; only the evict scatter failed. The
            // answer must not read like a refused write.
            assert!(
                message.contains("applied on shard 0 (") && message.contains("at slot 9"),
                "says where the write was applied: {message}"
            );
            assert!(message.contains("shard 1 ("), "names the shard that failed: {message}");
        }
        other => panic!("UPSERT through a dead cluster member must fail loudly: {other:?}"),
    }
    // The coordinator counts the applied model: its total is what the
    // shards hold, the dead one included.
    let (models, shards) = stats_models(&mut coord);
    assert_eq!(shards[1], None, "shard 1 is dead");
    let held: u64 = shards.iter().flatten().sum::<u64>() + dead_models;
    assert_eq!(models, held, "coordinator models = sum of the shards' models");
    // Slot 9 lives on shard 0, which acknowledged that insert; only the
    // evict step failed. The partial write spent its slot: the next
    // UPSERT takes slot 10 (on the dead shard 1) instead of reusing 9.
    match coord
        .roundtrip(&Request::Upsert { model_xml: write_sbml(&scale_model(301)), slot: None })
        .expect("upsert")
    {
        Response::Err { message, .. } => {
            assert!(message.contains("shard 1 ("), "names the dead shard: {message}");
            assert!(!message.contains("stale slot"), "the write path is not wedged: {message}");
        }
        other => panic!("UPSERT onto the dead shard must fail loudly: {other:?}"),
    }

    cluster.shutdown();
}

#[test]
fn coordinator_bind_fails_named_for_a_never_up_shard() {
    let options = ComposeOptions::light();
    let models = corpus_slice(60..64);
    let prepared = prepare(&options, &models);
    let index = MatchIndex::build_sharded(&prepared, &options, 2, 2);
    let carved = carve_all(&index, &options, 2).expect("carve");
    // Bring up shard 0 only; shard 1's port is bound-then-dropped so
    // nothing ever listens there.
    let (shard0, identity0) = carved.into_iter().next().expect("shard 0");
    let server = Server::bind_shard(
        "127.0.0.1:0",
        shard0,
        options.clone(),
        ServerConfig { threads: 2, ..ServerConfig::default() },
        identity0,
    )
    .expect("bind shard 0");
    let addr0 = server.local_addr();
    let handle = thread::spawn(move || {
        let _ = server.run();
    });
    let ghost = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
        probe.local_addr().expect("probe addr").to_string()
    };
    let config = CoordinatorConfig {
        retry: RetryPolicy { attempts: 2, backoff_ms: 1 },
        ..CoordinatorConfig::default()
    };
    let err = match Coordinator::bind("127.0.0.1:0", &[addr0.to_string(), ghost], config) {
        Err(err) => err,
        Ok(_) => panic!("a never-up shard must fail the bind"),
    };
    assert!(err.to_string().contains("shard 1 ("), "names the shard: {err}");

    let mut client = Client::connect(addr0).expect("connect shard 0");
    let _ = client.roundtrip(&Request::Shutdown);
    let _ = handle.join();
}

#[test]
fn cluster_stats_aggregate_per_shard_counters() {
    let options = ComposeOptions::none();
    let models = corpus_slice(58..66);
    let prepared = prepare(&options, &models);
    let index = MatchIndex::build_sharded(&prepared, &options, 2, 2);
    let cluster = Cluster::spawn(&index, &options, RetryPolicy::default(), 16);
    let mut coord = Client::connect(cluster.coordinator).expect("connect coordinator");

    let query = write_sbml(&query_fragment(&models[1], 0, 1));
    let _ = coord.roundtrip(&Request::Match { query_xml: query }).expect("match");

    let body = match coord.roundtrip(&Request::Stats).expect("stats") {
        Response::Ok { code: 0, body } => String::from_utf8(body).expect("utf-8 stats"),
        other => panic!("STATS failed: {other:?}"),
    };
    assert!(body.contains("coordinator_shards 2\n"), "cluster topology: {body}");
    assert!(body.contains("universe 8\n"), "slot universe: {body}");
    assert!(body.contains("match 1\n"), "coordinator counters: {body}");
    for shard in 0..2 {
        assert!(body.contains(&format!("-- shard {shard} (")), "per-shard block: {body}");
        assert!(body.contains(&format!("shard_index {shard}\n")), "shard identity: {body}");
    }
    assert!(body.contains("shard_total 2\n"), "shard identity: {body}");

    cluster.shutdown();
}
