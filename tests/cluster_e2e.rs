//! Cluster end-to-end through the real binary: `snapshot build` →
//! `snapshot split` → shard daemons (`serve`) → `coordinator` →
//! `client`/`cluster status`, all over loopback on ephemeral ports.
//!
//! No sleeps anywhere: every daemon announces `listening on <addr> ...`
//! on stdout when it is ready, and the harness blocks on that line.
//! The correctness oracle is a single-process daemon over the same
//! snapshot — the coordinator's client-visible answers must be
//! byte-identical to it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Output, Stdio};

use sbmlcompose::corpus::{corpus_slice, query_fragment, scale_model};
use sbmlcompose::model::write_sbml;

const BIN: &str = env!("CARGO_BIN_EXE_sbmlcompose");

/// Spawn a daemon and block until it announces its bound address.
fn spawn_ready(args: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {args:?}: {e}"));
    let mut announced = String::new();
    BufReader::new(child.stdout.take().expect("daemon stdout"))
        .read_line(&mut announced)
        .expect("read ready line");
    let addr = announced
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected announcement from {args:?}: {announced:?}"))
        .parse()
        .expect("announced address parses");
    (child, addr)
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap_or_else(|e| panic!("run {args:?}: {e}"))
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn split_serve_coordinate_and_query_over_subprocesses() {
    let dir = std::env::temp_dir().join(format!("sbmlcluster_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("scratch dir");
    let models = corpus_slice(58..66);
    for model in &models {
        std::fs::write(corpus_dir.join(format!("{}.xml", model.id)), write_sbml(model))
            .expect("write corpus model");
    }
    let query_path = dir.join("query.xml");
    std::fs::write(&query_path, write_sbml(&query_fragment(&models[2], 0, 1)))
        .expect("write query");
    let miss_path = dir.join("miss.xml");
    std::fs::write(&miss_path, write_sbml(&query_fragment(&scale_model(400), 0, 1)))
        .expect("write miss query");
    let upsert_path = dir.join("upsert.xml");
    std::fs::write(&upsert_path, write_sbml(&scale_model(410))).expect("write upsert model");

    // Build a 2-shard snapshot, then carve it into per-shard files.
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();
    let built =
        run(&["snapshot", "build", &corpus_dir.to_string_lossy(), "-o", &snap, "--shards", "2"]);
    assert!(built.status.success(), "build: {}", String::from_utf8_lossy(&built.stderr));
    let split = run(&["snapshot", "split", &snap, "-o", &snap]);
    assert!(split.status.success(), "split: {}", String::from_utf8_lossy(&split.stderr));
    let part0 = format!("{snap}.shard0");
    let part1 = format!("{snap}.shard1");

    // `inspect --shard` describes one shard; a split file also carries
    // its cluster identity (which plain inspect prints too).
    let inspected = run(&["snapshot", "inspect", &part0, "--shard", "0"]);
    assert!(inspected.status.success());
    let text = stdout_of(&inspected);
    assert!(text.contains("shard 0/1\n"), "split files hold one physical shard: {text}");
    assert!(text.contains("owned_slots 4\n"), "half of 8 slots: {text}");
    assert!(text.contains("cluster_shard 0/2\n"), "cluster identity: {text}");
    assert!(text.contains("cluster_universe 8\n"), "cluster identity: {text}");
    let inspected = run(&["snapshot", "inspect", &part1]);
    assert!(inspected.status.success());
    let text = stdout_of(&inspected);
    assert!(text.contains("models 4\n"), "shard 1 owns 4 models: {text}");
    assert!(text.contains("cluster_shard 1/2\n"), "cluster identity: {text}");

    // Each shard boots from its split file: the identity is on disk.
    let (mut shard0, addr0) = spawn_ready(&["serve", &part0, "--addr", "127.0.0.1:0"]);
    let (mut shard1, addr1) = spawn_ready(&["serve", &part1, "--addr", "127.0.0.1:0"]);
    let shard_list = format!("{addr0},{addr1}");
    let (mut coordinator, coord_addr) =
        spawn_ready(&["coordinator", "--shards", &shard_list, "--addr", "127.0.0.1:0"]);
    // The oracle: one process over the whole snapshot.
    let (mut oracle, oracle_addr) = spawn_ready(&["serve", &snap, "--addr", "127.0.0.1:0"]);

    let coord = coord_addr.to_string();
    let single = oracle_addr.to_string();
    let lockstep = |verb_args: &[&str]| {
        let got = run(&[&["client", &coord], verb_args].concat());
        let want = run(&[&["client", &single], verb_args].concat());
        assert_eq!(
            (got.status.code(), stdout_of(&got)),
            (want.status.code(), stdout_of(&want)),
            "client {verb_args:?} diverged from the single-process daemon",
        );
    };
    let query = query_path.to_string_lossy().into_owned();
    let miss = miss_path.to_string_lossy().into_owned();
    let upsert = upsert_path.to_string_lossy().into_owned();
    lockstep(&["match", &query]);
    lockstep(&["query", &query]);
    lockstep(&["match", &miss]);
    lockstep(&["upsert", &upsert]);
    lockstep(&["match", &query]);
    lockstep(&["remove", &models[0].id]);
    lockstep(&["remove", "no_such_model"]);
    lockstep(&["query", &query]);

    // `cluster status` aggregates the whole topology in one report.
    let status = run(&["cluster", "status", &coord]);
    assert!(status.status.success(), "status: {}", String::from_utf8_lossy(&status.stderr));
    let text = stdout_of(&status);
    assert!(text.contains("coordinator_shards 2\n"), "topology: {text}");
    assert!(text.contains("-- shard 0 ("), "per-shard block: {text}");
    assert!(text.contains("-- shard 1 ("), "per-shard block: {text}");
    assert!(text.contains("shard_total 2\n"), "shard identity: {text}");

    // Clean teardown: coordinator first, then the daemons; every
    // process must exit 0 (the drained-shutdown contract).
    for (name, addr) in [("coordinator", &coord), ("shard0", &addr0.to_string()),
        ("shard1", &addr1.to_string()), ("oracle", &single)]
    {
        let down = run(&["client", addr, "shutdown"]);
        assert!(down.status.success(), "{name} shutdown");
    }
    for (name, child) in [
        ("coordinator", &mut coordinator),
        ("shard0", &mut shard0),
        ("shard1", &mut shard1),
        ("oracle", &mut oracle),
    ] {
        let status = child.wait().unwrap_or_else(|e| panic!("wait {name}: {e}"));
        assert!(status.success(), "{name} must exit cleanly after SHUTDOWN");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_a_mismatched_shard_spec() {
    let dir = std::env::temp_dir().join(format!("sbmlcluster_spec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("scratch dir");
    for model in corpus_slice(60..64) {
        std::fs::write(corpus_dir.join(format!("{}.xml", model.id)), write_sbml(&model))
            .expect("write corpus model");
    }
    let snap = dir.join("corpus.snap").to_string_lossy().into_owned();
    let built =
        run(&["snapshot", "build", &corpus_dir.to_string_lossy(), "-o", &snap, "--shards", "2"]);
    assert!(built.status.success());

    // A shard's role comes only from a split file's CLUSTER section:
    // `serve` takes no shard spec.
    let sliced = run(&["serve", &snap, "--shard", "1/2", "--addr", "127.0.0.1:0"]);
    assert_eq!(sliced.status.code(), Some(2), "--shard is a usage error");
    let _ = std::fs::remove_dir_all(&dir);
}
