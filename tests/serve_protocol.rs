//! End-to-end daemon tests: a real `Server` on an ephemeral port,
//! concurrent clients, and the contract that a served answer is
//! bit-identical to the one-shot engine's answer for the same request.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread;

use sbmlcompose::compose::{
    BatchComposer, ComposeOptions, Composer, CompositionSession, PreparedModel,
};
use sbmlcompose::corpus::{corpus_slice, query_fragment};
use sbmlcompose::matching::MatchIndex;
use sbmlcompose::model::builder::ModelBuilder;
use sbmlcompose::model::{write_sbml, Model};
use sbmlcompose::serve::{format_matches, Client, ErrKind, Request, Response, Server, ServerConfig};

mod common;
use common::nested_kinetic_law;

fn corpus_and_index(options: &ComposeOptions) -> (Vec<Model>, Vec<Arc<PreparedModel>>, MatchIndex) {
    let models = corpus_slice(60..68);
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let index = MatchIndex::build(&prepared, options);
    (models, prepared, index)
}

/// Bind a server on an ephemeral port, run it on a background thread,
/// and hand back its address plus the join handle.
fn start(config: ServerConfig) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let options = ComposeOptions::heavy();
    let (_, _, index) = corpus_and_index(&options);
    let server =
        Server::bind("127.0.0.1:0", index, options, config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shut_down(addr: std::net::SocketAddr, handle: thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    match client.roundtrip(&Request::Shutdown).expect("shutdown roundtrip") {
        Response::Ok { code: 0, .. } => {}
        other => panic!("shutdown not acknowledged: {other:?}"),
    }
    handle.join().expect("server thread exits after SHUTDOWN");
}

#[test]
fn concurrent_match_answers_are_bit_identical_to_one_shot() {
    let options = ComposeOptions::heavy();
    let (models, prepared, _) = corpus_and_index(&options);
    // The reference: a freshly built index rendered through the shared
    // formatter — exactly what `sbmlcompose match` prints (modulo its
    // file-path labels; the daemon labels by model id on both slots).
    let reference = MatchIndex::build(&prepared, &options);
    let ids: Vec<String> = models.iter().map(|m| m.id.clone()).collect();

    let (addr, handle) = start(ServerConfig { threads: 3, ..ServerConfig::default() });
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let ids = ids.clone();
            let queries: Vec<Model> = (0..3)
                .map(|i| query_fragment(&models[(w * 3 + i) % models.len()], i, 1 + i % 2))
                .collect();
            let expected: Vec<(u8, String)> = queries
                .iter()
                .map(|q| format_matches(&reference.query_corpus(q), &ids, &ids))
                .collect();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (q, (want_code, want_text)) in queries.iter().zip(&expected) {
                    let request = Request::Match { query_xml: write_sbml(q) };
                    match client.roundtrip(&request).expect("roundtrip") {
                        Response::Ok { code, body } => {
                            assert_eq!(code, *want_code, "worker {w}: exit code");
                            assert_eq!(
                                body,
                                want_text.as_bytes(),
                                "worker {w}: daemon answer must be bit-identical"
                            );
                        }
                        Response::Err { kind, message } => {
                            panic!("worker {w}: unexpected error {kind:?}: {message}")
                        }
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client worker");
    }
    shut_down(addr, handle);
}

#[test]
fn cache_hits_return_the_exact_bytes_of_the_first_answer() {
    let (addr, handle) = start(ServerConfig::default());
    let models = corpus_slice(60..68);
    let query = query_fragment(&models[2], 0, 1);
    let request = Request::Match { query_xml: write_sbml(&query) };
    // Same network, different spelling: model ids don't enter content
    // keys, so this must land on the same cache entry.
    let mut respelled = query.clone();
    respelled.id = "different_spelling".into();
    let respelled = Request::Match { query_xml: write_sbml(&respelled) };

    let mut client = Client::connect(addr).expect("connect");
    let first = client.roundtrip_raw(&request).expect("miss");
    let second = client.roundtrip_raw(&request).expect("hit");
    let third = client.roundtrip_raw(&respelled).expect("respelled hit");
    assert_eq!(first, second, "a cache hit must be byte-for-byte the first answer");
    assert_eq!(first, third, "content-key identity must see through the respelling");

    match client.roundtrip(&Request::Stats).expect("stats") {
        Response::Ok { code: 0, body } => {
            let text = String::from_utf8(body).expect("stats are utf-8");
            assert!(text.contains("cache_hits 2\n"), "stats: {text}");
            assert!(text.contains("cache_misses 1\n"), "stats: {text}");
            assert!(text.contains("cache_entries 1\n"), "one entry serves all three: {text}");
            assert!(text.contains("match 3\n"), "stats: {text}");
            assert!(text.contains("models 8\n"), "stats: {text}");
        }
        other => panic!("stats failed: {other:?}"),
    }
    shut_down(addr, handle);
}

#[test]
fn upsert_and_remove_mutate_the_live_index_without_a_restart() {
    let (addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let newcomer = corpus_slice(58..59).remove(0);
    let id = newcomer.id.clone();
    let match_whole = Request::Match { query_xml: write_sbml(&newcomer) };

    let body_of = |response: Response| -> String {
        match response {
            Response::Ok { body, .. } => String::from_utf8(body).expect("utf-8 body"),
            other => panic!("expected OK, got {other:?}"),
        }
    };

    // Before the upsert the model is not in the corpus.
    let before = body_of(client.roundtrip(&match_whole).expect("match before"));
    assert!(!before.contains(&id), "not served yet: {before}");

    // UPSERT inserts; the very next MATCH sees it — no rebuild, no
    // restart, and the stale cached answer is gone.
    let upsert = Request::Upsert { model_xml: write_sbml(&newcomer), slot: None };
    let inserted = body_of(client.roundtrip(&upsert).expect("upsert"));
    assert!(inserted.starts_with("inserted "), "first upsert inserts: {inserted}");
    let after = body_of(client.roundtrip(&match_whole).expect("match after"));
    assert!(after.contains(&id), "served immediately after UPSERT: {after}");

    // A second UPSERT of the same SBML id replaces, not duplicates.
    let replaced = body_of(client.roundtrip(&upsert).expect("re-upsert"));
    assert!(replaced.starts_with("replaced "), "same id replaces: {replaced}");

    match client.roundtrip(&Request::Stats).expect("stats") {
        Response::Ok { code: 0, body } => {
            let text = String::from_utf8(body).expect("stats are utf-8");
            assert!(text.contains("upsert 2\n"), "stats: {text}");
            assert!(text.contains("live_models 9\n"), "stats: {text}");
            assert!(text.contains("tombstoned_models 1\n"), "replace tombstones: {text}");
            assert!(text.contains("index_generation "), "stats: {text}");
            assert!(text.contains("shards 1\n"), "stats: {text}");
        }
        other => panic!("stats failed: {other:?}"),
    }

    // REMOVE tombstones it; answers revert at once.
    let removed = body_of(client.roundtrip(&Request::Remove { model_id: id.clone() }).expect("remove"));
    assert_eq!(removed, format!("removed {id}\n"));
    let gone = body_of(client.roundtrip(&match_whole).expect("match after remove"));
    assert!(!gone.contains(&id), "gone after REMOVE: {gone}");

    // Removing a missing id is a miss (code 1), not an error.
    match client.roundtrip(&Request::Remove { model_id: id.clone() }).expect("re-remove") {
        Response::Ok { code: 1, body } => {
            assert_eq!(String::from_utf8_lossy(&body), format!("no such model {id}\n"));
        }
        other => panic!("expected a miss, got {other:?}"),
    }
    shut_down(addr, handle);
}

/// One `STATS` counter.
fn stat(client: &mut Client, key: &str) -> u64 {
    let body = match client.roundtrip(&Request::Stats).expect("stats") {
        Response::Ok { code: 0, body } => String::from_utf8(body).expect("utf-8 stats"),
        other => panic!("stats failed: {other:?}"),
    };
    let line = body.lines().find_map(|line| line.strip_prefix(&format!("{key} ")));
    line.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no {key} in {body}"))
}

/// A one-step model `from -> to` with mass-action kinetics.
fn step(id: &str, from: &str, to: &str) -> Model {
    ModelBuilder::new(id)
        .compartment("cell", 1.0)
        .species(from, 1.0)
        .species(to, 0.0)
        .parameter("k", 0.5)
        .reaction(&format!("{id}_r"), &[from], &[to], &format!("k*{from}"))
        .build()
}

#[test]
fn writes_evict_only_the_cached_answers_they_can_change() {
    let options = ComposeOptions::heavy();
    // `near` shares the glc node key with the query but cannot embed it.
    let corpus = [step("host", "glc", "g6p"), step("near", "glc", "citrate")];
    let prepared = BatchComposer::new(Composer::new(options.clone())).prepare_corpus(&corpus);
    let server = Server::bind(
        "127.0.0.1:0",
        MatchIndex::build(&prepared, &options),
        options,
        ServerConfig { threads: 2, ..ServerConfig::default() },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr).expect("connect");

    let query = write_sbml(&step("q", "glc", "g6p"));
    let read = |client: &mut Client, request: Request| -> (String, u64, u64) {
        let body = match client.roundtrip(&request).expect("read") {
            Response::Ok { body, .. } => String::from_utf8(body).expect("utf-8 body"),
            other => panic!("read failed: {other:?}"),
        };
        (body, stat(client, "cache_hits"), stat(client, "cache_evictions"))
    };
    let matching = || Request::Match { query_xml: query.clone() };
    let write = |client: &mut Client, request: Request| match client.roundtrip(&request) {
        Ok(Response::Ok { code: 0, .. }) => {}
        other => panic!("write failed: {other:?}"),
    };

    let (first, hits, evictions) = read(&mut client, matching());
    assert!(first.starts_with("exact host (host)"), "{first}");
    assert_eq!((hits, evictions), (0, 0));

    // No shared key, not named: the entry stays.
    let far = step("far", "zz_a", "zz_b");
    write(&mut client, Request::Upsert { model_xml: write_sbml(&far), slot: None });
    let (answer, hits, evictions) = read(&mut client, matching());
    assert_eq!((answer.as_str(), hits, evictions), (first.as_str(), 1, 0), "kept across UPSERT");

    // `near` shares a key but the answer does not name it: removing it
    // changes nothing, so the entry stays.
    write(&mut client, Request::Remove { model_id: "near".into() });
    let (answer, hits, evictions) = read(&mut client, matching());
    assert_eq!((answer.as_str(), hits, evictions), (first.as_str(), 2, 0), "kept across REMOVE");

    // A write sharing a key evicts, and the next read recomputes.
    write(&mut client, Request::Upsert {
        model_xml: write_sbml(&step("twin", "glc", "g6p")),
        slot: None,
    });
    let (answer, hits, evictions) = read(&mut client, matching());
    assert_eq!((hits, evictions), (2, 1), "evicted by a shared key");
    assert!(answer.contains("exact twin (twin)"), "{answer}");

    // Removing a model the answer names evicts it.
    write(&mut client, Request::Remove { model_id: "host".into() });
    let (answer, hits, evictions) = read(&mut client, matching());
    assert_eq!((hits, evictions), (2, 2), "evicted by a named removal");
    assert!(!answer.contains("host"), "{answer}");

    // QUERY prints the live count: every write evicts it, even one the
    // MATCH entry survives.
    let candidates = || Request::Query { query_xml: query.clone() };
    let (counted, hits, _) = read(&mut client, candidates());
    assert!(counted.starts_with("candidates 1/2\n"), "{counted}");
    assert_eq!(hits, 2);
    write(&mut client, Request::Remove { model_id: "far".into() });
    let (counted, hits, evictions) = read(&mut client, candidates());
    assert!(counted.starts_with("candidates 1/1\n"), "{counted}");
    assert_eq!((hits, evictions), (2, 3), "QUERY evicted by an unrelated write");
    let (_, hits, _) = read(&mut client, matching());
    assert_eq!(hits, 3, "the MATCH entry outlived the unrelated write");
    shut_down(addr, handle);
}

#[test]
fn compose_through_the_daemon_matches_a_local_session() {
    let options = ComposeOptions::heavy();
    let models = corpus_slice(60..68);
    let mut session = CompositionSession::new(&options);
    session.push(&models[0]);
    session.push(&models[1]);
    let expected = write_sbml(&session.finish().model);

    let (addr, handle) = start(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let request = Request::Compose {
        models_xml: vec![write_sbml(&models[0]), write_sbml(&models[1])],
    };
    match client.roundtrip(&request).expect("compose") {
        Response::Ok { code: 0, body } => {
            assert_eq!(body, expected.as_bytes(), "daemon compose must equal the local session");
        }
        other => panic!("compose failed: {other:?}"),
    }
    shut_down(addr, handle);
}

#[test]
fn hostile_requests_get_structured_errors_and_the_daemon_keeps_serving() {
    // A budget of zero steps: every COMPOSE push is cut immediately.
    let config = ServerConfig { max_steps: Some(0), ..ServerConfig::default() };
    let (addr, handle) = start(config);
    let models = corpus_slice(60..68);
    let mut client = Client::connect(addr).expect("connect");

    let hostile = Request::Compose {
        models_xml: vec![write_sbml(&models[0]), write_sbml(&models[1])],
    };
    match client.roundtrip(&hostile).expect("hostile compose") {
        Response::Err { kind: ErrKind::Budget, message } => {
            assert!(!message.is_empty(), "budget errors carry a diagnostic");
        }
        other => panic!("expected ERR budget, got {other:?}"),
    }

    // Unparseable SBML → ERR parse (maps to the CLI's exit 3).
    let garbage = Request::Match { query_xml: "<sbml><model".into() };
    match client.roundtrip(&garbage).expect("garbage match") {
        Response::Err { kind: ErrKind::Parse, .. } => {}
        other => panic!("expected ERR parse, got {other:?}"),
    }
    assert_eq!(ErrKind::Parse.exit_code(), 3);
    assert_eq!(ErrKind::Budget.exit_code(), 4);
    assert_eq!(ErrKind::Proto.exit_code(), 2);

    // A MATCH under a zero budget is a *partial* answer (code 4), not a
    // protocol error — candidates exist but none can be refined.
    let query = query_fragment(&models[0], 0, 1);
    match client.roundtrip(&Request::Match { query_xml: write_sbml(&query) }).expect("match") {
        Response::Ok { code: 4, body } => {
            let text = String::from_utf8(body).expect("utf-8");
            assert!(text.contains("truncated"), "body: {text}");
        }
        other => panic!("expected a partial answer, got {other:?}"),
    }

    // After all of that, the daemon still answers: fault isolation held.
    match client.roundtrip(&Request::Stats).expect("stats after faults") {
        Response::Ok { code: 0, body } => {
            let text = String::from_utf8(body).expect("utf-8");
            assert!(text.contains("budget_cuts 2\n"), "stats: {text}");
            assert!(text.contains("errors 1\n"), "stats: {text}");
        }
        other => panic!("stats failed: {other:?}"),
    }
    shut_down(addr, handle);
}

#[test]
fn a_deeply_nested_body_gets_err_parse_and_the_next_match_is_answered() {
    // 10k nested <apply> levels: well inside MAX_FRAME, and far too deep
    // for a worker thread's stack if it were walked recursively.
    let (addr, handle) = start(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut client = Client::connect(addr).expect("connect");
    let deep = Request::Match { query_xml: nested_kinetic_law(10_000) };
    match client.roundtrip(&deep).expect("deep match") {
        Response::Err { kind: ErrKind::Parse, message } => {
            assert!(message.contains("nested deeper than"), "{message}");
        }
        other => panic!("expected ERR parse, got {other:?}"),
    }
    let query = query_fragment(&corpus_slice(60..61)[0], 0, 1);
    match client.roundtrip(&Request::Match { query_xml: write_sbml(&query) }).expect("match") {
        Response::Ok { code: 0, .. } => {}
        other => panic!("the next MATCH must be answered, got {other:?}"),
    }
    shut_down(addr, handle);
}

/// `Threads:` line of `/proc/<pid>/status` — the kernel's thread count
/// for the daemon process.
#[cfg(target_os = "linux")]
fn process_threads(pid: u32) -> usize {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read /proc status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .map(|v| v.trim().parse().expect("numeric thread count"))
        .expect("Threads: line present")
}

/// The serving shape the worker pool exists for: one hot snapshot, many
/// COMPOSE requests. Every answer — sequential or concurrent — must be
/// bit-identical to a local one-shot session, and the daemon's kernel
/// thread count must be flat across requests: the pool is spawned once
/// at bind, so serving must not create (or leak) a single thread per
/// request the way per-push scoped spawns would.
#[test]
#[cfg(target_os = "linux")]
fn hot_snapshot_compose_is_bit_identical_with_a_flat_thread_count() {
    let options = ComposeOptions::heavy();
    let models = corpus_slice(60..66);
    let dir = std::env::temp_dir().join(format!("sbmlserve_pool_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("scratch dir");
    for model in &models {
        std::fs::write(corpus_dir.join(format!("{}.xml", model.id)), write_sbml(model))
            .expect("write corpus model");
    }
    let snap = dir.join("corpus.snap");
    let bin = env!("CARGO_BIN_EXE_sbmlcompose");
    let built = Command::new(bin)
        .args(["snapshot", "build", &corpus_dir.to_string_lossy(), "-o", &snap.to_string_lossy()])
        .output()
        .expect("snapshot build");
    assert!(built.status.success(), "stderr: {}", String::from_utf8_lossy(&built.stderr));

    let mut daemon = Command::new(bin)
        .args(["serve", &snap.to_string_lossy(), "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut announced = String::new();
    BufReader::new(daemon.stdout.take().expect("daemon stdout"))
        .read_line(&mut announced)
        .expect("read address line");
    let addr: std::net::SocketAddr = announced
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected announcement: {announced:?}"))
        .parse()
        .expect("announced address parses");
    let pid = daemon.id();

    // Local one-shot reference per pair.
    let reference = |i: usize, j: usize| {
        let mut session = CompositionSession::new(&options);
        session.push(&models[i]);
        session.push(&models[j]);
        write_sbml(&session.finish().model)
    };
    let pairs: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|i| (i + 1..models.len()).map(move |j| (i, j)))
        .collect();
    let compose = |client: &mut Client, i: usize, j: usize| -> Vec<u8> {
        let request = Request::Compose {
            models_xml: vec![write_sbml(&models[i]), write_sbml(&models[j])],
        };
        match client.roundtrip(&request).expect("compose roundtrip") {
            Response::Ok { code: 0, body } => body,
            other => panic!("compose ({i},{j}) failed: {other:?}"),
        }
    };

    // Warm-up: first request takes the connection and any lazy setup.
    let mut client = Client::connect(addr).expect("connect");
    let (i0, j0) = pairs[0];
    assert_eq!(compose(&mut client, i0, j0), reference(i0, j0).as_bytes());
    let baseline = process_threads(pid);

    // Sequential phase: the count must not move between requests.
    for &(i, j) in pairs.iter().take(10) {
        assert_eq!(
            compose(&mut client, i, j),
            reference(i, j).as_bytes(),
            "sequential COMPOSE ({i},{j}) must equal the local session"
        );
        assert_eq!(
            process_threads(pid),
            baseline,
            "COMPOSE ({i},{j}) changed the daemon's thread count"
        );
    }

    // Concurrent phase: several connections at once, every answer still
    // bit-identical, and afterwards the count is back at the baseline —
    // no per-request or per-connection thread survives.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let pairs = pairs.clone();
            let expected: Vec<(usize, usize, String)> = (0..3)
                .map(|r| {
                    let (i, j) = pairs[(w * 3 + r) % pairs.len()];
                    (i, j, reference(i, j))
                })
                .collect();
            let models = models.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for (i, j, want) in &expected {
                    let request = Request::Compose {
                        models_xml: vec![write_sbml(&models[*i]), write_sbml(&models[*j])],
                    };
                    match client.roundtrip(&request).expect("compose roundtrip") {
                        Response::Ok { code: 0, body } => {
                            assert_eq!(
                                body,
                                want.as_bytes(),
                                "worker {w}: concurrent COMPOSE ({i},{j})"
                            );
                        }
                        other => panic!("worker {w}: compose failed: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client worker");
    }
    assert_eq!(process_threads(pid), baseline, "concurrent load must not leak threads");

    let down = Command::new(bin)
        .args(["client", &addr.to_string(), "shutdown"])
        .output()
        .expect("client shutdown");
    assert!(down.status.success());
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_snapshot_serve_client_pipeline_round_trips() {
    let options = ComposeOptions::heavy();
    let models = corpus_slice(60..65);
    let dir = std::env::temp_dir().join(format!("sbmlserve_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The corpus lives in its own subdirectory: `snapshot build` sweeps
    // every `.xml` in the directory it is pointed at, and the query file
    // must not be swept up with the corpus.
    let corpus_dir = dir.join("corpus");
    std::fs::create_dir_all(&corpus_dir).expect("scratch dir");
    for model in &models {
        std::fs::write(corpus_dir.join(format!("{}.xml", model.id)), write_sbml(model))
            .expect("write corpus model");
    }
    let snap = dir.join("corpus.snap");
    let query = query_fragment(&models[1], 0, 1);
    let query_path = dir.join("query.xml");
    std::fs::write(&query_path, write_sbml(&query)).expect("write query");

    let bin = env!("CARGO_BIN_EXE_sbmlcompose");
    let built = Command::new(bin)
        .args(["snapshot", "build", &corpus_dir.to_string_lossy(), "-o", &snap.to_string_lossy()])
        .output()
        .expect("snapshot build");
    assert!(built.status.success(), "stderr: {}", String::from_utf8_lossy(&built.stderr));

    let inspect = Command::new(bin)
        .args(["snapshot", "inspect", &snap.to_string_lossy()])
        .output()
        .expect("snapshot inspect");
    assert!(inspect.status.success());
    let info = String::from_utf8_lossy(&inspect.stdout);
    let version = format!("version {}\n", sbmlcompose::serve::FORMAT_VERSION);
    assert!(info.contains(&version), "inspect: {info}");
    assert!(info.contains("semantics heavy\n"), "inspect: {info}");
    assert!(info.contains("models 5\n"), "inspect: {info}");
    assert!(info.contains("shards 1\n"), "inspect: {info}");
    assert!(
        info.contains("shard 0 generation 5 live 5 dead 0 tombstone_fraction 0.000"),
        "inspect per-shard stats: {info}"
    );

    // Corrupt file → exit 3, structured diagnostic.
    let bad = dir.join("bad.snap");
    std::fs::write(&bad, b"SBMLSNAPgarbage").expect("write bad snapshot");
    let corrupt = Command::new(bin)
        .args(["snapshot", "inspect", &bad.to_string_lossy()])
        .output()
        .expect("inspect corrupt");
    assert_eq!(corrupt.status.code(), Some(3), "corrupt snapshots exit 3");

    // Serve the snapshot on an ephemeral port; the first stdout line
    // announces the bound address.
    let mut daemon = Command::new(bin)
        .args(["serve", &snap.to_string_lossy(), "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut announced = String::new();
    BufReader::new(daemon.stdout.take().expect("daemon stdout"))
        .read_line(&mut announced)
        .expect("read address line");
    let addr = announced
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected announcement: {announced:?}"))
        .to_owned();

    // The daemon's answer must match the engine run in-process over the
    // same corpus (labels are model ids on both slots).
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&models);
    let index = MatchIndex::build(&prepared, &options);
    let ids: Vec<String> = models.iter().map(|m| m.id.clone()).collect();
    let (want_code, want_text) = format_matches(&index.query_corpus(&query), &ids, &ids);

    let answer = Command::new(bin)
        .args(["client", &addr, "match", &query_path.to_string_lossy()])
        .output()
        .expect("client match");
    assert_eq!(answer.status.code(), Some(i32::from(want_code)), "client forwards the code");
    assert_eq!(
        String::from_utf8_lossy(&answer.stdout),
        want_text,
        "served answer equals the one-shot engine's"
    );

    let stats = Command::new(bin)
        .args(["client", &addr, "stats"])
        .output()
        .expect("client stats");
    assert!(stats.status.success());
    assert!(String::from_utf8_lossy(&stats.stdout).contains("requests "), "stats body");

    let down = Command::new(bin)
        .args(["client", &addr, "shutdown"])
        .output()
        .expect("client shutdown");
    assert!(down.status.success());
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
