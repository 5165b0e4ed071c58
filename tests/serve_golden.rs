//! Golden pins for the daemon's read answers.
//!
//! A daemon over the Fig. 8 corpus answers `MATCH`, `QUERY`, `PMATCH`
//! and `PQUERY` for fragments of corpus models and their synonym twins,
//! at every semantics level. The raw response frames (status line,
//! exit code and body) are folded into one FNV-1a digest per verb and
//! semantics level. The cluster coordinator renders its merged answers
//! through the same renderers, so these digests pin the response grammar
//! both services share. A change here is a change of observable
//! behaviour.

use std::net::SocketAddr;
use std::thread;

use sbmlcompose::compose::{BatchComposer, ComposeOptions, Composer};
use sbmlcompose::corpus::{corpus_187, query_fragment, synonym_variant};
use sbmlcompose::matching::MatchIndex;
use sbmlcompose::model::builder::ModelBuilder;
use sbmlcompose::model::{write_sbml, Model};
use sbmlcompose::serve::{Client, Request, Response, Server, ServerConfig};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Fragments of every 23rd corpus model at radius 1 and 2, each followed
/// by its synonym twin, plus one query that shares no key with the
/// corpus (the "no approximate match" miss).
fn queries(corpus: &[Model]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, model) in corpus.iter().enumerate().step_by(23) {
        let fragment = query_fragment(model, i, 1 + i % 2);
        out.push(write_sbml(&synonym_variant(&fragment)));
        out.push(write_sbml(&fragment));
    }
    let alien = ModelBuilder::new("alien")
        .compartment("vacuole", 3.5)
        .species("zz_unobtainium", 7.0)
        .species("zz_phlogiston", 0.0)
        .parameter("zz_k", 0.37)
        .reaction("zz_r", &["zz_unobtainium"], &["zz_phlogiston"], "zz_k*zz_unobtainium")
        .build();
    out.push(write_sbml(&alien));
    out
}

fn start(
    index: MatchIndex,
    options: &ComposeOptions,
    config: ServerConfig,
) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", index, options.clone(), config).expect("bind daemon");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run().expect("daemon run")))
}

fn stop(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let _ = client.roundtrip(&Request::Shutdown);
    handle.join().expect("daemon exits after SHUTDOWN");
}

/// Digests of the raw frames for `[MATCH, QUERY, PMATCH, PQUERY]`, in
/// query order, each verb over every query twice (the second pass is
/// answered from the cache and must not change the bytes). The text of
/// every MATCH answer is appended to `matches`.
fn digests(addr: SocketAddr, queries: &[String], matches: &mut String) -> [u64; 4] {
    let mut client = Client::connect(addr).expect("connect");
    let verbs: [fn(String) -> Request; 4] = [
        |query_xml| Request::Match { query_xml },
        |query_xml| Request::Query { query_xml },
        |query_xml| Request::PartialMatch { query_xml },
        |query_xml| Request::PartialQuery { query_xml },
    ];
    let mut out = [FNV_OFFSET; 4];
    for (v, verb) in verbs.iter().enumerate() {
        for query in queries {
            let first = client.roundtrip_raw(&verb(query.clone())).expect("roundtrip");
            let again = client.roundtrip_raw(&verb(query.clone())).expect("roundtrip");
            assert_eq!(first, again, "a cached answer is the first answer's bytes");
            if v == 0 {
                match Response::decode(&first).expect("well-formed frame") {
                    Response::Ok { body, .. } => matches.push_str(&String::from_utf8_lossy(&body)),
                    Response::Err { kind, message } => panic!("MATCH failed: {kind:?} {message}"),
                }
            }
            out[v] = fnv(&first, out[v]);
        }
    }
    out
}

/// One semantics level: an unbudgeted daemon and one cut to a single VF2
/// step per candidate (which yields `truncated` verdicts).
fn level(options: ComposeOptions) -> ([u64; 4], [u64; 4], String) {
    let corpus = corpus_187();
    let prepared = BatchComposer::new(Composer::new(options.clone())).prepare_corpus(&corpus);
    let queries = queries(&corpus);
    let mut text = String::new();
    let config = ServerConfig { threads: 2, ..ServerConfig::default() };
    let (addr, handle) = start(MatchIndex::build(&prepared, &options), &options, config.clone());
    let full = digests(addr, &queries, &mut text);
    stop(addr, handle);
    let cut = ServerConfig { max_steps: Some(1), ..config };
    let (addr, handle) = start(MatchIndex::build(&prepared, &options), &options, cut);
    let truncated = digests(addr, &queries, &mut text);
    stop(addr, handle);
    (full, truncated, text)
}

/// Every line kind a MATCH answer can take without fault injection.
fn assert_line_kinds(text: &str) {
    for kind in [
        "exact ",
        "approx ",
        "truncated ",
        "no exact embedding found\n",
        "no approximate match shares any key with the query\n",
    ] {
        assert!(text.contains(kind), "the pinned set covers {kind:?}");
    }
}

#[test]
fn heavy_read_answers_are_pinned() {
    let (full, truncated, text) = level(ComposeOptions::heavy());
    assert_line_kinds(&text);
    assert_eq!(
        full,
        [0x278996b9d333953c, 0x6f75271c56c790a0, 0xce423b9e472198e4, 0xe23b9e8c27f83f33],
        "unbudgeted",
    );
    assert_eq!(
        truncated,
        [0x12e71c1c434483f4, 0x6f75271c56c790a0, 0x01defbcf37fb6a0f, 0xe23b9e8c27f83f33],
        "max_steps 1",
    );
}

#[test]
fn light_read_answers_are_pinned() {
    let (full, truncated, text) = level(ComposeOptions::light());
    assert_line_kinds(&text);
    assert_eq!(
        full,
        [0x278996b9d333953c, 0x02ca979775607578, 0xce423b9e472198e4, 0xf9f339b85b7e4988],
        "unbudgeted",
    );
    assert_eq!(
        truncated,
        [0x3c7086914e2a6ea9, 0x02ca979775607578, 0x7c5d6a081ef43114, 0xf9f339b85b7e4988],
        "max_steps 1",
    );
}

#[test]
fn none_read_answers_are_pinned() {
    let (full, truncated, text) = level(ComposeOptions::none());
    assert_line_kinds(&text);
    assert_eq!(
        full,
        [0xa40d7c25f13d8621, 0xb81fd864bcb17fbe, 0xac88eef163633d03, 0xda9caa37678060c5],
        "unbudgeted",
    );
    assert_eq!(
        truncated,
        [0x73acfc6c7bfa8790, 0xb81fd864bcb17fbe, 0x95781f135e2db9c9, 0xda9caa37678060c5],
        "max_steps 1",
    );
}
