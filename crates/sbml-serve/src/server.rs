//! The long-running daemon: a `std::net::TcpListener` accept loop
//! feeding a bounded worker pool, with the snapshot corpus hot behind
//! `Arc`s.
//!
//! # Request lifecycle
//!
//! ```text
//! accept → frame read → Request::decode
//!        → parse SBML body          (failure → ERR parse)
//!        → cache lookup (MATCH/QUERY; key = verb + the query's sorted
//!          canonical content keys)
//!        → hit: the cached bytes are sent verbatim — bit-identical to
//!          the first answer
//!        → miss: query/compose under the per-request guard::Budget
//!          (ExecError → ERR budget; the daemon keeps serving)
//!        → Response::encode → cache fill (under the answer's scope)
//!        → frame write → metrics
//! ```
//!
//! Every worker shares one `ServeState`: the index (which owns the live
//! corpus) sits behind an `RwLock` — queries take read locks and run
//! concurrently; `UPSERT`/`REMOVE` take the write lock, mutate the index
//! in place (no rebuild), then evict the cached answers the write can
//! change ([`crate::cache`]); the cache sits behind a `Mutex`, the
//! counters are atomics. `SHUTDOWN` flips a flag and pokes the listener
//! with a loopback connection so the accept loop observes it.
//!
//! Connections are **multiplexed round-robin** over the bounded pool: a
//! worker takes a connection off the shared queue, polls it for at most
//! one frame (a short read timeout, `POLL`), answers it, and puts the
//! connection back on the queue. A persistent connection therefore
//! never pins a worker while idle — with one worker and any number of
//! long-lived clients, every request still gets served (the alternative,
//! worker-per-connection-until-EOF, deadlocks as soon as idle
//! connections outnumber workers).

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use sbml_compose::{BatchComposer, ComposeOptions, Composer};
use sbml_match::{CorpusMatches, MatchIndex};
use sbml_model::Model;

use crate::cache::Scope;
use crate::metrics::Metrics;
use crate::protocol::{write_frame, ErrKind, Request, MAX_FRAME};
use crate::report::{format_candidates, format_matches};
use crate::service::{frame_handler, ok, removed, upserted, Service};
use crate::snapshot::semantics_token;
use crate::wire::{PartialCandidates, PartialMatches};

/// How long a worker waits on one connection for the start of a frame
/// before putting it back on the queue and serving someone else.
const POLL: Duration = Duration::from_millis(10);

/// Tunables applied at [`Server::bind`] time.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections (`0` = one per core).
    pub threads: usize,
    /// Result-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Per-request step ceiling: VF2 steps per `MATCH` candidate, guard
    /// steps per `COMPOSE` push. `None` = the engine defaults.
    pub max_steps: Option<u64>,
    /// Per-request wall-clock allowance in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Approximate hits ranked per `MATCH` miss.
    pub top_k: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 0,
            cache_capacity: 256,
            max_steps: None,
            deadline_ms: None,
            top_k: 10,
        }
    }
}

/// What one daemon is within a cluster: which residue class of the
/// global slot space it owns, and where its live models sit in that
/// space. A standalone daemon is the degenerate `0/1` identity whose
/// global slots equal its local ones. Built from the CLUSTER identity
/// of a per-shard snapshot, or by the cluster layer beside a
/// [`sbml_match::MatchIndex::carve_shard`] cut, and handed to
/// [`Server::bind_shard`].
#[derive(Debug, Clone)]
pub struct ShardIdentity {
    /// This daemon's shard index (`slot % shards == shard` for every
    /// slot it owns).
    pub shard: usize,
    /// Total shards in the cluster.
    pub shards: usize,
    /// Global slot of each live model, positional with the index's live
    /// corpus (ascending — local rank order is global slot order).
    pub global_slots: Vec<u64>,
    /// Size of the cluster-wide slot universe (the next slot a
    /// coordinator will allocate).
    pub universe: u64,
}

/// The mutable heart of the daemon: the index (owner of the live
/// corpus) plus the positional model-id labels and global slot table,
/// kept in lockstep so a result's model number maps to its id and
/// cluster-wide position without touching the corpus.
struct Indexed {
    index: MatchIndex,
    /// Model ids, positional with the index's live corpus.
    ids: Vec<String>,
    /// Global slot per live model, positional with `ids`, ascending.
    slots: Vec<u64>,
    /// Global slot universe observed so far (next slot ≥ this).
    universe: u64,
}

/// Everything the workers share.
struct ServeState {
    service: Service,
    indexed: RwLock<Indexed>,
    addr: SocketAddr,
    /// This daemon's (shard, shards) position; `(0, 1)` standalone.
    shard: usize,
    shards: usize,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until a
/// `SHUTDOWN` request arrives.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

/// The cache key of a query: verb + the model's sorted canonical
/// content keys. Content keys canonically encode every component —
/// names up to synonyms, math up to commutative patterns, units up to
/// conversion — so two spellings of the same network (different model
/// id, reordered components, synonym names) land on one entry and get
/// byte-identical answers.
pub fn cache_key(verb: &str, model: &Model, options: &ComposeOptions) -> String {
    let mut keys = sbml_compose::model_content_keys(model, options);
    keys.sort_unstable();
    let mut out = String::with_capacity(keys.iter().map(|k| k.len() + 1).sum::<usize>() + 8);
    out.push_str(verb);
    out.push('\n');
    for k in &keys {
        out.push_str(k);
        out.push('\n');
    }
    out
}

impl Server {
    /// Bind the daemon to `addr` (use port 0 for an ephemeral port) over
    /// a loaded index (which owns its live corpus). The config's budget
    /// knobs are baked into the index here — every `MATCH` runs under
    /// them.
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: MatchIndex,
        options: ComposeOptions,
        config: ServerConfig,
    ) -> io::Result<Server> {
        // A standalone daemon owns the whole slot space: shard 0 of 1.
        let identity = ShardIdentity {
            shard: 0,
            shards: 1,
            global_slots: index.live_slots().iter().map(|&s| u64::from(s)).collect(),
            universe: index.slot_universe() as u64,
        };
        Server::bind_shard(addr, index, options, config, identity)
    }

    /// [`Server::bind`] for a cluster shard daemon: the daemon owns only
    /// `identity.shard`'s residue class of the global slot space, maps
    /// its local ranks through `identity.global_slots`, and validates
    /// slot ownership on pinned `UPSERT`s. Everything else — verbs,
    /// caching, budgets — behaves exactly like a standalone daemon.
    pub fn bind_shard(
        addr: impl ToSocketAddrs,
        index: MatchIndex,
        options: ComposeOptions,
        config: ServerConfig,
        identity: ShardIdentity,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let service = Service::new(
            options,
            config.threads,
            config.cache_capacity,
            (config.max_steps, config.deadline_ms),
        );
        let mut index = index.with_threads(service.threads).with_top_k(config.top_k);
        if let Some(steps) = config.max_steps {
            index = index.with_budget(steps);
        }
        if let Some(ms) = config.deadline_ms {
            index = index.with_deadline_ms(ms);
        }
        let bad = |message: String| io::Error::new(io::ErrorKind::InvalidInput, message);
        let ShardIdentity { shard, shards, global_slots: slots, universe } = identity;
        if shards == 0 || shard >= shards {
            return Err(bad(format!("shard {shard} out of range for {shards} shard(s)")));
        }
        if slots.len() != index.len() {
            return Err(bad(format!(
                "{} global slot(s) for {} live model(s)",
                slots.len(),
                index.len(),
            )));
        }
        if !slots.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("global slots must be strictly ascending".into()));
        }
        for &slot in &slots {
            if slot as usize % shards != shard {
                let message = format!("global slot {slot} is not owned by shard {shard}/{shards}");
                return Err(bad(message));
            }
            if slot >= universe {
                let message = format!("global slot {slot} beyond the declared universe {universe}");
                return Err(bad(message));
            }
        }
        // Ids are known without decoding: a loaded corpus stays encoded
        // until a query needs a model.
        let ids = index.corpus().iter().map(|m| m.id().to_owned()).collect();
        let indexed = Indexed { index, ids, slots, universe };
        let state = Arc::new(ServeState {
            service,
            indexed: RwLock::new(indexed),
            addr: local,
            shard,
            shards,
        });
        Ok(Server { listener, state })
    }

    /// The address the daemon is listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serve until a `SHUTDOWN` request arrives: accept connections and
    /// hand them to the worker pool. Each connection may carry any
    /// number of request frames; workers serve one frame per dispatch
    /// and re-enqueue the connection, so idle persistent connections
    /// never pin a worker.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, state } = self;
        let threads = state.service.threads;
        serve_frames(listener, threads, frame_handler(state, |s| &s.service, respond))
    }
}

/// What a [`FrameHandler`] produced for one request frame.
pub struct FrameOutcome {
    /// The fully encoded response payload.
    pub response: Arc<[u8]>,
    /// True when this request asked the daemon to shut down (the
    /// response is still written first).
    pub shutdown: bool,
}

/// One request frame in, one encoded response out — the pluggable core
/// [`serve_frames`] runs for every frame. Must be panic-free for
/// malformed input; both the daemon and the cluster coordinator route
/// errors into `ERR` responses instead.
pub type FrameHandler = Arc<dyn Fn(&[u8]) -> FrameOutcome + Send + Sync>;

/// The daemon accept/serve loop, shared by [`Server::run`] and the
/// cluster coordinator: a `TcpListener` accept loop feeding a bounded
/// worker pool that multiplexes connections round-robin (one frame per
/// dispatch, then back on the queue — idle persistent connections never
/// pin a worker).
///
/// **Shutdown drains.** When a handler reports `shutdown`, its response
/// is written first, then the flag flips and the accept loop is poked.
/// Connections already queued (or carrying frames already sent) are not
/// dropped: each is polled once more and any complete in-flight request
/// frames are answered before the connection closes. Only then do the
/// workers exit — a client that pipelined `UPSERT; SHUTDOWN` over two
/// connections gets both answers.
pub fn serve_frames(listener: TcpListener, threads: usize, handler: FrameHandler) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let rx = Arc::clone(&rx);
        let tx = tx.clone();
        let shutdown = Arc::clone(&shutdown);
        let handler = Arc::clone(&handler);
        workers.push(std::thread::spawn(move || loop {
            let stream = {
                let Ok(guard) = rx.lock() else { return };
                // A bounded wait, not recv(): workers must observe
                // the shutdown flag even while the queue is quiet.
                guard.recv_timeout(POLL)
            };
            match stream {
                Ok(stream) => {
                    if shutdown.load(Ordering::SeqCst) {
                        // Drain, don't drop: answer the frames this
                        // connection already sent, then let it close.
                        drain_connection(stream, &handler);
                    } else {
                        service_once(stream, addr, &shutdown, &handler, &tx);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        // Queue quiet and the flag is up: every queued
                        // connection has been drained.
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }));
    }
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                // Responses must leave immediately — Nagle holding a
                // small frame back stalls every client roundtrip.
                let _ = stream.set_nodelay(true);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    drop(tx);
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

/// What one poll of a connection yielded.
enum Polled {
    /// A complete request frame.
    Frame(Vec<u8>),
    /// No data within `POLL` — the connection is alive but quiet.
    Idle,
    /// The peer hung up cleanly.
    Closed,
}

fn would_block(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Wait up to `POLL` for the start of a frame. Once the first length
/// byte arrives, the rest of the frame is read in blocking mode — peers
/// write whole frames at once, so the remainder follows promptly.
fn poll_frame(stream: &mut TcpStream) -> io::Result<Polled> {
    stream.set_read_timeout(Some(POLL))?;
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match stream.read(&mut len[filled..]) {
            Ok(0) => return Ok(Polled::Closed),
            Ok(n) => filled += n,
            Err(e) if would_block(&e) => {
                if filled == 0 {
                    stream.set_read_timeout(None)?;
                    return Ok(Polled::Idle);
                }
                // Mid-prefix: the frame has started, keep waiting.
            }
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(None)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Polled::Frame(payload))
}

/// Poll one connection for one frame, answer it, and put the connection
/// back on the queue unless it closed, errored, or asked for shutdown.
fn service_once(
    mut stream: TcpStream,
    addr: SocketAddr,
    shutdown: &AtomicBool,
    handler: &FrameHandler,
    tx: &mpsc::Sender<TcpStream>,
) {
    let payload = match poll_frame(&mut stream) {
        Ok(Polled::Frame(payload)) => payload,
        Ok(Polled::Idle) => {
            let _ = tx.send(stream); // alive but quiet: back of the line
            return;
        }
        Ok(Polled::Closed) | Err(_) => return,
    };
    let outcome = handler(&payload);
    if write_frame(&mut stream, &outcome.response).is_err() {
        return;
    }
    if outcome.shutdown {
        shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the flag.
        let _ = TcpStream::connect(addr);
        return;
    }
    let _ = tx.send(stream);
}

/// Answer every request frame this connection has already sent, then
/// drop it — the shutdown path's bounded farewell (at most one `POLL`
/// wait after the last in-flight frame; the connection is not
/// re-enqueued, so a peer that keeps streaming cannot stall shutdown).
fn drain_connection(mut stream: TcpStream, handler: &FrameHandler) {
    while let Ok(Polled::Frame(payload)) = poll_frame(&mut stream) {
        let outcome = handler(&payload);
        if write_frame(&mut stream, &outcome.response).is_err() {
            return;
        }
    }
}

/// Read-lock the live index; a poisoned lock (a panicked mutation
/// holding it) still yields the data — mutations are applied in one
/// in-place call, so the state is consistent.
fn read_indexed(state: &ServeState) -> RwLockReadGuard<'_, Indexed> {
    state.indexed.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_indexed(state: &ServeState) -> RwLockWriteGuard<'_, Indexed> {
    state.indexed.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The daemon's reads: parse → cache key → cached compute over the
/// read-locked index; `compute` returns the answer and its cache scope.
fn read(
    state: &ServeState,
    verb: &str,
    query_xml: String,
    compute: impl FnOnce(&Indexed, &Model) -> (Arc<[u8]>, Scope),
) -> Arc<[u8]> {
    state.service.read(verb, query_xml, |query, _| Ok(compute(&read_indexed(state), &query)))
}

/// Run the full corpus search, counting a budget cut when any candidate
/// went undecided. Returns the result with its cache scope: the prepared
/// query's scope keys and every model a row names.
fn query_corpus(state: &ServeState, ix: &Indexed, query: &Model) -> (CorpusMatches, Scope) {
    let prepared = ix.index.prepare_query(query);
    let result = ix.index.query_corpus_prepared(&prepared);
    if !result.truncated.is_empty() {
        Metrics::bump(&state.service.metrics.budget_cuts);
    }
    let named = result.exact.iter().map(|hit| hit.model);
    let named = named.chain(result.approximate.iter().map(|hit| hit.model));
    let named = named.chain(result.truncated.iter().chain(&result.failed).copied());
    let scope = Scope::of_query(query, prepared.scope_keys(), named.map(|m| ix.ids[m].as_str()));
    (result, scope)
}

/// Serve one decoded request. Returns the fully encoded response
/// payload — on a cache hit, the exact bytes of the first answer.
fn respond(state: &ServeState, request: Request, shutdown: &mut bool) -> Arc<[u8]> {
    let service = &state.service;
    let metrics = &service.metrics;
    match request {
        Request::Match { query_xml } => {
            Metrics::bump(&metrics.match_requests);
            read(state, "MATCH", query_xml, |ix, query| {
                let (result, scope) = query_corpus(state, ix, query);
                let (code, text) = format_matches(&result, &ix.ids, &ix.ids);
                (ok(code, text), scope)
            })
        }
        Request::Query { query_xml } => {
            Metrics::bump(&metrics.query_requests);
            read(state, "QUERY", query_xml, |ix, query| {
                let candidates = ix.index.candidates(query);
                let ids = candidates.iter().map(|&m| ix.ids[m].as_str());
                let (code, text) = format_candidates(ids, ix.index.len() as u64);
                (ok(code, text), Scope::corpus_wide())
            })
        }
        Request::PartialMatch { query_xml } => {
            Metrics::bump(&metrics.match_requests);
            read(state, "PMATCH", query_xml, |ix, query| {
                let (result, scope) = query_corpus(state, ix, query);
                (ok(0, PartialMatches::from_result(&result, &ix.ids, &ix.slots).encode()), scope)
            })
        }
        Request::PartialQuery { query_xml } => {
            Metrics::bump(&metrics.query_requests);
            read(state, "PQUERY", query_xml, |ix, query| {
                let candidates = ix.index.candidates(query);
                let part = PartialCandidates::from_candidates(&candidates, &ix.ids, &ix.slots);
                (ok(0, part.encode()), Scope::corpus_wide())
            })
        }
        Request::Compose { models_xml } => service.compose(&models_xml),
        Request::Upsert { model_xml, slot } => {
            Metrics::bump(&metrics.upsert_requests);
            let model = match service.parse(&model_xml) {
                Ok(model) => model,
                Err(response) => return response,
            };
            // Prepare outside the write lock: canonicalisation is the
            // expensive part, the index mutation is an append.
            let batch = BatchComposer::new(Composer::new(service.options.clone()));
            let prepared = batch.prepare_corpus(std::slice::from_ref(&model));
            let Some(prepared) = prepared.into_iter().next() else {
                return service.reject(ErrKind::Parse, "model did not survive preparation".into());
            };
            let mut ix = write_indexed(state);
            // A pinned slot must be fresh (appends keep the global-slot
            // table ascending, mirroring local insertion order) and must
            // land in this daemon's residue class — a misrouted frame is
            // a protocol error, not a silent reshard.
            let global = match slot {
                Some(slot) => {
                    if slot < ix.universe {
                        let message =
                            format!("stale slot {slot}: universe is already {}", ix.universe);
                        return service.reject(ErrKind::Proto, message);
                    }
                    if slot as usize % state.shards != state.shard {
                        let message = format!(
                            "slot {slot} is not owned by shard {}/{}",
                            state.shard, state.shards,
                        );
                        return service.reject(ErrKind::Proto, message);
                    }
                    slot
                }
                // Standalone behaviour: take the next owned slot.
                None => {
                    let (n, i) = (state.shards as u64, state.shard as u64);
                    ix.universe + (i + n - ix.universe % n) % n
                }
            };
            let replaced = ix.ids.iter().position(|id| *id == model.id);
            if let Some(rank) = replaced {
                ix.index.remove(rank);
                ix.ids.remove(rank);
                ix.slots.remove(rank);
            }
            let rank = ix.index.insert(prepared);
            ix.ids.push(model.id.clone());
            ix.slots.push(global);
            ix.universe = global + 1;
            drop(ix);
            service.evict(&model.id, || read_indexed(state).index.scope_keys(&model));
            upserted(replaced.is_some(), &model.id, rank as u64)
        }
        Request::Remove { model_id } => {
            Metrics::bump(&metrics.remove_requests);
            let mut ix = write_indexed(state);
            let Some(rank) = ix.ids.iter().position(|id| *id == model_id) else {
                return removed(false, &model_id);
            };
            ix.index.remove(rank);
            ix.ids.remove(rank);
            ix.slots.remove(rank);
            drop(ix);
            service.evict(&model_id, Vec::new);
            removed(true, &model_id)
        }
        Request::Stats => {
            Metrics::bump(&metrics.stats_requests);
            let ix = read_indexed(state);
            let mut body = service.stats(ix.index.len());
            // Then the index, and the cluster identity lines a
            // coordinator's bind handshake reads to validate topology
            // and adopt the universe.
            body.push_str(&format!(
                "index_generation {}\nshards {}\nlive_models {}\ntombstoned_models {}\n\
                 shard_index {}\nshard_total {}\nuniverse {}\nfingerprint {:016x}\nsemantics {}\n",
                ix.index.generation(),
                ix.index.shard_count(),
                ix.index.len(),
                ix.index.tombstoned_len(),
                state.shard,
                state.shards,
                ix.universe,
                service.options.fingerprint().stable_hash(),
                semantics_token(service.options.semantics),
            ));
            ok(0, body)
        }
        Request::Shutdown => {
            *shutdown = true;
            ok(0, "shutting down\n")
        }
    }
}
