//! The scatter-gather coordinator: one process speaking the unmodified
//! client protocol, fronting `n` shard daemons.
//!
//! # Request routing
//!
//! | verb              | plan                                            |
//! |-------------------|-------------------------------------------------|
//! | `MATCH` / `QUERY` | scatter `PMATCH`/`PQUERY` to every shard on the |
//! |                   | worker pool, gather binary partials, merge      |
//! |                   | ([`crate::merge`]), render                      |
//! | `UPSERT`          | allocate global slot `u`, pinned `UPSERT u` to  |
//! |                   | shard `u % n`, then `REMOVE id` on every other  |
//! |                   | shard (a replace may live anywhere)             |
//! | `REMOVE`          | scatter to every shard; hit anywhere is exit 0  |
//! | `COMPOSE`         | runs locally (composition needs no corpus)      |
//! | `STATS`           | coordinator aggregate + every shard's `STATS`   |
//! |                   | body verbatim                                   |
//! | `SHUTDOWN`        | stops the coordinator only — shards are owned   |
//! |                   | by their own lifecycles                         |
//!
//! # Bind handshake
//!
//! [`Coordinator::bind`] sends `STATS` to every shard (retrying under
//! the [`RetryPolicy`]) and refuses to start unless each daemon reports
//! the expected `shard_index`/`shard_total`, all fingerprints,
//! semantics and universes agree, and the options fingerprint matches
//! what the coordinator will cache and compose under. A cluster that
//! cannot answer bit-identically to a single process never comes up.
//!
//! # Consistency
//!
//! Writes are serialized by one coordinator-side lock (slot allocation
//! is monotonic), and each shard applies its share atomically; reads
//! scattered *during* a multi-shard write may observe it partially —
//! the same read-committed-per-shard semantics a client sees when
//! driving shard daemons directly. After any write completes, every
//! subsequent read is bit-identical to the single-process answer.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sbml_compose::{ComposeOptions, WorkerPool};
use sbml_serve::cache::QueryCache;
use sbml_serve::metrics::Metrics;
use sbml_serve::protocol::{ErrKind, Request, Response};
use sbml_serve::server::{
    cache_key, compose_documents, parse_model, serve_frames, FrameHandler, FrameOutcome,
};
use sbml_serve::snapshot::{preset_options, semantics_from_token, semantics_token};
use sbml_serve::wire::{PartialCandidates, PartialMatches};

use crate::link::{RetryPolicy, ShardLink};
use crate::merge::{merge_candidates, merge_matches};

/// Tunables applied at [`Coordinator::bind`] time. The `top_k`,
/// `max_steps` and `deadline_ms` knobs must match the shard daemons'
/// (`sbmlcompose coordinator` and `serve --shard` share the flags) —
/// top-k because the merge cut relies on per-shard cuts under the same
/// order, budgets so a truncation verdict is the same everywhere.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker threads handling client connections (`0` = one per core).
    pub threads: usize,
    /// Result-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Local `COMPOSE` step ceiling (mirrors [`sbml_serve::ServerConfig`]).
    pub max_steps: Option<u64>,
    /// Per-request wall-clock allowance, also bounding every shard call
    /// (connect retries included).
    pub deadline_ms: Option<u64>,
    /// Approximate hits ranked per `MATCH` miss; must equal the shards'.
    pub top_k: usize,
    /// How hard shard calls retry before a shard is declared dead.
    pub retry: RetryPolicy,
    /// The compose options the cluster runs under. `None` derives the
    /// preset from the shards' semantics handshake (the CLI path);
    /// either way the fingerprint must match every shard's.
    pub options: Option<ComposeOptions>,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            threads: 0,
            cache_capacity: 256,
            max_steps: None,
            deadline_ms: None,
            top_k: 10,
            retry: RetryPolicy::default(),
            options: None,
        }
    }
}

/// Cluster-wide mutable counters, serialized by one lock: the write
/// path allocates slots and tracks the live total (which is what turns
/// a shard-local insert rank into the global rank clients see).
struct WriteState {
    universe: u64,
    live: u64,
}

struct CoordState {
    links: Vec<ShardLink>,
    options: ComposeOptions,
    cache: Mutex<QueryCache>,
    metrics: Metrics,
    /// Scatter pool, one lane per shard.
    pool: WorkerPool,
    /// Compose sessions share the same parked threads.
    compose_pool: Arc<WorkerPool>,
    write: Mutex<WriteState>,
    config: CoordinatorConfig,
    threads: usize,
}

/// A bound, not-yet-running coordinator. [`Coordinator::run`] blocks
/// until a `SHUTDOWN` request arrives.
pub struct Coordinator {
    listener: TcpListener,
    state: Arc<CoordState>,
    addr: SocketAddr,
    live_at_bind: u64,
}

fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, message)
}

/// Parse a daemon STATS body into its key → value lines.
fn stats_map(body: &str) -> HashMap<&str, &str> {
    body.lines().filter_map(|line| line.split_once(' ')).collect()
}

impl Coordinator {
    /// Bind the coordinator to `addr` and handshake with every shard
    /// daemon: shard `i` must be listening at `shard_addrs[i]` and
    /// identify as `i/n` over a corpus agreeing with its peers on
    /// fingerprint, semantics and slot universe. An unreachable or
    /// misconfigured shard fails the bind with an error naming it.
    pub fn bind(
        addr: impl ToSocketAddrs,
        shard_addrs: &[String],
        config: CoordinatorConfig,
    ) -> io::Result<Coordinator> {
        if shard_addrs.is_empty() {
            return Err(bad("a cluster needs at least one shard address".into()));
        }
        let n = shard_addrs.len();
        let links: Vec<ShardLink> = shard_addrs
            .iter()
            .enumerate()
            .map(|(i, a)| ShardLink::new(i, a.clone(), config.retry, config.deadline_ms))
            .collect();

        struct Identity {
            universe: u64,
            live: u64,
            fingerprint: String,
            semantics: String,
        }
        let mut first: Option<Identity> = None;
        let mut live_total = 0u64;
        for link in &links {
            let named = |detail: String| {
                bad(format!("shard {} ({}): {detail}", link.index, link.addr))
            };
            let response = link.request(&Request::Stats).map_err(bad)?;
            let body = match response {
                Response::Ok { code: 0, body } => String::from_utf8(body)
                    .map_err(|_| named("STATS body is not UTF-8".into()))?,
                Response::Ok { code, .. } => {
                    return Err(named(format!("STATS answered with code {code}")))
                }
                Response::Err { kind, message } => {
                    return Err(named(format!("ERR {} {message}", kind.token())))
                }
            };
            let map = stats_map(&body);
            let field = |key: &str| -> io::Result<&str> {
                map.get(key).copied().ok_or_else(|| {
                    named(format!("STATS is missing {key} — not a cluster shard daemon?"))
                })
            };
            let numeric = |key: &str| -> io::Result<u64> {
                field(key)?
                    .parse::<u64>()
                    .map_err(|_| named(format!("STATS {key} is not a number")))
            };
            let (shard_index, shard_total) = (numeric("shard_index")?, numeric("shard_total")?);
            if (shard_index, shard_total) != (link.index as u64, n as u64) {
                return Err(named(format!(
                    "daemon identifies as shard {shard_index}/{shard_total}, expected {}/{n}",
                    link.index,
                )));
            }
            let identity = Identity {
                universe: numeric("universe")?,
                live: numeric("live_models")?,
                fingerprint: field("fingerprint")?.to_owned(),
                semantics: field("semantics")?.to_owned(),
            };
            live_total += identity.live;
            match &first {
                None => first = Some(identity),
                Some(reference) => {
                    if identity.fingerprint != reference.fingerprint {
                        return Err(named(format!(
                            "options fingerprint {} disagrees with shard 0's {}",
                            identity.fingerprint, reference.fingerprint,
                        )));
                    }
                    if identity.semantics != reference.semantics {
                        return Err(named(format!(
                            "semantics {} disagrees with shard 0's {}",
                            identity.semantics, reference.semantics,
                        )));
                    }
                    if identity.universe != reference.universe {
                        return Err(named(format!(
                            "slot universe {} disagrees with shard 0's {} — \
                             the shards were not split from one corpus state",
                            identity.universe, reference.universe,
                        )));
                    }
                }
            }
        }
        let Some(reference) = first else {
            return Err(bad("a cluster needs at least one shard address".into()));
        };

        let options = match config.options.clone() {
            Some(options) => options,
            None => {
                let level = semantics_from_token(&reference.semantics).ok_or_else(|| {
                    bad(format!("shard 0 reports unknown semantics {:?}", reference.semantics))
                })?;
                preset_options(level)
            }
        };
        let expected = format!("{:016x}", options.fingerprint().stable_hash());
        if expected != reference.fingerprint {
            return Err(bad(format!(
                "shards run options fingerprint {} but the coordinator would use {expected} \
                 (pass the shards' exact options)",
                reference.fingerprint,
            )));
        }

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let threads = resolve_threads(config.threads);
        let compose_pool = Arc::new(WorkerPool::for_host());
        let state = Arc::new(CoordState {
            pool: WorkerPool::new(n),
            compose_pool,
            cache: Mutex::new(QueryCache::new(config.cache_capacity)),
            metrics: Metrics::new(),
            write: Mutex::new(WriteState { universe: reference.universe, live: live_total }),
            links,
            options,
            config,
            threads,
        });
        Ok(Coordinator { listener, state, addr: local, live_at_bind: live_total })
    }

    /// The address the coordinator is listening on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many shard daemons this coordinator fronts.
    pub fn shards(&self) -> usize {
        self.state.links.len()
    }

    /// Cluster-wide live model count observed at bind time.
    pub fn live_models(&self) -> u64 {
        self.live_at_bind
    }

    /// Serve client frames until a `SHUTDOWN` request arrives, on the
    /// same drain-on-shutdown accept loop as the daemon
    /// ([`sbml_serve::serve_frames`]).
    pub fn run(self) -> io::Result<()> {
        let Coordinator { listener, state, .. } = self;
        let threads = state.threads;
        let handler: FrameHandler = Arc::new(move |payload: &[u8]| {
            let started = Instant::now();
            Metrics::bump(&state.metrics.requests);
            let mut shutdown = false;
            let response = match Request::decode(payload) {
                Ok(request) => respond(&state, request, &mut shutdown),
                Err(message) => {
                    Metrics::bump(&state.metrics.errors);
                    encode(Response::Err { kind: ErrKind::Proto, message })
                }
            };
            state.metrics.record_latency_us(started.elapsed().as_micros() as u64);
            FrameOutcome { response, shutdown }
        });
        serve_frames(listener, threads, handler)
    }
}

fn encode(response: Response) -> Arc<[u8]> {
    Arc::from(response.encode().into_boxed_slice())
}

/// Run `call` against every link concurrently (one pool lane per
/// shard); results are positional with `links`.
fn scatter<T, F>(state: &CoordState, call: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(&ShardLink) -> Result<T, String> + Sync,
{
    let links = &state.links;
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        links.iter().map(|_| Mutex::new(None)).collect();
    let call = &call;
    let fill = |i: usize| {
        let outcome = call(&links[i]);
        if let Ok(mut slot) = results[i].lock() {
            *slot = Some(outcome);
        }
    };
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (1..links.len())
        .map(|i| Box::new(move || fill(i)) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    state.pool.run_scoped(|| fill(0), tasks);
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| Err("scatter task did not run".into()))
        })
        .collect()
}

/// Ask one shard and decode its binary partial body; `decode` is the
/// wire type's parser. Protocol-level errors are strings naming the
/// shard, like every [`ShardLink`] error.
fn partial<T>(
    link: &ShardLink,
    request: &Request,
    decode: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<T, String> {
    match link.request(request)? {
        Response::Ok { code: _, body } => decode(&body)
            .map_err(|e| format!("shard {} ({}): {e}", link.index, link.addr)),
        Response::Err { kind, message } => Err(format!(
            "shard {} ({}): ERR {} {message}",
            link.index,
            link.addr,
            kind.token(),
        )),
    }
}

fn cache_get(state: &CoordState, key: &str) -> Option<Arc<[u8]>> {
    let mut cache = state.cache.lock().ok()?;
    let hit = cache.get(key);
    if hit.is_some() {
        Metrics::bump(&state.metrics.cache_hits);
    }
    hit
}

fn cache_put(state: &CoordState, key: String, response: &Arc<[u8]>) {
    if let Ok(mut cache) = state.cache.lock() {
        cache.put(key, Arc::clone(response));
    }
}

fn invalidate_cache(state: &CoordState) {
    if let Ok(mut cache) = state.cache.lock() {
        cache.clear();
    }
}

/// Gather a scatter's results, splitting survivors from dead shards.
fn split_gather<T>(results: Vec<Result<T, String>>) -> (Vec<T>, Vec<String>) {
    let mut parts = Vec::with_capacity(results.len());
    let mut dead = Vec::new();
    for result in results {
        match result {
            Ok(part) => parts.push(part),
            Err(detail) => dead.push(detail),
        }
    }
    (parts, dead)
}

/// Render a degraded read: the merged answer over the surviving shards,
/// prefixed with one `dead shard …` line per missing shard, under the
/// partial exit code. Never cached.
fn degrade(dead: &[String], text: &str) -> Response {
    let mut body = String::new();
    for detail in dead {
        body.push_str("dead ");
        body.push_str(detail);
        body.push('\n');
    }
    body.push_str(text);
    Response::Ok { code: 4, body: body.into_bytes() }
}

fn respond(state: &CoordState, request: Request, shutdown: &mut bool) -> Arc<[u8]> {
    match request {
        Request::Match { query_xml } => {
            Metrics::bump(&state.metrics.match_requests);
            let query = match parse_model(&query_xml, &state.metrics) {
                Ok(query) => query,
                Err(response) => return response,
            };
            let key = cache_key("MATCH", &query, &state.options);
            if let Some(hit) = cache_get(state, &key) {
                return hit;
            }
            Metrics::bump(&state.metrics.cache_misses);
            let request = Request::PartialMatch { query_xml };
            let results =
                scatter(state, |link| partial(link, &request, PartialMatches::decode));
            let (parts, dead) = split_gather(results);
            if parts.is_empty() {
                Metrics::bump(&state.metrics.errors);
                let message = dead.into_iter().next().unwrap_or_else(|| "no shards".into());
                return encode(Response::Err { kind: ErrKind::Budget, message });
            }
            let (code, text) = merge_matches(&parts, state.config.top_k);
            if !dead.is_empty() {
                Metrics::bump(&state.metrics.budget_cuts);
                return encode(degrade(&dead, &text));
            }
            let response = encode(Response::Ok { code, body: text.into_bytes() });
            cache_put(state, key, &response);
            response
        }
        Request::Query { query_xml } => {
            Metrics::bump(&state.metrics.query_requests);
            let query = match parse_model(&query_xml, &state.metrics) {
                Ok(query) => query,
                Err(response) => return response,
            };
            let key = cache_key("QUERY", &query, &state.options);
            if let Some(hit) = cache_get(state, &key) {
                return hit;
            }
            Metrics::bump(&state.metrics.cache_misses);
            let request = Request::PartialQuery { query_xml };
            let results =
                scatter(state, |link| partial(link, &request, PartialCandidates::decode));
            let (parts, dead) = split_gather(results);
            if parts.is_empty() {
                Metrics::bump(&state.metrics.errors);
                let message = dead.into_iter().next().unwrap_or_else(|| "no shards".into());
                return encode(Response::Err { kind: ErrKind::Budget, message });
            }
            let (code, text) = merge_candidates(&parts);
            if !dead.is_empty() {
                Metrics::bump(&state.metrics.budget_cuts);
                return encode(degrade(&dead, &text));
            }
            let response = encode(Response::Ok { code, body: text.into_bytes() });
            cache_put(state, key, &response);
            response
        }
        Request::Compose { models_xml } => {
            Metrics::bump(&state.metrics.compose_requests);
            let config = &state.config;
            compose_documents(
                &models_xml,
                &state.options,
                &state.compose_pool,
                (config.max_steps, config.deadline_ms),
                &state.metrics,
            )
        }
        Request::Upsert { model_xml, slot } => {
            Metrics::bump(&state.metrics.upsert_requests);
            if slot.is_some() {
                Metrics::bump(&state.metrics.errors);
                return encode(Response::Err {
                    kind: ErrKind::Proto,
                    message: "the coordinator allocates slots; UPSERT takes no slot here"
                        .into(),
                });
            }
            let model = match parse_model(&model_xml, &state.metrics) {
                Ok(model) => model,
                Err(response) => return response,
            };
            let mut write = state.write.lock().unwrap_or_else(|e| e.into_inner());
            let global = write.universe;
            let target = (global % state.links.len() as u64) as usize;
            // Insert first: the target daemon validates and replaces any
            // same-id model it owns atomically, so a rejected or dead
            // insert leaves the cluster untouched.
            let inserted = match state.links[target].request(&Request::Upsert {
                model_xml,
                slot: Some(global),
            }) {
                Ok(Response::Ok { code: 0, body }) => body,
                Ok(Response::Ok { code, .. }) => {
                    Metrics::bump(&state.metrics.errors);
                    return encode(Response::Err {
                        kind: ErrKind::Proto,
                        message: format!(
                            "shard {target} ({}): UPSERT answered with code {code}",
                            state.links[target].addr,
                        ),
                    });
                }
                Ok(Response::Err { kind, message }) => {
                    Metrics::bump(&state.metrics.errors);
                    return encode(Response::Err {
                        kind,
                        message: format!(
                            "shard {target} ({}): {message}",
                            state.links[target].addr,
                        ),
                    });
                }
                Err(message) => {
                    Metrics::bump(&state.metrics.errors);
                    return encode(Response::Err { kind: ErrKind::Budget, message });
                }
            };
            let mut replaced = inserted.starts_with(b"replaced");
            // Evict the id from every other shard — a replace may have
            // lived anywhere. A dead shard here fails the write loudly:
            // it holds a model the cluster believes is gone.
            let id = model.id.clone();
            let results = scatter(state, |link| {
                if link.index == target {
                    return Ok(1u8);
                }
                match link.request(&Request::Remove { model_id: id.clone() })? {
                    Response::Ok { code, .. } => Ok(code),
                    Response::Err { kind, message } => Err(format!(
                        "shard {} ({}): ERR {} {message}",
                        link.index,
                        link.addr,
                        kind.token(),
                    )),
                }
            });
            let mut evicted = 0u64;
            for result in results {
                match result {
                    Ok(0) => evicted += 1,
                    Ok(_) => {}
                    Err(message) => {
                        Metrics::bump(&state.metrics.errors);
                        return encode(Response::Err { kind: ErrKind::Budget, message });
                    }
                }
            }
            replaced |= evicted > 0;
            write.universe = global + 1;
            write.live = write.live + 1 - evicted - u64::from(inserted.starts_with(b"replaced"));
            let rank = write.live - 1;
            drop(write);
            invalidate_cache(state);
            let verb = if replaced { "replaced" } else { "inserted" };
            encode(Response::Ok {
                code: 0,
                body: format!("{verb} {} model {rank}\n", model.id).into_bytes(),
            })
        }
        Request::Remove { model_id } => {
            Metrics::bump(&state.metrics.remove_requests);
            let mut write = state.write.lock().unwrap_or_else(|e| e.into_inner());
            let results = scatter(state, |link| {
                match link.request(&Request::Remove { model_id: model_id.clone() })? {
                    Response::Ok { code, .. } => Ok(code),
                    Response::Err { kind, message } => Err(format!(
                        "shard {} ({}): ERR {} {message}",
                        link.index,
                        link.addr,
                        kind.token(),
                    )),
                }
            });
            let mut hits = 0u64;
            for result in results {
                match result {
                    Ok(0) => hits += 1,
                    Ok(_) => {}
                    Err(message) => {
                        Metrics::bump(&state.metrics.errors);
                        return encode(Response::Err { kind: ErrKind::Budget, message });
                    }
                }
            }
            if hits == 0 {
                return encode(Response::Ok {
                    code: 1,
                    body: format!("no such model {model_id}\n").into_bytes(),
                });
            }
            write.live -= hits.min(write.live);
            drop(write);
            invalidate_cache(state);
            encode(Response::Ok {
                code: 0,
                body: format!("removed {model_id}\n").into_bytes(),
            })
        }
        Request::PartialMatch { .. } | Request::PartialQuery { .. } => {
            Metrics::bump(&state.metrics.errors);
            encode(Response::Err {
                kind: ErrKind::Proto,
                message: "PMATCH/PQUERY are shard-internal verbs; use MATCH/QUERY".into(),
            })
        }
        Request::Stats => {
            Metrics::bump(&state.metrics.stats_requests);
            let cache_entries = state.cache.lock().map(|c| c.len()).unwrap_or(0);
            let (universe, live) = {
                let write = state.write.lock().unwrap_or_else(|e| e.into_inner());
                (write.universe, write.live)
            };
            let mut body =
                state.metrics.report().render(cache_entries, live as usize, state.threads);
            body.push_str(&format!(
                "coordinator_shards {}\nuniverse {universe}\nfingerprint {:016x}\nsemantics {}\n",
                state.links.len(),
                state.options.fingerprint().stable_hash(),
                semantics_token(state.options.semantics),
            ));
            // Observability must survive dead shards: every shard's own
            // STATS body verbatim, or the failure in its place.
            let results = scatter(state, |link| link.request(&Request::Stats));
            for (link, result) in state.links.iter().zip(results) {
                match result {
                    Ok(Response::Ok { code: _, body: shard_body }) => {
                        body.push_str(&format!("-- shard {} ({}) --\n", link.index, link.addr));
                        body.push_str(&String::from_utf8_lossy(&shard_body));
                    }
                    Ok(Response::Err { kind, message }) => {
                        body.push_str(&format!(
                            "-- shard {} ({}) dead: ERR {} {message} --\n",
                            link.index,
                            link.addr,
                            kind.token(),
                        ));
                    }
                    Err(detail) => {
                        body.push_str(&format!("-- dead {detail} --\n"));
                    }
                }
            }
            encode(Response::Ok { code: 0, body: body.into_bytes() })
        }
        Request::Shutdown => {
            *shutdown = true;
            encode(Response::Ok { code: 0, body: b"shutting down\n".to_vec() })
        }
    }
}
