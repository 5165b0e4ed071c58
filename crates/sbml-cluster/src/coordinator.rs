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

use sbml_compose::{ComposeOptions, WorkerPool};
use sbml_match::{scope_keys, MatchSemantics};
use sbml_model::Model;
use sbml_serve::cache::Scope;
use sbml_serve::metrics::Metrics;
use sbml_serve::protocol::{ErrKind, Request, Response};
use sbml_serve::server::serve_frames;
use sbml_serve::service::{frame_handler, ok, removed, upserted, Service};
use sbml_serve::snapshot::{preset_options, semantics_from_token, semantics_token};
use sbml_serve::wire::{PartialCandidates, PartialMatches};

use crate::link::{RetryPolicy, ShardLink};
use crate::merge::{merge_candidates, merge_match_rows};

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
    service: Service,
    /// The match semantics of the service's options, which cache scope
    /// keys are derived under.
    semantics: MatchSemantics,
    links: Vec<ShardLink>,
    /// Scatter pool, one lane per shard.
    pool: WorkerPool,
    write: Mutex<WriteState>,
    /// Approximate hits ranked per `MATCH` miss.
    top_k: usize,
}

/// A bound, not-yet-running coordinator. [`Coordinator::run`] blocks
/// until a `SHUTDOWN` request arrives.
pub struct Coordinator {
    listener: TcpListener,
    state: Arc<CoordState>,
    addr: SocketAddr,
    live_at_bind: u64,
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
            let (code, body) = link.call(&Request::Stats).map_err(bad)?;
            if code != 0 {
                return Err(named(format!("STATS answered with code {code}")));
            }
            let body =
                String::from_utf8(body).map_err(|_| named("STATS body is not UTF-8".into()))?;
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
        let state = Arc::new(CoordState {
            semantics: MatchSemantics::from_options(&options),
            service: Service::new(
                options,
                config.threads,
                config.cache_capacity,
                (config.max_steps, config.deadline_ms),
            ),
            pool: WorkerPool::new(n),
            write: Mutex::new(WriteState { universe: reference.universe, live: live_total }),
            links,
            top_k: config.top_k,
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
        let threads = state.service.threads;
        serve_frames(listener, threads, frame_handler(state, |s| &s.service, respond))
    }
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

/// `MATCH` and `QUERY`: scatter the shard-internal half of `verb`
/// (`partial_verb`), decode each survivor's binary partial, and merge
/// into the rendered answer and its cache scope. No survivors is
/// `ERR budget`. A dead shard degrades the answer: the merge over the
/// survivors, prefixed with one `dead shard …` line per missing shard,
/// under the partial exit code, and never cached.
fn scatter_read<P: Send>(
    state: &CoordState,
    verb: &str,
    query_xml: String,
    partial_verb: fn(String) -> Request,
    decode: fn(&[u8]) -> Result<P, String>,
    merge: impl FnOnce(&Model, &[P]) -> ((u8, String), Scope),
) -> Arc<[u8]> {
    let service = &state.service;
    service.read(verb, query_xml, |query, query_xml| {
        let request = partial_verb(query_xml);
        let (mut parts, mut dead) = (Vec::new(), Vec::new());
        for result in scatter(state, |link| {
            let (_, body) = link.call(&request)?;
            decode(&body).map_err(|e| format!("shard {} ({}): {e}", link.index, link.addr))
        }) {
            match result {
                Ok(part) => parts.push(part),
                Err(detail) => dead.push(detail),
            }
        }
        if parts.is_empty() {
            let message = dead.into_iter().next().unwrap_or_else(|| "no shards".into());
            return Err(service.reject(ErrKind::Budget, message));
        }
        let ((code, text), scope) = merge(&query, &parts);
        if dead.is_empty() {
            return Ok((ok(code, text), scope));
        }
        Metrics::bump(&service.metrics.budget_cuts);
        let mut body: String = dead.iter().map(|detail| format!("dead {detail}\n")).collect();
        body.push_str(&text);
        Err(ok(4, body))
    })
}

/// `REMOVE model_id` on every shard but `skip`: how many held the model,
/// and the first shard that failed (in shard order), if any.
fn remove_everywhere(
    state: &CoordState,
    model_id: &str,
    skip: Option<usize>,
) -> (u64, Option<String>) {
    let results = scatter(state, |link| {
        if Some(link.index) == skip {
            return Ok(1u8);
        }
        link.call(&Request::Remove { model_id: model_id.to_owned() }).map(|(code, _)| code)
    });
    let hits = results.iter().filter(|result| matches!(result, Ok(0))).count() as u64;
    (hits, results.into_iter().find_map(Result::err))
}

fn respond(state: &CoordState, request: Request, shutdown: &mut bool) -> Arc<[u8]> {
    let service = &state.service;
    let metrics = &service.metrics;
    match request {
        Request::Match { query_xml } => {
            Metrics::bump(&metrics.match_requests);
            scatter_read(
                state,
                "MATCH",
                query_xml,
                |query_xml| Request::PartialMatch { query_xml },
                PartialMatches::decode,
                |query, parts| {
                    // The query's scope keys are derived here, on a miss.
                    let rows = merge_match_rows(parts, state.top_k);
                    let keys = scope_keys(query, &state.semantics, &service.options);
                    (rows.render(), Scope::of_query(query, keys, rows.ids()))
                },
            )
        }
        Request::Query { query_xml } => {
            Metrics::bump(&metrics.query_requests);
            scatter_read(
                state,
                "QUERY",
                query_xml,
                |query_xml| Request::PartialQuery { query_xml },
                PartialCandidates::decode,
                |_, parts| (merge_candidates(parts), Scope::corpus_wide()),
            )
        }
        Request::Compose { models_xml } => service.compose(&models_xml),
        Request::Upsert { model_xml, slot } => {
            Metrics::bump(&metrics.upsert_requests);
            if slot.is_some() {
                return service.reject(
                    ErrKind::Proto,
                    "the coordinator allocates slots; UPSERT takes no slot here".into(),
                );
            }
            let model = match service.parse(&model_xml) {
                Ok(model) => model,
                Err(response) => return response,
            };
            let mut write = state.write.lock().unwrap_or_else(|e| e.into_inner());
            let global = write.universe;
            let target = (global % state.links.len() as u64) as usize;
            let named = |detail: String| {
                format!("shard {target} ({}): {detail}", state.links[target].addr)
            };
            // Insert first: the target daemon validates and replaces any
            // same-id model it owns atomically, so a rejected or dead
            // insert leaves the cluster untouched.
            let inserted = match state.links[target].request(&Request::Upsert {
                model_xml,
                slot: Some(global),
            }) {
                Ok(Response::Ok { code: 0, body }) => body,
                Ok(Response::Ok { code, .. }) => {
                    let message = named(format!("UPSERT answered with code {code}"));
                    return service.reject(ErrKind::Proto, message);
                }
                Ok(Response::Err { kind, message }) => return service.reject(kind, named(message)),
                Err(message) => return service.reject(ErrKind::Budget, message),
            };
            // The target holds the model at `global` now: that slot is
            // spent whatever happens next.
            write.universe = global + 1;
            let replaced_on_target = inserted.starts_with(b"replaced");
            // Evict the id from every other shard — a replace may have
            // lived anywhere. A dead shard here fails the write loudly:
            // it holds a model the cluster believes is gone.
            let (evicted, failure) = remove_everywhere(state, &model.id, Some(target));
            write.live = write.live + 1 - evicted - u64::from(replaced_on_target);
            let rank = write.live - 1;
            drop(write);
            service.evict(&model.id, || scope_keys(&model, &state.semantics, &service.options));
            match failure {
                // The write is half applied and cannot be rolled back:
                // say so, or the answer reads like a refused write.
                Some(message) => service.reject(
                    ErrKind::Budget,
                    format!(
                        "UPSERT {} applied on shard {target} ({}) at slot {global}, \
                         but evicting the id from the other shards failed: {message}",
                        model.id, state.links[target].addr,
                    ),
                ),
                None => upserted(replaced_on_target || evicted > 0, &model.id, rank),
            }
        }
        Request::Remove { model_id } => {
            Metrics::bump(&metrics.remove_requests);
            let mut write = state.write.lock().unwrap_or_else(|e| e.into_inner());
            let (hits, failure) = remove_everywhere(state, &model_id, None);
            write.live -= hits.min(write.live);
            drop(write);
            if hits > 0 {
                service.evict(&model_id, Vec::new);
            }
            match failure {
                // The live shards' removals stand and cannot be rolled
                // back: say how far the write got, or the answer reads
                // like a refused REMOVE.
                Some(message) => service.reject(
                    ErrKind::Budget,
                    format!(
                        "REMOVE {model_id} removed by {hits} live shard(s), \
                         but removing it from every shard failed: {message}",
                    ),
                ),
                None => removed(hits > 0, &model_id),
            }
        }
        Request::PartialMatch { .. } | Request::PartialQuery { .. } => service.reject(
            ErrKind::Proto,
            "PMATCH/PQUERY are shard-internal verbs; use MATCH/QUERY".into(),
        ),
        Request::Stats => {
            Metrics::bump(&metrics.stats_requests);
            let (universe, live) = {
                let write = state.write.lock().unwrap_or_else(|e| e.into_inner());
                (write.universe, write.live)
            };
            let mut body = service.stats(live as usize);
            body.push_str(&format!(
                "coordinator_shards {}\nuniverse {universe}\nfingerprint {:016x}\nsemantics {}\n",
                state.links.len(),
                service.options.fingerprint().stable_hash(),
                semantics_token(service.options.semantics),
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
            ok(0, body)
        }
        Request::Shutdown => {
            *shutdown = true;
            ok(0, "shutting down\n")
        }
    }
}
