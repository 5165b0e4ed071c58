//! The request core the daemon ([`crate::Server`]) and the cluster
//! coordinator (`sbml-cluster`) share: one frame handler, one
//! parse → cache key → metered cache step for reads, one `COMPOSE`, one
//! `STATS` prefix, and one grammar for write answers and errors. Each
//! front end keeps only what differs: where a read's answer comes from
//! (the local index or a shard scatter) and how a write is applied.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sbml_compose::{Budget, ComposeOptions, CompositionSession, WorkerPool};
use sbml_model::{parse_sbml, write_sbml, Model};

use crate::cache::{self, QueryCache, Scope};
use crate::metrics::Metrics;
use crate::protocol::{ErrKind, Request, Response};
use crate::server::{cache_key, FrameHandler, FrameOutcome};

/// Encode a response into the payload bytes a frame carries.
fn encode(response: Response) -> Arc<[u8]> {
    Arc::from(response.encode().into_boxed_slice())
}

/// `OK <code>` with `body`.
pub fn ok(code: u8, body: impl Into<Vec<u8>>) -> Arc<[u8]> {
    encode(Response::Ok { code, body: body.into() })
}

/// The answer to an applied `UPSERT`: the model's rank in the live
/// corpus.
pub fn upserted(replaced: bool, id: &str, rank: u64) -> Arc<[u8]> {
    let verb = if replaced { "replaced" } else { "inserted" };
    ok(0, format!("{verb} {id} model {rank}\n"))
}

/// The answer to a `REMOVE`: exit 0 when the model was live, 1 if not.
pub fn removed(found: bool, id: &str) -> Arc<[u8]> {
    if found {
        ok(0, format!("removed {id}\n"))
    } else {
        ok(1, format!("no such model {id}\n"))
    }
}

/// What every front end holds: the options requests run under, the
/// response cache, the counters, and the `COMPOSE` machinery.
pub struct Service {
    /// The compose options every request is canonicalised and composed
    /// under.
    pub options: ComposeOptions,
    /// Read answers keyed by [`cache_key`].
    cache: Mutex<QueryCache>,
    /// Request counters and latencies, exposed by `STATS`.
    pub metrics: Metrics,
    /// Worker threads serving client connections.
    pub threads: usize,
    /// Process-lifetime compose worker pool: every `COMPOSE` session on
    /// every connection shares these parked threads instead of spawning
    /// scoped threads per request.
    compose_pool: Arc<WorkerPool>,
    /// Each `COMPOSE`'s step ceiling and deadline.
    budget: Budget,
}

impl Service {
    /// A core serving on `threads` workers (`0` = one per core) with a
    /// `cache_capacity`-entry cache (`0` disables caching); `budget` is
    /// each `COMPOSE`'s (step ceiling, deadline in milliseconds).
    pub fn new(
        options: ComposeOptions,
        threads: usize,
        cache_capacity: usize,
        budget: (Option<u64>, Option<u64>),
    ) -> Service {
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        };
        let (max_steps, deadline_ms) = budget;
        let mut budget = Budget::unlimited();
        if let Some(steps) = max_steps {
            budget = budget.with_max_steps(steps);
        }
        if let Some(ms) = deadline_ms {
            budget = budget.with_deadline_ms(ms);
        }
        Service {
            options,
            cache: Mutex::new(QueryCache::new(cache_capacity)),
            metrics: Metrics::new(),
            threads,
            compose_pool: Arc::new(WorkerPool::for_host()),
            budget,
        }
    }

    /// Answer `ERR <kind> <message>`, counted as an error.
    pub fn reject(&self, kind: ErrKind, message: String) -> Arc<[u8]> {
        Metrics::bump(&self.metrics.errors);
        encode(Response::Err { kind, message })
    }

    /// Parse one request document, or answer `ERR parse`.
    pub fn parse(&self, xml: &str) -> Result<Model, Arc<[u8]>> {
        parse_sbml(xml).map_err(|e| self.reject(ErrKind::Parse, e.to_string()))
    }

    /// A cacheable read: parse the query, key it by `verb` and its
    /// content keys, and answer from the cache or from `compute`, which
    /// gets the parsed query and its text. `compute`'s `Ok` answers fill
    /// the cache under their [`Scope`]; its `Err` answers (failed or
    /// degraded) never do.
    pub fn read(
        &self,
        verb: &str,
        xml: String,
        compute: impl FnOnce(Model, String) -> Result<(Arc<[u8]>, Scope), Arc<[u8]>>,
    ) -> Arc<[u8]> {
        let query = match self.parse(&xml) {
            Ok(query) => query,
            Err(response) => return response,
        };
        let key = cache_key(verb, &query, &self.options);
        cache::cached(&self.cache, &self.metrics, key, || compute(query, xml))
    }

    /// A write of model `id` was applied to the corpus: evict the cached
    /// answers it can change — the corpus-wide ones, the ones naming
    /// `id`, and the ones sharing a scope key with the written model.
    /// `keys` derives the [`sbml_match::scope_keys`] of the model an
    /// `UPSERT` stored (none for a `REMOVE`); it runs only when the cache
    /// holds an entry. Call it after the mutation; see [`crate::cache`]
    /// for why the rule is sound.
    pub fn evict(&self, id: &str, keys: impl FnOnce() -> Vec<u64>) {
        cache::evict(&self.cache, &self.metrics, id, keys);
    }

    /// Answer a `COMPOSE`: parse every document, push each into one
    /// session under this request's own budget, write the composed
    /// model. A hostile request is cut off with a structured error and
    /// the caller keeps serving.
    pub fn compose(&self, models_xml: &[String]) -> Arc<[u8]> {
        Metrics::bump(&self.metrics.compose_requests);
        if models_xml.len() < 2 {
            return self.reject(ErrKind::Proto, "COMPOSE needs at least two documents".into());
        }
        let parsed: Result<Vec<Model>, _> = models_xml.iter().map(|xml| self.parse(xml)).collect();
        let models = match parsed {
            Ok(models) => models,
            Err(response) => return response,
        };
        let meter = self.budget.start();
        let mut session = CompositionSession::new(&self.options);
        session.set_pool(Arc::clone(&self.compose_pool));
        for model in &models {
            if let Err(error) = session.push_guarded(model, Some(&meter)) {
                Metrics::bump(&self.metrics.budget_cuts);
                return encode(Response::Err { kind: ErrKind::Budget, message: error.to_string() });
            }
        }
        ok(0, write_sbml(&session.finish().model))
    }

    /// The counter lines every `STATS` body starts with, for a corpus of
    /// `live` models.
    pub fn stats(&self, live: usize) -> String {
        let cache_entries = self.cache.lock().map(|c| c.len()).unwrap_or(0);
        self.metrics.report().render(cache_entries, live, self.threads)
    }
}

/// The frame handler both front ends run over their shared `state`
/// (whose request core `service` picks out): count the request, decode
/// it (a bad frame is answered `ERR proto`), `respond`, record the
/// latency. `respond` sets its flag to stop serving once the answer is
/// written.
pub fn frame_handler<S: Send + Sync + 'static>(
    state: Arc<S>,
    service: fn(&S) -> &Service,
    respond: fn(&S, Request, &mut bool) -> Arc<[u8]>,
) -> FrameHandler {
    Arc::new(move |payload: &[u8]| {
        let started = Instant::now();
        let core = service(&state);
        Metrics::bump(&core.metrics.requests);
        let mut shutdown = false;
        let response = match Request::decode(payload) {
            Ok(request) => respond(&state, request, &mut shutdown),
            Err(message) => core.reject(ErrKind::Proto, message),
        };
        core.metrics.record_latency_us(started.elapsed().as_micros() as u64);
        FrameOutcome { response, shutdown }
    })
}
