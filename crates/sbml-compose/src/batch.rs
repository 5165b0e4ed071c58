//! Corpus-scale batch composition: the paper's Figure 8 workload
//! (compose every model of a corpus with every other) as a first-class
//! API instead of a caller-side double loop.
//!
//! The raw path re-derives each model's analysis (content keys, indexes,
//! initial values) inside every pair, so an *n*-model corpus pays for each
//! model's analysis *n−1* times. [`BatchComposer`] prepares every model
//! exactly once ([`BatchComposer::prepare_corpus`]), publishes the
//! preparations as a shared read-only key store
//! (`Vec<Arc<PreparedModel>>`), and fans the 187×186/2 pair grid out over
//! worker threads — preparations are immutable, so workers share them
//! without locks or copies.
//!
//! Output is bit-for-bit identical to calling [`Composer::compose`] on
//! each raw pair (property-tested), in deterministic ascending
//! `(i, j), i < j` order regardless of thread count.
//!
//! # Cost model
//!
//! For an *n*-model corpus with per-model size *m* and *W* workers:
//!
//! * [`BatchComposer::prepare_corpus`] — n independent preparations,
//!   O(n·m) work striped across W threads; each result is `Arc`-shared,
//!   so publishing it to every pair is a refcount bump.
//! * [`BatchComposer::all_pairs`] / [`all_pairs_with`] — n(n−1)/2 merges
//!   of prepared pairs, O(m) each (index probes, no per-pair
//!   re-analysis), striped across W threads; results are re-ordered into
//!   ascending pair order after the join, so scheduling never leaks into
//!   output.
//!
//! Parallelism granularity is complementary to the session's: this module
//! fans out *across* models/pairs, while
//! [`CompositionSession`](crate::CompositionSession) can additionally fan
//! out the key computation *inside* one large push
//! ([`ComposeOptions::parallel_push_threshold`](crate::ComposeOptions::parallel_push_threshold)).
//!
//! [`all_pairs_with`]: BatchComposer::all_pairs_with

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sbml_model::Model;

use crate::composer::{ComposeResult, Composer, SharedComposeResult};
use crate::guard::{self, BatchReport, Budget, ExecError, ItemOutcome, Site};
use crate::pool::WorkerPool;
use crate::prepared::PreparedModel;

/// Batch driver over a [`Composer`]; see the [module docs](self).
///
/// ```
/// use sbml_compose::{BatchComposer, Composer};
/// use sbml_model::builder::ModelBuilder;
///
/// let models: Vec<_> = (0..4)
///     .map(|i| {
///         ModelBuilder::new(format!("m{i}"))
///             .compartment("cell", 1.0)
///             .species(&format!("S{i}"), 1.0)
///             .species("shared", 2.0)
///             .build()
///     })
///     .collect();
/// let batch = BatchComposer::new(Composer::default());
/// let prepared = batch.prepare_corpus(&models);
/// let pairs = batch.all_pairs(&prepared);
/// assert_eq!(pairs.len(), 4 * 3 / 2);
/// assert!(pairs.iter().all(|p| p.species == 3)); // S_i, S_j, shared
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchComposer {
    composer: Composer,
    threads: usize,
    /// Lazily-spawned batch-lifetime [`WorkerPool`], shared by every
    /// pair session of every `all_pairs*` call on this composer, so a
    /// session that needs intra-push parallelism never spawns per pair.
    pool: OnceLock<Arc<WorkerPool>>,
}

/// Compact per-pair outcome of [`BatchComposer::all_pairs`] — the corpus
/// grid is large (17 391 pairs for the paper's 187 models), so the default
/// entry point keeps counts, not merged models; use
/// [`BatchComposer::all_pairs_with`] to observe full [`ComposeResult`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSummary {
    /// Index of the pair's first (base) model in the prepared corpus.
    pub a: usize,
    /// Index of the pair's second model.
    pub b: usize,
    /// Species count of the composed model.
    pub species: usize,
    /// Reaction count of the composed model.
    pub reactions: usize,
    /// Total component count of the composed model.
    pub components: usize,
    /// Conflicts logged while composing.
    pub conflicts: usize,
    /// ID mappings recorded (second-model id → composed id).
    pub mappings: usize,
}

impl BatchComposer {
    /// Batch driver using `composer`'s options, with automatic thread
    /// count (one worker per available core).
    pub fn new(composer: Composer) -> BatchComposer {
        BatchComposer { composer, threads: 0, pool: OnceLock::new() }
    }

    /// Fix the worker-thread count (`0` = automatic). Thread count never
    /// affects output, only wall time.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> BatchComposer {
        self.threads = threads;
        self
    }

    /// The underlying composer.
    pub fn composer(&self) -> &Composer {
        &self.composer
    }

    /// The batch-lifetime worker pool, spawned on first use and sized to
    /// the host's available parallelism. Every fan-out on this composer —
    /// pair grids, corpus sweeps, and the per-pair session internals —
    /// runs on this one pool, and callers layering their own fan-out on
    /// top (e.g. `sbml-match`'s shard scatter) should reuse it via
    /// [`WorkerPool::run_scoped`] rather than spawning threads: nested
    /// `run_scoped` calls on the same pool are deadlock-free by
    /// construction.
    pub fn shared_pool(&self) -> Arc<WorkerPool> {
        Arc::clone(self.pool.get_or_init(|| Arc::new(WorkerPool::for_host())))
    }

    fn worker_count(&self, jobs: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        };
        let n = if self.threads == 0 { auto() } else { self.threads };
        n.clamp(1, jobs.max(1))
    }

    /// Prepare every corpus model exactly once, sharding the independent
    /// preparations across worker threads. The result is the shared
    /// read-only key store every later batch call borrows from.
    pub fn prepare_corpus(&self, models: &[Model]) -> Vec<Arc<PreparedModel>> {
        self.striped(models.len(), self.worker_count(models.len()), |i| {
            Arc::new(self.composer.prepare(&models[i]))
        })
    }

    /// The one engine of the corpus fan-outs: run `job` for `0..jobs`
    /// striped across `workers` stripes on the shared pool (the caller
    /// thread runs stripe 0 and drains unclaimed stripes, per
    /// [`WorkerPool::run_scoped`]), returning results in job order
    /// regardless of scheduling. There are at most as many stripes as
    /// the pool has lanes — the caller would run any extra stripe itself
    /// after its own, splitting the work unevenly — and one stripe runs
    /// inline. A job may itself fan out on the shared pool: the nested
    /// `run_scoped`'s caller drains its own batch, so it never waits on a
    /// worker that is waiting on it.
    fn striped<T, J>(&self, jobs: usize, workers: usize, job: J) -> Vec<T>
    where
        T: Send,
        J: Fn(usize) -> T + Sync,
    {
        if workers <= 1 {
            return (0..jobs).map(job).collect();
        }
        let pool = self.shared_pool();
        let workers = workers.min(pool.threads());
        let mut stripes: Vec<Vec<(usize, T)>> = Vec::new();
        stripes.resize_with(workers, Vec::new);
        {
            let run_stripe = |w: usize| -> Vec<(usize, T)> {
                let mut out = Vec::new();
                let mut i = w;
                while i < jobs {
                    out.push((i, job(i)));
                    i += workers;
                }
                out
            };
            let (head, tail) = stripes.split_at_mut(1);
            let run_stripe = &run_stripe;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = tail
                .iter_mut()
                .enumerate()
                .map(|(k, cell)| {
                    Box::new(move || *cell = run_stripe(k + 1)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            let head_cell = &mut head[0];
            pool.run_scoped(|| *head_cell = run_stripe(0), tasks);
        }
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(jobs, || None);
        for (i, value) in stripes.into_iter().flatten() {
            slots[i] = Some(value);
        }
        slots.into_iter().map(|slot| slot.expect("every job produced a result")).collect()
    }

    /// Map every prepared corpus model through `f` on the batch's worker
    /// threads — the same thread-per-shard fan-out as
    /// [`BatchComposer::all_pairs`], but one job per *model* instead of
    /// per pair. Results come back in corpus order regardless of
    /// scheduling.
    pub fn map_corpus<T, F>(&self, prepared: &[Arc<PreparedModel>], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &PreparedModel) -> T + Sync,
    {
        self.map_jobs(prepared.len(), |i| f(i, &prepared[i]))
    }

    /// Run `job` for `0..jobs` on the batch's worker threads, results in
    /// job order regardless of scheduling — [`BatchComposer::map_corpus`]
    /// without a corpus. This is the read-only sweep behind parallel
    /// matching (`sbml-match`'s `MatchIndex::query_corpus` refines each
    /// candidate model as one job).
    pub fn map_jobs<T, J>(&self, jobs: usize, job: J) -> Vec<T>
    where
        T: Send,
        J: Fn(usize) -> T + Sync,
    {
        self.striped(jobs, self.worker_count(jobs), job)
    }

    /// Compose every unordered pair `(i, j), i < j` of the prepared
    /// corpus, mapping each [`ComposeResult`] through `map` as it is
    /// produced (so the full merged models never accumulate). Pairs are
    /// striped across worker threads; results come back in ascending pair
    /// order independent of scheduling.
    pub fn all_pairs_with<T, F>(&self, prepared: &[Arc<PreparedModel>], map: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize, ComposeResult) -> T + Sync,
    {
        self.all_pairs_shared_with(prepared, |i, j, result| {
            map(i, j, result.into_compose_result())
        })
    }

    /// [`BatchComposer::all_pairs_with`] without forcing a materialised
    /// model per pair: each base is adopted copy-on-write
    /// ([`Composer::compose_shared`]), so a pair whose second model is
    /// fully absorbed as duplicates yields
    /// [`SharedModel::Base`](crate::SharedModel::Base) — the corpus `Arc`
    /// itself, no per-pair clone of the base. This is the engine under
    /// [`BatchComposer::all_pairs`]: the Fig. 8 fixed cost per pair drops
    /// from O(base size) to O(1) + merge work.
    pub fn all_pairs_shared_with<T, F>(&self, prepared: &[Arc<PreparedModel>], map: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize, SharedComposeResult) -> T + Sync,
    {
        let n = prepared.len();
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let pool = self.shared_pool();
        // Each pair's session fans out on the same pool its stripe runs
        // on; the nested `run_scoped` cannot deadlock (see `striped`).
        self.striped(pairs.len(), self.worker_count(pairs.len()), |k| {
            let (i, j) = pairs[k];
            let result = self.composer.compose_shared_on(
                Arc::clone(&prepared[i]),
                &prepared[j],
                Some(Arc::clone(&pool)),
            );
            map(i, j, result)
        })
    }

    /// The Fig. 8 workload: every unordered corpus pair, summarised. Runs
    /// on the copy-on-write pair path — a Duplicate-only pair never
    /// clones its base.
    pub fn all_pairs(&self, prepared: &[Arc<PreparedModel>]) -> Vec<PairSummary> {
        self.all_pairs_shared_with(prepared, |a, b, result| {
            let model = result.model.as_model();
            PairSummary {
                a,
                b,
                species: model.species.len(),
                reactions: model.reactions.len(),
                components: model.component_count(),
                conflicts: result.log.conflict_count(),
                mappings: result.mappings.len(),
            }
        })
    }

    /// Fault-contained [`BatchComposer::all_pairs_with`]: every pair runs
    /// under `budget` with its panics caught at the item boundary, so one
    /// poisoned pair becomes one [`ItemOutcome::Failed`] entry while all
    /// surviving pairs complete bit-identical to a fault-free run. The
    /// step ceiling charges each pair its combined component count in
    /// ascending pair order, so which pairs a tight budget cuts off is
    /// deterministic — independent of thread count and scheduling; the
    /// wall-clock deadline is shared across the batch and checked before
    /// each pair starts.
    pub fn try_all_pairs_with<T, F>(
        &self,
        prepared: &[Arc<PreparedModel>],
        budget: &Budget,
        map: F,
    ) -> BatchReport<T>
    where
        T: Send,
        F: Fn(usize, usize, ComposeResult) -> T + Sync,
    {
        let n = prepared.len();
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
        let costs: Vec<u64> = pairs
            .iter()
            .map(|&(i, j)| {
                (prepared[i].model().component_count() + prepared[j].model().component_count())
                    as u64
            })
            .collect();
        let pool = self.shared_pool();
        let outcome = |k: usize| {
            let (i, j) = pairs[k];
            let result = self.composer.compose_shared_on(
                Arc::clone(&prepared[i]),
                &prepared[j],
                Some(Arc::clone(&pool)),
            );
            map(i, j, result.into_compose_result())
        };
        self.run_guarded(pairs.len(), &costs, budget, outcome)
    }

    /// Fault-contained [`BatchComposer::all_pairs`]: the Fig. 8 grid as a
    /// [`BatchReport`] of [`PairSummary`] items.
    pub fn try_all_pairs(
        &self,
        prepared: &[Arc<PreparedModel>],
        budget: &Budget,
    ) -> BatchReport<PairSummary> {
        self.try_all_pairs_with(prepared, budget, |a, b, result| PairSummary {
            a,
            b,
            species: result.model.species.len(),
            reactions: result.model.reactions.len(),
            components: result.model.component_count(),
            conflicts: result.log.conflict_count(),
            mappings: result.mappings.len(),
        })
    }

    /// Fault-contained [`BatchComposer::map_corpus`]: one job per corpus
    /// model under `budget`, with the same containment and deterministic
    /// step-gating semantics as [`BatchComposer::try_all_pairs_with`]
    /// (each model costs its component count).
    pub fn try_map_corpus<T, F>(
        &self,
        prepared: &[Arc<PreparedModel>],
        budget: &Budget,
        f: F,
    ) -> BatchReport<T>
    where
        T: Send,
        F: Fn(usize, &PreparedModel) -> T + Sync,
    {
        let costs: Vec<u64> =
            prepared.iter().map(|p| p.model().component_count() as u64).collect();
        self.run_guarded(prepared.len(), &costs, budget, |k| f(k, &prepared[k]))
    }

    /// Shared engine of the `try_*` fan-outs: stripe `jobs` items across
    /// the worker threads, each item gated by the budget and contained by
    /// `catch_unwind`, and return the outcomes in item order.
    fn run_guarded<T, J>(
        &self,
        jobs: usize,
        costs: &[u64],
        budget: &Budget,
        job: J,
    ) -> BatchReport<T>
    where
        T: Send,
        J: Fn(usize) -> T + Sync,
    {
        // Deterministic step gate: items are charged their cost in item
        // order up front, so a tight ceiling always cuts off the same
        // suffix no matter how threads interleave.
        let gate: Option<(Vec<bool>, u64)> = budget.max_steps().map(|limit| {
            let mut spent = 0u64;
            let allowed = costs
                .iter()
                .map(|&c| {
                    spent = spent.saturating_add(c);
                    spent <= limit
                })
                .collect();
            (allowed, limit)
        });
        let started = Instant::now();
        let deadline = budget.deadline().map(|d| started + d);

        let outcome = |k: usize| -> ItemOutcome<T> {
            if let Some((allowed, limit)) = &gate {
                if !allowed[k] {
                    return ItemOutcome::Failed(ExecError::StepsExhausted {
                        site: Site::Shard(k),
                        limit: *limit,
                    });
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return ItemOutcome::Failed(ExecError::DeadlineExceeded {
                        site: Site::Shard(k),
                        elapsed_ms: started.elapsed().as_millis() as u64,
                    });
                }
            }
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                guard::fail_point(Site::Shard(k));
                job(k)
            })) {
                Ok(value) => ItemOutcome::Ok(value),
                Err(payload) => ItemOutcome::Failed(ExecError::Panicked {
                    site: Site::Shard(k),
                    detail: guard::panic_detail(payload.as_ref()),
                }),
            }
        };

        BatchReport { items: self.striped(jobs, self.worker_count(jobs), outcome) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ComposeOptions;
    use sbml_model::builder::ModelBuilder;

    fn corpus(n: usize) -> Vec<Model> {
        (0..n)
            .map(|i| {
                ModelBuilder::new(format!("m{i}"))
                    .compartment("cell", 1.0)
                    .species(&format!("S{i}"), i as f64)
                    .species(&format!("S{}", i + 1), 0.0)
                    .parameter(&format!("k{i}"), 0.1 * (i + 1) as f64)
                    .reaction(
                        &format!("r{i}"),
                        &[format!("S{i}").as_str()],
                        &[format!("S{}", i + 1).as_str()],
                        &format!("k{i}*S{i}"),
                    )
                    .build()
            })
            .collect()
    }

    #[test]
    fn all_pairs_matches_raw_pairwise_compose() {
        let models = corpus(5);
        let batch = BatchComposer::new(Composer::default());
        let prepared = batch.prepare_corpus(&models);
        let raw = Composer::default();
        let batched = batch.all_pairs_with(&prepared, |i, j, result| (i, j, result));
        assert_eq!(batched.len(), 5 * 4 / 2);
        for (i, j, result) in &batched {
            let reference = raw.compose(&models[*i], &models[*j]);
            assert_eq!(result.model, reference.model, "pair ({i},{j})");
            assert_eq!(result.log.events, reference.log.events, "pair ({i},{j})");
            assert_eq!(result.mappings, reference.mappings, "pair ({i},{j})");
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let models = corpus(6);
        let serial = BatchComposer::new(Composer::default()).with_threads(1);
        let threaded = BatchComposer::new(Composer::default()).with_threads(3);
        let prepared_serial = serial.prepare_corpus(&models);
        let prepared_threaded = threaded.prepare_corpus(&models);
        assert_eq!(serial.all_pairs(&prepared_serial), threaded.all_pairs(&prepared_threaded));
    }

    #[test]
    fn one_preparation_serves_every_pair() {
        let models = corpus(4);
        let batch = BatchComposer::new(Composer::default()).with_threads(2);
        let prepared = batch.prepare_corpus(&models);
        assert_eq!(prepared.len(), models.len());
        for (p, m) in prepared.iter().zip(&models) {
            assert_eq!(p.model(), m);
        }
        // The whole grid runs off the same Arcs — no re-preparation.
        let before: Vec<usize> = prepared.iter().map(Arc::strong_count).collect();
        let _ = batch.all_pairs(&prepared);
        let after: Vec<usize> = prepared.iter().map(Arc::strong_count).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn map_corpus_preserves_order_across_thread_counts() {
        let models = corpus(7);
        let serial = BatchComposer::new(Composer::default()).with_threads(1);
        let threaded = BatchComposer::new(Composer::default()).with_threads(3);
        let prepared = serial.prepare_corpus(&models);
        let expected: Vec<(usize, String)> =
            models.iter().enumerate().map(|(i, m)| (i, m.id.clone())).collect();
        let a = serial.map_corpus(&prepared, |i, p| (i, p.model().id.clone()));
        let b = threaded.map_corpus(&prepared, |i, p| (i, p.model().id.clone()));
        assert_eq!(a, expected);
        assert_eq!(b, expected);
    }

    #[test]
    fn jobs_fanning_out_on_the_shared_pool_never_deadlock() {
        // Every job of a striped sweep (plain and guarded) runs its own
        // `run_scoped` on the pool its stripe already occupies. On a
        // watchdog, so a deadlock fails instead of hanging.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let batch = BatchComposer::new(Composer::default()).with_threads(4);
            let prepared = batch.prepare_corpus(&corpus(9));
            let nested = |i: usize| {
                let hits = std::sync::atomic::AtomicUsize::new(0);
                let bump = || {
                    hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                };
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
                    (0..3).map(|_| Box::new(bump) as Box<dyn FnOnce() + Send + '_>).collect();
                batch.shared_pool().run_scoped(bump, tasks);
                (i, hits.into_inner())
            };
            let plain = batch.map_corpus(&prepared, |i, _| nested(i));
            let guarded = batch.try_map_corpus(&prepared, &Budget::unlimited(), |i, _| nested(i));
            let guarded_ok =
                guarded.items.iter().filter(|o| matches!(o, ItemOutcome::Ok((_, 4)))).count();
            let _ = done.send((plain, guarded_ok));
        });
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(120));
        assert!(outcome.is_ok(), "a nested run_scoped deadlocked");
        if let Ok((plain, guarded)) = outcome {
            assert_eq!(plain, (0..9).map(|i| (i, 4)).collect::<Vec<_>>());
            assert_eq!(guarded, 9);
        }
    }

    #[test]
    fn empty_and_tiny_corpora() {
        let batch = BatchComposer::new(Composer::new(ComposeOptions::default()));
        assert!(batch.all_pairs(&batch.prepare_corpus(&[])).is_empty());
        let one = batch.prepare_corpus(&corpus(1));
        assert!(batch.all_pairs(&one).is_empty());
        let two = batch.prepare_corpus(&corpus(2));
        assert_eq!(batch.all_pairs(&two).len(), 1);
    }
}
