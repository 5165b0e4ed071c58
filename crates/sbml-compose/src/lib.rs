//! **SBMLCompose** — automated, unsupervised composition of SBML
//! biochemical network models.
//!
//! This crate is the primary contribution of the EDBT 2010 paper
//! *"Biochemical network matching and composition"* (Goodfellow, Wilson,
//! Hunt). It merges two models into one, matching components that denote the
//! same biological entity even when they differ in id, operand order or
//! units, with no user interaction and no database lookups:
//!
//! * the **Fig. 4 pipeline** ([`Composer::compose`]): function definitions →
//!   unit definitions → compartment types → species types → compartments →
//!   species → parameters → (initial assignments) → rules → constraints →
//!   reactions → events;
//! * the **Fig. 5 generic merge** per component kind: look up in the first
//!   model's index → duplicate (conflict-check, first wins, warning logged)
//!   / equal-under-matching (record ID mapping, "rename") / new (insert,
//!   renaming bare id clashes);
//! * **Fig. 7 math patterns** (via [`sbml_math::pattern`]) with the
//!   accumulated ID mappings applied, so `k1*A*B` in one model matches
//!   `B*kf*A` in the other once `k1 → kf` is established;
//! * **synonym tables** ([`bio_synonyms`]) for name matching;
//! * **Fig. 6 unit conversion** ([`sbml_units::convert`]) during conflict
//!   checking of rate constants and initial values;
//! * **initial-value collection** before merging (initial assignments are
//!   evaluated once, and the values consulted during conflict checks).
//!
//! # Quick start
//!
//! ```
//! use sbml_compose::{Composer, ComposeOptions};
//! use sbml_model::builder::ModelBuilder;
//!
//! let a = ModelBuilder::new("a")
//!     .compartment("cell", 1.0)
//!     .species("A", 10.0)
//!     .species("B", 0.0)
//!     .parameter("k1", 0.1)
//!     .reaction("r1", &["A"], &["B"], "k1*A")
//!     .build();
//! let b = ModelBuilder::new("b")
//!     .compartment("cell", 1.0)
//!     .species("B", 0.0)
//!     .species("C", 0.0)
//!     .parameter("k2", 0.05)
//!     .reaction("r2", &["B"], &["C"], "k2*B")
//!     .build();
//!
//! let result = Composer::new(ComposeOptions::default()).compose(&a, &b);
//! assert_eq!(result.model.species.len(), 3); // A, B, C — B shared
//! assert_eq!(result.model.reactions.len(), 2);
//! ```
//!
//! # Pairwise vs. incremental composition
//!
//! [`Composer::compose`] is the paper's two-model operation and the right
//! call when that is all you need. For *chains* — folding a library of
//! parts, reassembling split subnetworks, batch-merging a corpus — use
//! the incremental engine instead:
//!
//! * [`CompositionSession`] ([`Composer::session`]): push models one at a
//!   time, inspect the intermediate [`CompositionSession::model`] /
//!   [`CompositionSession::log`] between pushes, then
//!   [`CompositionSession::finish`];
//! * [`compose_many`] — one-shot chain composition of a slice;
//! * [`compose_many_owned`] — the same, taking models by value so the
//!   base model is moved rather than cloned.
//!
//! All three produce output identical to a left fold of pairwise
//! [`Composer::compose`] calls (a property test enforces this), but keep
//! the accumulator's per-kind indexes and canonical content keys alive
//! across steps instead of cloning and re-deriving them at every step —
//! on 128-model chains this is 3× faster than the fold and the gap widens
//! with chain length (see `BENCH_chain.json` at the workspace root,
//! regenerated by the `chain_scaling` binary in `compose-bench`).
//!
//! # Prepared models & batch composition
//!
//! Everything the engine derives from a *single* model — canonical
//! content keys, per-kind indexes, evaluated initial values, the global
//! id set — is independent of what that model is composed with, yet the
//! raw entry points recompute it inside every call. A [`PreparedModel`]
//! ([`Composer::prepare`]) hoists that analysis into an immutable,
//! `Send + Sync` artifact computed once per model; every entry point has
//! a prepared form ([`Composer::compose_prepared`],
//! [`CompositionSession::push_prepared`], [`compose_many_prepared`]), and
//! output is bit-for-bit identical to the raw path (property-tested).
//!
//! ```
//! use std::sync::Arc;
//! use sbml_compose::{BatchComposer, ComposeOptions, Composer};
//! use sbml_model::builder::ModelBuilder;
//!
//! let composer = Composer::new(ComposeOptions::default());
//! let library: Vec<_> = (0..4)
//!     .map(|i| {
//!         ModelBuilder::new(format!("part{i}"))
//!             .compartment("cell", 1.0)
//!             .species("ATP", 5.0)
//!             .species(&format!("S{i}"), 1.0)
//!             .build()
//!     })
//!     .collect();
//!
//! // Analyse each model once...
//! let prepared: Vec<_> = library.iter().map(|m| composer.prepare(m)).collect();
//! // ...then compose any pair without re-analysing either side:
//! let merged = composer.compose_prepared(&prepared[0], &prepared[1]);
//! assert_eq!(merged.model.species.len(), 3); // ATP shared
//!
//! // Corpus-scale: every unordered pair, preparations shared via `Arc`
//! // across a thread-per-shard fan-out (the paper's Fig. 8 workload).
//! let batch = BatchComposer::new(composer.clone());
//! let corpus: Vec<Arc<_>> = batch.prepare_corpus(&library);
//! let pairs = batch.all_pairs(&corpus);
//! assert_eq!(pairs.len(), 4 * 3 / 2);
//! ```
//!
//! On the 187-model synthetic BioModels corpus, sharing each model's
//! preparation across its 186 pairs makes the full 17 391-pair workload
//! ≳2× faster than per-pair recomputation on one core (see
//! `BENCH_fig8.json` at the workspace root, regenerated by the
//! `all_pairs` binary in `compose-bench`, which `ci.sh` gates on);
//! [`BatchComposer::with_threads`] scales it across cores on top.
//! A preparation is tied to the option set it was computed under
//! ([`ComposeOptions::fingerprint`]) and rejected elsewhere.
//!
//! # Incremental initial values & within-push parallelism
//!
//! Two further knobs keep each session push sub-linear in the
//! accumulator (see the [`session`] module docs for the full per-push
//! cost table):
//!
//! * [`ComposeOptions::incremental_initial_values`] (default on): the
//!   paper's initial-value collection step is maintained incrementally —
//!   an [`initial_values::IncrementalValues`] store is seeded once (or
//!   adopted from a [`PreparedModel`] base) and each push re-evaluates
//!   only the dependency closure of its own additions, instead of
//!   re-running [`initial_values::collect`] over the whole accumulator.
//!   On value-heavy 128-model chains this is ≳2× (measured ≳6×) faster
//!   end to end (see `BENCH_values.json`, regenerated by the
//!   `long_chain_values` binary in `compose-bench` and gated by `ci.sh`).
//!   [`CompositionSession::current_initial_values`] exposes the store's
//!   view; property tests hold it bit-for-bit equal to a fresh `collect`
//!   after every push, including prepared/raw interleavings with
//!   initial-assignment collisions.
//! * [`ComposeOptions::parallel_push_threshold`] (default 256): a raw
//!   pushed model at or above this many keyed components gets its canonical
//!   content keys computed on a scoped thread pool before the serial
//!   merge pass consumes them — the within-push analogue of
//!   [`BatchComposer::prepare_corpus`]. Keys are pure per-component
//!   functions, so thread count and threshold never change output
//!   (property-tested).
//!
//! # Incremental key renaming
//!
//! [`ComposeOptions::incremental_key_rename`] (default on, heavy
//! semantics) removes the last O(formula) per-push cost: when a push's ID
//! mappings touch a component's references, its cached canonical key is
//! revalidated by **incremental rename**
//! ([`sbml_math::pattern::Pattern::rename_mapped`]) — identifier leaves
//! rewritten in the cached canonical text, only the commutative operand
//! groups whose members changed re-sorted — instead of re-canonicalising
//! the whole formula, O(touched leaves) instead of O(formula). Output is
//! bit-for-bit identical with it switched off, so it is excluded from
//! [`ComposeOptions::fingerprint`].
//!
//! On the conflict-heavy corpus (`biomodels_corpus::corpus_conflict`,
//! where every push renames parameters and maps species so every cached
//! key goes stale) the default engine is ≳1.5x the full-recompute path
//! (see `BENCH_pipeline.json`, regenerated by the `pipeline_conflict`
//! binary and gated by `ci.sh`). The Fig. 4 passes themselves always run
//! in one serial order.
//!
//! # Zero-copy sessions: COW base adoption & the worker pool
//!
//! The serving workload — one hot base composed against a stream of
//! small incoming models — is dominated by per-session *fixed* cost,
//! not merge cost. Two mechanisms remove it:
//!
//! * [`CompositionSession::with_shared_base`] adopts an
//!   `Arc<`[`PreparedModel`]`>` **copy-on-write** — component lists,
//!   per-kind indexes, the interned content-key cache and the
//!   incremental initial-value store all start as shared references
//!   into the base, and are cloned lazily only when a push actually
//!   mutates the base. A duplicate-only or match-miss composition never
//!   copies the base at all: [`Composer::compose_shared`] returns
//!   [`SharedModel::Base`] carrying the very `Arc` that was passed in,
//!   and [`BatchComposer::all_pairs`] rides the same path across the
//!   Fig. 8 grid. A failed guarded push on a still-shared session rolls
//!   back by re-adopting the untouched base.
//!   [`CompositionSession::with_prepared_base`] is the eager
//!   clone-on-adopt engine.
//! * the within-push parallel key build runs on a persistent
//!   [`WorkerPool`] sized to the host — parked threads owned by the
//!   session (or shared by a [`BatchComposer`] batch / the `sbml-serve`
//!   daemon) — instead of spawning fresh scoped threads on every push.
//!
//! The differential harness (`tests/cow_differential.rs` at the
//! workspace root, driving the `compose_bench::oracle` module) holds
//! COW sessions bit-identical to the eager clone engine — model, log,
//! mappings, initial values — across semantics levels, knob ablations,
//! pool sizes 1..8 and every push entry point. `BENCH_fig8.json`
//! records the per-pair fixed cost: clone-on-adopt grows linearly with
//! base size, COW adoption stays flat (gated ≥ 1.5x by `ci.sh`).
//!
//! # Command-line interface
//!
//! The workspace binary `sbmlcompose` fronts this crate; `sbmlcompose
//! --help` prints the full synopsis. The `compose` command accepts **two
//! or more** SBML files and composes them left to right:
//!
//! ```text
//! sbmlcompose compose a.xml b.xml c.xml -o merged.xml --log merge.log \
//!             [--semantics heavy|light|none] [--index hash|btree|linear]
//! ```
//!
//! * two files run one [`Composer::compose`] pair;
//! * three or more files are first analysed once each
//!   ([`Composer::prepare`], the prepared-model path added with the
//!   PR 2 prepared API) and then folded through a single
//!   [`CompositionSession`] via [`compose_many_prepared`], so no step
//!   re-derives a model's keys, indexes or initial values;
//! * `--semantics` selects the paper's §5 matching level
//!   ([`ComposeOptions::heavy`]/[`ComposeOptions::light`]/
//!   [`ComposeOptions::none`]) and `--index` the lookup structure
//!   ([`IndexKind`]);
//! * any other `--` argument is a usage error (exit 2);
//! * `-o` writes the merged SBML (stdout otherwise), `--log` the
//!   decision log (stderr otherwise);
//! * `--deadline-ms N` / `--max-steps N` bound the run with a
//!   [`Budget`]; when the budget runs out the CLI emits the partial
//!   composition accumulated so far and exits with code 4.
//!
//! # Fault isolation and budgets
//!
//! The [`guard`] module adds resource governance on every fan-out path
//! (see ARCHITECTURE.md, "Robustness"). A [`Budget`] declares a
//! wall-clock deadline and/or a work-step ceiling; [`Budget::start`]
//! yields a [`Meter`] that guarded entry points share across worker
//! threads. Guarded variants sit next to the happy-path APIs and never
//! change *what* is computed, only how failure surfaces:
//!
//! * [`CompositionSession::push_guarded`] /
//!   [`CompositionSession::push_prepared_guarded`] — contained pushes:
//!   the deadline is checked before each of the twelve merge passes, and
//!   a panicking or budget-exhausted push rolls the accumulator back to
//!   its exact pre-push state and returns a structured [`ExecError`].
//! * [`BatchComposer::try_all_pairs`] /
//!   [`BatchComposer::try_map_corpus`] — per-item containment: one
//!   poisoned pair becomes one [`ItemOutcome::Failed`] entry in a
//!   [`BatchReport`] while every surviving item completes bit-identical
//!   to a fault-free run.
//!
//! Budgets are fingerprint-neutral execution details. The crate's
//! `fault-injection` cargo feature (test-only) compiles
//! [`guard::fail_point`] hooks into the pass/shard/query sites so the
//! property suite can inject deterministic panics via
//! `guard::injection::FailPlan`; without the feature the hooks are
//! no-ops.

pub mod batch;
pub mod composer;
pub(crate) mod cow;
pub mod decompose;
pub mod equality;
pub mod guard;
pub mod index;
pub mod initial_values;
pub mod log;
pub mod options;
pub(crate) mod keyrename;
pub(crate) mod passes;
pub mod pool;
pub mod prepared;
pub mod rename;
pub mod session;

pub use batch::{BatchComposer, PairSummary};
pub use composer::{
    compose_many, compose_many_owned, compose_many_pairwise, compose_many_prepared, ComposeResult,
    Composer, SharedComposeResult, SharedModel,
};
pub use pool::WorkerPool;
pub use decompose::{extract_submodel, split_components};
pub use guard::{BatchReport, Budget, ExecError, ItemOutcome, Meter, Site};
pub use index::IndexKind;
pub use initial_values::{IncrementalValues, InitialValues};
pub use log::{EventKind, MergeEvent, MergeLog, MergeStats};
pub use options::{ComposeOptions, OptionsFingerprint, SemanticsLevel};
pub use prepared::{model_content_keys, PreparedModel, RawPrepared};
pub use session::CompositionSession;
