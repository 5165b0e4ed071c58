//! Per-model analysis as a reusable, shareable artifact.
//!
//! Everything the composition engine derives from a single model —
//! canonical content keys, per-kind lookup indexes, evaluated initial
//! values, the set of taken global ids — is independent of whatever that
//! model is later composed *with*. [`PreparedModel`] computes the whole
//! analysis once, up front, and every entry point
//! ([`Composer::compose_prepared`], [`CompositionSession::push_prepared`],
//! [`crate::compose_many_prepared`], [`crate::BatchComposer::all_pairs`])
//! consumes the artifact instead of re-deriving the analysis per call.
//!
//! The artifact is immutable and `Send + Sync`: wrap it in an
//! [`Arc`] and share one preparation across any number of
//! concurrent compositions — the batch all-pairs workload composes each
//! corpus model against 186 partners from a single `PreparedModel` each.
//!
//! Two kinds of cached keys live here:
//!
//! * **base-side** (`ModelAnalysis`): the persistent indexes and
//!   canonical (unmapped) content keys a [`CompositionSession`] maintains
//!   over its accumulator. Adopting a prepared base clones these instead of
//!   rebuilding them (`reindex`) from the model.
//! * **incoming-side** (`IncomingKeys`): the content/name keys of each
//!   component *as the merge pass would compute them for the second model*.
//!   Name and unit keys never depend on the in-flight ID mappings and are
//!   reused unconditionally; math-bearing keys (functions, rules,
//!   constraints, reactions, events) are reused exactly while the current
//!   push has recorded no mappings — the cached unmapped key is
//!   byte-identical to the mapped key under an empty mapping table — and
//!   recomputed from the first mapping onwards. Output is therefore
//!   bit-for-bit identical to the unprepared path.
//!
//! [`Composer::compose_prepared`]: crate::composer::Composer::compose_prepared
//! [`CompositionSession::push_prepared`]: crate::session::CompositionSession::push_prepared
//! [`CompositionSession`]: crate::session::CompositionSession

use std::collections::BTreeSet;
use std::sync::Arc;

use sbml_math::rewrite::collect_identifiers;
use sbml_math::MathExpr;
use sbml_model::{Event, FunctionDefinition, Model, Reaction, Rule};

use crate::equality::MatchContext;
use crate::index::ComponentIndex;
use crate::initial_values::{collect, InitialValues};
use crate::options::{ComposeOptions, OptionsFingerprint};
use crate::pool::WorkerPool;

/// Persistent per-kind indexes over a model (paper Fig. 5 line 5, without
/// the per-pass rebuild). Maintained live by a session over its
/// accumulator; precomputed once per model by [`PreparedModel`].
#[derive(Debug, Clone)]
pub(crate) struct Indexes {
    pub(crate) functions_by_id: ComponentIndex,
    pub(crate) functions_by_content: ComponentIndex,
    pub(crate) units_by_id: ComponentIndex,
    pub(crate) units_by_content: ComponentIndex,
    pub(crate) compartment_types_by_id: ComponentIndex,
    pub(crate) compartment_types_by_name: ComponentIndex,
    pub(crate) species_types_by_id: ComponentIndex,
    pub(crate) species_types_by_name: ComponentIndex,
    pub(crate) compartments_by_id: ComponentIndex,
    pub(crate) compartments_by_name: ComponentIndex,
    pub(crate) species_by_id: ComponentIndex,
    pub(crate) species_by_name: ComponentIndex,
    pub(crate) parameters_by_id: ComponentIndex,
    pub(crate) assignments_by_symbol: ComponentIndex,
    pub(crate) rules_by_content: ComponentIndex,
    pub(crate) rules_by_variable: ComponentIndex,
    pub(crate) constraints_by_content: ComponentIndex,
    pub(crate) reactions_by_id: ComponentIndex,
    pub(crate) reactions_by_content: ComponentIndex,
    pub(crate) events_by_id: ComponentIndex,
    pub(crate) events_by_content: ComponentIndex,
}

impl Indexes {
    pub(crate) fn new(options: &ComposeOptions) -> Indexes {
        Indexes::with_kind(options.index)
    }

    pub(crate) fn with_kind(kind: crate::index::IndexKind) -> Indexes {
        let mk = || ComponentIndex::new(kind);
        Indexes {
            functions_by_id: mk(),
            functions_by_content: mk(),
            units_by_id: mk(),
            units_by_content: mk(),
            compartment_types_by_id: mk(),
            compartment_types_by_name: mk(),
            species_types_by_id: mk(),
            species_types_by_name: mk(),
            compartments_by_id: mk(),
            compartments_by_name: mk(),
            species_by_id: mk(),
            species_by_name: mk(),
            parameters_by_id: mk(),
            assignments_by_symbol: mk(),
            rules_by_content: mk(),
            rules_by_variable: mk(),
            constraints_by_content: mk(),
            reactions_by_id: mk(),
            reactions_by_content: mk(),
            events_by_id: mk(),
            events_by_content: mk(),
        }
    }
}

/// Canonical merged-side content keys per component position, interned as
/// `Arc<str>` shared with the content indexes. Only the kinds whose merge
/// pass compares keys on an id hit are cached; empty (and ignored) when
/// [`ComposeOptions::cache_content_keys`] is off.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyCache {
    pub(crate) functions: Vec<Arc<str>>,
    pub(crate) units: Vec<Arc<str>>,
    pub(crate) reactions: Vec<Arc<str>>,
    pub(crate) events: Vec<Arc<str>>,
}

/// The base-side analysis of one model: what a session's `reindex` derives
/// from its accumulator, packaged so it can be computed once and cloned.
#[derive(Debug, Clone)]
pub(crate) struct ModelAnalysis {
    /// Every global id of the model (the session's duplicate-id registry),
    /// behind an `Arc` so adopting it is a refcount bump, not a clone of
    /// every id string.
    pub(crate) taken: Arc<crate::index::FastSet<String>>,
    /// Per-kind lookup indexes.
    pub(crate) idx: Indexes,
    /// Canonical content keys (respects the cache ablation flags).
    pub(crate) keys: KeyCache,
}

/// Per-component *incoming* keys: the canonical keys of each component as
/// the merge pass computes them for a second model before any ID mapping
/// has been recorded. Positional — entry `i` belongs to component `i`.
///
/// The mapping-sensitive kinds additionally carry each component's *free
/// reference set* (see [`IncomingRefs`]): the cached key equals the mapped
/// key exactly when none of those identifiers has a mapping, which lets
/// the merge reuse the cache far beyond the no-mappings-yet window.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IncomingKeys {
    pub(crate) functions: Vec<Arc<str>>,
    pub(crate) units: Vec<Arc<str>>,
    pub(crate) compartment_types: Vec<Arc<str>>,
    pub(crate) species_types: Vec<Arc<str>>,
    pub(crate) compartments: Vec<Arc<str>>,
    pub(crate) species: Vec<Arc<str>>,
    pub(crate) rules: Vec<Arc<str>>,
    pub(crate) constraints: Vec<Arc<str>>,
    pub(crate) reactions: Vec<Arc<str>>,
    pub(crate) events: Vec<Arc<str>>,
    /// Free-reference sets of the mapping-sensitive kinds. Fresh
    /// preparations fill the cell eagerly (the sets fall out of the same
    /// pass that computes the keys); snapshot loads leave it empty and
    /// [`IncomingKeys::refs`] derives it from the model on the first
    /// compose use — refs are pure derived state (no canonicalisation,
    /// no options), so the snapshot format does not persist them.
    pub(crate) refs: std::sync::OnceLock<IncomingRefs>,
}

/// Per-component *free reference sets* of the mapping-sensitive kinds:
/// every identifier each component's key derivation would run through the
/// mapping table. Positional — entry `i` belongs to component `i` of the
/// corresponding model list. A pure function of the model (no
/// canonicalisation, no options), which is why it can live behind a
/// `OnceLock` and be rebuilt on demand after a snapshot load.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IncomingRefs {
    pub(crate) functions: Vec<Box<[Arc<str>]>>,
    pub(crate) rules: Vec<Box<[Arc<str>]>>,
    pub(crate) constraints: Vec<Box<[Arc<str>]>>,
    pub(crate) reactions: Vec<Box<[Arc<str>]>>,
    /// Free identifiers of the kinetic law alone (no participants): the
    /// cached math *section* of a reaction key stays valid as long as
    /// these are unmapped, even when a participant has been renamed.
    pub(crate) reaction_math: Vec<Box<[Arc<str>]>>,
    pub(crate) events: Vec<Box<[Arc<str>]>>,
}

impl IncomingRefs {
    /// Collect every free-reference set of `model`, in positional order.
    fn build(model: &Model) -> IncomingRefs {
        let (reactions, reaction_math) = model.reactions.iter().map(reaction_refs).unzip();
        IncomingRefs {
            functions: model.function_definitions.iter().map(function_refs).collect(),
            rules: model.rules.iter().map(rule_refs).collect(),
            constraints: model.constraints.iter().map(|c| constraint_refs(&c.math)).collect(),
            reactions,
            reaction_math,
            events: model.events.iter().map(event_refs).collect(),
        }
    }
}

// Per-kind free-reference helpers, shared by [`IncomingRefs::build`]
// and the within-push parallel key builder so the two can never drift
// apart.

/// Refs come from the BARE body, where params are free: the merge renames
/// `f.body` directly (params included), so a param sharing a name with a
/// mapped id must count as a reference. For the content key this is merely
/// conservative (the pattern binds params positionally).
fn function_refs(f: &FunctionDefinition) -> Box<[Arc<str>]> {
    collect_identifiers(&f.body).into_iter().map(Arc::from).collect()
}

fn rule_refs(r: &Rule) -> Box<[Arc<str>]> {
    let mut refs = collect_identifiers(r.math());
    if let Some(v) = r.variable() {
        refs.insert(v.to_owned());
    }
    refs.into_iter().map(Arc::from).collect()
}

fn constraint_refs(math: &MathExpr) -> Box<[Arc<str>]> {
    collect_identifiers(math).into_iter().map(Arc::from).collect()
}

/// A reaction's full reference set (kinetic-law ids plus participants) and
/// the kinetic-law-only subset that governs reuse of the cached math
/// *section* of its key.
fn reaction_refs(r: &Reaction) -> (Box<[Arc<str>]>, Box<[Arc<str>]>) {
    let math_refs = match &r.kinetic_law {
        Some(kl) => collect_identifiers(&kl.math),
        None => BTreeSet::new(),
    };
    let mut refs = math_refs.clone();
    for sr in r.reactants.iter().chain(&r.products).chain(&r.modifiers) {
        refs.insert(sr.species.clone());
    }
    (
        refs.into_iter().map(Arc::from).collect(),
        math_refs.into_iter().map(Arc::from).collect(),
    )
}

fn event_refs(ev: &Event) -> Box<[Arc<str>]> {
    let mut refs = collect_identifiers(&ev.trigger);
    if let Some(delay) = &ev.delay {
        refs.append(&mut collect_identifiers(delay));
    }
    for a in &ev.assignments {
        refs.insert(a.variable.clone());
        refs.append(&mut collect_identifiers(&a.math));
    }
    refs.into_iter().map(Arc::from).collect()
}

/// Every canonical content/name key of `model` under `options`, one per
/// keyed component in Fig. 4 kind order — the same key families
/// [`PreparedModel::content_keys`] exposes from a full preparation,
/// derived directly for callers (e.g. match queries) that need the
/// key-set identity of a model but none of the preparation's indexes or
/// initial values. The two enumerations are pinned together by a unit
/// test so they cannot drift.
pub fn model_content_keys(model: &Model, options: &ComposeOptions) -> Vec<String> {
    let ctx = MatchContext::new(options);
    let mut keys = Vec::with_capacity(
        model.function_definitions.len()
            + model.unit_definitions.len()
            + model.compartment_types.len()
            + model.species_types.len()
            + model.compartments.len()
            + model.species.len()
            + model.rules.len()
            + model.constraints.len()
            + model.reactions.len()
            + model.events.len(),
    );
    keys.extend(model.function_definitions.iter().map(|f| ctx.function_key(f, false)));
    keys.extend(model.unit_definitions.iter().map(|u| ctx.unit_key(u)));
    keys.extend(model.compartment_types.iter().map(|t| ctx.name_key(&t.id, t.name.as_deref())));
    keys.extend(model.species_types.iter().map(|t| ctx.name_key(&t.id, t.name.as_deref())));
    keys.extend(model.compartments.iter().map(|c| ctx.name_key(&c.id, c.name.as_deref())));
    keys.extend(model.species.iter().map(|s| ctx.name_key(&s.id, s.name.as_deref())));
    keys.extend(model.rules.iter().map(|r| ctx.rule_key(r, false)));
    keys.extend(model.constraints.iter().map(|c| ctx.constraint_key(&c.math, false)));
    keys.extend(model.reactions.iter().map(|r| ctx.reaction_key(r, false)));
    keys.extend(model.events.iter().map(|ev| ctx.event_key(ev, false)));
    keys
}

/// The serialisable raw parts of a [`PreparedModel`]: the model itself,
/// every cached canonical key family (positional with the model's
/// component lists, Fig. 4 kind order), and the evaluated initial values
/// (sorted by symbol). Produced by [`PreparedModel::to_raw`], consumed by
/// [`PreparedModel::from_raw`]; the `sbml-serve` snapshot format is a
/// binary encoding of exactly this struct per corpus model.
///
/// Everything *not* here — the taken-id set, the per-kind lookup indexes,
/// the key cache, the free-reference sets — is cheap
/// derived state that the preparation rebuilds on demand from these parts,
/// with no canonicalisation, synonym closure or math evaluation. (The
/// reference sets in particular are a pure function of the model, so
/// persisting them would only store what one model walk re-derives.)
#[derive(Debug, Clone, Default)]
pub struct RawPrepared {
    /// The model the preparation belongs to.
    pub model: Model,
    /// Canonical content key per function definition.
    pub function_keys: Vec<Arc<str>>,
    /// Canonical signature key per unit definition.
    pub unit_keys: Vec<Arc<str>>,
    /// Canonical name key per compartment type.
    pub compartment_type_keys: Vec<Arc<str>>,
    /// Canonical name key per species type.
    pub species_type_keys: Vec<Arc<str>>,
    /// Canonical name key per compartment.
    pub compartment_keys: Vec<Arc<str>>,
    /// Canonical name key per species.
    pub species_keys: Vec<Arc<str>>,
    /// Canonical content key per rule.
    pub rule_keys: Vec<Arc<str>>,
    /// Canonical content key per constraint.
    pub constraint_keys: Vec<Arc<str>>,
    /// Canonical content key per reaction.
    pub reaction_keys: Vec<Arc<str>>,
    /// Canonical content key per event.
    pub event_keys: Vec<Arc<str>>,
    /// Evaluated initial values, sorted by symbol.
    pub initial_values: Vec<(String, f64)>,
}

/// One computed per-component key (see [`IncomingKeys::build_parallel_on`]):
/// a bare key, a key with its component's free-reference set, or a
/// reaction key with both the full and the kinetic-law-only ref sets.
enum ComputedKey {
    Plain(Arc<str>),
    WithRefs(Arc<str>, Box<[Arc<str>]>),
    Reaction(Arc<str>, Box<[Arc<str>]>, Box<[Arc<str>]>),
}

/// Compute the incoming key of one flattened job. `offsets[k]` is the
/// first job id of component kind `k` (kinds in Fig. 4 order); empty kinds
/// collapse to zero-width ranges the `rposition` lookup skips over.
fn compute_key_job(
    model: &Model,
    ctx: &MatchContext<'_>,
    offsets: &[usize; 10],
    job: usize,
) -> ComputedKey {
    let kind = offsets.iter().rposition(|&o| job >= o).expect("job id below every offset");
    let i = job - offsets[kind];
    let arc = |s: String| -> Arc<str> { Arc::from(s.as_str()) };
    match kind {
        0 => {
            let f = &model.function_definitions[i];
            ComputedKey::WithRefs(arc(ctx.function_key(f, false)), function_refs(f))
        }
        1 => ComputedKey::Plain(arc(ctx.unit_key(&model.unit_definitions[i]))),
        2 => {
            let t = &model.compartment_types[i];
            ComputedKey::Plain(arc(ctx.name_key(&t.id, t.name.as_deref())))
        }
        3 => {
            let t = &model.species_types[i];
            ComputedKey::Plain(arc(ctx.name_key(&t.id, t.name.as_deref())))
        }
        4 => {
            let c = &model.compartments[i];
            ComputedKey::Plain(arc(ctx.name_key(&c.id, c.name.as_deref())))
        }
        5 => {
            let s = &model.species[i];
            ComputedKey::Plain(arc(ctx.name_key(&s.id, s.name.as_deref())))
        }
        6 => {
            let r = &model.rules[i];
            ComputedKey::WithRefs(arc(ctx.rule_key(r, false)), rule_refs(r))
        }
        7 => {
            let c = &model.constraints[i];
            ComputedKey::WithRefs(arc(ctx.constraint_key(&c.math, false)), constraint_refs(&c.math))
        }
        8 => {
            let r = &model.reactions[i];
            let (refs, math_refs) = reaction_refs(r);
            ComputedKey::Reaction(arc(ctx.reaction_key(r, false)), refs, math_refs)
        }
        9 => {
            let ev = &model.events[i];
            ComputedKey::WithRefs(arc(ctx.event_key(ev, false)), event_refs(ev))
        }
        _ => unreachable!("ten component kinds"),
    }
}

/// Scheduling weight of one key job: proportional to the work the key
/// derivation does (canonicalising the component's maths dominates), so
/// one giant kinetic law no longer serialises a whole chunk. Never
/// affects output — only which worker computes which key.
fn key_job_weight(model: &Model, offsets: &[usize; 10], job: usize) -> u64 {
    let kind = offsets.iter().rposition(|&o| job >= o).expect("job id below every offset");
    let i = job - offsets[kind];
    match kind {
        0 => model.function_definitions[i].body.size() as u64,
        // Units, types, compartments and species have constant-size keys.
        1..=5 => 1,
        6 => model.rules[i].math().size() as u64,
        7 => model.constraints[i].math.size() as u64,
        8 => {
            let r = &model.reactions[i];
            let math = r.kinetic_law.as_ref().map(|kl| kl.math.size()).unwrap_or(1);
            (math + r.reactants.len() + r.products.len() + r.modifiers.len()) as u64
        }
        9 => {
            let ev = &model.events[i];
            (ev.trigger.size()
                + ev.delay.as_ref().map(MathExpr::size).unwrap_or(0)
                + ev.assignments.iter().map(|a| a.math.size()).sum::<usize>()) as u64
        }
        _ => unreachable!("ten component kinds"),
    }
}

impl IncomingKeys {
    /// The free-reference sets, deriving them from `model` on first use
    /// after a snapshot load (fresh preparations store them pre-filled).
    /// Thread-safe; at most one derivation ever runs.
    pub(crate) fn refs(&self, model: &Model) -> &IncomingRefs {
        self.refs.get_or_init(|| IncomingRefs::build(model))
    }

    /// Compute a model's incoming-side keys — the same artifact
    /// [`ModelAnalysis::build`] fills into its `incoming` argument — with
    /// the per-component jobs distributed across `workers` scoped threads
    /// by **size-weighted chunking**: jobs are assigned longest-first to
    /// the least-loaded worker (LPT), weighted by each component's formula
    /// size, so one giant kinetic law occupies a worker by itself instead
    /// of serialising everything striped alongside it. Canonical keys are
    /// pure functions of one component each, so worker count and
    /// assignment can never influence the artifact: output is
    /// byte-identical to the serial path for every `workers` value (unit-
    /// and property-tested), only wall time changes.
    ///
    /// The session invokes this for raw pushes at or above
    /// [`ComposeOptions::parallel_push_threshold`] components, then feeds
    /// the keys to the merge passes exactly as prepared-model keys.
    /// The chunks run on `pool`'s parked lanes (the calling thread takes
    /// the first chunk); no thread is spawned per push. Chunk assignment
    /// depends on `workers` alone, never on the pool, so the artifact is
    /// identical for every pool size.
    pub(crate) fn build_parallel_on(
        model: &Model,
        options: &ComposeOptions,
        workers: usize,
        pool: &WorkerPool,
    ) -> IncomingKeys {
        let counts = [
            model.function_definitions.len(),
            model.unit_definitions.len(),
            model.compartment_types.len(),
            model.species_types.len(),
            model.compartments.len(),
            model.species.len(),
            model.rules.len(),
            model.constraints.len(),
            model.reactions.len(),
            model.events.len(),
        ];
        let mut offsets = [0usize; 10];
        let mut total = 0usize;
        for (slot, count) in offsets.iter_mut().zip(counts) {
            *slot = total;
            total += count;
        }

        let workers = workers.clamp(1, total.max(1));
        let mut computed: Vec<(usize, ComputedKey)> = if workers <= 1 {
            let ctx = MatchContext::new(options);
            (0..total).map(|job| (job, compute_key_job(model, &ctx, &offsets, job))).collect()
        } else {
            // Size-weighted chunking (LPT): largest jobs first, each to
            // the currently least-loaded worker.
            let mut order: Vec<usize> = (0..total).collect();
            let weights: Vec<u64> =
                (0..total).map(|job| key_job_weight(model, &offsets, job).max(1)).collect();
            order.sort_by_key(|&job| std::cmp::Reverse(weights[job]));
            let mut loads = vec![0u64; workers];
            let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); workers];
            for job in order {
                let w = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &load)| load)
                    .map(|(w, _)| w)
                    .expect("at least one worker");
                loads[w] += weights[job];
                chunks[w].push(job);
            }
            let offsets = &offsets;
            let out = std::sync::Mutex::new(Vec::with_capacity(total));
            let mut chunks = chunks.into_iter();
            let first = chunks.next().unwrap_or_default();
            let run_chunk = |jobs: Vec<usize>| {
                let ctx = MatchContext::new(options);
                let part: Vec<(usize, ComputedKey)> = jobs
                    .into_iter()
                    .map(|job| (job, compute_key_job(model, &ctx, offsets, job)))
                    .collect();
                out.lock().expect("push key results").extend(part);
            };
            let run_chunk = &run_chunk;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
                .map(|jobs| Box::new(move || run_chunk(jobs)) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            pool.run_scoped(move || run_chunk(first), tasks);
            out.into_inner().expect("push key results")
        };
        computed.sort_unstable_by_key(|(job, _)| *job);

        // Ascending job order is per-kind positional order, so plain
        // pushes reassemble every vector.
        let mut keys = IncomingKeys::default();
        let mut refs = IncomingRefs::default();
        for (job, slot) in computed {
            let kind = offsets.iter().rposition(|&o| job >= o).expect("job id below every offset");
            match (kind, slot) {
                (0, ComputedKey::WithRefs(key, r)) => {
                    keys.functions.push(key);
                    refs.functions.push(r);
                }
                (1, ComputedKey::Plain(key)) => keys.units.push(key),
                (2, ComputedKey::Plain(key)) => keys.compartment_types.push(key),
                (3, ComputedKey::Plain(key)) => keys.species_types.push(key),
                (4, ComputedKey::Plain(key)) => keys.compartments.push(key),
                (5, ComputedKey::Plain(key)) => keys.species.push(key),
                (6, ComputedKey::WithRefs(key, r)) => {
                    keys.rules.push(key);
                    refs.rules.push(r);
                }
                (7, ComputedKey::WithRefs(key, r)) => {
                    keys.constraints.push(key);
                    refs.constraints.push(r);
                }
                (8, ComputedKey::Reaction(key, r, math_refs)) => {
                    keys.reactions.push(key);
                    refs.reactions.push(r);
                    refs.reaction_math.push(math_refs);
                }
                (9, ComputedKey::WithRefs(key, r)) => {
                    keys.events.push(key);
                    refs.events.push(r);
                }
                _ => unreachable!("job kind and payload always agree"),
            }
        }
        let _ = keys.refs.set(refs);
        keys
    }
}

impl ModelAnalysis {
    /// Analyse `model` under `options`. With `incoming` set, additionally
    /// collect the positional incoming-side keys (what [`PreparedModel`]
    /// needs); a session's own `reindex` skips them.
    pub(crate) fn build(
        model: &Model,
        options: &ComposeOptions,
        incoming: Option<&mut IncomingKeys>,
    ) -> ModelAnalysis {
        let ctx = MatchContext::new(options);
        let cache = options.cache_content_keys;
        let mut analysis = ModelAnalysis {
            taken: Arc::new(model.global_ids().into_iter().collect()),
            idx: Indexes::new(options),
            keys: KeyCache::default(),
        };
        let idx = &mut analysis.idx;
        let keys = &mut analysis.keys;
        let mut inc = incoming;

        for (i, f) in model.function_definitions.iter().enumerate() {
            idx.functions_by_id.insert(&f.id, i);
            let key: Arc<str> = Arc::from(ctx.function_key(f, false).as_str());
            idx.functions_by_content.insert_shared(&key, i);
            if cache {
                keys.functions.push(Arc::clone(&key));
            }
            if let Some(inc) = inc.as_deref_mut() {
                inc.functions.push(key);
            }
        }
        for (i, u) in model.unit_definitions.iter().enumerate() {
            idx.units_by_id.insert(&u.id, i);
            let key: Arc<str> = Arc::from(ctx.unit_key(u).as_str());
            idx.units_by_content.insert_shared(&key, i);
            if cache {
                keys.units.push(Arc::clone(&key));
            }
            if let Some(inc) = inc.as_deref_mut() {
                inc.units.push(key);
            }
        }
        for (i, t) in model.compartment_types.iter().enumerate() {
            idx.compartment_types_by_id.insert(&t.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&t.id, t.name.as_deref()).as_str());
            idx.compartment_types_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.compartment_types.push(key);
            }
        }
        for (i, t) in model.species_types.iter().enumerate() {
            idx.species_types_by_id.insert(&t.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&t.id, t.name.as_deref()).as_str());
            idx.species_types_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.species_types.push(key);
            }
        }
        for (i, c) in model.compartments.iter().enumerate() {
            idx.compartments_by_id.insert(&c.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&c.id, c.name.as_deref()).as_str());
            idx.compartments_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.compartments.push(key);
            }
        }
        for (i, s) in model.species.iter().enumerate() {
            idx.species_by_id.insert(&s.id, i);
            let key: Arc<str> = Arc::from(ctx.name_key(&s.id, s.name.as_deref()).as_str());
            idx.species_by_name.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.species.push(key);
            }
        }
        for (i, p) in model.parameters.iter().enumerate() {
            idx.parameters_by_id.insert(&p.id, i);
        }
        for (i, ia) in model.initial_assignments.iter().enumerate() {
            idx.assignments_by_symbol.insert(&ia.symbol, i);
        }
        for (i, r) in model.rules.iter().enumerate() {
            let key: Arc<str> = Arc::from(ctx.rule_key(r, false).as_str());
            idx.rules_by_content.insert_shared(&key, i);
            if let Some(v) = r.variable() {
                idx.rules_by_variable.insert(v, i);
            }
            if let Some(inc) = inc.as_deref_mut() {
                inc.rules.push(key);
            }
        }
        for (i, c) in model.constraints.iter().enumerate() {
            let key: Arc<str> = Arc::from(ctx.constraint_key(&c.math, false).as_str());
            idx.constraints_by_content.insert_shared(&key, i);
            if let Some(inc) = inc.as_deref_mut() {
                inc.constraints.push(key);
            }
        }
        let rxn_content = options.cache_patterns;
        for (i, r) in model.reactions.iter().enumerate() {
            idx.reactions_by_id.insert(&r.id, i);
            // Incoming reaction keys are always needed (the merge pass
            // computes one per incoming reaction regardless of caching),
            // but the by-content index honours the pattern-cache ablation.
            if rxn_content || inc.is_some() {
                let key: Arc<str> = Arc::from(ctx.reaction_key(r, false).as_str());
                if rxn_content {
                    idx.reactions_by_content.insert_shared(&key, i);
                    if cache {
                        keys.reactions.push(Arc::clone(&key));
                    }
                }
                if let Some(inc) = inc.as_deref_mut() {
                    inc.reactions.push(key);
                }
            }
        }
        for (i, ev) in model.events.iter().enumerate() {
            if let Some(id) = &ev.id {
                idx.events_by_id.insert(id, i);
            }
            let key: Arc<str> = Arc::from(ctx.event_key(ev, false).as_str());
            idx.events_by_content.insert_shared(&key, i);
            if cache {
                keys.events.push(Arc::clone(&key));
            }
            if let Some(inc) = inc.as_deref_mut() {
                inc.events.push(key);
            }
        }
        // Fresh preparations carry their reference sets pre-filled (the
        // incoming path is exactly where the merge will need them).
        if let Some(inc) = inc {
            let _ = inc.refs.set(IncomingRefs::build(model));
        }
        analysis
    }
}

/// A model bundled with its precomputed composition analysis: canonical
/// content keys, per-kind indexes, evaluated initial values and the global
/// id set — see the [module docs](self).
///
/// Produced by [`PreparedModel::new`] or
/// [`Composer::prepare`](crate::Composer::prepare); immutable afterwards,
/// so one preparation (typically behind an [`Arc`]) can
/// serve any number of concurrent compositions.
///
/// ```
/// use std::sync::Arc;
/// use sbml_compose::{ComposeOptions, Composer};
/// use sbml_model::builder::ModelBuilder;
///
/// let composer = Composer::new(ComposeOptions::default());
/// let hub = Arc::new(composer.prepare(
///     &ModelBuilder::new("hub").compartment("cell", 1.0).species("ATP", 1.0).build(),
/// ));
/// let spoke = composer.prepare(
///     &ModelBuilder::new("spoke").compartment("cell", 1.0).species("ATP", 1.0).build(),
/// );
/// // The hub's analysis is reused by every pair it participates in.
/// let merged = composer.compose_prepared(&hub, &spoke);
/// assert_eq!(merged.model.species.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedModel {
    model: Model,
    fingerprint: OptionsFingerprint,
    /// The base-side analysis. Fresh preparations fill it eagerly (the
    /// keys come out of the same canonicalisation pass); snapshot loads
    /// leave it empty and [`PreparedModel::analysis`] rebuilds it from
    /// the cached incoming keys on the first composition use — corpus
    /// models that only ever answer match queries never pay for it.
    analysis: Arc<std::sync::OnceLock<ModelAnalysis>>,
    /// The option bits the lazy analysis rebuild needs (the full options
    /// — synonym table included — are not required: nothing is
    /// re-canonicalised).
    analysis_config: AnalysisConfig,
    pub(crate) incoming: IncomingKeys,
    pub(crate) initial_values: Arc<InitialValues>,
}

/// The slice of [`ComposeOptions`] that shapes a [`ModelAnalysis`] built
/// from already-canonical keys: the index structure and the two cache
/// ablation flags.
#[derive(Debug, Clone, Copy)]
struct AnalysisConfig {
    index: crate::index::IndexKind,
    cache_patterns: bool,
    cache_content_keys: bool,
}

impl AnalysisConfig {
    fn of(options: &ComposeOptions) -> AnalysisConfig {
        AnalysisConfig {
            index: options.index,
            cache_patterns: options.cache_patterns,
            cache_content_keys: options.cache_content_keys,
        }
    }
}

impl PreparedModel {
    /// Analyse `model` once under `options`. The preparation is only valid
    /// for composition under options with the same
    /// [fingerprint](ComposeOptions::fingerprint); every prepared entry
    /// point checks this and panics on a mismatch rather than silently
    /// composing with stale keys.
    pub fn new(model: &Model, options: &ComposeOptions) -> PreparedModel {
        PreparedModel::from_model(model.clone(), options)
    }

    /// As [`PreparedModel::new`], but takes the model by value — no clone.
    pub fn from_model(model: Model, options: &ComposeOptions) -> PreparedModel {
        let mut incoming = IncomingKeys::default();
        let analysis = ModelAnalysis::build(&model, options, Some(&mut incoming));
        let initial_values = Arc::new(if options.collect_initial_values {
            collect(&model)
        } else {
            InitialValues::default()
        });
        // The analysis fell out of the same canonicalisation pass that
        // produced the keys — store it filled.
        let cell = std::sync::OnceLock::new();
        let _ = cell.set(analysis);
        PreparedModel {
            model,
            fingerprint: options.fingerprint(),
            analysis: Arc::new(cell),
            analysis_config: AnalysisConfig::of(options),
            incoming,
            initial_values,
        }
    }

    /// The base-side analysis, rebuilding it from the cached incoming
    /// keys on first use after a snapshot load (fresh preparations carry
    /// it pre-filled). Thread-safe; at most one rebuild ever runs.
    pub(crate) fn analysis(&self) -> &ModelAnalysis {
        self.analysis.get_or_init(|| {
            ModelAnalysis::from_incoming(&self.model, &self.incoming, self.analysis_config)
        })
    }

    /// The model this preparation belongs to.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The options fingerprint the analysis was computed under.
    pub fn fingerprint(&self) -> OptionsFingerprint {
        self.fingerprint
    }

    /// The evaluated initial values collected at preparation time (empty
    /// when the options disabled collection).
    pub fn initial_values(&self) -> &InitialValues {
        &self.initial_values
    }

    /// Canonical name key of every species, positional with
    /// `model().species` — the exact keys the species merge pass compares
    /// (synonym-closed display names under heavy/light semantics, raw ids
    /// under none). Exposed so the matching layer (`sbml-match`) can
    /// invert them into posting lists instead of re-deriving them.
    pub fn species_name_keys(&self) -> &[Arc<str>] {
        &self.incoming.species
    }

    /// Canonical content key of every reaction, positional with
    /// `model().reactions` — participant multisets plus the kinetic-law
    /// pattern (commutativity-canonical under heavy semantics). The
    /// id-independent reaction identity corpus matching indexes.
    pub fn reaction_content_keys(&self) -> &[Arc<str>] {
        &self.incoming.reactions
    }

    /// Every canonical content/name key of the preparation, one per keyed
    /// component, in Fig. 4 kind order (functions, units, types,
    /// compartments, species, rules, constraints, reactions, events) —
    /// the key-set identity of the model's content, used for Jaccard
    /// similarity scoring in approximate corpus matching.
    pub fn content_keys(&self) -> impl Iterator<Item = &Arc<str>> {
        let inc = &self.incoming;
        inc.functions
            .iter()
            .chain(&inc.units)
            .chain(&inc.compartment_types)
            .chain(&inc.species_types)
            .chain(&inc.compartments)
            .chain(&inc.species)
            .chain(&inc.rules)
            .chain(&inc.constraints)
            .chain(&inc.reactions)
            .chain(&inc.events)
    }

    /// Decompose the preparation into its serialisable raw parts: the
    /// model, every cached canonical key family, and the evaluated
    /// initial values. The parts are exactly what
    /// [`PreparedModel::from_raw`] needs to reconstruct the preparation
    /// without re-canonicalising a single key — the `sbml-serve` snapshot
    /// format persists them verbatim. (Free-reference sets are *not*
    /// part of the raw form: they are derived from the model on first
    /// compose use.)
    pub fn to_raw(&self) -> RawPrepared {
        let inc = &self.incoming;
        let mut initial_values: Vec<(String, f64)> =
            self.initial_values.values.iter().map(|(k, v)| (k.clone(), *v)).collect();
        initial_values.sort_by(|a, b| a.0.cmp(&b.0));
        RawPrepared {
            model: self.model.clone(),
            function_keys: inc.functions.clone(),
            unit_keys: inc.units.clone(),
            compartment_type_keys: inc.compartment_types.clone(),
            species_type_keys: inc.species_types.clone(),
            compartment_keys: inc.compartments.clone(),
            species_keys: inc.species.clone(),
            rule_keys: inc.rules.clone(),
            constraint_keys: inc.constraints.clone(),
            reaction_keys: inc.reactions.clone(),
            event_keys: inc.events.clone(),
            initial_values,
        }
    }

    /// Reassemble a preparation from raw parts produced by
    /// [`PreparedModel::to_raw`] (possibly via a round-trip through disk).
    ///
    /// Nothing is re-canonicalised: the cached keys are taken as given
    /// and the cheap derived state — the taken-id set, the per-kind
    /// lookup indexes, the key cache — is rebuilt from them by plain
    /// hash-map insertion, mirroring the control flow of the fresh
    /// analysis (including the `cache_patterns` / `cache_content_keys`
    /// ablations). The caller is responsible for checking that `options`
    /// carries the fingerprint the parts were prepared under (the
    /// snapshot loader verifies the recorded
    /// [`OptionsFingerprint::stable_hash`] before calling this);
    /// structural mismatches between the parts and the model are reported
    /// as errors, never panics.
    pub fn from_raw(raw: RawPrepared, options: &ComposeOptions) -> Result<PreparedModel, String> {
        let model = raw.model;
        let check = |family: &str, got: usize, want: usize| -> Result<(), String> {
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "prepared parts for {:?} are inconsistent: {family} has {got} entries, \
                     model has {want}",
                    model.id
                ))
            }
        };
        check("function keys", raw.function_keys.len(), model.function_definitions.len())?;
        check("unit keys", raw.unit_keys.len(), model.unit_definitions.len())?;
        check(
            "compartment type keys",
            raw.compartment_type_keys.len(),
            model.compartment_types.len(),
        )?;
        check("species type keys", raw.species_type_keys.len(), model.species_types.len())?;
        check("compartment keys", raw.compartment_keys.len(), model.compartments.len())?;
        check("species keys", raw.species_keys.len(), model.species.len())?;
        check("rule keys", raw.rule_keys.len(), model.rules.len())?;
        check("constraint keys", raw.constraint_keys.len(), model.constraints.len())?;
        check("reaction keys", raw.reaction_keys.len(), model.reactions.len())?;
        check("event keys", raw.event_keys.len(), model.events.len())?;

        let incoming = IncomingKeys {
            functions: raw.function_keys,
            units: raw.unit_keys,
            compartment_types: raw.compartment_type_keys,
            species_types: raw.species_type_keys,
            compartments: raw.compartment_keys,
            species: raw.species_keys,
            rules: raw.rule_keys,
            constraints: raw.constraint_keys,
            reactions: raw.reaction_keys,
            events: raw.event_keys,
            // Left empty: [`IncomingKeys::refs`] derives the reference
            // sets from the model on the first compose use.
            refs: std::sync::OnceLock::new(),
        };

        let initial_values =
            Arc::new(InitialValues { values: raw.initial_values.into_iter().collect() });
        Ok(PreparedModel {
            model,
            fingerprint: options.fingerprint(),
            // Left empty: the length checks above guarantee the lazy
            // rebuild in [`PreparedModel::analysis`] cannot index out of
            // bounds, and a corpus that only answers match queries never
            // needs the base-side indexes at all.
            analysis: Arc::new(std::sync::OnceLock::new()),
            analysis_config: AnalysisConfig::of(options),
            incoming,
            initial_values,
        })
    }
}

impl ModelAnalysis {
    /// Rebuild the derived state exactly as [`ModelAnalysis::build`]
    /// fills it, but from the cached incoming keys instead of fresh
    /// canonicalisation. The caller guarantees every key family is
    /// positional with its component list (the snapshot loader checks
    /// the lengths before constructing the [`PreparedModel`]).
    fn from_incoming(
        model: &Model,
        incoming: &IncomingKeys,
        config: AnalysisConfig,
    ) -> ModelAnalysis {
        let cache = config.cache_content_keys;
        let mut idx = Indexes::with_kind(config.index);
        let mut keys = KeyCache::default();
        for (i, f) in model.function_definitions.iter().enumerate() {
            idx.functions_by_id.insert(&f.id, i);
            idx.functions_by_content.insert_shared(&incoming.functions[i], i);
            if cache {
                keys.functions.push(Arc::clone(&incoming.functions[i]));
            }
        }
        for (i, u) in model.unit_definitions.iter().enumerate() {
            idx.units_by_id.insert(&u.id, i);
            idx.units_by_content.insert_shared(&incoming.units[i], i);
            if cache {
                keys.units.push(Arc::clone(&incoming.units[i]));
            }
        }
        for (i, t) in model.compartment_types.iter().enumerate() {
            idx.compartment_types_by_id.insert(&t.id, i);
            idx.compartment_types_by_name.insert_shared(&incoming.compartment_types[i], i);
        }
        for (i, t) in model.species_types.iter().enumerate() {
            idx.species_types_by_id.insert(&t.id, i);
            idx.species_types_by_name.insert_shared(&incoming.species_types[i], i);
        }
        for (i, c) in model.compartments.iter().enumerate() {
            idx.compartments_by_id.insert(&c.id, i);
            idx.compartments_by_name.insert_shared(&incoming.compartments[i], i);
        }
        for (i, s) in model.species.iter().enumerate() {
            idx.species_by_id.insert(&s.id, i);
            idx.species_by_name.insert_shared(&incoming.species[i], i);
        }
        for (i, p) in model.parameters.iter().enumerate() {
            idx.parameters_by_id.insert(&p.id, i);
        }
        for (i, ia) in model.initial_assignments.iter().enumerate() {
            idx.assignments_by_symbol.insert(&ia.symbol, i);
        }
        for (i, r) in model.rules.iter().enumerate() {
            idx.rules_by_content.insert_shared(&incoming.rules[i], i);
            if let Some(v) = r.variable() {
                idx.rules_by_variable.insert(v, i);
            }
        }
        for i in 0..model.constraints.len() {
            idx.constraints_by_content.insert_shared(&incoming.constraints[i], i);
        }
        let rxn_content = config.cache_patterns;
        for (i, r) in model.reactions.iter().enumerate() {
            idx.reactions_by_id.insert(&r.id, i);
            if rxn_content {
                idx.reactions_by_content.insert_shared(&incoming.reactions[i], i);
                if cache {
                    keys.reactions.push(Arc::clone(&incoming.reactions[i]));
                }
            }
        }
        for (i, ev) in model.events.iter().enumerate() {
            if let Some(id) = &ev.id {
                idx.events_by_id.insert(id, i);
            }
            idx.events_by_content.insert_shared(&incoming.events[i], i);
            if cache {
                keys.events.push(Arc::clone(&incoming.events[i]));
            }
        }

        ModelAnalysis {
            taken: Arc::new(model.global_ids().into_iter().collect()),
            idx,
            keys,
        }
    }
}

impl PreparedModel {
    /// Panic unless this preparation matches `options`; called by every
    /// prepared composition entry point.
    pub(crate) fn check_options(&self, options: &ComposeOptions) {
        assert!(
            self.fingerprint == options.fingerprint(),
            "PreparedModel for {:?} was prepared under different options \
             (fingerprint {:?} vs {:?}); re-prepare it with the composing options",
            self.model.id,
            self.fingerprint,
            options.fingerprint(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;

    fn sample() -> Model {
        ModelBuilder::new("m")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .parameter("k", 0.4)
            .initial_assignment("G6P", "k * 10")
            .reaction("hex", &["glc"], &["G6P"], "k*glc")
            .build()
    }

    #[test]
    fn analysis_matches_model_shape() {
        let options = ComposeOptions::default();
        let m = sample();
        let p = PreparedModel::new(&m, &options);
        assert_eq!(p.model(), &m);
        assert_eq!(p.analysis().idx.species_by_id.len(), 2);
        assert_eq!(p.analysis().idx.reactions_by_id.len(), 1);
        assert_eq!(p.incoming.species.len(), 2);
        assert_eq!(p.incoming.reactions.len(), 1);
        assert_eq!(p.incoming.compartments.len(), 1);
        assert!(p.analysis().taken.contains("hex"));
        // Initial assignment evaluated at preparation time.
        assert_eq!(p.initial_values().get("G6P"), Some(4.0));
    }

    #[test]
    fn from_model_equals_new() {
        let options = ComposeOptions::default();
        let m = sample();
        let a = PreparedModel::new(&m, &options);
        let b = PreparedModel::from_model(m, &options);
        assert_eq!(a.model(), b.model());
        assert_eq!(a.incoming.species, b.incoming.species);
        assert_eq!(a.initial_values(), b.initial_values());
    }

    #[test]
    fn incoming_keys_match_fresh_context() {
        let options = ComposeOptions::default();
        let m = sample();
        let p = PreparedModel::new(&m, &options);
        let ctx = MatchContext::new(&options);
        // With no mappings recorded, mapped and unmapped keys coincide —
        // the invariant the prepared fast path relies on.
        for (i, r) in m.reactions.iter().enumerate() {
            assert_eq!(p.incoming.reactions[i].as_ref(), ctx.reaction_key(r, true));
        }
        for (i, s) in m.species.iter().enumerate() {
            assert_eq!(p.incoming.species[i].as_ref(), ctx.name_key(&s.id, s.name.as_deref()));
        }
    }

    #[test]
    fn public_key_accessors_expose_incoming_keys() {
        let options = ComposeOptions::default();
        let m = sample();
        let p = PreparedModel::new(&m, &options);
        let ctx = MatchContext::new(&options);
        assert_eq!(p.species_name_keys().len(), m.species.len());
        assert_eq!(p.species_name_keys()[0].as_ref(), ctx.name_key("glc", Some("glucose")));
        assert_eq!(p.reaction_content_keys().len(), m.reactions.len());
        assert_eq!(
            p.reaction_content_keys()[0].as_ref(),
            ctx.reaction_key(&m.reactions[0], false)
        );
        // One key per keyed component: 1 compartment + 2 species + 1 reaction.
        assert_eq!(p.content_keys().count(), 4);
    }

    #[test]
    #[should_panic(expected = "different options")]
    fn options_mismatch_is_rejected() {
        let m = sample();
        let p = PreparedModel::new(&m, &ComposeOptions::default());
        p.check_options(&ComposeOptions::light());
    }

    #[test]
    fn prepared_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedModel>();
    }

    /// A model with several entries of every keyed kind, so every job
    /// segment of the parallel builder is exercised.
    fn every_kind() -> Model {
        use sbml_math::infix;
        use sbml_model::{Event, EventAssignment, FunctionDefinition, Rule};
        use sbml_units::{Unit, UnitKind};

        let mut m = ModelBuilder::new("all")
            .compartment("cell", 1.0)
            .compartment("nucleus", 0.2)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .species("ATP", 3.0)
            .parameter("k1", 0.4)
            .parameter("k2", 1.5)
            .initial_assignment("G6P", "k1 * 10")
            .reaction("hex", &["glc"], &["G6P"], "k1*glc*ATP")
            .reaction("leak", &["G6P"], &["glc"], "k2*G6P")
            .build();
        for (i, body) in ["x*2", "x+y"].iter().enumerate() {
            m.function_definitions.push(FunctionDefinition::new(
                format!("fn{i}"),
                vec!["x".into(), "y".into()],
                infix::parse(body).unwrap(),
            ));
        }
        m.unit_definitions
            .push(sbml_units::UnitDefinition::new("per_s", vec![Unit::of(UnitKind::Second).pow(-1)]));
        m.compartment_types.push(sbml_model::CompartmentType {
            id: "ct0".into(),
            name: Some("membrane".into()),
        });
        m.species_types.push(sbml_model::SpeciesType { id: "st0".into(), name: None });
        m.rules.push(Rule::Rate {
            variable: "ATP".into(),
            math: infix::parse("0 - k2*ATP").unwrap(),
        });
        m.rules.push(Rule::Algebraic { math: infix::parse("glc + G6P - 5").unwrap() });
        m.constraints.push(sbml_model::rule::Constraint {
            math: infix::parse("glc >= 0").unwrap(),
            message: None,
        });
        let mut ev = Event::new(infix::parse("time >= 3").unwrap());
        ev.id = Some("boost".into());
        ev.delay = Some(infix::parse("k1").unwrap());
        ev.assignments.push(EventAssignment {
            variable: "ATP".into(),
            math: infix::parse("ATP + 1").unwrap(),
        });
        m.events.push(ev);
        m
    }

    #[test]
    fn model_content_keys_equal_prepared_content_keys() {
        // Pins the standalone enumeration to the preparation's: if a key
        // family is ever added to (or dropped from) IncomingKeys, this
        // test forces model_content_keys to follow.
        for options in
            [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let m = every_kind();
            let p = PreparedModel::new(&m, &options);
            let mut from_prepared: Vec<&str> =
                p.content_keys().map(|k| k.as_ref()).collect();
            let direct = model_content_keys(&m, &options);
            let mut from_direct: Vec<&str> = direct.iter().map(String::as_str).collect();
            from_prepared.sort_unstable();
            from_direct.sort_unstable();
            assert_eq!(from_prepared, from_direct);
        }
    }

    #[test]
    fn parallel_incoming_keys_equal_serial_for_every_worker_count() {
        let model = every_kind();
        // Pools smaller and larger than most chunk counts: chunking
        // follows `workers` alone.
        let pools = [WorkerPool::new(1), WorkerPool::new(4)];
        for options in
            [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let mut serial = IncomingKeys::default();
            ModelAnalysis::build(&model, &options, Some(&mut serial));
            for workers in [1, 2, 3, 5, 8, 64] {
                for pool in &pools {
                    let pooled = IncomingKeys::build_parallel_on(&model, &options, workers, pool);
                    assert_eq!(pooled, serial, "workers={workers} lanes={}", pool.threads());
                }
            }
        }
    }

    #[test]
    fn weighted_chunking_handles_skewed_formula_sizes() {
        // One giant kinetic law among many tiny components: the LPT
        // assignment gives it a worker of its own, and output stays
        // byte-identical to serial for every worker count.
        use sbml_math::infix;
        let mut m = every_kind();
        let giant = (0..200).map(|i| format!("glc + {i}")).collect::<Vec<_>>().join(" * ");
        let mut r = sbml_model::Reaction::new("giant");
        r.reactants.push(sbml_model::SpeciesReference::new("glc"));
        r.kinetic_law = Some(sbml_model::KineticLaw::new(infix::parse(&giant).unwrap()));
        m.reactions.push(r);

        let options = ComposeOptions::default();
        let mut serial = IncomingKeys::default();
        ModelAnalysis::build(&m, &options, Some(&mut serial));
        let pool = WorkerPool::new(4);
        for workers in [2, 3, 7, 16] {
            assert_eq!(
                IncomingKeys::build_parallel_on(&m, &options, workers, &pool),
                serial,
                "{workers}"
            );
        }
    }

    #[test]
    fn raw_round_trip_preserves_preparation() {
        for options in
            [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let m = every_kind();
            let fresh = PreparedModel::new(&m, &options);
            let rebuilt = PreparedModel::from_raw(fresh.to_raw(), &options)
                .expect("raw parts from to_raw are consistent");
            assert_eq!(rebuilt.model(), fresh.model());
            // Force the lazily-derived reference sets so the equality
            // below also pins them to the fresh (eager) ones.
            rebuilt.incoming.refs(rebuilt.model());
            assert_eq!(rebuilt.incoming, fresh.incoming);
            assert_eq!(rebuilt.initial_values(), fresh.initial_values());
            assert_eq!(rebuilt.fingerprint(), fresh.fingerprint());
            assert_eq!(rebuilt.analysis().taken, fresh.analysis().taken);
            assert_eq!(
                rebuilt.analysis().idx.reactions_by_content.len(),
                fresh.analysis().idx.reactions_by_content.len()
            );
            // The rebuilt preparation composes bit-identically.
            let composer = crate::Composer::new(options.clone());
            let other = PreparedModel::new(&sample(), &options);
            let a = composer.compose_prepared(&fresh, &other);
            let b = composer.compose_prepared(&rebuilt, &other);
            assert_eq!(a.model, b.model);
        }
    }

    #[test]
    fn raw_round_trip_honours_cache_ablations() {
        let options = ComposeOptions::default()
            .with_pattern_cache(false)
            .with_content_key_cache(false);
        let m = every_kind();
        let fresh = PreparedModel::new(&m, &options);
        let rebuilt = PreparedModel::from_raw(fresh.to_raw(), &options).expect("consistent");
        assert_eq!(rebuilt.analysis().keys.reactions.len(), fresh.analysis().keys.reactions.len());
        assert_eq!(
            rebuilt.analysis().idx.reactions_by_content.len(),
            fresh.analysis().idx.reactions_by_content.len()
        );
        rebuilt.incoming.refs(rebuilt.model());
        assert_eq!(rebuilt.incoming, fresh.incoming);
    }

    #[test]
    fn inconsistent_raw_parts_are_rejected_not_panicking() {
        let options = ComposeOptions::default();
        let fresh = PreparedModel::new(&every_kind(), &options);
        let mut raw = fresh.to_raw();
        raw.species_keys.pop();
        let err = PreparedModel::from_raw(raw, &options).unwrap_err();
        assert!(err.contains("species keys"), "{err}");
    }

    #[test]
    fn parallel_incoming_keys_on_empty_and_tiny_models() {
        let options = ComposeOptions::default();
        for model in [Model::new("empty"), sample()] {
            let mut serial = IncomingKeys::default();
            ModelAnalysis::build(&model, &options, Some(&mut serial));
            let pool = WorkerPool::new(2);
            for workers in [1, 4] {
                assert_eq!(
                    IncomingKeys::build_parallel_on(&model, &options, workers, &pool),
                    serial
                );
            }
        }
    }
}
