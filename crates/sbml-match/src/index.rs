//! The corpus match index: inverted posting lists over the canonical
//! keys a prepared corpus already carries, sharded for scatter-gather
//! queries and mutable in place (incremental insert, tombstoned remove,
//! threshold-triggered compaction).
//!
//! # Index layout
//!
//! [`MatchIndex::build`] inverts three key families into posting lists
//! (key → ascending slot ids):
//!
//! * **node keys** — canonical species label keys (synonym-closed under
//!   light/heavy semantics, raw labels under none);
//! * **edge keys** — extracted edge labels (none/light) or reaction
//!   content keys (heavy), `mod:`-prefixed for regulatory edges;
//! * **participant keys** — the node-key multisets of each reaction's
//!   reactants/products/modifiers, an id- and kinetics-independent
//!   signal used by approximate ranking. Interned as `Arc<str>` like the
//!   other two families.
//!
//! Per model it also keeps the [`MatchGraph`] (refinement never re-derives
//! it) and the full canonical content-key set of the preparation
//! ([`sbml_compose::PreparedModel::content_keys`]) for Jaccard scoring.
//! The preparation itself sits in a [`LazyModel`]: an index loaded from
//! a snapshot decodes a model only when a near miss is scored against it
//! (or a caller asks for it) — candidate generation and refinement need
//! only the postings and the graph, and a hit's witness reads the
//! target's ids in place from its record.
//!
//! # Slots, shards, tombstones
//!
//! Internally models live in **slots**: monotonically assigned `u32` ids
//! that are never renumbered, so posting lists stay ascending under any
//! insert/remove interleaving (a new model's slot is always the largest).
//! The *public* model indices every query result reports are **ranks** —
//! positions in the live corpus ([`MatchIndex::corpus`]), exactly what a
//! fresh [`MatchIndex::build`] over the same live models would report.
//!
//! Postings are partitioned into [`IndexShard`]s by the deterministic
//! rule `slot % shard_count` ([`MatchIndex::with_shards`]; default 1).
//! Each shard carries its own posting maps, live-member list, tombstone
//! set + deletion bitmap, and a generation counter that bumps on every
//! mutation — the snapshot layer uses generations to rewrite only the
//! shards that changed.
//!
//! The mutation lifecycle:
//!
//! * [`MatchIndex::insert`] analyses the prepared model once and appends
//!   its postings to its home shard — O(model), no rebuild.
//! * [`MatchIndex::remove`] *tombstones* the slot: membership moves to
//!   the shard's dead set, the deletion bitmap masks the slot out of
//!   every posting list at query time, and the per-slot caches are
//!   dropped. Posting entries linger until compaction.
//! * When a shard's [`IndexShard::tombstone_fraction`] (dead posting
//!   entries over live + dead) exceeds
//!   [`MatchIndex::with_compaction_threshold`] (default
//!   [`DEFAULT_COMPACTION_THRESHOLD`]), the shard **compacts**: dead
//!   slots are scrubbed from its posting lists in place. Slot ids never
//!   change, so other shards are untouched.
//!
//! The invariant the property suite pins: an index grown by any
//! insert/remove sequence answers every query **bit-identically** to a
//! fresh single-shard `build` over the surviving models in insertion
//! order, at every shard count.
//!
//! # Query pipeline
//!
//! 1. **scatter** — each shard generates candidates (posting-list
//!    intersection, smallest list first, tombstones masked) and refines
//!    them with [`crate::vf2::find_embedding_limited`]: a candidate in
//!    which every query node key has one carrier is decided by
//!    certifying the forced node map in one pass over the query's edges,
//!    any other by the VF2 search. A hit's [`Embedding`] is indices — the
//!    node map, `(query reaction, target reaction)` pairs, the target's
//!    [`LazyModel`] handle and the query's shared ids — so it costs two
//!    allocations; id strings are read only when the answer is rendered,
//!    from the model or in place from its snapshot record.
//!    Shards fan out one-per-worker on the [`BatchComposer`]'s shared
//!    [`WorkerPool`](sbml_compose::pool::WorkerPool); a single shard
//!    refines a large candidate set per-candidate on the same pool.
//!    Shard count 1 runs the shard step inline — the serial reference
//!    stays exercised.
//! 2. **gather** — exact hits merge in corpus order (slot-sorted, then
//!    remapped to ranks); when no model embeds the query, every model
//!    sharing a posting is scored per shard
//!    (`score = (jaccard + mapped_fraction) / 2`) and the per-shard
//!    lists merge rank-stably into the global top
//!    [`MatchIndex::with_top_k`].
//!
//! Results are deterministic for a given index and query — independent
//! of thread count, shard count, and compaction timing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbml_compose::guard::{self, Site};
use sbml_compose::index::{FastMap, FastSet};
use sbml_compose::{BatchComposer, ComposeOptions, Composer, PreparedModel};
use sbml_model::{Model, Reaction};

use crate::graph::{MatchGraph, RawGraph};
use crate::lazy::LazyModel;
use crate::semantics::MatchSemantics;
use crate::vf2::{find_embedding, find_embedding_limited, SearchLimits, SearchOutcome};

/// Default VF2 step budget per (query, model) refinement.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

/// Default tombstone fraction above which a shard compacts its posting
/// lists in place (see [`MatchIndex::with_compaction_threshold`]).
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.3;

/// A concrete embedding of the query into one corpus model, held as
/// indices rather than id strings: the target's shared handle, the
/// query's ids (one `Arc` shared by every hit of a query), the node map
/// the refiner returned, and `(query reaction, target reaction)` index
/// pairs. Building one costs two allocations whatever the ids; the id
/// strings are read only when the witness is rendered, through
/// [`Embedding::species`] and [`Embedding::reactions`]. Equality,
/// `Debug` and those iterators all speak in ids.
#[derive(Clone)]
pub struct Embedding {
    /// The refiner checked that the target's ids read and that every
    /// index below is in range for them.
    target: LazyModel,
    query: Arc<QueryIds>,
    /// `species[q]` is the target species index of query species `q`.
    species: Vec<u32>,
    /// `(query reaction, target reaction)` indices, ascending by query
    /// reaction; one entry per query reaction that contributed edges.
    reactions: Vec<(u32, u32)>,
}

/// A query's species and reaction ids, positional with its model.
#[derive(Debug)]
struct QueryIds {
    species: Vec<String>,
    reactions: Vec<String>,
}

impl Embedding {
    /// Query species id → target species id, in query species order.
    pub fn species(&self) -> impl ExactSizeIterator<Item = (&str, &str)> + '_ {
        let target = self.target.ids().ok();
        self.query.species.iter().zip(&self.species).map(move |(q, &t)| {
            (q.as_str(), target.map_or("", |ids| ids.species(t as usize)))
        })
    }

    /// Query reaction id → a target reaction id whose edge carried the
    /// match, one entry per query reaction that contributed edges, in
    /// query reaction order.
    pub fn reactions(&self) -> impl ExactSizeIterator<Item = (&str, &str)> + '_ {
        let target = self.target.ids().ok();
        self.reactions.iter().map(move |&(q, t)| {
            let query = self.query.reactions.get(q as usize).map_or("", String::as_str);
            (query, target.map_or("", |ids| ids.reaction(t as usize)))
        })
    }

    /// A witness spelled out as id pairs — for answers assembled by hand
    /// (renderer and wire tests): the target is a synthetic model
    /// carrying exactly the listed target ids, under default options.
    pub fn from_pairs(species: &[(&str, &str)], reactions: &[(&str, &str)]) -> Embedding {
        let mut target = Model::new("witness");
        let mut query = QueryIds { species: Vec::new(), reactions: Vec::new() };
        for (q, t) in species {
            query.species.push((*q).to_owned());
            target.species.push(sbml_model::Species::new(*t, "cell", 0.0));
        }
        for (q, t) in reactions {
            query.reactions.push((*q).to_owned());
            target.reactions.push(Reaction::new(*t));
        }
        Embedding {
            target: LazyModel::from(Arc::new(PreparedModel::from_model(
                target,
                &ComposeOptions::default(),
            ))),
            query: Arc::new(query),
            species: (0..species.len() as u32).collect(),
            reactions: (0..reactions.len() as u32).map(|i| (i, i)).collect(),
        }
    }
}

impl PartialEq for Embedding {
    fn eq(&self, other: &Embedding) -> bool {
        self.species().eq(other.species()) && self.reactions().eq(other.reactions())
    }
}

impl Eq for Embedding {}

impl std::fmt::Debug for Embedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Embedding")
            .field("species", &self.species().collect::<Vec<_>>())
            .field("reactions", &self.reactions().collect::<Vec<_>>())
            .finish()
    }
}

/// An exact corpus hit: the query embeds in `model`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusHit {
    /// Index of the hit model in the live corpus.
    pub model: usize,
    /// The witnessing node/edge mapping.
    pub embedding: Embedding,
}

/// A ranked approximate hit (returned when no exact embedding exists).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxHit {
    /// Index of the model in the live corpus.
    pub model: usize,
    /// `(jaccard + mapped_fraction) / 2`.
    pub score: f64,
    /// Jaccard similarity of the canonical content-key sets.
    pub jaccard: f64,
    /// Fraction of query nodes and edges individually mappable into the
    /// model (node key present; edge key or participant key present).
    pub mapped_fraction: f64,
}

/// Result of [`MatchIndex::query_corpus`].
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusMatches {
    /// Models the query exactly embeds in, ascending, with witnesses.
    pub exact: Vec<CorpusHit>,
    /// Ranked near-misses; populated only when `exact` is empty.
    pub approximate: Vec<ApproxHit>,
    /// The candidate models the index examined (ascending) — what the
    /// posting-list intersection could not rule out.
    pub candidates: Vec<usize>,
    /// Candidates whose refinement ran out of step budget or deadline
    /// before deciding, ascending. A non-empty list marks the result as
    /// *partial*: the query might still embed in one of these models.
    pub truncated: Vec<usize>,
    /// Candidates whose refinement panicked, ascending. The fault is
    /// contained per candidate — every other model's verdict is exactly
    /// what a fault-free run produces.
    pub failed: Vec<usize>,
}

/// A query analysed once against an index's options: its match graph,
/// the distinct keys candidate generation intersects, and the key sets
/// ranking scores against. Produce one with [`MatchIndex::prepare_query`]
/// and reuse it across [`MatchIndex::candidates_prepared`] /
/// [`MatchIndex::query_corpus_prepared`] calls — the per-query analysis
/// is paid exactly once, the way a [`PreparedModel`] hoists per-model
/// analysis out of composition.
pub struct PreparedQuery {
    graph: MatchGraph,
    /// Query species ids (positional with graph nodes) and reaction ids
    /// (positional with `model.reactions`), shared by every hit.
    ids: Arc<QueryIds>,
    /// Distinct node keys of the query graph.
    node_keys: Vec<Arc<str>>,
    /// Distinct edge keys of the query graph.
    edge_keys: Vec<Arc<str>>,
    /// Participant key per query reaction (positional).
    participant_keys: Vec<Arc<str>>,
    /// Full canonical content-key set (for Jaccard).
    content_keys: FastSet<Arc<str>>,
}

impl PreparedQuery {
    /// The query's [`scope_keys`], from this analysis.
    pub fn scope_keys(&self) -> Vec<u64> {
        hash_scope(self.node_keys.iter().chain(&self.edge_keys).chain(&self.participant_keys))
    }
}

/// The serialisable skeleton of one [`IndexShard`]: its generation, the
/// slots it owns (live members and tombstones), and its posting lists —
/// **scrubbed**: tombstoned slots are filtered out of the lists at
/// extraction, so a round trip through [`MatchIndex::from_raw`] loads a
/// shard with zero pending tombstone entries (membership tombstones are
/// preserved — slot ids stay stable across save/mutate/save cycles).
#[derive(Debug, Clone, Default)]
pub struct RawShard {
    /// Mutation counter at extraction time; the snapshot layer reuses a
    /// shard's encoded section verbatim when its generation (and member
    /// lists) are unchanged.
    pub generation: u64,
    /// Live slots owned by this shard, ascending.
    pub members: Vec<u32>,
    /// Tombstoned slots owned by this shard, ascending.
    pub dead: Vec<u32>,
    /// Node-key posting lists, sorted by key; slot ids ascending.
    pub node_postings: Vec<(Arc<str>, Vec<u32>)>,
    /// Edge-key posting lists, sorted by key; slot ids ascending.
    pub edge_postings: Vec<(Arc<str>, Vec<u32>)>,
    /// Participant-key posting lists, sorted by key; slots ascending.
    pub participant_postings: Vec<(Arc<str>, Vec<u32>)>,
}

/// The serialisable skeleton of a [`MatchIndex`]: everything the build
/// derives from the corpus, minus the pieces that are cheap `Arc` clones
/// of the corpus itself (content-key sets) or runtime-only (thread pool,
/// budget knobs). Posting lists are sorted by key so the skeleton — and
/// any snapshot encoding of it — is byte-deterministic for a given
/// corpus, options, and mutation history. The slot universe is exactly
/// `live ∪ every shard's dead`, dense from 0 — validated on load so a
/// hostile skeleton can never claim an unbounded slot space. Produced by
/// [`MatchIndex::to_raw`], consumed by [`MatchIndex::from_raw`].
#[derive(Debug, Clone, Default)]
pub struct RawIndex {
    /// Index-wide mutation counter.
    pub generation: u64,
    /// Live slots, ascending; `corpus[i]` (live order) lives in slot
    /// `live[i]`.
    pub live: Vec<u32>,
    /// Per-model match graph skeletons, live order.
    pub graphs: Vec<RawGraph>,
    /// One entry per shard; slot `s` belongs to shard
    /// `s % shards.len()`.
    pub shards: Vec<RawShard>,
}

/// A corpus graph that may still be in skeleton form after a snapshot
/// load: [`MatchIndex::from_raw`] validates every skeleton up front but
/// defers deriving adjacency and key indexes until a query actually
/// refines against the model, so loading a snapshot costs decoding, not
/// rebuilding. [`MatchIndex::build`] stores graphs already built.
/// Thread-safe: at most one build ever runs per graph.
struct LazyGraph {
    /// The validated skeleton; taken by the first build.
    raw: std::sync::Mutex<Option<RawGraph>>,
    built: std::sync::OnceLock<MatchGraph>,
}

impl LazyGraph {
    fn from_built(graph: MatchGraph) -> LazyGraph {
        let built = std::sync::OnceLock::new();
        let _ = built.set(graph);
        LazyGraph { raw: std::sync::Mutex::new(None), built }
    }

    fn deferred(raw: RawGraph) -> LazyGraph {
        LazyGraph { raw: std::sync::Mutex::new(Some(raw)), built: std::sync::OnceLock::new() }
    }

    /// The placeholder of a tombstoned or never-filled slot; builds to
    /// an empty graph if ever forced (queries never reach dead slots).
    fn empty() -> LazyGraph {
        LazyGraph { raw: std::sync::Mutex::new(None), built: std::sync::OnceLock::new() }
    }

    fn get(&self) -> &MatchGraph {
        self.built.get_or_init(|| {
            let raw = match self.raw.lock() {
                Ok(mut slot) => slot.take(),
                Err(poisoned) => poisoned.into_inner().take(),
            };
            // The skeleton was validated when the index was constructed;
            // a missing one (impossible by construction) degrades to an
            // empty graph rather than panicking.
            MatchGraph::from_validated(raw.unwrap_or_default())
        })
    }

    /// The skeleton, without forcing a build: still-deferred graphs are
    /// encoded from the stored raw directly.
    fn to_raw(&self) -> RawGraph {
        if let Some(graph) = self.built.get() {
            return graph.to_raw();
        }
        let raw = match self.raw.lock() {
            Ok(slot) => slot.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        match raw {
            Some(raw) => raw,
            // A build raced us and took the raw; it has finished (or
            // will) — get() blocks until the graph is available.
            None => self.get().to_raw(),
        }
    }
}

/// Is `slot`'s bit set in a deletion bitmap?
fn slot_bit(bits: &[u64], slot: u32) -> bool {
    bits.get(slot as usize / 64).is_some_and(|w| w >> (slot % 64) & 1 == 1)
}

/// One partition of the index: the posting lists, membership, and
/// tombstone state for every slot `s` with `s % shard_count == self`.
/// Shards are the unit of query fan-out (one worker per shard), of
/// compaction (a shard scrubs alone), and of snapshot rewriting (a
/// mutated shard re-encodes alone, keyed by [`IndexShard::generation`]).
pub struct IndexShard {
    node_postings: FastMap<Arc<str>, Vec<u32>>,
    edge_postings: FastMap<Arc<str>, Vec<u32>>,
    participant_postings: FastMap<Arc<str>, Vec<u32>>,
    /// Live slots owned by this shard, ascending.
    live_members: Vec<u32>,
    /// Every tombstoned slot this shard has ever owned, ascending.
    /// Membership is permanent (slot ids are never reused), so the slot
    /// universe stays dense and snapshot slot ids stay stable.
    dead: Vec<u32>,
    /// Deletion bitmap over global slot ids (only this shard's slots are
    /// ever set): the per-list filter applied to every posting list at
    /// query time, equivalent to a per-list bitmap without duplicating
    /// it across lists.
    dead_bits: Vec<u64>,
    /// Tombstones whose posting entries have not been compacted away
    /// yet — the numerator of [`IndexShard::tombstone_fraction`].
    dead_pending: usize,
    /// Bumped on every mutation (insert, remove, compaction, reshard).
    generation: u64,
}

impl IndexShard {
    fn new() -> IndexShard {
        IndexShard {
            node_postings: FastMap::default(),
            edge_postings: FastMap::default(),
            participant_postings: FastMap::default(),
            live_members: Vec::new(),
            dead: Vec::new(),
            dead_bits: Vec::new(),
            dead_pending: 0,
            generation: 0,
        }
    }

    fn is_dead(&self, slot: u32) -> bool {
        slot_bit(&self.dead_bits, slot)
    }

    fn mark_dead(&mut self, slot: u32) {
        let word = slot as usize / 64;
        if self.dead_bits.len() <= word {
            self.dead_bits.resize(word + 1, 0);
        }
        self.dead_bits[word] |= 1u64 << (slot % 64);
    }

    /// Append `slot`'s postings; `slot` must be larger than every slot
    /// already present (guaranteed: slot ids are monotonic), which keeps
    /// every list ascending with a constant-time dedup.
    fn absorb(&mut self, slot: u32, analysed: &Analysed) {
        fn push(postings: &mut FastMap<Arc<str>, Vec<u32>>, key: &Arc<str>, slot: u32) {
            let list = postings.entry(Arc::clone(key)).or_default();
            if list.last() != Some(&slot) {
                list.push(slot);
            }
        }
        for (key, _) in analysed.graph.node_key_groups() {
            push(&mut self.node_postings, key, slot);
        }
        for key in analysed.graph.edge_keys() {
            push(&mut self.edge_postings, key, slot);
        }
        for pkey in &analysed.participants {
            push(&mut self.participant_postings, pkey, slot);
        }
        self.live_members.push(slot);
    }

    /// Scrub tombstoned slots out of every posting list in place and
    /// drop emptied lists. Slot ids never change, so no other shard is
    /// affected.
    fn compact(&mut self) {
        let bits = &self.dead_bits;
        for map in
            [&mut self.node_postings, &mut self.edge_postings, &mut self.participant_postings]
        {
            for list in map.values_mut() {
                list.retain(|&s| !slot_bit(bits, s));
            }
            map.retain(|_, list| !list.is_empty());
        }
        self.dead_pending = 0;
    }

    /// This shard's skeleton, every slot passed through `slot`: posting
    /// lists scrubbed of tombstoned entries and sorted by key, so the
    /// result is a pure function of the shard's state. `slot` must be
    /// monotonic, which keeps every list ascending.
    fn to_raw(&self, slot: impl Fn(u32) -> u32) -> RawShard {
        let flatten = |postings: &FastMap<Arc<str>, Vec<u32>>| -> Vec<(Arc<str>, Vec<u32>)> {
            let mut out: Vec<(Arc<str>, Vec<u32>)> = postings
                .iter()
                .filter_map(|(k, v)| {
                    let list: Vec<u32> =
                        v.iter().filter(|&&s| !self.is_dead(s)).map(|&s| slot(s)).collect();
                    (!list.is_empty()).then(|| (Arc::clone(k), list))
                })
                .collect();
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        };
        RawShard {
            generation: self.generation,
            members: self.live_members.iter().map(|&s| slot(s)).collect(),
            dead: self.dead.iter().map(|&s| slot(s)).collect(),
            node_postings: flatten(&self.node_postings),
            edge_postings: flatten(&self.edge_postings),
            participant_postings: flatten(&self.participant_postings),
        }
    }

    /// Live models this shard owns.
    pub fn live_models(&self) -> usize {
        self.live_members.len()
    }

    /// Tombstoned models this shard owns (membership is permanent, so
    /// this counts compacted tombstones too).
    pub fn tombstoned_models(&self) -> usize {
        self.dead.len()
    }

    /// Tombstones whose posting entries are still in the lists (resets
    /// to zero on compaction).
    pub fn pending_tombstones(&self) -> usize {
        self.dead_pending
    }

    /// Mutation counter; bumps on insert, remove, compaction and
    /// reshard. The snapshot layer reuses a shard's encoded section when
    /// the generation is unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Distinct (node, edge, participant) posting keys in this shard.
    pub fn posting_stats(&self) -> (usize, usize, usize) {
        (self.node_postings.len(), self.edge_postings.len(), self.participant_postings.len())
    }

    /// Fraction of posting membership that is tombstoned-but-uncompacted:
    /// `pending / (live + pending)`. The compaction trigger; never
    /// exceeds 1.0, so a threshold of 1.0 disables compaction.
    pub fn tombstone_fraction(&self) -> f64 {
        let entries = self.live_members.len() + self.dead_pending;
        if entries == 0 {
            return 0.0;
        }
        self.dead_pending as f64 / entries as f64
    }
}

/// Inverted match index over a prepared corpus; see the
/// [module docs](self).
pub struct MatchIndex {
    options: ComposeOptions,
    semantics: MatchSemantics,
    /// Slot-addressed storage; `None` marks a tombstoned slot. Slot ids
    /// are monotonic and never reused.
    slots: Vec<Option<LazyModel>>,
    /// Per slot: the match graph (refinement never re-derives it).
    graphs: Vec<LazyGraph>,
    /// Per slot: full canonical content-key set (Jaccard denominator),
    /// derived from the corpus preparation on first use after a snapshot
    /// load ([`MatchIndex::build`] fills it eagerly).
    content_key_sets: Vec<std::sync::OnceLock<FastSet<Arc<str>>>>,
    /// Per slot: participant keys present, sorted. A pure function of
    /// the prepared model and the semantics, so it is NOT serialised:
    /// snapshot loads leave the cells empty and the list is re-derived
    /// on first ranked use ([`MatchIndex::build`] fills it eagerly).
    participant_raw: Vec<std::sync::OnceLock<Vec<Arc<str>>>>,
    /// Per slot: `participant_raw[s]` as a set, built on first use after
    /// a snapshot load.
    participant_sets: Vec<std::sync::OnceLock<FastSet<Arc<str>>>>,
    /// Live slots, ascending (== insertion order, since slot ids are
    /// monotonic). Position in this list is the public model index.
    live: Vec<u32>,
    /// The live models in live order — what [`MatchIndex::corpus`]
    /// returns and what a fresh `build` would be given.
    live_corpus: Vec<LazyModel>,
    /// The posting partitions; slot `s` belongs to
    /// `shards[s % shards.len()]`.
    shards: Vec<IndexShard>,
    /// Index-wide mutation counter.
    generation: u64,
    compaction_threshold: f64,
    batch: BatchComposer,
    budget: u64,
    /// Per-query wall-clock allowance for the refinement stage; `None`
    /// (the default) means unlimited.
    deadline: Option<Duration>,
    top_k: usize,
}

/// A `OnceLock` already holding `value` — the eager-construction side of
/// the lazy per-slot state above.
fn filled<T>(value: T) -> std::sync::OnceLock<T> {
    let cell = std::sync::OnceLock::new();
    let _ = cell.set(value);
    cell
}

/// Per-candidate refinement verdict, internal to
/// [`MatchIndex::query_corpus_prepared`].
enum Refined {
    /// The query embeds; here is the witness.
    Hit(Embedding),
    /// The search space was exhausted — the query does not embed.
    Miss,
    /// Step budget or deadline ran out before the search decided.
    Truncated,
    /// The refinement panicked (contained per candidate).
    Failed,
}

/// One shard's contribution to a corpus query, merged by the gather
/// stage. All ids are slots.
#[derive(Default)]
struct ShardAnswer {
    candidates: Vec<u32>,
    exact: Vec<(u32, Embedding)>,
    truncated: Vec<u32>,
    failed: Vec<u32>,
}

/// The node-key multiset signature of a reaction's participants:
/// reactants ⇒ products | modifiers, each side sorted — id- and
/// kinetics-independent, so it survives renamed species and altered rate
/// laws as long as the *shape* of the reaction is preserved.
fn participant_key(label_of: &FastMap<&str, Arc<str>>, r: &Reaction) -> String {
    let side = |refs: &[sbml_model::SpeciesReference]| -> String {
        let mut keys: Vec<&str> = refs
            .iter()
            .map(|sr| label_of.get(sr.species.as_str()).map(|k| k.as_ref()).unwrap_or(&sr.species))
            .collect();
        keys.sort_unstable();
        keys.join(",")
    };
    format!("{}=>{}|{}", side(&r.reactants), side(&r.products), side(&r.modifiers))
}

/// The full canonical content-key set of a model under `options` — the
/// same per-kind keys a [`PreparedModel`] caches, via the shared
/// [`sbml_compose::model_content_keys`] enumeration (one source of truth
/// for the key families; a test in `sbml-compose` pins it to
/// [`PreparedModel::content_keys`]), so a *query* never pays for the
/// parts of a preparation matching does not need (indexes, initial-value
/// evaluation).
fn content_key_set(model: &Model, options: &ComposeOptions) -> FastSet<Arc<str>> {
    sbml_compose::model_content_keys(model, options)
        .into_iter()
        .map(|key| Arc::from(key.as_str()))
        .collect()
}

/// Species id → canonical node key of its graph label.
fn species_label_keys<'m>(
    model: &'m Model,
    semantics: &MatchSemantics,
) -> FastMap<&'m str, Arc<str>> {
    model
        .species
        .iter()
        .map(|s| {
            (s.id.as_str(), semantics.node_key_shared(s.name.as_deref().unwrap_or(&s.id)))
        })
        .collect()
}

/// A model's match keys, analysed the way a query is: its match graph
/// (heavy edge keys computed from the model's reactions), the distinct
/// node and edge keys of that graph, sorted, and one participant key per
/// reaction (positional). The three families are exactly what the
/// posting lists invert, so candidate generation and ranking probe these
/// keys and nothing else.
struct MatchKeys {
    graph: MatchGraph,
    node_keys: Vec<Arc<str>>,
    edge_keys: Vec<Arc<str>>,
    participant_keys: Vec<Arc<str>>,
}

fn match_keys(model: &Model, semantics: &MatchSemantics, options: &ComposeOptions) -> MatchKeys {
    let graph = MatchGraph::build(model, semantics, options, None);
    let mut node_keys: Vec<Arc<str>> =
        graph.node_key_groups().map(|(k, _)| Arc::clone(k)).collect();
    node_keys.sort_unstable();
    let mut edge_keys: Vec<Arc<str>> = graph.edge_keys().cloned().collect();
    edge_keys.sort_unstable();
    let label_of = species_label_keys(model, semantics);
    let participant_keys = model
        .reactions
        .iter()
        .map(|r| Arc::<str>::from(participant_key(&label_of, r).as_str()))
        .collect();
    MatchKeys { graph, node_keys, edge_keys, participant_keys }
}

/// The 64-bit hash a cache scope stores for a match key or a model id.
/// Deterministic within a process; two strings may collide, which can
/// only make a scope look wider than it is.
pub fn scope_hash(key: &str) -> u64 {
    use std::hash::BuildHasher;
    sbml_compose::index::FxBuildHasher::default().hash_one(key)
}

/// Sorted, distinct [`scope_hash`]es of a key set.
fn hash_scope<'k>(keys: impl Iterator<Item = &'k Arc<str>>) -> Vec<u64> {
    let mut hashes: Vec<u64> = keys.map(|k| scope_hash(k)).collect();
    hashes.sort_unstable();
    hashes.dedup();
    hashes
}

/// The *scope keys* of a model: the sorted, distinct [`scope_hash`]es of
/// its node, edge and participant keys — the keys
/// [`MatchIndex::insert`] posts the model under, and the keys candidate
/// generation intersects and approximate ranking pools on when the model
/// is a query. A query's answer can change only through a model that
/// shares one of its scope keys (or that the answer names): an exact hit
/// carries every query node and edge key, and only models sharing a key
/// are ranked. This is the one derivation of those keys, for queries
/// ([`PreparedQuery::scope_keys`]) and for written models alike.
pub fn scope_keys(model: &Model, semantics: &MatchSemantics, options: &ComposeOptions) -> Vec<u64> {
    let keys = match_keys(model, semantics, options);
    hash_scope(keys.node_keys.iter().chain(&keys.edge_keys).chain(&keys.participant_keys))
}

/// Everything one model contributes to the index, derived once per
/// insert (and fanned out across workers by the bulk build).
struct Analysed {
    graph: MatchGraph,
    participants: FastSet<Arc<str>>,
    content: FastSet<Arc<str>>,
}

fn analyse(p: &PreparedModel, semantics: &MatchSemantics, options: &ComposeOptions) -> Analysed {
    let model = p.model();
    let reaction_keys = semantics.content_key_edges().then(|| p.reaction_content_keys());
    let graph = MatchGraph::build(model, semantics, options, reaction_keys);
    let label_of = species_label_keys(model, semantics);
    let participants: FastSet<Arc<str>> = model
        .reactions
        .iter()
        .map(|r| Arc::<str>::from(participant_key(&label_of, r).as_str()))
        .collect();
    Analysed { graph, participants, content: p.content_keys().cloned().collect() }
}

impl MatchIndex {
    /// Build the index over a prepared corpus. Every preparation must
    /// carry the fingerprint of `options` (the same rule every prepared
    /// composition entry point enforces): the cached content keys being
    /// inverted here are only meaningful under the options that derived
    /// them.
    ///
    /// The corpus is borrowed as `&[Arc<PreparedModel>]` — the index
    /// keeps `Arc` clones (refcount bumps, no model copies), so a daemon
    /// can share one prepared corpus across the index, a
    /// [`BatchComposer`], and its own handlers without cloning models.
    ///
    /// # Panics
    /// If a preparation's fingerprint does not match `options`.
    pub fn build(corpus: &[Arc<PreparedModel>], options: &ComposeOptions) -> MatchIndex {
        MatchIndex::build_sharded(corpus, options, 0, 1)
    }

    /// As [`MatchIndex::build`], but with the worker-thread bound applied
    /// to the build itself as well as to later queries (`0` = one per
    /// core, the [`MatchIndex::build`] default). Thread count never
    /// affects the index contents or query results.
    pub fn build_with_threads(
        corpus: &[Arc<PreparedModel>],
        options: &ComposeOptions,
        threads: usize,
    ) -> MatchIndex {
        MatchIndex::build_sharded(corpus, options, threads, 1)
    }

    /// As [`MatchIndex::build_with_threads`], partitioned into `shards`
    /// posting shards (clamped to at least 1). Shard count never affects
    /// query results, only fan-out granularity; equivalent to
    /// `build_with_threads(..).with_shards(shards)` but without the
    /// reshard pass.
    pub fn build_sharded(
        corpus: &[Arc<PreparedModel>],
        options: &ComposeOptions,
        threads: usize,
        shards: usize,
    ) -> MatchIndex {
        let semantics = MatchSemantics::from_options(options);
        let batch = BatchComposer::new(Composer::new(options.clone())).with_threads(threads);
        let fingerprint = options.fingerprint();
        for p in corpus {
            assert!(
                p.fingerprint() == fingerprint,
                "PreparedModel for {:?} was prepared under different options; \
                 re-prepare it with the matching options",
                p.model().id,
            );
        }
        // Per-model analysis (graph extraction, key resolution) is
        // independent — fan it out thread-per-shard like prepare_corpus;
        // map_corpus returns in corpus order, so the serial append fold
        // below is deterministic regardless of scheduling.
        let analysed: Vec<Analysed> =
            batch.map_corpus(corpus, |_, p| analyse(p, &semantics, options));
        let count = shards.max(1);
        let mut index = MatchIndex {
            semantics,
            slots: Vec::with_capacity(corpus.len()),
            graphs: Vec::with_capacity(corpus.len()),
            content_key_sets: Vec::with_capacity(corpus.len()),
            participant_raw: Vec::with_capacity(corpus.len()),
            participant_sets: Vec::with_capacity(corpus.len()),
            live: Vec::with_capacity(corpus.len()),
            live_corpus: Vec::with_capacity(corpus.len()),
            shards: (0..count).map(|_| IndexShard::new()).collect(),
            generation: 0,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            batch,
            budget: DEFAULT_BUDGET,
            deadline: None,
            top_k: 10,
            options: options.clone(),
        };
        for (p, a) in corpus.iter().zip(analysed) {
            index.append(LazyModel::from(Arc::clone(p)), a);
        }
        index
    }

    /// Append an analysed model in the next slot. Shared by the bulk
    /// build and [`MatchIndex::insert`], so "built all at once" and
    /// "grown one insert at a time" produce identical posting state.
    fn append(&mut self, prepared: LazyModel, analysed: Analysed) -> usize {
        let slot = self.slots.len() as u32;
        let si = slot as usize % self.shards.len();
        self.shards[si].absorb(slot, &analysed);
        self.shards[si].generation += 1;
        self.generation += 1;
        let mut sorted: Vec<Arc<str>> = analysed.participants.iter().cloned().collect();
        sorted.sort_unstable();
        self.participant_raw.push(filled(sorted));
        self.participant_sets.push(filled(analysed.participants));
        self.content_key_sets.push(filled(analysed.content));
        self.graphs.push(LazyGraph::from_built(analysed.graph));
        self.slots.push(Some(prepared.clone()));
        self.live.push(slot);
        self.live_corpus.push(prepared);
        self.live.len() - 1
    }

    /// Incrementally index one more prepared model: analyse it once and
    /// append its postings to its home shard in place — O(model) work,
    /// no rebuild, no effect on any other model's postings. Returns the
    /// new model's index in the live corpus (always the current
    /// [`MatchIndex::len`]` - 1` after the call).
    ///
    /// The grown index answers every query identically to a fresh
    /// [`MatchIndex::build`] over the same live models (property-tested
    /// across insert/remove/query interleavings).
    ///
    /// # Panics
    /// If the preparation's fingerprint does not match the index
    /// options.
    pub fn insert(&mut self, prepared: Arc<PreparedModel>) -> usize {
        assert!(
            prepared.fingerprint() == self.options.fingerprint(),
            "PreparedModel for {:?} was prepared under different options; \
             re-prepare it with the matching options",
            prepared.model().id,
        );
        let analysed = analyse(&prepared, &self.semantics, &self.options);
        self.append(LazyModel::from(prepared), analysed)
    }

    /// Remove the live model at index `model` (as reported by query
    /// results / [`MatchIndex::corpus`]), returning its preparation, or
    /// `None` when the index is out of range. Later models shift down by
    /// one, exactly as if the corpus had been rebuilt without the model.
    ///
    /// Internally the model's slot is *tombstoned*: the shard's deletion
    /// bitmap masks it out of every posting list at query time and the
    /// per-slot caches are dropped immediately; the posting entries
    /// themselves linger until the shard's tombstone fraction crosses
    /// [`MatchIndex::with_compaction_threshold`] and the shard compacts
    /// in place. Slot ids are never reused.
    pub fn remove(&mut self, model: usize) -> Option<LazyModel> {
        if model >= self.live.len() {
            return None;
        }
        let slot = self.live.remove(model);
        let removed = self.live_corpus.remove(model);
        let si = slot as usize % self.shards.len();
        {
            let shard = &mut self.shards[si];
            if let Ok(pos) = shard.live_members.binary_search(&slot) {
                shard.live_members.remove(pos);
            }
            if let Err(pos) = shard.dead.binary_search(&slot) {
                shard.dead.insert(pos, slot);
            }
            shard.mark_dead(slot);
            shard.dead_pending += 1;
            shard.generation += 1;
        }
        self.generation += 1;
        self.slots[slot as usize] = None;
        self.graphs[slot as usize] = LazyGraph::empty();
        self.content_key_sets[slot as usize] = std::sync::OnceLock::new();
        self.participant_raw[slot as usize] = std::sync::OnceLock::new();
        self.participant_sets[slot as usize] = std::sync::OnceLock::new();
        if self.shards[si].tombstone_fraction() > self.compaction_threshold {
            self.shards[si].compact();
            self.shards[si].generation += 1;
            self.generation += 1;
        }
        Some(removed)
    }

    /// Compact every shard that has pending tombstones, regardless of
    /// threshold — scrubs dead slots out of the posting lists in place.
    pub fn compact(&mut self) {
        let mut changed = false;
        for shard in &mut self.shards {
            if shard.dead_pending > 0 {
                shard.compact();
                shard.generation += 1;
                changed = true;
            }
        }
        if changed {
            self.generation += 1;
        }
    }

    /// Repartition the posting lists into `shards` shards (clamped to at
    /// least 1) by the deterministic rule `slot % shards`. Pure data
    /// movement — no model is re-analysed — and implicitly a full
    /// compaction (tombstoned entries are dropped while redistributing).
    /// Shard count never affects query results, only fan-out
    /// granularity.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> MatchIndex {
        let count = shards.max(1);
        if count == self.shards.len() {
            return self;
        }
        let mut next: Vec<IndexShard> = (0..count).map(|_| IndexShard::new()).collect();
        for shard in &self.shards {
            for family in 0..3usize {
                let src = match family {
                    0 => &shard.node_postings,
                    1 => &shard.edge_postings,
                    _ => &shard.participant_postings,
                };
                for (key, list) in src {
                    for &slot in list {
                        if shard.is_dead(slot) {
                            continue;
                        }
                        let dst = &mut next[slot as usize % count];
                        let map = match family {
                            0 => &mut dst.node_postings,
                            1 => &mut dst.edge_postings,
                            _ => &mut dst.participant_postings,
                        };
                        map.entry(Arc::clone(key)).or_default().push(slot);
                    }
                }
            }
            for &slot in &shard.live_members {
                next[slot as usize % count].live_members.push(slot);
            }
            for &slot in &shard.dead {
                let dst = &mut next[slot as usize % count];
                dst.dead.push(slot);
                dst.mark_dead(slot);
            }
        }
        self.generation += 1;
        for shard in &mut next {
            for map in [
                &mut shard.node_postings,
                &mut shard.edge_postings,
                &mut shard.participant_postings,
            ] {
                // Old shards interleave in slot space, so redistributed
                // lists arrive out of order exactly once, here.
                for list in map.values_mut() {
                    list.sort_unstable();
                }
            }
            shard.live_members.sort_unstable();
            shard.dead.sort_unstable();
            shard.generation = self.generation;
        }
        self.shards = next;
        self
    }

    /// Set the tombstone fraction above which a shard compacts its
    /// posting lists in place (default
    /// [`DEFAULT_COMPACTION_THRESHOLD`]). `0.0` compacts on every
    /// removal; `1.0` never compacts automatically (the fraction cannot
    /// exceed 1.0 — use [`MatchIndex::compact`] to scrub manually).
    #[must_use]
    pub fn with_compaction_threshold(mut self, fraction: f64) -> MatchIndex {
        self.compaction_threshold = fraction;
        self
    }

    /// Extract the serialisable skeleton of this index: graphs (live
    /// order), per-shard membership and posting lists, with every map
    /// flattened into key-sorted vectors so the result is deterministic
    /// for a given corpus, options, and mutation history. Posting lists
    /// are scrubbed of tombstoned entries on the way out (an unchanged
    /// shard still flattens identically — scrubbing is a pure function
    /// of its state). Content-key sets and per-slot participant-key
    /// lists are *not* carried — both are pure functions of the corpus's
    /// [`PreparedModel`]s, so [`MatchIndex::from_raw`] re-derives them
    /// lazily on first use.
    pub fn to_raw(&self) -> RawIndex {
        RawIndex {
            generation: self.generation,
            live: self.live.clone(),
            graphs: self.live.iter().map(|&s| self.graphs[s as usize].to_raw()).collect(),
            shards: self.shards.iter().map(|shard| shard.to_raw(|s| s)).collect(),
        }
    }

    /// Cut shard `shard` out of this index as a standalone
    /// **single-shard** index over only the models that shard owns — the
    /// state one shard daemon of an `n`-wide cluster serves, where `n` is
    /// [`MatchIndex::shard_count`]. Only this shard's postings are
    /// flattened and only its models' graph skeletons cloned; the models
    /// themselves are shared handles (a decode on either side is a decode
    /// for both). The slot universe is dense, so the shard owns exactly
    /// the slots `s ≡ shard (mod n)`, and global slot `s` becomes local
    /// slot `s / n` — local live rank order is global slot order, the
    /// property a scatter-gather merge relies on. The carved skeleton
    /// goes through [`MatchIndex::from_raw`]'s checks under `options`;
    /// `threads` bounds the carved index's query pool.
    ///
    /// # Errors
    /// If `shard` is out of range, or the models were prepared under
    /// options other than `options`.
    pub fn carve_shard(
        &self,
        shard: usize,
        options: &ComposeOptions,
        threads: usize,
    ) -> Result<MatchIndex, String> {
        let count = self.shards.len();
        let Some(home) = self.shards.get(shard) else {
            return Err(format!("shard {shard} out of range (index has {count})"));
        };
        let (graphs, corpus): (Vec<RawGraph>, Vec<LazyModel>) = self
            .live
            .iter()
            .zip(&self.live_corpus)
            .filter(|&(&s, _)| s as usize % count == shard)
            .map(|(&s, model)| (self.graphs[s as usize].to_raw(), model.clone()))
            .unzip();
        let local = home.to_raw(|s| s / count as u32);
        let raw = RawIndex {
            generation: self.generation,
            live: local.members.clone(),
            graphs,
            shards: vec![local],
        };
        MatchIndex::from_raw(raw, &corpus, options, threads)
    }

    /// Rebuild a [`MatchIndex`] from a skeleton and its **live** corpus
    /// (the models in live order, as returned by [`MatchIndex::corpus`]),
    /// skipping graph extraction, key resolution, and posting inversion
    /// entirely — the snapshot fast path. The corpus may be preparations
    /// or [`LazyModel`]s still encoded: nothing here decodes a model.
    /// Content-key sets come off each [`PreparedModel`] as `Arc` clones
    /// (no re-canonicalisation) on first use. Every structural claim the
    /// skeleton makes is validated — the slot universe must be exactly
    /// `live ∪ dead` and dense from 0, shard membership must follow
    /// `slot % count`, posting lists must be ascending over
    /// member-or-tombstoned slots, graphs must be consistent; violations
    /// return a structured error, never a panic, because the skeleton may
    /// come from an untrusted snapshot file.
    ///
    /// # Errors
    /// If a preparation's fingerprint does not match `options`, or the
    /// skeleton is inconsistent with the corpus.
    pub fn from_raw<M: Clone + Into<LazyModel>>(
        raw: RawIndex,
        corpus: &[M],
        options: &ComposeOptions,
        threads: usize,
    ) -> Result<MatchIndex, String> {
        let corpus: Vec<LazyModel> = corpus.iter().cloned().map(Into::into).collect();
        let fingerprint = options.fingerprint();
        for p in &corpus {
            if p.fingerprint() != fingerprint {
                return Err(format!(
                    "PreparedModel for {:?} was prepared under different options",
                    p.id(),
                ));
            }
        }
        let n = corpus.len();
        if raw.live.len() != n {
            return Err(format!("raw index lists {} live slots for {n} models", raw.live.len()));
        }
        if raw.graphs.len() != n {
            return Err(format!("raw index carries {} graphs for {n} models", raw.graphs.len()));
        }
        if !raw.live.windows(2).all(|w| w[0] < w[1]) {
            return Err("live slots must be strictly ascending".into());
        }
        let count = raw.shards.len();
        if count == 0 {
            return Err("raw index carries no shards".into());
        }
        let ascending = |list: &[u32]| list.windows(2).all(|w| w[0] < w[1]);
        // The slot universe must be exactly live ∪ dead, dense from 0 —
        // this both validates membership and bounds every allocation
        // below by the data actually present.
        let mut universe: Vec<u32> = raw.live.clone();
        let mut members: Vec<u32> = Vec::new();
        for (si, shard) in raw.shards.iter().enumerate() {
            if !ascending(&shard.members) || !ascending(&shard.dead) {
                return Err(format!("shard {si} membership lists must be strictly ascending"));
            }
            for &slot in shard.members.iter().chain(&shard.dead) {
                if slot as usize % count != si {
                    return Err(format!("slot {slot} listed in shard {si}, not its home shard"));
                }
            }
            universe.extend_from_slice(&shard.dead);
            members.extend_from_slice(&shard.members);
        }
        universe.sort_unstable();
        if universe.iter().enumerate().any(|(i, &s)| s as usize != i) {
            return Err("slot universe (live ∪ dead) must be dense from 0".into());
        }
        members.sort_unstable();
        if members != raw.live {
            return Err("shard live members disagree with the index live list".into());
        }
        let slot_count = universe.len();
        for (si, shard) in raw.shards.iter().enumerate() {
            for (family, lists) in [
                ("node", &shard.node_postings),
                ("edge", &shard.edge_postings),
                ("participant", &shard.participant_postings),
            ] {
                for (key, list) in lists {
                    if !ascending(list) {
                        return Err(format!(
                            "shard {si} {family} posting {key:?} is not ascending"
                        ));
                    }
                    for &slot in list {
                        // The universe is dense and every member and
                        // tombstone sits in its home shard (both checked
                        // above), so shard `si` owns exactly the slots
                        // below the universe size that are `si` mod count.
                        let owned = (slot as usize) < slot_count && slot as usize % count == si;
                        if !owned {
                            return Err(format!(
                                "shard {si} {family} posting {key:?} references slot {slot} \
                                 the shard does not own"
                            ));
                        }
                    }
                }
            }
        }
        // Skeletons are validated now (a corrupt one must surface as an
        // error here, not a panic later), but built lazily: adjacency and
        // key indexes are derived on the first query that refines against
        // the model, keeping the load itself a pure decode.
        let mut graphs: Vec<LazyGraph> = Vec::new();
        graphs.resize_with(slot_count, LazyGraph::empty);
        let mut slots: Vec<Option<LazyModel>> = vec![None; slot_count];
        for (i, g) in raw.graphs.into_iter().enumerate() {
            if let Err(e) = MatchGraph::validate_raw(&g) {
                return Err(format!("graph {i}: {e}"));
            }
            let slot = raw.live[i] as usize;
            graphs[slot] = LazyGraph::deferred(g);
            slots[slot] = Some(corpus[i].clone());
        }
        let shards: Vec<IndexShard> = raw
            .shards
            .into_iter()
            .map(|rs| {
                let mut shard = IndexShard::new();
                shard.generation = rs.generation;
                // Rebuild the deletion bitmap from the tombstone list;
                // extracted lists are scrubbed, so nothing is pending —
                // the bitmap only guards against hostile skeletons that
                // smuggled dead slots back into a list.
                for &slot in &rs.dead {
                    shard.mark_dead(slot);
                }
                shard.live_members = rs.members;
                shard.dead = rs.dead;
                shard.node_postings = rs.node_postings.into_iter().collect();
                shard.edge_postings = rs.edge_postings.into_iter().collect();
                shard.participant_postings = rs.participant_postings.into_iter().collect();
                shard
            })
            .collect();
        Ok(MatchIndex {
            semantics: MatchSemantics::from_options(options),
            slots,
            graphs,
            content_key_sets: (0..slot_count).map(|_| std::sync::OnceLock::new()).collect(),
            participant_raw: (0..slot_count).map(|_| std::sync::OnceLock::new()).collect(),
            participant_sets: (0..slot_count).map(|_| std::sync::OnceLock::new()).collect(),
            live: raw.live,
            live_corpus: corpus,
            shards,
            generation: raw.generation,
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            batch: BatchComposer::new(Composer::new(options.clone())).with_threads(threads),
            budget: DEFAULT_BUDGET,
            deadline: None,
            top_k: 10,
            options: options.clone(),
        })
    }

    /// Bound the worker threads [`MatchIndex::query_corpus`] fans out on
    /// (`0` = one per core). Thread count never affects results.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> MatchIndex {
        self.batch = BatchComposer::new(Composer::new(self.options.clone())).with_threads(threads);
        self
    }

    /// Set the VF2 step budget per (query, model) refinement (default
    /// [`DEFAULT_BUDGET`]). An exhausted budget counts as "no embedding".
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> MatchIndex {
        self.budget = budget;
        self
    }

    /// Bound the wall-clock time each query's refinement stage may spend
    /// (default: unlimited). Candidates still undecided when the deadline
    /// passes come back in [`CorpusMatches::truncated`] instead of
    /// silently counting as misses, and approximate ranking still runs —
    /// the degradation ladder's "ranked partial answer beats no answer"
    /// rung. Unlike the step budget, a deadline makes *which* candidates
    /// truncate machine-speed dependent; results stay deterministic only
    /// per (machine, load).
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> MatchIndex {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// How many approximate hits to rank when exact matching fails
    /// (default 10).
    #[must_use]
    pub fn with_top_k(mut self, top_k: usize) -> MatchIndex {
        self.top_k = top_k;
        self
    }

    /// Number of live corpus models indexed.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live model is indexed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The live indexed corpus, in the order query results index into.
    /// Models loaded from a snapshot decode on first read.
    pub fn corpus(&self) -> &[LazyModel] {
        &self.live_corpus
    }

    /// The matching semantics the index was built under.
    pub fn semantics(&self) -> &MatchSemantics {
        &self.semantics
    }

    /// The posting shards (read-only view, for stats and snapshots).
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// How many shards the posting lists are partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index-wide mutation counter: bumps on every insert, remove,
    /// compaction and reshard. Survives a raw/snapshot round trip.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total tombstoned models across all shards (compacted or not).
    pub fn tombstoned_len(&self) -> usize {
        self.shards.iter().map(|s| s.dead.len()).sum()
    }

    /// Distinct (node, edge, participant) posting keys, summed across
    /// shards — index-size telemetry for benches and logs. (A key shared
    /// by models in different shards counts once per shard.)
    pub fn posting_stats(&self) -> (usize, usize, usize) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            let (n, e, p) = s.posting_stats();
            (acc.0 + n, acc.1 + e, acc.2 + p)
        })
    }

    /// Live slot ids, ascending: `corpus()[i]` occupies slot
    /// `live_slots()[i]`. Public result indices ("model `k`") are ranks
    /// into this list; slot ids themselves are stable across mutations,
    /// which is what lets a remote merge layer translate shard-local
    /// answers back into global positions.
    pub fn live_slots(&self) -> &[u32] {
        &self.live
    }

    /// Size of the dense slot universe (live ∪ tombstoned) — equivalently
    /// the slot id the next insert will take. Slots are never reused, so
    /// this only grows; a cluster coordinator allocating global slots
    /// starts from here.
    pub fn slot_universe(&self) -> usize {
        self.slots.len()
    }

    /// Analyse a query once: build its match graph, collect the distinct
    /// keys candidate generation intersects, and derive the key sets
    /// ranking scores against. Reuse the result across any number of
    /// candidate/query calls against this index.
    pub fn prepare_query(&self, query: &Model) -> PreparedQuery {
        let MatchKeys { graph, node_keys, edge_keys, participant_keys } =
            match_keys(query, &self.semantics, &self.options);
        // Node i of the graph is query.species[i].
        let ids = QueryIds {
            species: query.species.iter().map(|s| s.id.clone()).collect(),
            reactions: query.reactions.iter().map(|r| r.id.clone()).collect(),
        };
        PreparedQuery {
            ids: Arc::new(ids),
            node_keys,
            edge_keys,
            participant_keys,
            content_keys: content_key_set(query, &self.options),
            graph,
        }
    }

    /// [`scope_keys`] of `model` under this index's semantics and
    /// options.
    pub fn scope_keys(&self, model: &Model) -> Vec<u64> {
        scope_keys(model, &self.semantics, &self.options)
    }

    /// Candidate generation: models whose posting lists contain *every*
    /// distinct query node key and edge key, ascending. A query with no
    /// graph nodes embeds trivially, so every live model is a candidate.
    pub fn candidates(&self, query: &Model) -> Vec<usize> {
        self.candidates_prepared(&self.prepare_query(query))
    }

    /// [`MatchIndex::candidates`] over an already-prepared query.
    pub fn candidates_prepared(&self, qa: &PreparedQuery) -> Vec<usize> {
        let mut slots: Vec<u32> = Vec::new();
        for shard in &self.shards {
            slots.extend(self.shard_candidates(shard, qa));
        }
        slots.sort_unstable();
        slots.into_iter().map(|s| self.rank_of(s)).collect()
    }

    /// One shard's candidates (as slots, ascending): intersect the
    /// shard's posting lists for every query key, then mask tombstones.
    /// A key missing from this shard just means no candidates *here* —
    /// other shards may still carry it.
    fn shard_candidates(&self, shard: &IndexShard, qa: &PreparedQuery) -> Vec<u32> {
        if qa.graph.node_count() == 0 {
            return shard.live_members.clone();
        }
        let mut lists: Vec<&[u32]> = Vec::with_capacity(qa.node_keys.len() + qa.edge_keys.len());
        for key in &qa.node_keys {
            match shard.node_postings.get(key.as_ref()) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        for key in &qa.edge_keys {
            match shard.edge_postings.get(key.as_ref()) {
                Some(list) => lists.push(list),
                None => return Vec::new(),
            }
        }
        lists.sort_unstable_by_key(|list| list.len());
        let mut acc: Vec<u32> = lists[0].to_vec();
        for list in &lists[1..] {
            acc.retain(|m| list.binary_search(m).is_ok());
            if acc.is_empty() {
                break;
            }
        }
        acc.retain(|&s| !shard.is_dead(s));
        acc
    }

    /// Public model index (rank in the live corpus) of a live slot.
    fn rank_of(&self, slot: u32) -> usize {
        // Live slots are ascending, so the remap is monotonic: sorting
        // by slot then remapping equals sorting by rank.
        self.live.binary_search(&slot).unwrap_or_else(|pos| pos)
    }

    fn refine(&self, qa: &PreparedQuery, target: usize) -> Option<Embedding> {
        let &slot = self.live.get(target)?;
        let deadline = self.deadline.map(|d| Instant::now() + d);
        match self.refine_limited(qa, slot as usize, deadline) {
            Refined::Hit(embedding) => Some(embedding),
            Refined::Miss | Refined::Truncated | Refined::Failed => None,
        }
    }

    /// The match graph stored in `slot`, built from its skeleton on
    /// first use after a snapshot load.
    fn graph(&self, slot: usize) -> &MatchGraph {
        self.graphs[slot].get()
    }

    /// The preparation in `slot`, decoded on first use after a snapshot
    /// load. A tombstoned slot (never reached by queries) and a record
    /// that does not decode are both errors.
    fn prepared(&self, slot: usize) -> Result<&Arc<PreparedModel>, &str> {
        match &self.slots[slot] {
            Some(model) => model.prepared(),
            None => Err("tombstoned slot"),
        }
    }

    /// The content-key set of the model in `slot` (Jaccard denominator),
    /// derived from the preparation on first use after a snapshot load.
    fn content_keys_of(&self, slot: usize) -> Result<&FastSet<Arc<str>>, &str> {
        if let Some(keys) = self.content_key_sets[slot].get() {
            return Ok(keys);
        }
        let keys = self.prepared(slot)?.content_keys().cloned().collect();
        Ok(self.content_key_sets[slot].get_or_init(|| keys))
    }

    /// The sorted participant-key list of the model in `slot`, re-derived
    /// from the prepared model on first use after a snapshot load.
    fn participant_raw_of(&self, slot: usize) -> Result<&[Arc<str>], &str> {
        if let Some(keys) = self.participant_raw[slot].get() {
            return Ok(keys);
        }
        let model = self.prepared(slot)?.model();
        let label_of = species_label_keys(model, &self.semantics);
        let pset: FastSet<Arc<str>> = model
            .reactions
            .iter()
            .map(|r| Arc::<str>::from(participant_key(&label_of, r).as_str()))
            .collect();
        let mut sorted: Vec<Arc<str>> = pset.into_iter().collect();
        sorted.sort_unstable();
        Ok(self.participant_raw[slot].get_or_init(|| sorted))
    }

    /// The participant-key set of the model in `slot`, derived from the
    /// sorted key list on first use after a snapshot load.
    fn participants_of(&self, slot: usize) -> Result<&FastSet<Arc<str>>, &str> {
        if let Some(keys) = self.participant_sets[slot].get() {
            return Ok(keys);
        }
        let keys = self.participant_raw_of(slot)?.iter().cloned().collect();
        Ok(self.participant_sets[slot].get_or_init(|| keys))
    }

    fn refine_limited(
        &self,
        qa: &PreparedQuery,
        slot: usize,
        deadline: Option<Instant>,
    ) -> Refined {
        // Dead slots never reach refinement (candidates are masked);
        // degrade to a miss rather than panicking if one ever did.
        let Some(target) = &self.slots[slot] else {
            return Refined::Miss;
        };
        let tg = self.graph(slot);
        let limits = SearchLimits { budget: self.budget, deadline };
        let species = match find_embedding_limited(&qa.graph, tg, limits) {
            SearchOutcome::Found(mapping) => mapping,
            SearchOutcome::NotFound => return Refined::Miss,
            SearchOutcome::BudgetExhausted => return Refined::Truncated,
        };
        // The witness reads the target's ids — in place, for a model
        // still encoded in its snapshot record. Ids that cannot be read,
        // or that disagree with the graph, fail the candidate instead of
        // inventing an answer.
        let ids = match target.ids() {
            Ok(ids) if ids.species_count() == tg.node_count() => ids,
            _ => return Refined::Failed,
        };
        // For each query reaction, its first edge's first key-equal
        // target edge between the images witnesses the reaction
        // correspondence. A query graph's edges come grouped by reaction
        // in ascending order (`MatchGraph::build`), so comparing with
        // the last entry keeps one pair per reaction, ascending.
        let mut reactions: Vec<(u32, u32)> = Vec::with_capacity(qa.ids.reactions.len());
        for e in 0..qa.graph.edge_count() as u32 {
            let edge = qa.graph.edge(e);
            let qr = qa.graph.reaction_of(e) as u32;
            if reactions.last().is_some_and(|&(last, _)| last == qr) {
                continue;
            }
            let (tf, tt) = (species[edge.from as usize], species[edge.to as usize]);
            if let Some(&(_, te)) = tg
                .out_edges(tf)
                .iter()
                .find(|&&(n, te)| n == tt && tg.edge(te).key == edge.key)
            {
                let tr = tg.reaction_of(te);
                if tr >= ids.reaction_count() {
                    return Refined::Failed;
                }
                reactions.push((qr, tr as u32));
            }
        }
        Refined::Hit(Embedding {
            target: target.clone(),
            query: Arc::clone(&qa.ids),
            species,
            reactions,
        })
    }

    /// Exact match against one live corpus model: the witnessing
    /// embedding, or `None` when the query does not embed (or the budget
    /// ran out, or `target` is out of range).
    pub fn query_model(&self, query: &Model, target: usize) -> Option<Embedding> {
        self.refine(&self.prepare_query(query), target)
    }

    /// Search the whole corpus: candidate generation and VF2 refinement
    /// scattered shard-per-worker over the [`BatchComposer`]'s shared
    /// [`WorkerPool`](sbml_compose::pool::WorkerPool), then a
    /// rank-stable gather — exact hits in corpus order; when no model
    /// embeds the query, the per-shard score lists merge into the global
    /// ranked top-k. Deterministic for a given index and query,
    /// independent of thread and shard count.
    ///
    /// Refinement faults never abort the query: a candidate whose search
    /// exhausts [`MatchIndex::with_budget`] /
    /// [`MatchIndex::with_deadline_ms`] lands in
    /// [`CorpusMatches::truncated`], one that panics lands in
    /// [`CorpusMatches::failed`], and every other candidate's verdict is
    /// bit-identical to a fault-free run.
    pub fn query_corpus(&self, query: &Model) -> CorpusMatches {
        self.query_corpus_prepared(&self.prepare_query(query))
    }

    /// [`MatchIndex::query_corpus`] over an already-prepared query.
    pub fn query_corpus_prepared(&self, qa: &PreparedQuery) -> CorpusMatches {
        // One shared deadline for the whole refinement stage, not one per
        // candidate or shard — [`MatchIndex::with_deadline_ms`] bounds
        // the query.
        let deadline = self.deadline.map(|d| Instant::now() + d);
        let answers = self.scatter(|shard| self.query_shard(shard, qa, deadline));
        let mut exact: Vec<(u32, Embedding)> = Vec::new();
        let mut candidates: Vec<u32> = Vec::new();
        let mut truncated: Vec<u32> = Vec::new();
        let mut failed: Vec<u32> = Vec::new();
        for answer in answers {
            exact.extend(answer.exact);
            candidates.extend(answer.candidates);
            truncated.extend(answer.truncated);
            failed.extend(answer.failed);
        }
        // Gather: slots interleave across shards; one sort restores
        // corpus order, and the slot→rank remap is monotonic, so the
        // result is exactly what a single-shard index reports.
        exact.sort_by_key(|&(slot, _)| slot);
        candidates.sort_unstable();
        truncated.sort_unstable();
        failed.sort_unstable();
        let approximate = if exact.is_empty() {
            let mut hits: Vec<ApproxHit> = Vec::new();
            for (ranked, unreadable) in self.scatter(|shard| self.rank_shard(shard, qa)) {
                hits.extend(ranked);
                failed.extend(unreadable);
            }
            // A candidate whose record failed refinement fails ranking
            // too; it is reported once.
            failed.sort_unstable();
            failed.dedup();
            // Rank-stable top-k merge: score descending, slot (== rank
            // order) ascending on ties — the same total order the
            // single-shard ranking sorts by.
            hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.model.cmp(&b.model)));
            hits.truncate(self.top_k);
            for hit in &mut hits {
                hit.model = self.rank_of(hit.model as u32);
            }
            hits
        } else {
            Vec::new()
        };
        CorpusMatches {
            exact: exact
                .into_iter()
                .map(|(slot, embedding)| CorpusHit { model: self.rank_of(slot), embedding })
                .collect(),
            approximate,
            candidates: candidates.into_iter().map(|s| self.rank_of(s)).collect(),
            truncated: truncated.into_iter().map(|s| self.rank_of(s)).collect(),
            failed: failed.into_iter().map(|s| self.rank_of(s)).collect(),
        }
    }

    /// Run `f` once per shard, fanned out one-shard-per-worker on the
    /// batch's shared pool. A single shard runs inline on the caller —
    /// the same code path, no pool touched. Results come back in shard
    /// order.
    fn scatter<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&IndexShard) -> R + Sync,
    {
        if self.shards.len() <= 1 {
            return self.shards.iter().map(&f).collect();
        }
        let mut cells: Vec<Option<R>> = Vec::new();
        cells.resize_with(self.shards.len(), || None);
        {
            let f = &f;
            let (head, tail) = cells.split_at_mut(1);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = tail
                .iter_mut()
                .zip(&self.shards[1..])
                .map(|(cell, shard)| {
                    Box::new(move || {
                        *cell = Some(f(shard));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            let head_cell = &mut head[0];
            let head_shard = &self.shards[0];
            self.batch.shared_pool().run_scoped(
                || {
                    *head_cell = Some(f(head_shard));
                },
                tasks,
            );
        }
        cells.into_iter().flatten().collect()
    }

    /// One shard's scatter step: generate its candidates and refine each
    /// one. Per-candidate faults are contained exactly as in the serial
    /// path; with a single shard a large candidate set additionally fans
    /// out per-candidate (the pre-shard parallelism), while multi-shard
    /// runs keep refinement inside the shard's worker.
    fn query_shard(
        &self,
        shard: &IndexShard,
        qa: &PreparedQuery,
        deadline: Option<Instant>,
    ) -> ShardAnswer {
        let candidates = self.shard_candidates(shard, qa);
        // A refinement that panics or overruns is contained to its own
        // candidate: unwinding is caught here, budget/deadline overrun is
        // reported by the search itself, and either way every other
        // candidate's verdict is untouched.
        let refine_one = |k: usize| -> Refined {
            catch_unwind(AssertUnwindSafe(|| {
                guard::fail_point(Site::Query(k));
                self.refine_limited(qa, candidates[k] as usize, deadline)
            }))
            .unwrap_or(Refined::Failed)
        };
        // Refinement of a typical (small) candidate set is microseconds —
        // below the cutoff, spawning workers costs more than it overlaps.
        // Results are identical either way.
        const PARALLEL_REFINE_THRESHOLD: usize = 16;
        let parallel = self.shards.len() == 1 && candidates.len() >= PARALLEL_REFINE_THRESHOLD;
        let refined: Vec<Refined> = if parallel {
            self.batch.map_jobs(candidates.len(), refine_one)
        } else {
            (0..candidates.len()).map(refine_one).collect()
        };
        let mut answer = ShardAnswer {
            exact: Vec::with_capacity(candidates.len()),
            ..ShardAnswer::default()
        };
        for (&slot, outcome) in candidates.iter().zip(refined) {
            match outcome {
                Refined::Hit(embedding) => answer.exact.push((slot, embedding)),
                Refined::Miss => {}
                Refined::Truncated => answer.truncated.push(slot),
                Refined::Failed => answer.failed.push(slot),
            }
        }
        answer.candidates = candidates;
        answer
    }

    /// Reference scan: run the VF2 refiner against **every** live corpus
    /// model with no candidate pruning, returning the models the query
    /// embeds in. [`MatchIndex::query_corpus`]'s exact hit set equals
    /// this by construction (property-tested); the `corpus_match` bench
    /// gates the speedup of the indexed path over this naïve one.
    pub fn naive_hits(&self, query: &Model) -> Vec<usize> {
        self.naive_hits_prepared(&self.prepare_query(query))
    }

    /// [`MatchIndex::naive_hits`] over an already-prepared query.
    pub fn naive_hits_prepared(&self, qa: &PreparedQuery) -> Vec<usize> {
        (0..self.live.len())
            .filter(|&rank| {
                let slot = self.live[rank] as usize;
                matches!(
                    find_embedding(&qa.graph, self.graph(slot), self.budget),
                    SearchOutcome::Found(_)
                )
            })
            .collect()
    }

    /// One shard's ranking step: every live model of the shard sharing
    /// at least one node, edge or participant posting with the query,
    /// scored by content-key Jaccard plus mapped fraction, plus the slots
    /// whose preparation could not be decoded to score them. Hit `model`
    /// fields are slots; the gather remaps them.
    fn rank_shard(&self, shard: &IndexShard, qa: &PreparedQuery) -> (Vec<ApproxHit>, Vec<u32>) {
        let mut pool: Vec<u32> = Vec::new();
        for key in &qa.node_keys {
            if let Some(list) = shard.node_postings.get(key.as_ref()) {
                pool.extend_from_slice(list);
            }
        }
        for key in &qa.edge_keys {
            if let Some(list) = shard.edge_postings.get(key.as_ref()) {
                pool.extend_from_slice(list);
            }
        }
        for key in &qa.participant_keys {
            if let Some(list) = shard.participant_postings.get(key.as_ref()) {
                pool.extend_from_slice(list);
            }
        }
        pool.sort_unstable();
        pool.dedup();
        pool.retain(|&s| !shard.is_dead(s));

        let mut hits = Vec::with_capacity(pool.len());
        let mut unreadable = Vec::new();
        for s in pool {
            let slot = s as usize;
            let scored = self
                .jaccard(&qa.content_keys, slot)
                .and_then(|jaccard| Ok((jaccard, self.mapped_fraction(qa, slot)?)));
            match scored {
                Ok((jaccard, mapped_fraction)) => hits.push(ApproxHit {
                    model: slot,
                    score: (jaccard + mapped_fraction) / 2.0,
                    jaccard,
                    mapped_fraction,
                }),
                Err(_) => unreadable.push(s),
            }
        }
        (hits, unreadable)
    }

    fn jaccard(&self, query_keys: &FastSet<Arc<str>>, slot: usize) -> Result<f64, &str> {
        let model_keys = self.content_keys_of(slot)?;
        if query_keys.is_empty() && model_keys.is_empty() {
            return Ok(1.0);
        }
        let shared = query_keys.iter().filter(|k| model_keys.contains(k.as_ref())).count();
        let union = query_keys.len() + model_keys.len() - shared;
        Ok(shared as f64 / union as f64)
    }

    fn mapped_fraction(&self, qa: &PreparedQuery, slot: usize) -> Result<f64, &str> {
        let graph = self.graph(slot);
        let total = qa.graph.node_count() + qa.graph.edge_count();
        if total == 0 {
            return Ok(1.0);
        }
        let participants = self.participants_of(slot)?;
        let mut mapped = 0usize;
        for n in 0..qa.graph.node_count() as u32 {
            if !graph.nodes_with_key(qa.graph.node_key(n)).is_empty() {
                mapped += 1;
            }
        }
        for e in 0..qa.graph.edge_count() as u32 {
            let edge = qa.graph.edge(e);
            let pkey = &qa.participant_keys[qa.graph.reaction_of(e)];
            if graph.has_edge_key(&edge.key) || participants.contains(pkey.as_ref()) {
                mapped += 1;
            }
        }
        Ok(mapped as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_model::builder::ModelBuilder;

    fn corpus_models() -> Vec<Model> {
        // Three models over a shared species pool; model 2 shares the
        // whole glycolysis step with model 0.
        let glyco = ModelBuilder::new("glyco")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .species("F6P", 0.0)
            .parameter("k1", 0.4)
            .parameter("k2", 0.3)
            .reaction("hex", &["glc"], &["G6P"], "k1*glc")
            .reaction("iso", &["G6P"], &["F6P"], "k2*G6P")
            .build();
        let tca = ModelBuilder::new("tca")
            .compartment("cell", 1.0)
            .species("citrate", 1.0)
            .species("isocitrate", 0.0)
            .parameter("k", 0.1)
            .reaction("aco", &["citrate"], &["isocitrate"], "k*citrate")
            .build();
        let super_glyco = ModelBuilder::new("super")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 2.0)
            .species("G6P", 0.0)
            .species("F6P", 0.0)
            .species("FBP", 0.0)
            .parameter("k1", 0.4)
            .parameter("k2", 0.3)
            .parameter("k3", 0.2)
            .reaction("hex", &["glc"], &["G6P"], "k1*glc")
            .reaction("iso", &["G6P"], &["F6P"], "k2*G6P")
            .reaction("pfk", &["F6P"], &["FBP"], "k3*F6P")
            .build();
        vec![glyco, tca, super_glyco]
    }

    fn prepared_corpus(options: &ComposeOptions) -> Vec<Arc<PreparedModel>> {
        BatchComposer::new(Composer::new(options.clone())).prepare_corpus(&corpus_models())
    }

    fn index(options: &ComposeOptions) -> MatchIndex {
        MatchIndex::build(&prepared_corpus(options), options)
    }

    fn fragment() -> Model {
        ModelBuilder::new("query")
            .compartment("cell", 1.0)
            .species_named("glc", "glucose", 5.0)
            .species("G6P", 0.0)
            .parameter("k1", 0.4)
            .reaction("hex", &["glc"], &["G6P"], "k1*glc")
            .build()
    }

    fn near_miss_query() -> Model {
        // G6P -> F6P exists, but with kinetics no corpus model carries.
        ModelBuilder::new("near")
            .compartment("cell", 1.0)
            .species("G6P", 0.0)
            .species("F6P", 0.0)
            .parameter("vmax", 2.0)
            .parameter("km", 3.0)
            .reaction("iso", &["G6P"], &["F6P"], "vmax*G6P/(km+G6P)")
            .build()
    }

    /// Both indexes answer the standard query battery identically —
    /// the incremental≡rebuild / sharded≡single-shard invariant.
    fn assert_same_answers(a: &MatchIndex, b: &MatchIndex, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: live corpus size");
        for query in [fragment(), Model::new("empty"), near_miss_query()] {
            assert_eq!(
                a.query_corpus(&query),
                b.query_corpus(&query),
                "{what}: query {:?}",
                query.id,
            );
        }
    }

    #[test]
    fn exact_hits_with_witness_mappings() {
        for options in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let idx = index(&options);
            let result = idx.query_corpus(&fragment());
            let models: Vec<usize> = result.exact.iter().map(|h| h.model).collect();
            assert_eq!(models, vec![0, 2], "fragment occurs in glyco and super");
            assert!(result.approximate.is_empty(), "exact hits suppress ranking");
            let hit = &result.exact[0];
            assert!(hit.embedding.species().any(|pair| pair == ("glc", "glc")));
            assert!(hit.embedding.reactions().any(|pair| pair == ("hex", "hex")));
        }
    }

    #[test]
    fn candidates_equal_naive_hit_superset() {
        let options = ComposeOptions::default();
        let idx = index(&options);
        let query = fragment();
        let candidates = idx.candidates(&query);
        let naive = idx.naive_hits(&query);
        for hit in &naive {
            assert!(candidates.contains(hit), "pruning must be sound");
        }
        let exact: Vec<usize> = idx.query_corpus(&query).exact.iter().map(|h| h.model).collect();
        assert_eq!(exact, naive);
    }

    #[test]
    fn miss_returns_ranked_approximates() {
        let options = ComposeOptions::default();
        let idx = index(&options);
        let result = idx.query_corpus(&near_miss_query());
        assert!(result.exact.is_empty());
        assert!(!result.approximate.is_empty(), "participant overlap must rank");
        let best = &result.approximate[0];
        assert!(best.model == 0 || best.model == 2, "a glycolysis model ranks first");
        assert!(best.score > 0.0 && best.score <= 1.0);
        assert!(best.mapped_fraction > 0.5, "both nodes + participant-matched edge map");
        // Scores descend.
        for pair in result.approximate.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn absent_species_prunes_all_candidates() {
        let options = ComposeOptions::default();
        let idx = index(&options);
        let alien = ModelBuilder::new("alien")
            .compartment("cell", 1.0)
            .species("unobtainium", 1.0)
            .build();
        assert!(idx.candidates(&alien).is_empty());
        let result = idx.query_corpus(&alien);
        assert!(result.exact.is_empty());
        assert!(result.approximate.is_empty(), "nothing shares a posting");
    }

    #[test]
    fn empty_query_matches_every_model() {
        let options = ComposeOptions::default();
        let idx = index(&options);
        let result = idx.query_corpus(&Model::new("empty"));
        let models: Vec<usize> = result.exact.iter().map(|h| h.model).collect();
        assert_eq!(models, vec![0, 1, 2]);
    }

    #[test]
    fn thread_count_never_changes_results() {
        let options = ComposeOptions::default();
        let query = fragment();
        let reference = index(&options).with_threads(1).query_corpus(&query);
        for threads in [2, 3, 8] {
            let result = index(&options).with_threads(threads).query_corpus(&query);
            assert_eq!(result, reference, "threads={threads}");
        }
    }

    #[test]
    fn synonym_queries_hit_under_light_and_heavy_only() {
        let heavy = ComposeOptions::default();
        // The query names the species "dextrose"; the corpus says
        // "glucose". Same id and kinetics, so heavy content keys align.
        let synonym_query = ModelBuilder::new("syn")
            .compartment("cell", 1.0)
            .species_named("glc", "dextrose", 5.0)
            .species("G6P", 0.0)
            .parameter("k1", 0.4)
            .reaction("hex", &["glc"], &["G6P"], "k1*glc")
            .build();
        let hits: Vec<usize> = index(&heavy)
            .query_corpus(&synonym_query)
            .exact
            .iter()
            .map(|h| h.model)
            .collect();
        assert_eq!(hits, vec![0, 2]);
        let none = ComposeOptions::none();
        assert!(index(&none).query_corpus(&synonym_query).exact.is_empty());
    }

    #[test]
    fn open_limits_leave_partial_lists_empty() {
        let options = ComposeOptions::default();
        let result = index(&options).query_corpus(&fragment());
        assert!(result.truncated.is_empty());
        assert!(result.failed.is_empty());
    }

    #[test]
    fn exhausted_budget_reports_truncated_candidates() {
        let options = ComposeOptions::default();
        let result = index(&options).with_budget(0).query_corpus(&fragment());
        assert!(result.exact.is_empty(), "no search steps, no verdicts");
        assert_eq!(result.truncated, result.candidates, "every undecided candidate is listed");
        assert!(result.failed.is_empty());
        assert!(!result.approximate.is_empty(), "a truncated query still ranks near-misses");
    }

    #[test]
    fn passed_deadline_reports_truncated_candidates() {
        let options = ComposeOptions::default();
        let result = index(&options).with_deadline_ms(0).query_corpus(&fragment());
        assert!(result.exact.is_empty());
        assert_eq!(result.truncated, result.candidates);
        assert!(!result.approximate.is_empty());
    }

    #[test]
    #[should_panic(expected = "different options")]
    fn fingerprint_mismatch_rejected() {
        let heavy = ComposeOptions::default();
        let batch = BatchComposer::new(Composer::new(heavy.clone()));
        let prepared = batch.prepare_corpus(&corpus_models());
        let _ = MatchIndex::build(&prepared, &ComposeOptions::light());
    }

    #[test]
    #[should_panic(expected = "different options")]
    fn insert_fingerprint_mismatch_rejected() {
        let heavy = ComposeOptions::default();
        let batch = BatchComposer::new(Composer::new(heavy.clone()));
        let prepared = batch.prepare_corpus(&corpus_models());
        let light = ComposeOptions::light();
        let mut idx = MatchIndex::build(&[], &light);
        let _ = idx.insert(Arc::clone(&prepared[0]));
    }

    #[test]
    fn incremental_growth_equals_fresh_build() {
        for options in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let corpus = prepared_corpus(&options);
            let mut grown = MatchIndex::build(&[], &options);
            for (i, p) in corpus.iter().enumerate() {
                assert_eq!(grown.insert(Arc::clone(p)), i, "insert returns the new rank");
            }
            let fresh = MatchIndex::build(&corpus, &options);
            assert_same_answers(&grown, &fresh, "grown vs fresh");
            assert_eq!(grown.posting_stats(), fresh.posting_stats());
        }
    }

    #[test]
    fn removal_equals_fresh_build_of_remaining() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build(&corpus, &options);
        let removed = idx.remove(1);
        assert!(
            removed.is_some_and(|p| p.model().id == "tca"),
            "remove returns the evicted preparation",
        );
        assert_eq!(idx.tombstoned_len(), 1);
        assert!(idx.remove(5).is_none(), "out-of-range removal is a no-op");
        let remaining = vec![Arc::clone(&corpus[0]), Arc::clone(&corpus[2])];
        let fresh = MatchIndex::build(&remaining, &options);
        assert_same_answers(&idx, &fresh, "after remove(1)");
    }

    #[test]
    fn reinserting_a_removed_model_matches_fresh_order() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build(&corpus, &options);
        let Some(glyco) = idx.remove(0) else {
            unreachable!("model 0 exists")
        };
        let Ok(glyco) = glyco.prepared().cloned() else {
            unreachable!("a built model is born decoded")
        };
        assert_eq!(idx.insert(glyco), 2, "re-inserted model goes to the end");
        // Live order is now tca, super, glyco — the fragment hits super
        // (rank 1) and glyco (rank 2).
        let hits: Vec<usize> =
            idx.query_corpus(&fragment()).exact.iter().map(|h| h.model).collect();
        assert_eq!(hits, vec![1, 2]);
        let reordered =
            vec![Arc::clone(&corpus[1]), Arc::clone(&corpus[2]), Arc::clone(&corpus[0])];
        let fresh = MatchIndex::build(&reordered, &options);
        assert_same_answers(&idx, &fresh, "after remove(0) + re-insert");
    }

    #[test]
    fn removing_every_model_leaves_empty_answers() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build(&corpus, &options);
        while !idx.is_empty() {
            assert!(idx.remove(0).is_some());
        }
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.tombstoned_len(), 3);
        for query in [fragment(), Model::new("empty"), near_miss_query()] {
            let result = idx.query_corpus(&query);
            assert!(result.exact.is_empty());
            assert!(result.approximate.is_empty());
            assert!(result.candidates.is_empty());
        }
        // The emptied index is still usable.
        let rank = idx.insert(Arc::clone(&corpus[0]));
        assert_eq!(rank, 0);
        let hits: Vec<usize> =
            idx.query_corpus(&fragment()).exact.iter().map(|h| h.model).collect();
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn empty_corpus_build_answers_empty() {
        let options = ComposeOptions::default();
        let idx = MatchIndex::build(&[], &options);
        assert!(idx.is_empty());
        assert_eq!(idx.posting_stats(), (0, 0, 0));
        for query in [fragment(), Model::new("empty")] {
            let result = idx.query_corpus(&query);
            assert_eq!(result, CorpusMatches {
                exact: Vec::new(),
                approximate: Vec::new(),
                candidates: Vec::new(),
                truncated: Vec::new(),
                failed: Vec::new(),
            });
        }
    }

    #[test]
    fn shard_counts_never_change_results() {
        for options in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let corpus = prepared_corpus(&options);
            let reference = MatchIndex::build(&corpus, &options);
            // 8 shards over 3 models: every shard holds at most one
            // model, most hold none.
            for shards in [1usize, 2, 3, 8] {
                let built = MatchIndex::build_sharded(&corpus, &options, 0, shards);
                assert_eq!(built.shard_count(), shards);
                assert_same_answers(&built, &reference, "build_sharded");
                let resharded = MatchIndex::build(&corpus, &options).with_shards(shards);
                assert_same_answers(&resharded, &reference, "with_shards");
            }
        }
    }

    #[test]
    fn sharded_incremental_mutation_equals_fresh() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build(&[], &options).with_shards(3);
        for p in &corpus {
            idx.insert(Arc::clone(p));
        }
        assert!(idx.remove(1).is_some());
        let remaining = vec![Arc::clone(&corpus[0]), Arc::clone(&corpus[2])];
        let fresh = MatchIndex::build(&remaining, &options);
        assert_same_answers(&idx, &fresh, "sharded grown vs fresh single-shard");
    }

    #[test]
    fn eager_compaction_preserves_answers() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build(&corpus, &options).with_compaction_threshold(0.0);
        let before = idx.generation();
        assert!(idx.remove(0).is_some());
        assert!(
            idx.shards().iter().all(|s| s.pending_tombstones() == 0),
            "threshold 0.0 compacts on every removal",
        );
        assert!(idx.generation() > before, "mutations bump the generation");
        let remaining = vec![Arc::clone(&corpus[1]), Arc::clone(&corpus[2])];
        let fresh = MatchIndex::build(&remaining, &options);
        assert_same_answers(&idx, &fresh, "compacted vs fresh");
        // Manual compaction with nothing pending is a no-op.
        let generation = idx.generation();
        idx.compact();
        assert_eq!(idx.generation(), generation);
    }

    #[test]
    fn shard_stats_reflect_membership() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build_sharded(&corpus, &options, 0, 2);
        // Slots 0, 2 land in shard 0; slot 1 in shard 1.
        assert_eq!(idx.shards()[0].live_models(), 2);
        assert_eq!(idx.shards()[1].live_models(), 1);
        assert!(idx.remove(1).is_some(), "tca lives in slot 1");
        let shard = &idx.shards()[1];
        assert_eq!(shard.live_models(), 0);
        assert_eq!(shard.tombstoned_models(), 1);
        // Its tombstone fraction hit 1.0 > the default threshold, so the
        // shard compacted immediately.
        assert_eq!(shard.pending_tombstones(), 0);
        assert_eq!(shard.tombstone_fraction(), 0.0);
        assert_eq!(shard.posting_stats(), (0, 0, 0));
        assert_eq!(idx.shards()[0].live_models(), 2, "other shard untouched");
    }

    #[test]
    fn raw_round_trip_preserves_query_results() {
        for options in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
        {
            let corpus = prepared_corpus(&options);
            let idx = MatchIndex::build(&corpus, &options);
            let Ok(rebuilt) = MatchIndex::from_raw(idx.to_raw(), &corpus, &options, 0) else {
                unreachable!("skeleton extracted from a live index is consistent")
            };
            assert_eq!(rebuilt.posting_stats(), idx.posting_stats());
            for query in [fragment(), Model::new("empty")] {
                assert_eq!(rebuilt.query_corpus(&query), idx.query_corpus(&query));
            }
        }
    }

    #[test]
    fn raw_round_trip_preserves_mutated_sharded_index() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let mut idx = MatchIndex::build_sharded(&corpus, &options, 0, 2);
        assert!(idx.remove(1).is_some());
        let live = idx.corpus().to_vec();
        let raw = idx.to_raw();
        let Ok(rebuilt) = MatchIndex::from_raw(raw, &live, &options, 0) else {
            unreachable!("skeleton extracted from a mutated index is consistent")
        };
        assert_eq!(rebuilt.generation(), idx.generation());
        assert_eq!(rebuilt.shard_count(), 2);
        assert_eq!(rebuilt.tombstoned_len(), 1);
        for (a, b) in rebuilt.shards().iter().zip(idx.shards()) {
            assert_eq!(a.generation(), b.generation());
            assert_eq!(a.live_models(), b.live_models());
            assert_eq!(a.tombstoned_models(), b.tombstoned_models());
        }
        assert_same_answers(&rebuilt, &idx, "raw round trip of mutated index");
    }

    #[test]
    fn inconsistent_raw_index_is_rejected() {
        let options = ComposeOptions::default();
        let corpus = prepared_corpus(&options);
        let idx = MatchIndex::build(&corpus, &options);
        let mut raw = idx.to_raw();
        raw.graphs.pop();
        assert!(MatchIndex::from_raw(raw, &corpus, &options, 0).is_err());
        let mut raw = idx.to_raw();
        if let Some((_, list)) = raw.shards[0].node_postings.first_mut() {
            list.push(1000); // slot id beyond the universe
        }
        assert!(MatchIndex::from_raw(raw, &corpus, &options, 0).is_err());
        let mut raw = idx.to_raw();
        raw.shards[0].members.push(999);
        assert!(
            MatchIndex::from_raw(raw, &corpus, &options, 0).is_err(),
            "a member outside the dense slot universe must be rejected",
        );
        let mut raw = idx.to_raw();
        raw.shards.clear();
        assert!(MatchIndex::from_raw(raw, &corpus, &options, 0).is_err());
        let raw = idx.to_raw();
        assert!(
            MatchIndex::from_raw(raw, &corpus, &ComposeOptions::light(), 0).is_err(),
            "fingerprint mismatch must be an error, not a panic",
        );
    }

    #[test]
    fn posting_stats_reflect_corpus() {
        let options = ComposeOptions::default();
        let idx = index(&options);
        let (nodes, edges, participants) = idx.posting_stats();
        assert!(nodes >= 5, "distinct species labels across the corpus");
        assert!(edges >= 4);
        assert!(participants >= 4);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }
}
