//! The Fig. 4 merge passes as standalone functions over *split* state.
//!
//! Every pass is a function over
//!
//! * a [`PassEnv`] — the cross-cutting state a pass touches (options, the
//!   push's in-flight ID mappings, the taken-id registry, the merge log,
//!   the two sides' evaluated initial values);
//! * a per-kind `*Mut` view bundling exactly the component list, indexes,
//!   delta indexes and cached keys that pass owns;
//! * read-only views of the at-most-two other kinds a pass consults
//!   ([`UnitsRead`] for unit resolution in conflict checks,
//!   [`CompartmentsRead`] for the species amount/concentration bridge).
//!
//! [`crate::session::CompositionSession`] runs the twelve passes in
//! Fig. 4 order over its own state; the split keeps each pass's reads and
//! writes explicit in its signature.

use std::borrow::Cow;
use std::sync::Arc;

use sbml_math::rewrite::{self, Resolver};
use sbml_math::MathExpr;
use sbml_model::rule::Constraint;
use sbml_model::{
    Compartment, CompartmentType, Event, FunctionDefinition, InitialAssignment, Model, Parameter,
    Reaction, Rule, Species, SpeciesType,
};
use sbml_units::convert::{
    conversion_factor, deterministic_to_stochastic, stochastic_to_deterministic, ReactionOrder,
};
use sbml_units::UnitDefinition;

use crate::cow::{CowIndex, CowKeys, CowList};
use crate::equality::{self, MappingTable, NoMap};
use crate::index::{ComponentIndex, FastSet};
use crate::keyrename;
use crate::initial_values::{IncrementalValues, InitialValues};
use crate::log::{EventKind, MergeLog};
use crate::options::{ComposeOptions, SemanticsLevel};
use crate::prepared::{IncomingKeys, Indexes, PreparedModel};

// ---------------------------------------------------------------------
// The incoming side of one push
// ---------------------------------------------------------------------

/// The incoming side of one push: the model plus whatever precomputed
/// analysis is available for it. Raw pushes carry only the model; prepared
/// pushes also carry the [`PreparedModel`]'s incoming keys, per-kind
/// indexes and evaluated initial values.
pub(crate) struct Incoming<'m> {
    pub(crate) model: &'m Model,
    pub(crate) keys: Option<&'m IncomingKeys>,
    pub(crate) idx: Option<&'m Indexes>,
    pub(crate) ivs: Option<&'m Arc<InitialValues>>,
}

impl<'m> Incoming<'m> {
    /// A raw push: no prepared indexes or initial values, and content
    /// keys only when the within-push parallel path precomputed them — the
    /// merge passes then treat those exactly as prepared-model keys,
    /// cached while the referenced ids are unmapped and recomputed
    /// otherwise.
    pub(crate) fn raw_with_keys(model: &'m Model, keys: Option<&'m IncomingKeys>) -> Incoming<'m> {
        Incoming { model, keys, idx: None, ivs: None }
    }

    pub(crate) fn prepared(p: &'m PreparedModel) -> Incoming<'m> {
        Incoming {
            model: p.model(),
            keys: Some(&p.incoming),
            idx: Some(&p.analysis().idx),
            ivs: Some(&p.initial_values),
        }
    }

    /// Species lookup through the prepared index when available (ROADMAP:
    /// conflict-check lookups stop being linear scans), else the model's
    /// own linear scan. First-wins index semantics match first-match scans.
    fn species_by_id(&self, id: &str) -> Option<&'m Species> {
        match self.idx {
            Some(ix) => ix.species_by_id.get(id).map(|pos| &self.model.species[pos]),
            None => self.model.species_by_id(id),
        }
    }

    /// Compartment lookup, index-backed when prepared.
    fn compartment_by_id(&self, id: &str) -> Option<&'m Compartment> {
        match self.idx {
            Some(ix) => ix.compartments_by_id.get(id).map(|pos| &self.model.compartments[pos]),
            None => self.model.compartment_by_id(id),
        }
    }

    /// Resolve a units reference against this model, index-backed when
    /// prepared, falling back to SBML builtins.
    fn resolve_units(&self, units: Option<&str>) -> Option<UnitDefinition> {
        let id = units?;
        match self.idx {
            Some(ix) => {
                ix.units_by_id.get(id).map(|pos| self.model.unit_definitions[pos].clone())
            }
            None => self.model.unit_definitions.iter().find(|u| u.id == id).cloned(),
        }
        .or_else(|| sbml_units::definition::builtin(id))
    }
}

// ---------------------------------------------------------------------
// Cross-cutting pass state: mappings, taken ids, initial values
// ---------------------------------------------------------------------

/// A 256-bit first-byte index over mapping-source ids. Mapping tables are
/// probed for *every* identifier of every formula a pass touches; most
/// probes miss, and most misses are decidable from the identifier's first
/// byte alone (a push's mapping sources cluster on a handful of prefixes).
/// One branch + bit test replaces a hash probe on those misses. The mask
/// is a superset filter: false positives fall through to the real lookup,
/// false negatives cannot happen (every insert sets its bit, nothing is
/// ever removed mid-push).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PrefixMask([u64; 4]);

impl PrefixMask {
    pub(crate) fn insert(&mut self, id: &str) {
        if let Some(&b) = id.as_bytes().first() {
            self.0[(b >> 6) as usize] |= 1 << (b & 63);
        }
    }

    fn may_contain(&self, id: &str) -> bool {
        match id.as_bytes().first() {
            Some(&b) => self.0[(b >> 6) as usize] & (1 << (b & 63)) != 0,
            None => false,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.0 = [0; 4];
    }
}

/// The in-flight ID mapping state a pass runs over: the session's
/// per-push table plus the [`PrefixMask`] over its sources.
pub(crate) struct MapStore<'a> {
    pub(crate) table: &'a mut MappingTable,
    pub(crate) mask: &'a mut PrefixMask,
}

impl MapStore<'_> {
    pub(crate) fn get(&self, id: &str) -> Option<&str> {
        if !self.mask.may_contain(id) {
            return None;
        }
        self.table.get(id).map(String::as_str)
    }

    pub(crate) fn contains(&self, id: &str) -> bool {
        self.get(id).is_some()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    fn add(&mut self, from: String, to: String) {
        if from == to {
            return;
        }
        self.mask.insert(&from);
        self.table.insert(from, to);
    }
}

impl Resolver for MapStore<'_> {
    fn resolve(&self, id: &str) -> Option<&str> {
        self.get(id)
    }

    fn is_identity(&self) -> bool {
        self.is_empty()
    }
}

/// A mapping view with a set of ids hidden — kinetic-law local parameters
/// shadow the global mapping table inside their law. (An overlay needs no
/// remove/restore of the table's entries.)
struct HideIds<'a, 'b> {
    inner: &'a MapStore<'b>,
    hidden: &'a [&'a str],
}

impl Resolver for HideIds<'_, '_> {
    fn resolve(&self, id: &str) -> Option<&str> {
        if self.hidden.contains(&id) {
            None
        } else {
            self.inner.get(id)
        }
    }

    fn is_identity(&self) -> bool {
        self.inner.is_empty()
    }
}

/// The taken-global-id registry: an immutable base set (shared by `Arc`
/// with a [`PreparedModel`] when one is adopted as the accumulator) plus
/// this session's own additions. Splitting the two makes adopting a
/// prepared base a refcount bump instead of a clone of every id string.
#[derive(Debug, Clone)]
pub(crate) struct IdRegistry {
    base: Arc<FastSet<String>>,
    added: FastSet<String>,
}

impl IdRegistry {
    pub(crate) fn new() -> IdRegistry {
        IdRegistry { base: Arc::new(FastSet::default()), added: FastSet::default() }
    }

    pub(crate) fn contains(&self, id: &str) -> bool {
        self.base.contains(id) || self.added.contains(id)
    }

    pub(crate) fn insert(&mut self, id: String) {
        self.added.insert(id);
    }

    /// Replace the whole registry with a new base set.
    pub(crate) fn reset(&mut self, base: Arc<FastSet<String>>) {
        self.base = base;
        self.added.clear();
    }

    /// Has any push registered an id beyond the shared base set? Used by
    /// the COW restore path to assert a stayed-shared push really touched
    /// nothing.
    pub(crate) fn has_additions(&self) -> bool {
        !self.added.is_empty()
    }
}

/// Accumulator-side initial values as of the start of the push.
pub(crate) enum IvA<'a> {
    Store(&'a IncrementalValues),
    Snap(&'a InitialValues),
}

impl IvA<'_> {
    fn get(&self, id: &str) -> Option<f64> {
        match self {
            IvA::Store(store) => store.get(id),
            IvA::Snap(values) => values.get(id),
        }
    }
}

// ---------------------------------------------------------------------
// Read-only cross-kind views
// ---------------------------------------------------------------------

/// Merged-side unit definitions + by-id index: the only accumulator state
/// a non-units pass resolves units against (conflict checks).
pub(crate) struct UnitsRead<'a> {
    pub(crate) list: &'a [UnitDefinition],
    pub(crate) by_id: &'a ComponentIndex,
}

impl UnitsRead<'_> {
    /// Resolve a units reference against the accumulator through the
    /// persistent by-id index (ROADMAP: `resolve_units` was a linear scan
    /// inside conflict checks), falling back to SBML builtins.
    fn resolve(&self, units: Option<&str>) -> Option<UnitDefinition> {
        let id = units?;
        self.by_id
            .get(id)
            .map(|pos| self.list[pos].clone())
            .or_else(|| sbml_units::definition::builtin(id))
    }
}

/// Merged-side compartments + by-id index, for the species pass's
/// amount-vs-concentration reconciliation.
pub(crate) struct CompartmentsRead<'a> {
    pub(crate) list: &'a [Compartment],
    pub(crate) by_id: &'a ComponentIndex,
}

impl CompartmentsRead<'_> {
    fn by_id(&self, id: &str) -> Option<&Compartment> {
        self.by_id.get(id).map(|pos| &self.list[pos])
    }
}

// ---------------------------------------------------------------------
// Per-kind mutable state views
// ---------------------------------------------------------------------

// Accumulator-side lists, persistent indexes and key caches arrive as
// copy-on-write wrappers ([`crate::cow`]): reads go through `Deref` into
// the shared base, the first append/insert materialises that kind. The
// per-push delta indexes stay plain — they start empty every push.

pub(crate) struct FunctionsMut<'a> {
    pub(crate) list: &'a mut CowList<FunctionDefinition>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_content: &'a mut CowIndex,
    pub(crate) delta_by_content: &'a mut ComponentIndex,
    pub(crate) keys: &'a mut CowKeys,
}

pub(crate) struct UnitsMut<'a> {
    pub(crate) list: &'a mut CowList<UnitDefinition>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_content: &'a mut CowIndex,
    pub(crate) keys: &'a mut CowKeys,
}

pub(crate) struct CompartmentTypesMut<'a> {
    pub(crate) list: &'a mut CowList<CompartmentType>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_name: &'a mut CowIndex,
    pub(crate) delta_by_name: &'a mut ComponentIndex,
}

pub(crate) struct SpeciesTypesMut<'a> {
    pub(crate) list: &'a mut CowList<SpeciesType>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_name: &'a mut CowIndex,
    pub(crate) delta_by_name: &'a mut ComponentIndex,
}

pub(crate) struct CompartmentsMut<'a> {
    pub(crate) list: &'a mut CowList<Compartment>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_name: &'a mut CowIndex,
    pub(crate) delta_by_name: &'a mut ComponentIndex,
}

pub(crate) struct SpeciesMut<'a> {
    pub(crate) list: &'a mut CowList<Species>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_name: &'a mut CowIndex,
    pub(crate) delta_by_name: &'a mut ComponentIndex,
}

pub(crate) struct ParametersMut<'a> {
    pub(crate) list: &'a mut CowList<Parameter>,
    pub(crate) by_id: &'a mut CowIndex,
}

pub(crate) struct AssignmentsMut<'a> {
    pub(crate) list: &'a mut CowList<InitialAssignment>,
    pub(crate) by_symbol: &'a mut CowIndex,
}

pub(crate) struct RulesMut<'a> {
    pub(crate) list: &'a mut CowList<Rule>,
    pub(crate) by_content: &'a mut CowIndex,
    pub(crate) by_variable: &'a mut CowIndex,
    pub(crate) delta_by_content: &'a mut ComponentIndex,
}

pub(crate) struct ConstraintsMut<'a> {
    pub(crate) list: &'a mut CowList<Constraint>,
    pub(crate) by_content: &'a mut CowIndex,
    pub(crate) delta_by_content: &'a mut ComponentIndex,
}

pub(crate) struct ReactionsMut<'a> {
    pub(crate) list: &'a mut CowList<Reaction>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_content: &'a mut CowIndex,
    pub(crate) delta_by_content: &'a mut ComponentIndex,
    pub(crate) keys: &'a mut CowKeys,
}

pub(crate) struct EventsMut<'a> {
    pub(crate) list: &'a mut CowList<Event>,
    pub(crate) by_id: &'a mut CowIndex,
    pub(crate) by_content: &'a mut CowIndex,
    pub(crate) delta_by_content: &'a mut ComponentIndex,
    pub(crate) keys: &'a mut CowKeys,
}

// ---------------------------------------------------------------------
// The pass environment
// ---------------------------------------------------------------------

/// Everything a merge pass touches besides its own kind's component state.
pub(crate) struct PassEnv<'a> {
    pub(crate) options: &'a ComposeOptions,
    pub(crate) maps: MapStore<'a>,
    pub(crate) taken: &'a mut IdRegistry,
    pub(crate) log: &'a mut MergeLog,
    pub(crate) iv_a: IvA<'a>,
    pub(crate) iv_b: &'a InitialValues,
}

impl PassEnv<'_> {
    fn add_mapping(&mut self, from: impl Into<String>, to: impl Into<String>) {
        self.maps.add(from.into(), to.into());
    }

    fn map_id<'x>(&'x self, id: &'x str) -> &'x str {
        self.maps.get(id).unwrap_or(id)
    }

    fn map_string(&self, s: &str) -> String {
        self.map_id(s).to_owned()
    }

    fn map_opt(&self, s: &Option<String>) -> Option<String> {
        s.as_ref().map(|v| self.map_string(v))
    }

    /// [`rewrite::rename_in_place`] under this pass's mapping view — for
    /// maths the pass already owns (a component cloned for insertion),
    /// where rebuilding a second tree would be pure waste.
    fn map_math_in_place(&self, math: &mut MathExpr) {
        if self.maps.is_empty() {
            return;
        }
        rewrite::rename_in_place(math, &self.maps);
    }

    /// Is a component with the given prepared reference set untouched by
    /// the current push's mappings (so every `map_*`/`map_math` over it is
    /// the identity)? Without prepared refs, only an empty mapping table
    /// guarantees that.
    fn refs_clean(&self, refs: Option<&[Arc<str>]>) -> bool {
        match refs {
            Some(refs) => {
                self.maps.is_empty() || refs.iter().all(|r| !self.maps.contains(r.as_ref()))
            }
            None => self.maps.is_empty(),
        }
    }

    /// Fresh id based on `base`, registering it as taken.
    fn fresh_id(&mut self, base: &str) -> String {
        if !self.taken.contains(base) {
            self.taken.insert(base.to_owned());
            return base.to_owned();
        }
        for n in 1.. {
            let candidate = format!("{base}_{n}");
            if !self.taken.contains(&candidate) {
                self.taken.insert(candidate.clone());
                return candidate;
            }
        }
        unreachable!("id space exhausted")
    }

    /// Register an id as taken when inserting a B component verbatim, or
    /// rename it if an unrelated component holds it. Returns the final id
    /// and logs the rename.
    fn claim_id(&mut self, kind: &'static str, id: &str) -> String {
        if self.taken.contains(id) {
            let fresh = self.fresh_id(id);
            self.add_mapping(id, fresh.clone());
            self.log.push(
                EventKind::Renamed,
                kind,
                id,
                fresh.clone(),
                "id already taken by an unrelated component",
            );
            fresh
        } else {
            self.taken.insert(id.to_owned());
            id.to_owned()
        }
    }

    /// Accumulator-side initial value of `id` as of the start of the
    /// current push. (The incremental store is only extended in
    /// `finish_push`, so mid-push reads always see the pre-push state,
    /// exactly like the batch snapshot.)
    fn iv_a_get(&self, id: &str) -> Option<f64> {
        self.iv_a.get(id)
    }

    /// Is the cached-key incremental-rename fast path available? Heavy
    /// semantics only: light/none math key sections are infix text, not
    /// canonical pattern text, so only the heavy form can be renamed in
    /// place. Keys produced through the fast path are byte-identical to a
    /// full recompute (property-tested at the `sbml-math` and key layers).
    fn key_rename_on(&self) -> bool {
        self.options.incremental_key_rename && self.options.semantics == SemanticsLevel::Heavy
    }

    fn values_agree(&self, a: Option<f64>, b: Option<f64>) -> bool {
        equality::values_agree(a, b)
    }

    // Canonical keys under this pass's mapping view (`mapped`) or none.

    fn name_key(&self, id: &str, name: Option<&str>) -> String {
        equality::name_key(self.options, id, name)
    }

    fn math_key(&self, math: &MathExpr, mapped: bool) -> String {
        if mapped {
            equality::math_key(self.options, math, &self.maps)
        } else {
            equality::math_key(self.options, math, &NoMap)
        }
    }

    fn unit_key(&self, def: &UnitDefinition) -> String {
        equality::unit_key(self.options, def)
    }

    fn function_key(&self, f: &FunctionDefinition, mapped: bool) -> String {
        if mapped {
            equality::function_key(self.options, f, &self.maps)
        } else {
            equality::function_key(self.options, f, &NoMap)
        }
    }

    fn rule_key(&self, rule: &Rule, mapped: bool) -> String {
        if mapped {
            equality::rule_key(self.options, rule, &self.maps)
        } else {
            equality::rule_key(self.options, rule, &NoMap)
        }
    }

    fn constraint_key(&self, math: &MathExpr, mapped: bool) -> String {
        if mapped {
            equality::constraint_key(self.options, math, &self.maps)
        } else {
            equality::constraint_key(self.options, math, &NoMap)
        }
    }

    fn reaction_key(&self, r: &Reaction, mapped: bool) -> String {
        if mapped {
            equality::reaction_key(self.options, r, &self.maps)
        } else {
            equality::reaction_key(self.options, r, &NoMap)
        }
    }

    fn event_key(&self, ev: &Event, mapped: bool) -> String {
        if mapped {
            equality::event_key(self.options, ev, &self.maps)
        } else {
            equality::event_key(self.options, ev, &NoMap)
        }
    }
}

// ---------------------------------------------------------------------
// Shared key helpers
// ---------------------------------------------------------------------

/// One incoming component's canonical key: a shared reference into the
/// [`PreparedModel`]'s key store, or a key computed on the spot. Cached
/// keys are only used where they are byte-identical to what the raw path
/// would compute (see [`crate::prepared`] module docs).
enum IncomingKey<'a> {
    Cached(&'a Arc<str>),
    Computed(String),
}

impl IncomingKey<'_> {
    fn as_str(&self) -> &str {
        match self {
            IncomingKey::Cached(k) => k,
            IncomingKey::Computed(s) => s,
        }
    }

    /// Intern as `Arc<str>`: refcount bump for cached keys, one allocation
    /// for computed ones.
    fn to_arc(&self) -> Arc<str> {
        match self {
            IncomingKey::Cached(k) => Arc::clone(k),
            IncomingKey::Computed(s) => Arc::from(s.as_str()),
        }
    }

    /// Insert into an index, sharing the `Arc` when cached.
    fn insert_into(&self, index: &mut ComponentIndex, pos: usize) -> bool {
        match self {
            IncomingKey::Cached(k) => index.insert_shared(k, pos),
            IncomingKey::Computed(s) => index.insert(s, pos),
        }
    }
}

/// The `K[...]` section of a canonical reaction key (see
/// [`crate::equality::reaction_key`]'s format
/// `rxn:R[..];P[..];M[..];K[math]:rev=bool`). The math section may
/// contain almost any character (light/none-semantics keys are infix
/// text with `=`, and patterns contain `[`/`]` for piecewise), so the
/// markers rely on position, not alphabet: participant items are
/// `id*stoich` (SBML ids are word characters, no `;` or `[`), making the
/// FIRST `;K[` the true section start, and nothing but the literal
/// `true`/`false` follows the terminator, making the LAST `]:rev=` the
/// true section end. Do not swap `find`/`rfind` here.
pub(crate) fn key_math_section(key: &str) -> Option<&str> {
    let start = key.find(";K[")? + 3;
    let end = key.rfind("]:rev=")?;
    key.get(start..end)
}

// ---------------------------------------------------------------------
// Fig. 4 line 1: function definitions
// ---------------------------------------------------------------------

fn function_key_matches(env: &PassEnv<'_>, st: &FunctionsMut<'_>, pos: usize, key: &str) -> bool {
    if let Some(cached) = st.keys.get(pos) {
        cached.as_ref() == key
    } else {
        env.function_key(&st.list[pos], false) == key
    }
}

pub(crate) fn functions(env: &mut PassEnv<'_>, st: &mut FunctionsMut<'_>, inc: &Incoming<'_>) {
    for (i, f) in inc.model.function_definitions.iter().enumerate() {
        let content_key = match inc.keys {
            Some(keys) if env.refs_clean(Some(&keys.refs(inc.model).functions[i])) => {
                IncomingKey::Cached(&keys.functions[i])
            }
            Some(keys) if env.key_rename_on() => IncomingKey::Computed(
                keyrename::function_key(&keys.functions[i], &env.maps)
                    .unwrap_or_else(|| env.function_key(f, true)),
            ),
            _ => IncomingKey::Computed(env.function_key(f, true)),
        };
        let content_key_str = content_key.as_str();
        if let Some(pos) = st.by_id.get(&f.id) {
            if function_key_matches(env, st, pos, content_key_str) {
                env.log.push(
                    EventKind::Duplicate,
                    "functionDefinition",
                    &f.id,
                    &f.id,
                    "identical definition",
                );
            } else {
                env.log.push(
                    EventKind::Conflict,
                    "functionDefinition",
                    &f.id,
                    &f.id,
                    "same id, different body; first model wins",
                );
            }
            continue;
        }
        let content_pos = st
            .by_content
            .get(content_key_str)
            .or_else(|| st.delta_by_content.get(content_key_str));
        if let Some(pos) = content_pos {
            let target = st.list[pos].id.clone();
            env.add_mapping(&f.id, &target);
            env.log.push(
                EventKind::Mapped,
                "functionDefinition",
                &f.id,
                target,
                "equivalent body (α-renaming/commutativity)",
            );
            continue;
        }
        let final_id = env.claim_id("functionDefinition", &f.id);
        let mut nf = f.clone();
        nf.id = final_id.clone();
        if !env.refs_clean(inc.keys.map(|k| k.refs(inc.model).functions[i].as_ref())) {
            env.map_math_in_place(&mut nf.body);
        }
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        content_key.insert_into(st.delta_by_content, pos);
        st.list.push(nf);
        env.log.push(EventKind::Added, "functionDefinition", &f.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 2: unit definitions
// ---------------------------------------------------------------------

fn unit_key_matches(env: &PassEnv<'_>, st: &UnitsMut<'_>, pos: usize, key: &str) -> bool {
    if let Some(cached) = st.keys.get(pos) {
        cached.as_ref() == key
    } else {
        env.unit_key(&st.list[pos]) == key
    }
}

pub(crate) fn units(env: &mut PassEnv<'_>, st: &mut UnitsMut<'_>, inc: &Incoming<'_>) {
    for (i, u) in inc.model.unit_definitions.iter().enumerate() {
        // Unit keys never depend on ID mappings — always reusable.
        let content_key = match inc.keys {
            Some(keys) => IncomingKey::Cached(&keys.units[i]),
            None => IncomingKey::Computed(env.unit_key(u)),
        };
        let content_key_str = content_key.as_str();
        if let Some(pos) = st.by_id.get(&u.id) {
            if unit_key_matches(env, st, pos, content_key_str) {
                env.log.push(EventKind::Duplicate, "unitDefinition", &u.id, &u.id, "same units");
            } else {
                let ours = &st.list[pos];
                env.log.push(
                    EventKind::Conflict,
                    "unitDefinition",
                    &u.id,
                    &u.id,
                    format!(
                        "same id, different units ({} vs {}); first model wins",
                        ours.signature(),
                        u.signature()
                    ),
                );
            }
            continue;
        }
        if let Some(pos) = st.by_content.get(content_key_str) {
            let target = st.list[pos].id.clone();
            env.add_mapping(&u.id, &target);
            env.log.push(
                EventKind::Mapped,
                "unitDefinition",
                &u.id,
                target,
                "equivalent unit signature",
            );
            continue;
        }
        let final_id = env.claim_id("unitDefinition", &u.id);
        let mut nu = u.clone();
        nu.id = final_id.clone();
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        // A unit's content key is invariant under renaming and
        // mappings, so it can enter the persistent index immediately.
        let key = content_key.to_arc();
        st.by_content.insert_shared(&key, pos);
        if env.options.cache_content_keys {
            st.keys.push(key);
        }
        st.list.push(nu);
        env.log.push(EventKind::Added, "unitDefinition", &u.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 lines 3–4: compartment types, species types
// ---------------------------------------------------------------------

pub(crate) fn compartment_types(
    env: &mut PassEnv<'_>,
    st: &mut CompartmentTypesMut<'_>,
    inc: &Incoming<'_>,
) {
    for (i, t) in inc.model.compartment_types.iter().enumerate() {
        // Name keys never depend on ID mappings — always reusable.
        let name_key = match inc.keys {
            Some(keys) => IncomingKey::Cached(&keys.compartment_types[i]),
            None => IncomingKey::Computed(env.name_key(&t.id, t.name.as_deref())),
        };
        if st.by_id.get(&t.id).is_some() {
            env.log.push(EventKind::Duplicate, "compartmentType", &t.id, &t.id, "same id");
            continue;
        }
        let name_pos = st
            .by_name
            .get(name_key.as_str())
            .or_else(|| st.delta_by_name.get(name_key.as_str()));
        if let Some(pos) = name_pos {
            let target = st.list[pos].id.clone();
            env.add_mapping(&t.id, &target);
            env.log.push(EventKind::Mapped, "compartmentType", &t.id, target, "synonymous name");
            continue;
        }
        let final_id = env.claim_id("compartmentType", &t.id);
        let mut nt = t.clone();
        nt.id = final_id.clone();
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        name_key.insert_into(st.delta_by_name, pos);
        st.list.push(nt);
        env.log.push(EventKind::Added, "compartmentType", &t.id, final_id, "new");
    }
}

pub(crate) fn species_types(
    env: &mut PassEnv<'_>,
    st: &mut SpeciesTypesMut<'_>,
    inc: &Incoming<'_>,
) {
    for (i, t) in inc.model.species_types.iter().enumerate() {
        let name_key = match inc.keys {
            Some(keys) => IncomingKey::Cached(&keys.species_types[i]),
            None => IncomingKey::Computed(env.name_key(&t.id, t.name.as_deref())),
        };
        if st.by_id.get(&t.id).is_some() {
            env.log.push(EventKind::Duplicate, "speciesType", &t.id, &t.id, "same id");
            continue;
        }
        let name_pos = st
            .by_name
            .get(name_key.as_str())
            .or_else(|| st.delta_by_name.get(name_key.as_str()));
        if let Some(pos) = name_pos {
            let target = st.list[pos].id.clone();
            env.add_mapping(&t.id, &target);
            env.log.push(EventKind::Mapped, "speciesType", &t.id, target, "synonymous name");
            continue;
        }
        let final_id = env.claim_id("speciesType", &t.id);
        let mut nt = t.clone();
        nt.id = final_id.clone();
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        name_key.insert_into(st.delta_by_name, pos);
        st.list.push(nt);
        env.log.push(EventKind::Added, "speciesType", &t.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 5: compartments
// ---------------------------------------------------------------------

fn compartment_sizes_agree(
    env: &PassEnv<'_>,
    units: &UnitsRead<'_>,
    ours: &Compartment,
    theirs: &Compartment,
    inc: &Incoming<'_>,
) -> bool {
    let va = ours.size.or_else(|| env.iv_a_get(&ours.id));
    let vb = theirs.size.or_else(|| env.iv_b.get(&theirs.id));
    if env.values_agree(va, vb) {
        return true;
    }
    if env.options.semantics != SemanticsLevel::Heavy {
        return false;
    }
    // Try unit conversion (e.g. litres vs millilitres).
    let (Some(va), Some(vb)) = (va, vb) else { return false };
    let (Some(ua), Some(ub)) =
        (units.resolve(ours.units.as_deref()), inc.resolve_units(theirs.units.as_deref()))
    else {
        return false;
    };
    match conversion_factor(&ub, &ua) {
        Some(factor) => env.values_agree(Some(va), Some(vb * factor)),
        None => false,
    }
}

pub(crate) fn compartments(
    env: &mut PassEnv<'_>,
    st: &mut CompartmentsMut<'_>,
    units: &UnitsRead<'_>,
    inc: &Incoming<'_>,
) {
    for (i, c) in inc.model.compartments.iter().enumerate() {
        let name_key = match inc.keys {
            Some(keys) => IncomingKey::Cached(&keys.compartments[i]),
            None => IncomingKey::Computed(env.name_key(&c.id, c.name.as_deref())),
        };
        let matched = st.by_id.get(&c.id).map(|pos| (pos, true)).or_else(|| {
            st.by_name
                .get(name_key.as_str())
                .or_else(|| st.delta_by_name.get(name_key.as_str()))
                .map(|pos| (pos, false))
        });
        if let Some((pos, by_identifier)) = matched {
            let ours = &st.list[pos];
            let target = ours.id.clone();
            let sizes_agree = compartment_sizes_agree(env, units, ours, c, inc);
            if !by_identifier {
                env.add_mapping(&c.id, &target);
            }
            if sizes_agree && st.list[pos].spatial_dimensions == c.spatial_dimensions {
                env.log.push(
                    if by_identifier { EventKind::Duplicate } else { EventKind::Mapped },
                    "compartment",
                    &c.id,
                    target,
                    "same compartment",
                );
            } else {
                env.log.push(
                    EventKind::Conflict,
                    "compartment",
                    &c.id,
                    target,
                    format!(
                        "attributes differ (size {:?} vs {:?}); first model wins",
                        st.list[pos].size, c.size
                    ),
                );
            }
            continue;
        }
        let final_id = env.claim_id("compartment", &c.id);
        let mut nc = c.clone();
        nc.id = final_id.clone();
        nc.compartment_type = env.map_opt(&c.compartment_type);
        nc.units = env.map_opt(&c.units);
        nc.outside = env.map_opt(&c.outside);
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        name_key.insert_into(st.delta_by_name, pos);
        st.list.push(nc);
        env.log.push(EventKind::Added, "compartment", &c.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 6: species
// ---------------------------------------------------------------------

/// Initial-value agreement with Fig. 6 unit awareness:
/// direct comparison → substance-unit conversion → amount vs
/// concentration reconciliation through the compartment volume.
fn species_values_agree(
    env: &PassEnv<'_>,
    units: &UnitsRead<'_>,
    comps: &CompartmentsRead<'_>,
    ours: &Species,
    theirs: &Species,
    inc: &Incoming<'_>,
) -> bool {
    let va = ours.initial_value().or_else(|| env.iv_a_get(&ours.id));
    let vb = theirs.initial_value().or_else(|| env.iv_b.get(&theirs.id));
    if env.values_agree(va, vb) {
        return true;
    }
    if env.options.semantics != SemanticsLevel::Heavy {
        return false;
    }
    let (Some(va), Some(vb)) = (va, vb) else { return false };

    // Substance-unit conversion (e.g. mole vs millimole).
    if let (Some(ua), Some(ub)) = (
        units.resolve(ours.substance_units.as_deref()),
        inc.resolve_units(theirs.substance_units.as_deref()),
    ) {
        if let Some(factor) = conversion_factor(&ub, &ua) {
            if env.values_agree(Some(va), Some(vb * factor)) {
                return true;
            }
        }
    }

    // Amount vs concentration: amount = concentration × volume.
    let vol_a = comps
        .by_id(&ours.compartment)
        .and_then(|c| c.size)
        .or_else(|| env.iv_a_get(&ours.compartment));
    let vol_b = inc
        .compartment_by_id(&theirs.compartment)
        .and_then(|c| c.size)
        .or_else(|| env.iv_b.get(&theirs.compartment));
    if let (Some(amount), Some(conc), Some(vol)) =
        (ours.initial_amount, theirs.initial_concentration, vol_b)
    {
        if env.values_agree(Some(amount), Some(conc * vol)) {
            return true;
        }
    }
    match (ours.initial_concentration, theirs.initial_amount, vol_a) {
        (Some(conc), Some(amount), Some(vol))
            if vol != 0.0 && env.values_agree(Some(conc), Some(amount / vol)) =>
        {
            return true;
        }
        _ => {}
    }
    false
}

pub(crate) fn species(
    env: &mut PassEnv<'_>,
    st: &mut SpeciesMut<'_>,
    units: &UnitsRead<'_>,
    comps: &CompartmentsRead<'_>,
    inc: &Incoming<'_>,
) {
    for (i, s) in inc.model.species.iter().enumerate() {
        let name_key = match inc.keys {
            Some(keys) => IncomingKey::Cached(&keys.species[i]),
            None => IncomingKey::Computed(env.name_key(&s.id, s.name.as_deref())),
        };
        let matched = st.by_id.get(&s.id).map(|pos| (pos, true)).or_else(|| {
            st.by_name
                .get(name_key.as_str())
                .or_else(|| st.delta_by_name.get(name_key.as_str()))
                .map(|pos| (pos, false))
        });
        if let Some((pos, by_identifier)) = matched {
            let ours = &st.list[pos];
            let target = ours.id.clone();
            let compartments_match = ours.compartment == env.map_id(&s.compartment);
            let values_ok = species_values_agree(env, units, comps, ours, s, inc);
            if !by_identifier {
                env.add_mapping(&s.id, &target);
            }
            if compartments_match && values_ok {
                env.log.push(
                    if by_identifier { EventKind::Duplicate } else { EventKind::Mapped },
                    "species",
                    &s.id,
                    target,
                    "same species",
                );
            } else {
                let reason = if !compartments_match {
                    "compartments differ; first model wins"
                } else {
                    "initial values differ; first model wins"
                };
                env.log.push(EventKind::Conflict, "species", &s.id, target, reason);
            }
            continue;
        }
        let final_id = env.claim_id("species", &s.id);
        let mut ns = s.clone();
        ns.id = final_id.clone();
        ns.compartment = env.map_string(&s.compartment);
        ns.species_type = env.map_opt(&s.species_type);
        ns.substance_units = env.map_opt(&s.substance_units);
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        name_key.insert_into(st.delta_by_name, pos);
        st.list.push(ns);
        env.log.push(EventKind::Added, "species", &s.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 7: parameters (always kept; renamed on clash — §3)
// ---------------------------------------------------------------------

fn parameter_values_agree(
    env: &PassEnv<'_>,
    units: &UnitsRead<'_>,
    ours: &Parameter,
    theirs: &Parameter,
    inc: &Incoming<'_>,
) -> bool {
    let va = ours.value.or_else(|| env.iv_a_get(&ours.id));
    let vb = theirs.value.or_else(|| env.iv_b.get(&theirs.id));
    if env.values_agree(va, vb) {
        return true;
    }
    if env.options.semantics != SemanticsLevel::Heavy {
        return false;
    }
    let (Some(va), Some(vb)) = (va, vb) else { return false };
    if let (Some(ua), Some(ub)) =
        (units.resolve(ours.units.as_deref()), inc.resolve_units(theirs.units.as_deref()))
    {
        if let Some(factor) = conversion_factor(&ub, &ua) {
            return env.values_agree(Some(va), Some(vb * factor));
        }
    }
    false
}

pub(crate) fn parameters(
    env: &mut PassEnv<'_>,
    st: &mut ParametersMut<'_>,
    units: &UnitsRead<'_>,
    inc: &Incoming<'_>,
) {
    for p in &inc.model.parameters {
        if let Some(pos) = st.by_id.get(&p.id) {
            let ours_value = st.list[pos].value;
            if parameter_values_agree(env, units, &st.list[pos], p, inc) {
                env.log.push(EventKind::Duplicate, "parameter", &p.id, &p.id, "same id and value");
            } else {
                // Keep both: rename the incoming one (paper §3). The
                // renamed parameter stays out of the by-id index until
                // the push ends, as in the per-pass rebuild.
                let fresh = env.fresh_id(&p.id);
                env.add_mapping(&p.id, &fresh);
                let mut np = p.clone();
                np.id = fresh.clone();
                np.units = env.map_opt(&p.units);
                st.list.push(np);
                env.log.push(
                    EventKind::Conflict,
                    "parameter",
                    &p.id,
                    fresh.clone(),
                    format!(
                        "values differ ({:?} vs {:?}); both kept, incoming renamed",
                        ours_value, p.value
                    ),
                );
                env.log.push(
                    EventKind::Renamed,
                    "parameter",
                    &p.id,
                    fresh,
                    "renamed to avoid conflict",
                );
            }
            continue;
        }
        // Different id: always include (no content matching for
        // parameters — the paper: "there is no way of confirming
        // whether they are intended to be equal or not").
        let final_id = env.claim_id("parameter", &p.id);
        let mut np = p.clone();
        np.id = final_id.clone();
        np.units = env.map_opt(&p.units);
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        st.list.push(np);
        env.log.push(EventKind::Added, "parameter", &p.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Initial assignments (collected before merge; conflict-checked here)
// ---------------------------------------------------------------------

pub(crate) fn initial_assignments(
    env: &mut PassEnv<'_>,
    st: &mut AssignmentsMut<'_>,
    inc: &Incoming<'_>,
) {
    for ia in &inc.model.initial_assignments {
        let symbol = env.map_string(&ia.symbol);
        if let Some(pos) = st.by_symbol.get(&symbol) {
            let ours = &st.list[pos];
            let math_equal = env.math_key(&ours.math, false) == env.math_key(&ia.math, true);
            // The paper's improvement over semanticSBML: evaluate the
            // maths and compare values when structure differs.
            let values_equal = env.options.collect_initial_values
                && env.values_agree(env.iv_a_get(&ours.symbol), env.iv_b.get(&ia.symbol));
            if math_equal || values_equal {
                env.log.push(
                    EventKind::Duplicate,
                    "initialAssignment",
                    &ia.symbol,
                    symbol,
                    if math_equal { "same maths" } else { "same evaluated value" },
                );
            } else {
                env.log.push(
                    EventKind::Conflict,
                    "initialAssignment",
                    &ia.symbol,
                    symbol,
                    "different initial maths for one symbol; first model wins",
                );
            }
            continue;
        }
        let mut nia = ia.clone();
        nia.symbol = symbol.clone();
        env.map_math_in_place(&mut nia.math);
        st.by_symbol.insert(&symbol, st.list.len());
        st.list.push(nia);
        env.log.push(EventKind::Added, "initialAssignment", &ia.symbol, symbol, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 8: rules
// ---------------------------------------------------------------------

pub(crate) fn rules(env: &mut PassEnv<'_>, st: &mut RulesMut<'_>, inc: &Incoming<'_>) {
    for (i, r) in inc.model.rules.iter().enumerate() {
        let content_key = match inc.keys {
            Some(keys) if env.refs_clean(Some(&keys.refs(inc.model).rules[i])) => {
                IncomingKey::Cached(&keys.rules[i])
            }
            Some(keys) if env.key_rename_on() => IncomingKey::Computed(
                keyrename::rule_key(&keys.rules[i], &env.maps)
                    .unwrap_or_else(|| env.rule_key(r, true)),
            ),
            _ => IncomingKey::Computed(env.rule_key(r, true)),
        };
        let label = r.variable().unwrap_or("<algebraic>").to_owned();
        if st
            .by_content
            .get(content_key.as_str())
            .or_else(|| st.delta_by_content.get(content_key.as_str()))
            .is_some()
        {
            env.log.push(EventKind::Duplicate, "rule", &label, &label, "identical rule");
            continue;
        }
        if let Some(v) = r.variable() {
            let mapped_v = env.map_string(v);
            if st.by_variable.get(&mapped_v).is_some() {
                env.log.push(
                    EventKind::Conflict,
                    "rule",
                    &label,
                    mapped_v,
                    "variable already ruled with different maths; first model wins",
                );
                continue;
            }
        }
        let mut nr = r.clone();
        if !env.refs_clean(inc.keys.map(|k| k.refs(inc.model).rules[i].as_ref())) {
            match &mut nr {
                Rule::Algebraic { math } => env.map_math_in_place(math),
                Rule::Assignment { variable, math } | Rule::Rate { variable, math } => {
                    *variable = env.map_string(variable);
                    env.map_math_in_place(math);
                }
            }
        }
        let pos = st.list.len();
        content_key.insert_into(st.delta_by_content, pos);
        if let Some(v) = nr.variable() {
            st.by_variable.insert(v, pos);
        }
        st.list.push(nr);
        env.log.push(EventKind::Added, "rule", &label, &label, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 9: constraints
// ---------------------------------------------------------------------

pub(crate) fn constraints(env: &mut PassEnv<'_>, st: &mut ConstraintsMut<'_>, inc: &Incoming<'_>) {
    for (idx, c) in inc.model.constraints.iter().enumerate() {
        let key = match inc.keys {
            Some(keys) if env.refs_clean(Some(&keys.refs(inc.model).constraints[idx])) => {
                IncomingKey::Cached(&keys.constraints[idx])
            }
            Some(keys) if env.key_rename_on() => IncomingKey::Computed(
                keyrename::constraint_key(&keys.constraints[idx], &env.maps)
                    .unwrap_or_else(|| env.constraint_key(&c.math, true)),
            ),
            _ => IncomingKey::Computed(env.constraint_key(&c.math, true)),
        };
        let label = format!("#{idx}");
        if st
            .by_content
            .get(key.as_str())
            .or_else(|| st.delta_by_content.get(key.as_str()))
            .is_some()
        {
            env.log.push(EventKind::Duplicate, "constraint", &label, &label, "identical");
            continue;
        }
        let mut nc = c.clone();
        if !env.refs_clean(inc.keys.map(|k| k.refs(inc.model).constraints[idx].as_ref())) {
            env.map_math_in_place(&mut nc.math);
        }
        key.insert_into(st.delta_by_content, st.list.len());
        st.list.push(nc);
        env.log.push(EventKind::Added, "constraint", &label, &label, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 10: reactions (the most involved kind)
// ---------------------------------------------------------------------

/// Participant-list equality as the canonical key would decide it
/// (sorted `id*stoich` multisets, incoming ids mapped), without
/// building the canonical string.
fn participants_match(
    env: &PassEnv<'_>,
    ours: &[sbml_model::SpeciesReference],
    theirs: &[sbml_model::SpeciesReference],
) -> bool {
    if ours.len() != theirs.len() {
        return false;
    }
    // Stoichiometries compare as their canonical-key text would:
    // `Display` for f64 is injective up to bit pattern for non-NaN
    // values (all NaNs print "NaN"), so compare bits with NaN folded.
    let stoich_key = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
    let mut a: Vec<(&str, u64)> =
        ours.iter().map(|sr| (sr.species.as_str(), stoich_key(sr.stoichiometry))).collect();
    let mut b: Vec<(&str, u64)> = theirs
        .iter()
        .map(|sr| (env.map_id(&sr.species), stoich_key(sr.stoichiometry)))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// Id-hit comparison for reactions: exactly equivalent to comparing
/// the merged reaction's canonical key with the incoming mapped key,
/// but ordered cheapest-first — reversibility, then participant
/// multisets (no string building), then the kinetic-law pattern, for
/// which both sides' cached key sections are reused while valid.
fn reaction_matches(
    env: &PassEnv<'_>,
    st: &ReactionsMut<'_>,
    pos: usize,
    theirs: &Reaction,
    inc: &Incoming<'_>,
    i: usize,
) -> bool {
    let ours = &st.list[pos];
    if ours.reversible != theirs.reversible {
        return false;
    }
    if !participants_match(env, &ours.reactants, &theirs.reactants)
        || !participants_match(env, &ours.products, &theirs.products)
        || !participants_match(env, &ours.modifiers, &theirs.modifiers)
    {
        return false;
    }
    let ours_math: Cow<'_, str> = match st.keys.get(pos).and_then(|k| key_math_section(k)) {
        Some(section) => Cow::Borrowed(section),
        None => Cow::Owned(match &ours.kinetic_law {
            Some(kl) => env.math_key(&kl.math, false),
            None => "-".to_owned(),
        }),
    };
    let cached_theirs = match inc.keys {
        Some(keys) if env.refs_clean(Some(&keys.refs(inc.model).reaction_math[i])) => {
            key_math_section(&keys.reactions[i])
        }
        _ => None,
    };
    let theirs_math: Cow<'_, str> = match cached_theirs {
        Some(section) => Cow::Borrowed(section),
        None => {
            // Mapped refs: derive the mapped section from the cached one
            // by incremental rename when available, else re-canonicalise.
            let fast = match inc.keys {
                Some(keys) if env.key_rename_on() => {
                    keyrename::reaction_math_section(&keys.reactions[i], &env.maps)
                }
                _ => None,
            };
            Cow::Owned(fast.unwrap_or_else(|| match &theirs.kinetic_law {
                Some(kl) => env.math_key(&kl.math, true),
                None => "-".to_owned(),
            }))
        }
    };
    ours_math == theirs_math
}

/// The volume relevant to a reaction of the second model: the size of
/// the compartment of its first reactant (or product).
fn reaction_volume(env: &PassEnv<'_>, r: &Reaction, inc: &Incoming<'_>) -> Option<f64> {
    let species_id =
        r.reactants.first().or_else(|| r.products.first()).map(|sr| sr.species.as_str())?;
    let species = inc.species_by_id(species_id)?;
    inc.compartment_by_id(&species.compartment)
        .and_then(|c| c.size)
        .or_else(|| env.iv_b.get(&species.compartment))
}

/// Matched reactions may still disagree on local rate-constant values;
/// the paper resolves "conflicts in rate constants and stoichiometry
/// within reactions" via Fig. 6 conversions before declaring a conflict.
fn reconcile_reaction_locals(
    env: &mut PassEnv<'_>,
    st: &ReactionsMut<'_>,
    units: &UnitsRead<'_>,
    merged_pos: usize,
    theirs: &Reaction,
    inc: &Incoming<'_>,
) {
    let volume = reaction_volume(env, theirs, inc).unwrap_or(1.0);
    let order = ReactionOrder::from_reactant_count(theirs.reactant_molecule_count());
    let ours_law = &st.list[merged_pos].kinetic_law;
    let (Some(ours_kl), Some(theirs_kl)) = (ours_law, &theirs.kinetic_law) else {
        env.log.push(
            EventKind::Duplicate,
            "reaction",
            &theirs.id,
            st.list[merged_pos].id.clone(),
            "same reaction",
        );
        return;
    };
    let mut all_ok = true;
    for tp in &theirs_kl.parameters {
        let Some(op) = ours_kl.parameters.iter().find(|p| p.id == tp.id) else {
            continue;
        };
        if env.values_agree(op.value, tp.value) {
            continue;
        }
        // Try plain unit conversion between the declared units.
        let mut reconciled = false;
        if env.options.semantics == SemanticsLevel::Heavy {
            if let (Some(ua), Some(ub), Some(va), Some(vb)) = (
                units.resolve(op.units.as_deref()),
                inc.resolve_units(tp.units.as_deref()),
                op.value,
                tp.value,
            ) {
                if let Some(factor) = conversion_factor(&ub, &ua) {
                    reconciled = env.values_agree(Some(va), Some(vb * factor));
                }
            }
            // Fig. 6 deterministic ↔ stochastic rate constant bridge.
            if !reconciled {
                if let (Some(order), Some(va), Some(vb)) = (order, op.value, tp.value) {
                    let as_stoch = deterministic_to_stochastic(vb, order, volume);
                    let as_det = stochastic_to_deterministic(vb, order, volume);
                    reconciled = env.values_agree(Some(va), Some(as_stoch))
                        || env.values_agree(Some(va), Some(as_det));
                }
            }
        }
        let final_id = st.list[merged_pos].id.clone();
        if reconciled {
            env.log.push(
                EventKind::Warning,
                "reaction",
                &theirs.id,
                final_id,
                format!(
                    "rate constant '{}' agrees after unit conversion (paper Fig. 6)",
                    tp.id
                ),
            );
        } else {
            all_ok = false;
            env.log.push(
                EventKind::Conflict,
                "reaction",
                &theirs.id,
                final_id,
                format!(
                    "local parameter '{}' differs ({:?} vs {:?}); first model wins",
                    tp.id, op.value, tp.value
                ),
            );
        }
    }
    if all_ok {
        env.log.push(
            EventKind::Duplicate,
            "reaction",
            &theirs.id,
            st.list[merged_pos].id.clone(),
            "same reaction",
        );
    }
}

pub(crate) fn reactions(
    env: &mut PassEnv<'_>,
    st: &mut ReactionsMut<'_>,
    units: &UnitsRead<'_>,
    inc: &Incoming<'_>,
) {
    // Pattern cache ablation: when disabled, keys are recomputed per
    // lookup through a linear rescan instead of being stored.
    let cache = env.options.cache_patterns;
    for (i, r) in inc.model.reactions.iter().enumerate() {
        if let Some(pos) = st.by_id.get(&r.id) {
            if reaction_matches(env, st, pos, r, inc, i) {
                reconcile_reaction_locals(env, st, units, pos, r, inc);
            } else {
                env.log.push(
                    EventKind::Conflict,
                    "reaction",
                    &r.id,
                    &r.id,
                    "same id, different reaction; first model wins",
                );
            }
            continue;
        }
        let content_key = match inc.keys {
            Some(keys) if env.refs_clean(Some(&keys.refs(inc.model).reactions[i])) => {
                IncomingKey::Cached(&keys.reactions[i])
            }
            Some(keys) if env.key_rename_on() => IncomingKey::Computed(
                keyrename::reaction_key(&keys.reactions[i], &env.maps)
                    .unwrap_or_else(|| env.reaction_key(r, true)),
            ),
            _ => IncomingKey::Computed(env.reaction_key(r, true)),
        };
        let content_key_str = content_key.as_str();
        let content_pos = if cache {
            st.by_content
                .get(content_key_str)
                .or_else(|| st.delta_by_content.get(content_key_str))
        } else {
            // no cache: rescan and recompute every time
            st.list.iter().position(|ours| env.reaction_key(ours, false) == content_key_str)
        };
        if let Some(pos) = content_pos {
            let target = st.list[pos].id.clone();
            env.add_mapping(&r.id, &target);
            env.log.push(
                EventKind::Mapped,
                "reaction",
                &r.id,
                target,
                "same participants and kinetics",
            );
            reconcile_reaction_locals(env, st, units, pos, r, inc);
            continue;
        }
        let final_id = env.claim_id("reaction", &r.id);
        let mut nr = r.clone();
        nr.id = final_id.clone();
        if !env.refs_clean(inc.keys.map(|k| k.refs(inc.model).reactions[i].as_ref())) {
            for sr in nr.reactants.iter_mut().chain(&mut nr.products).chain(&mut nr.modifiers) {
                sr.species = env.map_string(&sr.species);
            }
            if let Some(kl) = &mut nr.kinetic_law {
                // The law's local parameters shadow the mapping table:
                // rename through an overlay that hides them.
                if !env.maps.is_empty() {
                    let locals: Vec<&str> =
                        kl.parameters.iter().map(|p| p.id.as_str()).collect();
                    rewrite::rename_in_place(
                        &mut kl.math,
                        &HideIds { inner: &env.maps, hidden: &locals },
                    );
                }
            }
        }
        let pos = st.list.len();
        st.by_id.insert(&final_id, pos);
        if cache {
            content_key.insert_into(st.delta_by_content, pos);
        }
        st.list.push(nr);
        env.log.push(EventKind::Added, "reaction", &r.id, final_id, "new");
    }
}

// ---------------------------------------------------------------------
// Fig. 4 line 11: events
// ---------------------------------------------------------------------

fn event_key_matches(env: &PassEnv<'_>, st: &EventsMut<'_>, pos: usize, key: &str) -> bool {
    if let Some(cached) = st.keys.get(pos) {
        cached.as_ref() == key
    } else {
        env.event_key(&st.list[pos], false) == key
    }
}

pub(crate) fn events(env: &mut PassEnv<'_>, st: &mut EventsMut<'_>, inc: &Incoming<'_>) {
    for (idx, ev) in inc.model.events.iter().enumerate() {
        let label = ev.id.clone().unwrap_or_else(|| format!("#{idx}"));
        let content_key = match inc.keys {
            Some(keys) if env.refs_clean(Some(&keys.refs(inc.model).events[idx])) => {
                IncomingKey::Cached(&keys.events[idx])
            }
            Some(keys) if env.key_rename_on() => IncomingKey::Computed(
                keyrename::event_key(&keys.events[idx], &env.maps)
                    .unwrap_or_else(|| env.event_key(ev, true)),
            ),
            _ => IncomingKey::Computed(env.event_key(ev, true)),
        };
        if let Some(id) = &ev.id {
            if let Some(pos) = st.by_id.get(id) {
                if event_key_matches(env, st, pos, content_key.as_str()) {
                    env.log.push(EventKind::Duplicate, "event", &label, id, "identical");
                } else {
                    env.log.push(
                        EventKind::Conflict,
                        "event",
                        &label,
                        id,
                        "same id, different event; first model wins",
                    );
                }
                continue;
            }
        }
        let content_pos = st
            .by_content
            .get(content_key.as_str())
            .or_else(|| st.delta_by_content.get(content_key.as_str()));
        if let Some(pos) = content_pos {
            let target = st.list[pos].id.clone().unwrap_or_else(|| format!("@{pos}"));
            if let Some(id) = &ev.id {
                if target != format!("@{pos}") {
                    env.add_mapping(id, &target);
                }
            }
            env.log.push(EventKind::Mapped, "event", &label, target, "identical behaviour");
            continue;
        }
        let mut nev = ev.clone();
        if let Some(id) = &ev.id {
            nev.id = Some(env.claim_id("event", id));
        }
        if !env.refs_clean(inc.keys.map(|k| k.refs(inc.model).events[idx].as_ref())) {
            env.map_math_in_place(&mut nev.trigger);
            if let Some(d) = &mut nev.delay {
                env.map_math_in_place(d);
            }
            for a in &mut nev.assignments {
                a.variable = env.map_string(&a.variable);
                env.map_math_in_place(&mut a.math);
            }
        }
        let pos = st.list.len();
        if let Some(id) = &nev.id {
            st.by_id.insert(id, pos);
        }
        content_key.insert_into(st.delta_by_content, pos);
        let final_label = nev.id.clone().unwrap_or_else(|| label.clone());
        st.list.push(nev);
        env.log.push(EventKind::Added, "event", &label, final_label, "new");
    }
}
