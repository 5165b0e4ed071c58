//! Copy-on-write accumulator state for zero-copy base adoption.
//!
//! A [`crate::session::CompositionSession`] that adopts an
//! `Arc<PreparedModel>` base starts with **no owned copy of anything**:
//! the accumulator is [`Accum::Shared`], and for the duration of each push
//! the per-kind component lists, persistent indexes and interned key
//! caches are wrapped in [`CowList`] / [`CowIndex`] / [`CowKeys`] values
//! that `Deref` into the shared base for reads and clone the underlying
//! kind lazily on first mutation. A push that matches every incoming
//! component against the base (a MATCH miss probe or a Duplicate-only
//! composition) therefore never copies the base at all — the session's
//! fixed cost is a handful of `Arc` refcount bumps.
//!
//! The at-rest invariant is deliberately binary: between pushes the
//! accumulator is either *fully shared* ([`Accum::Shared`], nothing
//! cloned) or *fully owned* ([`Accum::Owned`], a plain [`Model`] exactly
//! as a clone-based session would hold). The first push that materialises
//! **any** kind consolidates the remaining kinds at the end of that push
//! (each untouched kind is cloned from the base once, at restore time),
//! so `CompositionSession::model` can keep returning `&Model` without
//! stitching per-kind fragments back together. Laziness is per-kind
//! *within* a push — a push that only appends species clones only the
//! species list and indexes while the passes run — and all-or-nothing
//! *across* pushes.

use std::ops::Deref;
use std::sync::Arc;

use sbml_model::rule::Constraint;
use sbml_model::{
    Compartment, CompartmentType, Event, FunctionDefinition, InitialAssignment, Model, Parameter,
    Reaction, Rule, Species, SpeciesType,
};
use sbml_units::UnitDefinition;

use crate::index::ComponentIndex;
use crate::prepared::{Indexes, KeyCache, PreparedModel};
use crate::session::DeltaIndexes;

/// The session accumulator: the shared base (zero-copy) or an owned
/// model (exactly what a clone-based session holds). Never mixed at rest.
#[derive(Debug, Clone)]
pub(crate) enum Accum {
    /// Still bit-identical to the adopted base; nothing has been cloned.
    Shared(Arc<PreparedModel>),
    /// Materialised (or never base-adopted): a plain owned model.
    Owned(Model),
}

impl Accum {
    pub(crate) fn model(&self) -> &Model {
        match self {
            Accum::Shared(base) => base.model(),
            Accum::Owned(m) => m,
        }
    }

    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, Accum::Shared(_))
    }

    /// The owned model, materialising (one full clone) if still shared.
    pub(crate) fn into_model(self) -> Model {
        match self {
            Accum::Shared(base) => base.model().clone(),
            Accum::Owned(m) => m,
        }
    }
}

/// One component-kind list, shared with the base until first append.
pub(crate) enum CowList<T: Clone + 'static> {
    Shared { base: Arc<PreparedModel>, proj: fn(&Model) -> &Vec<T> },
    Owned(Vec<T>),
}

impl<T: Clone> Default for CowList<T> {
    fn default() -> Self {
        CowList::Owned(Vec::new())
    }
}

impl<T: Clone> Deref for CowList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            CowList::Shared { base, proj } => proj(base.model()),
            CowList::Owned(v) => v,
        }
    }
}

impl<T: Clone> CowList<T> {
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, CowList::Shared { .. })
    }

    /// Mutable access, cloning the base list on first call.
    pub(crate) fn make_mut(&mut self) -> &mut Vec<T> {
        if let CowList::Shared { base, proj } = self {
            *self = CowList::Owned(proj(base.model()).clone());
        }
        match self {
            CowList::Owned(v) => v,
            CowList::Shared { .. } => unreachable!("materialised above"),
        }
    }

    /// Append, materialising on first use (the only mutation the merge
    /// passes perform on accumulator lists — existing entries are never
    /// edited in place, so sharing stays sound).
    pub(crate) fn push(&mut self, value: T) {
        self.make_mut().push(value);
    }

    /// The owned list, cloning from the base if still shared.
    pub(crate) fn into_owned(self) -> Vec<T> {
        match self {
            CowList::Shared { base, proj } => proj(base.model()).clone(),
            CowList::Owned(v) => v,
        }
    }
}

/// One persistent per-kind index, shared with the base analysis until
/// first insert.
pub(crate) enum CowIndex {
    Shared { base: Arc<PreparedModel>, proj: fn(&Indexes) -> &ComponentIndex },
    Owned(ComponentIndex),
}

impl Default for CowIndex {
    fn default() -> Self {
        CowIndex::Owned(ComponentIndex::Linear(Vec::new()))
    }
}

impl Deref for CowIndex {
    type Target = ComponentIndex;

    fn deref(&self) -> &ComponentIndex {
        match self {
            CowIndex::Shared { base, proj } => proj(&base.analysis().idx),
            CowIndex::Owned(ix) => ix,
        }
    }
}

impl CowIndex {
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, CowIndex::Shared { .. })
    }

    fn make_mut(&mut self) -> &mut ComponentIndex {
        if let CowIndex::Shared { base, proj } = self {
            *self = CowIndex::Owned(proj(&base.analysis().idx).clone());
        }
        match self {
            CowIndex::Owned(ix) => ix,
            CowIndex::Shared { .. } => unreachable!("materialised above"),
        }
    }

    /// [`ComponentIndex::insert`], materialising on first use.
    pub(crate) fn insert(&mut self, key: &str, position: usize) -> bool {
        // First-wins: a key already present in the shared base can never
        // be inserted, so probe through the shared view before cloning.
        if self.contains(key) {
            return false;
        }
        self.make_mut().insert(key, position)
    }

    /// [`ComponentIndex::insert_shared`], materialising on first use.
    pub(crate) fn insert_shared(&mut self, key: &Arc<str>, position: usize) -> bool {
        if self.contains(key) {
            return false;
        }
        self.make_mut().insert_shared(key, position)
    }

    /// The owned index, cloning from the base if still shared.
    pub(crate) fn into_owned(self) -> ComponentIndex {
        match self {
            CowIndex::Shared { base, proj } => proj(&base.analysis().idx).clone(),
            CowIndex::Owned(ix) => ix,
        }
    }
}

/// One interned content-key cache column, shared with the base until
/// first append.
pub(crate) enum CowKeys {
    Shared { base: Arc<PreparedModel>, proj: fn(&KeyCache) -> &Vec<Arc<str>> },
    Owned(Vec<Arc<str>>),
}

impl Default for CowKeys {
    fn default() -> Self {
        CowKeys::Owned(Vec::new())
    }
}

impl Deref for CowKeys {
    type Target = [Arc<str>];

    fn deref(&self) -> &[Arc<str>] {
        match self {
            CowKeys::Shared { base, proj } => proj(&base.analysis().keys),
            CowKeys::Owned(v) => v,
        }
    }
}

impl CowKeys {
    pub(crate) fn is_shared(&self) -> bool {
        matches!(self, CowKeys::Shared { .. })
    }

    /// Append, materialising on first use.
    pub(crate) fn push(&mut self, key: Arc<str>) {
        if let CowKeys::Shared { base, proj } = self {
            *self = CowKeys::Owned(proj(&base.analysis().keys).clone());
        }
        match self {
            CowKeys::Owned(v) => v.push(key),
            CowKeys::Shared { .. } => unreachable!("materialised above"),
        }
    }

    /// The owned key column, cloning from the base if still shared.
    pub(crate) fn into_owned(self) -> Vec<Arc<str>> {
        match self {
            CowKeys::Shared { base, proj } => proj(&base.analysis().keys).clone(),
            CowKeys::Owned(v) => v,
        }
    }
}

/// Everything one push's merge passes mutate, taken out of the session
/// for the duration of the push and restored afterwards by
/// `CompositionSession::restore_cow_state`. The per-push delta indexes
/// stay plain [`ComponentIndex`] — they start empty every push and are
/// never shared with a base.
pub(crate) struct CowState {
    pub(crate) functions: CowList<FunctionDefinition>,
    pub(crate) functions_by_id: CowIndex,
    pub(crate) functions_by_content: CowIndex,
    pub(crate) functions_delta: ComponentIndex,
    pub(crate) functions_keys: CowKeys,
    pub(crate) units: CowList<UnitDefinition>,
    pub(crate) units_by_id: CowIndex,
    pub(crate) units_by_content: CowIndex,
    pub(crate) units_keys: CowKeys,
    pub(crate) compartment_types: CowList<CompartmentType>,
    pub(crate) compartment_types_by_id: CowIndex,
    pub(crate) compartment_types_by_name: CowIndex,
    pub(crate) compartment_types_delta: ComponentIndex,
    pub(crate) species_types: CowList<SpeciesType>,
    pub(crate) species_types_by_id: CowIndex,
    pub(crate) species_types_by_name: CowIndex,
    pub(crate) species_types_delta: ComponentIndex,
    pub(crate) compartments: CowList<Compartment>,
    pub(crate) compartments_by_id: CowIndex,
    pub(crate) compartments_by_name: CowIndex,
    pub(crate) compartments_delta: ComponentIndex,
    pub(crate) species: CowList<Species>,
    pub(crate) species_by_id: CowIndex,
    pub(crate) species_by_name: CowIndex,
    pub(crate) species_delta: ComponentIndex,
    pub(crate) parameters: CowList<Parameter>,
    pub(crate) parameters_by_id: CowIndex,
    pub(crate) assignments: CowList<InitialAssignment>,
    pub(crate) assignments_by_symbol: CowIndex,
    pub(crate) rules: CowList<Rule>,
    pub(crate) rules_by_content: CowIndex,
    pub(crate) rules_by_variable: CowIndex,
    pub(crate) rules_delta: ComponentIndex,
    pub(crate) constraints: CowList<Constraint>,
    pub(crate) constraints_by_content: CowIndex,
    pub(crate) constraints_delta: ComponentIndex,
    pub(crate) reactions: CowList<Reaction>,
    pub(crate) reactions_by_id: CowIndex,
    pub(crate) reactions_by_content: CowIndex,
    pub(crate) reactions_delta: ComponentIndex,
    pub(crate) reactions_keys: CowKeys,
    pub(crate) events: CowList<Event>,
    pub(crate) events_by_id: CowIndex,
    pub(crate) events_by_content: CowIndex,
    pub(crate) events_delta: ComponentIndex,
    pub(crate) events_keys: CowKeys,
}

impl CowState {
    /// Share every kind with the adopted base; only the per-push delta
    /// indexes are (empty) owned values.
    pub(crate) fn from_shared(base: &Arc<PreparedModel>, delta: &mut DeltaIndexes) -> CowState {
        let b = || Arc::clone(base);
        CowState {
            functions: CowList::Shared { base: b(), proj: |m| &m.function_definitions },
            functions_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.functions_by_id },
            functions_by_content: CowIndex::Shared { base: b(), proj: |ix| &ix.functions_by_content },
            functions_delta: take_idx(&mut delta.functions_by_content),
            functions_keys: CowKeys::Shared { base: b(), proj: |k| &k.functions },
            units: CowList::Shared { base: b(), proj: |m| &m.unit_definitions },
            units_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.units_by_id },
            units_by_content: CowIndex::Shared { base: b(), proj: |ix| &ix.units_by_content },
            units_keys: CowKeys::Shared { base: b(), proj: |k| &k.units },
            compartment_types: CowList::Shared { base: b(), proj: |m| &m.compartment_types },
            compartment_types_by_id: CowIndex::Shared {
                base: b(),
                proj: |ix| &ix.compartment_types_by_id,
            },
            compartment_types_by_name: CowIndex::Shared {
                base: b(),
                proj: |ix| &ix.compartment_types_by_name,
            },
            compartment_types_delta: take_idx(&mut delta.compartment_types_by_name),
            species_types: CowList::Shared { base: b(), proj: |m| &m.species_types },
            species_types_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.species_types_by_id },
            species_types_by_name: CowIndex::Shared {
                base: b(),
                proj: |ix| &ix.species_types_by_name,
            },
            species_types_delta: take_idx(&mut delta.species_types_by_name),
            compartments: CowList::Shared { base: b(), proj: |m| &m.compartments },
            compartments_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.compartments_by_id },
            compartments_by_name: CowIndex::Shared {
                base: b(),
                proj: |ix| &ix.compartments_by_name,
            },
            compartments_delta: take_idx(&mut delta.compartments_by_name),
            species: CowList::Shared { base: b(), proj: |m| &m.species },
            species_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.species_by_id },
            species_by_name: CowIndex::Shared { base: b(), proj: |ix| &ix.species_by_name },
            species_delta: take_idx(&mut delta.species_by_name),
            parameters: CowList::Shared { base: b(), proj: |m| &m.parameters },
            parameters_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.parameters_by_id },
            assignments: CowList::Shared { base: b(), proj: |m| &m.initial_assignments },
            assignments_by_symbol: CowIndex::Shared {
                base: b(),
                proj: |ix| &ix.assignments_by_symbol,
            },
            rules: CowList::Shared { base: b(), proj: |m| &m.rules },
            rules_by_content: CowIndex::Shared { base: b(), proj: |ix| &ix.rules_by_content },
            rules_by_variable: CowIndex::Shared { base: b(), proj: |ix| &ix.rules_by_variable },
            rules_delta: take_idx(&mut delta.rules_by_content),
            constraints: CowList::Shared { base: b(), proj: |m| &m.constraints },
            constraints_by_content: CowIndex::Shared {
                base: b(),
                proj: |ix| &ix.constraints_by_content,
            },
            constraints_delta: take_idx(&mut delta.constraints_by_content),
            reactions: CowList::Shared { base: b(), proj: |m| &m.reactions },
            reactions_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.reactions_by_id },
            reactions_by_content: CowIndex::Shared { base: b(), proj: |ix| &ix.reactions_by_content },
            reactions_delta: take_idx(&mut delta.reactions_by_content),
            reactions_keys: CowKeys::Shared { base: b(), proj: |k| &k.reactions },
            events: CowList::Shared { base: b(), proj: |m| &m.events },
            events_by_id: CowIndex::Shared { base: b(), proj: |ix| &ix.events_by_id },
            events_by_content: CowIndex::Shared { base: b(), proj: |ix| &ix.events_by_content },
            events_delta: take_idx(&mut delta.events_by_content),
            events_keys: CowKeys::Shared { base: b(), proj: |k| &k.events },
        }
    }

    /// Wrap an owned accumulator's state (the non-COW — or already
    /// materialised — session): every kind is moved in as `Owned` and
    /// moved back out verbatim at restore.
    pub(crate) fn from_owned(
        model: &mut Model,
        idx: &mut Indexes,
        keys: &mut KeyCache,
        delta: &mut DeltaIndexes,
    ) -> CowState {
        use std::mem::take;
        CowState {
            functions: CowList::Owned(take(&mut model.function_definitions)),
            functions_by_id: CowIndex::Owned(take_idx(&mut idx.functions_by_id)),
            functions_by_content: CowIndex::Owned(take_idx(&mut idx.functions_by_content)),
            functions_delta: take_idx(&mut delta.functions_by_content),
            functions_keys: CowKeys::Owned(take(&mut keys.functions)),
            units: CowList::Owned(take(&mut model.unit_definitions)),
            units_by_id: CowIndex::Owned(take_idx(&mut idx.units_by_id)),
            units_by_content: CowIndex::Owned(take_idx(&mut idx.units_by_content)),
            units_keys: CowKeys::Owned(take(&mut keys.units)),
            compartment_types: CowList::Owned(take(&mut model.compartment_types)),
            compartment_types_by_id: CowIndex::Owned(take_idx(&mut idx.compartment_types_by_id)),
            compartment_types_by_name: CowIndex::Owned(take_idx(&mut idx.compartment_types_by_name)),
            compartment_types_delta: take_idx(&mut delta.compartment_types_by_name),
            species_types: CowList::Owned(take(&mut model.species_types)),
            species_types_by_id: CowIndex::Owned(take_idx(&mut idx.species_types_by_id)),
            species_types_by_name: CowIndex::Owned(take_idx(&mut idx.species_types_by_name)),
            species_types_delta: take_idx(&mut delta.species_types_by_name),
            compartments: CowList::Owned(take(&mut model.compartments)),
            compartments_by_id: CowIndex::Owned(take_idx(&mut idx.compartments_by_id)),
            compartments_by_name: CowIndex::Owned(take_idx(&mut idx.compartments_by_name)),
            compartments_delta: take_idx(&mut delta.compartments_by_name),
            species: CowList::Owned(take(&mut model.species)),
            species_by_id: CowIndex::Owned(take_idx(&mut idx.species_by_id)),
            species_by_name: CowIndex::Owned(take_idx(&mut idx.species_by_name)),
            species_delta: take_idx(&mut delta.species_by_name),
            parameters: CowList::Owned(take(&mut model.parameters)),
            parameters_by_id: CowIndex::Owned(take_idx(&mut idx.parameters_by_id)),
            assignments: CowList::Owned(take(&mut model.initial_assignments)),
            assignments_by_symbol: CowIndex::Owned(take_idx(&mut idx.assignments_by_symbol)),
            rules: CowList::Owned(take(&mut model.rules)),
            rules_by_content: CowIndex::Owned(take_idx(&mut idx.rules_by_content)),
            rules_by_variable: CowIndex::Owned(take_idx(&mut idx.rules_by_variable)),
            rules_delta: take_idx(&mut delta.rules_by_content),
            constraints: CowList::Owned(take(&mut model.constraints)),
            constraints_by_content: CowIndex::Owned(take_idx(&mut idx.constraints_by_content)),
            constraints_delta: take_idx(&mut delta.constraints_by_content),
            reactions: CowList::Owned(take(&mut model.reactions)),
            reactions_by_id: CowIndex::Owned(take_idx(&mut idx.reactions_by_id)),
            reactions_by_content: CowIndex::Owned(take_idx(&mut idx.reactions_by_content)),
            reactions_delta: take_idx(&mut delta.reactions_by_content),
            reactions_keys: CowKeys::Owned(take(&mut keys.reactions)),
            events: CowList::Owned(take(&mut model.events)),
            events_by_id: CowIndex::Owned(take_idx(&mut idx.events_by_id)),
            events_by_content: CowIndex::Owned(take_idx(&mut idx.events_by_content)),
            events_delta: take_idx(&mut delta.events_by_content),
            events_keys: CowKeys::Owned(take(&mut keys.events)),
        }
    }

    /// Did any pass materialise any kind? `false` means the whole push was
    /// absorbed without touching the accumulator — the session stays
    /// [`Accum::Shared`] and nothing was cloned.
    pub(crate) fn any_materialised(&self) -> bool {
        !(self.functions.is_shared()
            && self.functions_by_id.is_shared()
            && self.functions_by_content.is_shared()
            && self.functions_keys.is_shared()
            && self.units.is_shared()
            && self.units_by_id.is_shared()
            && self.units_by_content.is_shared()
            && self.units_keys.is_shared()
            && self.compartment_types.is_shared()
            && self.compartment_types_by_id.is_shared()
            && self.compartment_types_by_name.is_shared()
            && self.species_types.is_shared()
            && self.species_types_by_id.is_shared()
            && self.species_types_by_name.is_shared()
            && self.compartments.is_shared()
            && self.compartments_by_id.is_shared()
            && self.compartments_by_name.is_shared()
            && self.species.is_shared()
            && self.species_by_id.is_shared()
            && self.species_by_name.is_shared()
            && self.parameters.is_shared()
            && self.parameters_by_id.is_shared()
            && self.assignments.is_shared()
            && self.assignments_by_symbol.is_shared()
            && self.rules.is_shared()
            && self.rules_by_content.is_shared()
            && self.rules_by_variable.is_shared()
            && self.constraints.is_shared()
            && self.constraints_by_content.is_shared()
            && self.reactions.is_shared()
            && self.reactions_by_id.is_shared()
            && self.reactions_by_content.is_shared()
            && self.reactions_keys.is_shared()
            && self.events.is_shared()
            && self.events_by_id.is_shared()
            && self.events_by_content.is_shared()
            && self.events_keys.is_shared())
    }

    /// Consolidate into plain owned session state. Kinds no pass touched
    /// are cloned from the base here, once; `skeleton` supplies the model
    /// id and name.
    pub(crate) fn into_owned_parts(
        self,
        skeleton: &Model,
        delta: &mut DeltaIndexes,
    ) -> (Model, Indexes, KeyCache) {
        let model = Model {
            id: skeleton.id.clone(),
            name: skeleton.name.clone(),
            function_definitions: self.functions.into_owned(),
            unit_definitions: self.units.into_owned(),
            compartment_types: self.compartment_types.into_owned(),
            species_types: self.species_types.into_owned(),
            compartments: self.compartments.into_owned(),
            species: self.species.into_owned(),
            parameters: self.parameters.into_owned(),
            initial_assignments: self.assignments.into_owned(),
            rules: self.rules.into_owned(),
            constraints: self.constraints.into_owned(),
            reactions: self.reactions.into_owned(),
            events: self.events.into_owned(),
        };
        let idx = Indexes {
            functions_by_id: self.functions_by_id.into_owned(),
            functions_by_content: self.functions_by_content.into_owned(),
            units_by_id: self.units_by_id.into_owned(),
            units_by_content: self.units_by_content.into_owned(),
            compartment_types_by_id: self.compartment_types_by_id.into_owned(),
            compartment_types_by_name: self.compartment_types_by_name.into_owned(),
            species_types_by_id: self.species_types_by_id.into_owned(),
            species_types_by_name: self.species_types_by_name.into_owned(),
            compartments_by_id: self.compartments_by_id.into_owned(),
            compartments_by_name: self.compartments_by_name.into_owned(),
            species_by_id: self.species_by_id.into_owned(),
            species_by_name: self.species_by_name.into_owned(),
            parameters_by_id: self.parameters_by_id.into_owned(),
            assignments_by_symbol: self.assignments_by_symbol.into_owned(),
            rules_by_content: self.rules_by_content.into_owned(),
            rules_by_variable: self.rules_by_variable.into_owned(),
            constraints_by_content: self.constraints_by_content.into_owned(),
            reactions_by_id: self.reactions_by_id.into_owned(),
            reactions_by_content: self.reactions_by_content.into_owned(),
            events_by_id: self.events_by_id.into_owned(),
            events_by_content: self.events_by_content.into_owned(),
        };
        let keys = KeyCache {
            functions: self.functions_keys.into_owned(),
            units: self.units_keys.into_owned(),
            reactions: self.reactions_keys.into_owned(),
            events: self.events_keys.into_owned(),
        };
        delta.functions_by_content = self.functions_delta;
        delta.compartment_types_by_name = self.compartment_types_delta;
        delta.species_types_by_name = self.species_types_delta;
        delta.compartments_by_name = self.compartments_delta;
        delta.species_by_name = self.species_delta;
        delta.rules_by_content = self.rules_delta;
        delta.constraints_by_content = self.constraints_delta;
        delta.reactions_by_content = self.reactions_delta;
        delta.events_by_content = self.events_delta;
        (model, idx, keys)
    }

    /// Give back only the per-push delta indexes, dropping the (all still
    /// shared) COW wrappers — the stayed-fully-shared restore path.
    pub(crate) fn restore_delta(self, delta: &mut DeltaIndexes) {
        delta.functions_by_content = self.functions_delta;
        delta.compartment_types_by_name = self.compartment_types_delta;
        delta.species_types_by_name = self.species_types_delta;
        delta.compartments_by_name = self.compartments_delta;
        delta.species_by_name = self.species_delta;
        delta.rules_by_content = self.rules_delta;
        delta.constraints_by_content = self.constraints_delta;
        delta.reactions_by_content = self.reactions_delta;
        delta.events_by_content = self.events_delta;
    }
}

fn take_idx(slot: &mut ComponentIndex) -> ComponentIndex {
    std::mem::replace(slot, ComponentIndex::Linear(Vec::new()))
}
