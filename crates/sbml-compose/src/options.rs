//! Composition options: semantics level, index structure, synonym table.

use bio_synonyms::SynonymTable;

use crate::index::IndexKind;

/// How much meaning the matcher may use (the paper's §5 heavy/light/none
/// semantics spectrum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SemanticsLevel {
    /// Full SBMLCompose behaviour: synonym tables, commutative math
    /// patterns, unit conversion, initial-value evaluation.
    #[default]
    Heavy,
    /// Name normalisation + synonym tables only; math is compared
    /// structurally without commutativity, units are compared by id, and
    /// initial assignments are compared without evaluation.
    Light,
    /// Exact-id matching only (the generic method "without semantics").
    None,
}

/// Options controlling one composition run.
#[derive(Debug, Clone)]
pub struct ComposeOptions {
    /// Semantics level (default: heavy — the full published algorithm).
    pub semantics: SemanticsLevel,
    /// Index structure used for component lookup (default: hash map).
    pub index: IndexKind,
    /// Synonym table consulted for name equality (default: builtins).
    pub synonyms: SynonymTable,
    /// Cache canonical math patterns per component instead of recomputing
    /// on every candidate comparison (default: true; the paper's "mappings
    /// are stored to reduce comparison time"). The `ablation_cache` bench
    /// switches this off.
    pub cache_patterns: bool,
    /// Keep the canonical content key of every merged component alive
    /// across [`crate::session::CompositionSession`] pushes instead of
    /// recomputing it per comparison (default: true). Turning this off
    /// ablates the session's content-key cache while leaving its
    /// persistent indexes in place; output is identical either way.
    pub cache_content_keys: bool,
    /// Evaluate initial assignments before merging and use the values in
    /// conflict checks (default: true).
    pub collect_initial_values: bool,
    /// Maintain the accumulator's initial values *incrementally* across
    /// [`crate::session::CompositionSession`] pushes (default: true). The
    /// session then seeds an [`crate::initial_values::IncrementalValues`]
    /// store once and updates it with each push's additions through a
    /// dependency graph of initial assignments — O(k) for a push touching
    /// k components — instead of re-running
    /// [`crate::initial_values::collect`] over the whole accumulator
    /// (O(n)) at every push. Values (and hence output) are identical
    /// either way; turning this off ablates the store for benchmarking.
    pub incremental_initial_values: bool,
    /// Keyed-component count (components that carry a canonical content
    /// or name key — everything except parameters and initial
    /// assignments) at or above which a *raw* (unprepared) pushed model
    /// gets its keys computed on the session's worker pool before the serial
    /// merge pass consumes them — the per-model analogue of
    /// [`crate::BatchComposer::prepare_corpus`]'s across-model fan-out
    /// (default: 256). Output never depends on this knob or on the thread
    /// count; `usize::MAX` disables the parallel path, `0` forces it for
    /// every non-empty push.
    pub parallel_push_threshold: usize,
    /// Revalidate cached content keys by **incremental renaming** when a
    /// push's ID mappings touch a component's references (default: true,
    /// heavy semantics only). Instead of re-canonicalising the whole
    /// formula from its AST, the cached canonical key's identifier leaves
    /// are rewritten in place and only the commutative operand groups
    /// whose members changed are re-sorted
    /// ([`sbml_math::pattern::Pattern::rename_mapped`]) — O(touched
    /// leaves), not O(formula). Keys are byte-identical either way
    /// (property-tested), so this is an execution detail excluded from
    /// [`ComposeOptions::fingerprint`]; turning it off is the
    /// full-recompute ablation the `pipeline_conflict` bench measures
    /// against.
    pub incremental_key_rename: bool,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            semantics: SemanticsLevel::Heavy,
            index: IndexKind::HashMap,
            synonyms: SynonymTable::with_builtins(),
            cache_patterns: true,
            cache_content_keys: true,
            collect_initial_values: true,
            incremental_initial_values: true,
            parallel_push_threshold: 256,
            incremental_key_rename: true,
        }
    }
}

impl ComposeOptions {
    /// Full heavy-semantics defaults.
    pub fn heavy() -> ComposeOptions {
        ComposeOptions::default()
    }

    /// Light-semantics variant.
    pub fn light() -> ComposeOptions {
        ComposeOptions { semantics: SemanticsLevel::Light, ..ComposeOptions::default() }
    }

    /// No-semantics variant (exact ids, empty synonym table).
    pub fn none() -> ComposeOptions {
        ComposeOptions {
            semantics: SemanticsLevel::None,
            synonyms: SynonymTable::new(),
            ..ComposeOptions::default()
        }
    }

    /// Builder: set the semantics level. Unlike [`ComposeOptions::none`],
    /// this leaves the synonym table untouched — combine with
    /// [`ComposeOptions::with_synonyms`] to drop it as well.
    #[must_use]
    pub fn with_semantics(mut self, semantics: SemanticsLevel) -> ComposeOptions {
        self.semantics = semantics;
        self
    }

    /// Builder: set the index kind.
    #[must_use]
    pub fn with_index(mut self, index: IndexKind) -> ComposeOptions {
        self.index = index;
        self
    }

    /// Builder: set the synonym table.
    #[must_use]
    pub fn with_synonyms(mut self, synonyms: SynonymTable) -> ComposeOptions {
        self.synonyms = synonyms;
        self
    }

    /// Builder: toggle pattern caching.
    #[must_use]
    pub fn with_pattern_cache(mut self, on: bool) -> ComposeOptions {
        self.cache_patterns = on;
        self
    }

    /// Builder: toggle the session-level content-key cache.
    #[must_use]
    pub fn with_content_key_cache(mut self, on: bool) -> ComposeOptions {
        self.cache_content_keys = on;
        self
    }

    /// Builder: toggle initial-value collection and evaluation.
    #[must_use]
    pub fn with_initial_values(mut self, on: bool) -> ComposeOptions {
        self.collect_initial_values = on;
        self
    }

    /// Builder: toggle incremental initial-value maintenance across
    /// session pushes (the re-collect ablation when off).
    #[must_use]
    pub fn with_incremental_initial_values(mut self, on: bool) -> ComposeOptions {
        self.incremental_initial_values = on;
        self
    }

    /// Builder: set the keyed-component count at which a raw push
    /// switches to parallel content-key computation (`usize::MAX` =
    /// never, `0` = always).
    #[must_use]
    pub fn with_parallel_push_threshold(mut self, threshold: usize) -> ComposeOptions {
        self.parallel_push_threshold = threshold;
        self
    }

    /// Builder: toggle incremental cached-key renaming (the
    /// full-recompute ablation when off).
    #[must_use]
    pub fn with_incremental_key_rename(mut self, on: bool) -> ComposeOptions {
        self.incremental_key_rename = on;
        self
    }

    /// Fingerprint of every option that influences canonical content keys
    /// and merge decisions. A [`crate::PreparedModel`] records the
    /// fingerprint it was prepared under; composing it under options with a
    /// different fingerprint is rejected, since the cached analysis would
    /// silently diverge from what the raw path computes.
    ///
    /// [`ComposeOptions::incremental_key_rename`] is deliberately **not**
    /// part of the fingerprint: it is an execution detail with
    /// property-tested bit-for-bit identical keys, so a preparation built
    /// under one setting stays valid under the other.
    pub fn fingerprint(&self) -> OptionsFingerprint {
        OptionsFingerprint {
            semantics: self.semantics,
            index: self.index,
            cache_patterns: self.cache_patterns,
            cache_content_keys: self.cache_content_keys,
            collect_initial_values: self.collect_initial_values,
            incremental_initial_values: self.incremental_initial_values,
            parallel_push_threshold: self.parallel_push_threshold,
            synonym_hash: self.synonyms.content_hash(),
        }
    }
}

/// Identity of a [`ComposeOptions`] value as far as cached per-model
/// analysis is concerned; see [`ComposeOptions::fingerprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionsFingerprint {
    semantics: SemanticsLevel,
    index: IndexKind,
    cache_patterns: bool,
    cache_content_keys: bool,
    collect_initial_values: bool,
    incremental_initial_values: bool,
    parallel_push_threshold: usize,
    /// [`bio_synonyms::SynonymTable::content_hash`] of the synonym table
    /// — two tables with the same group count but different contents must
    /// not fingerprint equal.
    synonym_hash: u64,
}

impl OptionsFingerprint {
    /// A stable 64-bit digest of the fingerprint, suitable for embedding
    /// in on-disk formats (the `sbml-serve` snapshot header records it so
    /// a snapshot is rejected when loaded under options whose cached
    /// analysis would diverge). Equal fingerprints always digest equal;
    /// the digest is a pure function of the fingerprint's fields, not of
    /// process layout, so it is comparable across runs and builds.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over an explicit field encoding: no derived Hash (whose
        // output is allowed to vary across compiler versions), no
        // pointers.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        };
        eat(match self.semantics {
            SemanticsLevel::Heavy => 0,
            SemanticsLevel::Light => 1,
            SemanticsLevel::None => 2,
        });
        eat(match self.index {
            IndexKind::HashMap => 0,
            IndexKind::BTree => 1,
            IndexKind::LinearScan => 2,
        });
        eat(u8::from(self.cache_patterns));
        eat(u8::from(self.cache_content_keys));
        eat(u8::from(self.collect_initial_values));
        eat(u8::from(self.incremental_initial_values));
        for byte in (self.parallel_push_threshold as u64).to_le_bytes() {
            eat(byte);
        }
        for byte in self.synonym_hash.to_le_bytes() {
            eat(byte);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(ComposeOptions::heavy().semantics, SemanticsLevel::Heavy);
        assert_eq!(ComposeOptions::light().semantics, SemanticsLevel::Light);
        let none = ComposeOptions::none();
        assert_eq!(none.semantics, SemanticsLevel::None);
        assert_eq!(none.synonyms.group_count(), 0);
    }

    #[test]
    fn builders() {
        let o = ComposeOptions::default()
            .with_index(IndexKind::LinearScan)
            .with_pattern_cache(false)
            .with_content_key_cache(false)
            .with_semantics(SemanticsLevel::Light)
            .with_initial_values(false);
        assert_eq!(o.index, IndexKind::LinearScan);
        assert!(!o.cache_patterns);
        assert!(!o.cache_content_keys);
        assert_eq!(o.semantics, SemanticsLevel::Light);
        assert!(!o.collect_initial_values);
        // with_semantics keeps the synonym table, unlike the none() preset.
        assert!(o.synonyms.group_count() > 0);
    }

    #[test]
    fn fingerprints_track_key_affecting_options() {
        let base = ComposeOptions::default();
        assert_eq!(base.fingerprint(), ComposeOptions::default().fingerprint());
        assert_ne!(base.fingerprint(), ComposeOptions::light().fingerprint());
        assert_ne!(base.fingerprint(), ComposeOptions::none().fingerprint());
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_index(IndexKind::BTree).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_initial_values(false).fingerprint()
        );
    }

    #[test]
    fn fingerprints_track_incremental_and_parallel_knobs() {
        // Regression: a PreparedModel built under different incremental /
        // parallel settings must be rejected by the fingerprint check,
        // like every other knob.
        let base = ComposeOptions::default();
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_incremental_initial_values(false).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_parallel_push_threshold(0).fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ComposeOptions::default().with_parallel_push_threshold(usize::MAX).fingerprint()
        );
        // Same settings still fingerprint equal.
        assert_eq!(
            ComposeOptions::default().with_parallel_push_threshold(64).fingerprint(),
            ComposeOptions::default().with_parallel_push_threshold(64).fingerprint()
        );
    }

    #[test]
    fn stable_hash_tracks_fingerprint_equality() {
        let heavy = ComposeOptions::heavy().fingerprint();
        assert_eq!(heavy.stable_hash(), ComposeOptions::heavy().fingerprint().stable_hash());
        for other in [ComposeOptions::light(), ComposeOptions::none()] {
            assert_ne!(heavy.stable_hash(), other.fingerprint().stable_hash());
        }
        assert_ne!(
            heavy.stable_hash(),
            ComposeOptions::default().with_pattern_cache(false).fingerprint().stable_hash()
        );
        // The key-rename knob is fingerprint-neutral, hence digest-neutral.
        assert_eq!(
            heavy.stable_hash(),
            ComposeOptions::default().with_incremental_key_rename(false).fingerprint().stable_hash()
        );
    }

    #[test]
    fn stable_hashes_of_the_presets_are_pinned() {
        // Snapshot headers record these digests; a change here makes every
        // previously written snapshot unloadable.
        assert_eq!(ComposeOptions::heavy().fingerprint().stable_hash(), 0xccaa_fa17_90d4_addd);
        assert_eq!(ComposeOptions::light().fingerprint().stable_hash(), 0xa641_b933_b30e_d6b0);
        assert_eq!(ComposeOptions::none().fingerprint().stable_hash(), 0xa594_8849_8209_a5b5);
    }

    #[test]
    fn key_rename_knob_does_not_change_the_fingerprint() {
        // Regression: incremental key renaming is an execution detail — a
        // PreparedModel built under either setting must be accepted under
        // the other, so the knob stays out of the fingerprint.
        assert_eq!(
            ComposeOptions::default().fingerprint(),
            ComposeOptions::default().with_incremental_key_rename(false).fingerprint()
        );
    }
}
