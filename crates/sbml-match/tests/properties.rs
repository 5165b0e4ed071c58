//! Matching-engine properties over randomly generated models and the
//! deterministic corpora:
//!
//! * **self-embedding** — every model embeds in itself under every
//!   semantics level (with the identity mapping when node keys are
//!   unambiguous);
//! * **fragment round-trip** — any subnetwork returned by matching
//!   composes with its host producing only id-hit (duplicate) log
//!   events: no conflicts, no mappings, host unchanged;
//! * **index ≡ naïve** — [`MatchIndex::query_corpus`]'s exact hit set
//!   equals the naïve per-model VF2 scan, and candidate generation never
//!   prunes a true hit, across semantics levels.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use sbml_compose::{BatchComposer, ComposeOptions, Composer, EventKind};
use sbml_match::MatchIndex;
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

/// Display names that overlap the builtin synonym vocabulary, so light
/// and heavy node keys get real synonym closure to chew on.
const NAMED: &[&str] = &["glucose", "ATP", "pyruvate", "citrate", "water"];

/// A random small model over a shared species alphabet (`S0..S7`, some
/// carrying common display names) with random mass-action reactions, so
/// generated models genuinely overlap.
fn model_strategy() -> impl Strategy<Value = Model> {
    (
        1usize..8,                                                          // species count
        proptest::collection::vec((0usize..8, 0usize..8, 1u32..100), 0..8), // reactions
        0u64..1_000_000,                                                    // id salt
        0u64..2,                                                            // use display names
    )
        .prop_map(|(n_species, reactions, salt, named)| {
            let named = named == 1;
            let mut b = ModelBuilder::new(format!("gen_{salt}")).compartment("cell", 1.0);
            for i in 0..n_species {
                let id = format!("S{i}");
                b = if named && i < NAMED.len() {
                    b.species_named(&id, NAMED[i], i as f64)
                } else {
                    b.species(&id, i as f64)
                };
            }
            let mut used = BTreeSet::new();
            for (idx, (from, to, k)) in reactions.into_iter().enumerate() {
                let (from, to) = (from % n_species, to % n_species);
                if from == to || !used.insert((from, to)) {
                    continue;
                }
                let k_id = format!("k{from}_{to}");
                let (s_from, s_to) = (format!("S{from}"), format!("S{to}"));
                b = b.parameter(&k_id, k as f64 / 100.0).reaction(
                    &format!("r{idx}_{from}_{to}"),
                    &[s_from.as_str()],
                    &[s_to.as_str()],
                    &format!("{k_id}*{s_from}"),
                );
            }
            b.build()
        })
}

fn levels() -> [ComposeOptions; 3] {
    [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
}

fn index_over(models: &[Model], options: &ComposeOptions) -> MatchIndex {
    let batch = BatchComposer::new(Composer::new(options.clone()));
    MatchIndex::build(&batch.prepare_corpus(models), options)
}

/// Are the model's node keys unambiguous (no two species share a key)?
fn distinct_node_keys(model: &Model, options: &ComposeOptions) -> bool {
    let semantics = sbml_match::MatchSemantics::from_options(options);
    let keys: BTreeSet<Arc<str>> = model
        .species
        .iter()
        .map(|s| semantics.node_key_shared(s.name.as_deref().unwrap_or(&s.id)))
        .collect();
    keys.len() == model.species.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every model embeds in itself under every semantics level; with
    /// unambiguous node keys the witness is the identity on species ids.
    #[test]
    fn self_embedding_under_every_level(m in model_strategy()) {
        for options in levels() {
            let idx = index_over(std::slice::from_ref(&m), &options);
            let result = idx.query_corpus(&m);
            let hit = result.exact.iter().find(|h| h.model == 0);
            let hit = hit.expect("a model must embed in itself");
            prop_assert_eq!(hit.embedding.species().len(), m.species.len());
            // The species map is injective into the host.
            let targets: BTreeSet<&str> =
                hit.embedding.species().map(|(_, t)| t).collect();
            prop_assert_eq!(targets.len(), m.species.len());
            if distinct_node_keys(&m, &options) {
                for (q, t) in hit.embedding.species() {
                    prop_assert_eq!(q, t, "unambiguous keys force the identity mapping");
                }
            }
        }
    }

    /// A subnetwork returned by matching composes with its host via the
    /// full compose engine producing only id-hit (duplicate) events for
    /// the mapped components: zero conflicts, zero recorded mappings, and
    /// a bit-for-bit unchanged host.
    #[test]
    fn matched_subnetwork_composes_into_host_cleanly(
        m in model_strategy(),
        seed in 0usize..8,
        radius in 0usize..3,
    ) {
        let fragment = biomodels_corpus::query_fragment(&m, seed, radius);
        let options = ComposeOptions::default();
        let idx = index_over(std::slice::from_ref(&m), &options);
        let result = idx.query_corpus(&fragment);
        let hit = result.exact.iter().find(|h| h.model == 0);
        let hit = hit.expect("a verbatim fragment must embed in its host");

        // The returned mapping is over real host components.
        for (_, target) in hit.embedding.species() {
            prop_assert!(m.species_by_id(target).is_some());
        }
        for (_, target) in hit.embedding.reactions() {
            prop_assert!(m.reaction_by_id(target).is_some());
        }

        let composed = Composer::new(options).compose(&m, &fragment);
        prop_assert_eq!(&composed.model, &m, "absorbing a subnetwork is the identity");
        prop_assert_eq!(composed.mappings.len(), 0, "id hits need no mappings");
        prop_assert_eq!(composed.log.conflict_count(), 0);
        for event in &composed.log.events {
            prop_assert_eq!(
                event.kind,
                EventKind::Duplicate,
                "mapped components merge as id hits: {:?}",
                event
            );
        }
    }

    /// The indexed corpus query returns exactly the naïve per-model VF2
    /// hit set, and candidate generation never prunes a true hit.
    #[test]
    fn index_hits_equal_naive_scan(
        corpus in proptest::collection::vec(model_strategy(), 2..6),
        query in model_strategy(),
        fragment_seed in 0usize..8,
        query_from_corpus in 0u64..2,
    ) {
        let query = if query_from_corpus == 1 {
            biomodels_corpus::query_fragment(&corpus[fragment_seed % corpus.len()], fragment_seed, 1)
        } else {
            query
        };
        for options in levels() {
            let idx = index_over(&corpus, &options);
            let naive = idx.naive_hits(&query);
            let candidates = idx.candidates(&query);
            for hit in &naive {
                prop_assert!(candidates.contains(hit), "candidate pruning dropped a true hit");
            }
            let exact: Vec<usize> =
                idx.query_corpus(&query).exact.iter().map(|h| h.model).collect();
            prop_assert_eq!(exact, naive);
        }
    }

    /// The incremental/sharded invariant: an index grown by a random
    /// interleaving of inserts and removals, at any shard count and any
    /// compaction threshold, answers every query bit-identically to a
    /// fresh single-shard [`MatchIndex::build`] over the surviving models
    /// in insertion order — at every semantics level.
    #[test]
    fn mutated_sharded_index_equals_fresh_build(
        pool in proptest::collection::vec(model_strategy(), 2..7),
        // Interleaved operations: 0..8 inserts pool model op (mod len),
        // 8 removes the oldest surviving model.
        ops in proptest::collection::vec(0usize..9, 1..12),
        shards in 1usize..8,
        threshold in 0u64..3,
        query in model_strategy(),
        fragment_seed in 0usize..8,
    ) {
        let threshold = [0.0, 0.3, 1.0][threshold as usize];
        for options in levels() {
            let batch = BatchComposer::new(Composer::new(options.clone()));
            let prepared = batch.prepare_corpus(&pool);
            let mut grown = MatchIndex::build(&[], &options)
                .with_shards(shards)
                .with_compaction_threshold(threshold);
            // The live corpus a fresh build would be given, maintained
            // alongside the mutations.
            let mut live: Vec<Arc<sbml_compose::PreparedModel>> = Vec::new();
            for &op in &ops {
                if op < 8 {
                    let p = Arc::clone(&prepared[op % prepared.len()]);
                    live.push(Arc::clone(&p));
                    grown.insert(p);
                } else if !live.is_empty() {
                    live.remove(0);
                    prop_assert!(grown.remove(0).is_some());
                }
            }
            let fresh = MatchIndex::build(&live, &options);
            prop_assert_eq!(grown.len(), fresh.len());
            let fragment = if live.is_empty() {
                query.clone()
            } else {
                biomodels_corpus::query_fragment(
                    live[fragment_seed % live.len()].model(),
                    fragment_seed,
                    1,
                )
            };
            for q in [&query, &fragment, &Model::new("empty")] {
                prop_assert_eq!(
                    grown.query_corpus(q),
                    fresh.query_corpus(q),
                    "shards={} threshold={} semantics={:?} query={:?}",
                    shards,
                    threshold,
                    options.semantics,
                    q.id
                );
            }
        }
    }
}

/// The fig8 corpus in miniature: fragments of deterministic corpus models
/// hit their hosts, and the indexed hit set equals the naïve scan for
/// every semantics level.
#[test]
fn corpus_slice_fragments_round_trip() {
    let models = biomodels_corpus::corpus_slice(38..46);
    for options in levels() {
        let idx = index_over(&models, &options);
        for (i, host) in models.iter().enumerate() {
            let fragment = biomodels_corpus::query_fragment(host, i, 1);
            let result = idx.query_corpus(&fragment);
            let exact: Vec<usize> = result.exact.iter().map(|h| h.model).collect();
            assert!(
                exact.contains(&i),
                "fragment of corpus model {i} must hit its host (semantics {:?})",
                options.semantics
            );
            assert_eq!(exact, idx.naive_hits(&fragment), "indexed ≡ naïve for model {i}");
        }
    }
}

/// Approximate ranking is deterministic and bounded.
#[test]
fn approximate_ranking_is_deterministic() {
    let models = biomodels_corpus::corpus_slice(40..48);
    let options = ComposeOptions::default();
    let idx = index_over(&models, &options).with_top_k(5);
    // A query that shares vocabulary but embeds nowhere: common species
    // with kinetics no corpus model uses.
    let query = ModelBuilder::new("near_miss")
        .compartment("cell", 1.0)
        .species_named("glc", "glucose", 1.0)
        .species_named("atp", "ATP", 1.0)
        .parameter("v", 1.0)
        .reaction("weird", &["glc"], &["atp"], "v*glc*glc*glc")
        .build();
    let a = idx.query_corpus(&query);
    let b = idx.query_corpus(&query);
    assert_eq!(a, b);
    if a.exact.is_empty() {
        assert!(a.approximate.len() <= 5);
        for pair in a.approximate.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }
}

/// Scope-key agreement: the keys a response cache derives from a written
/// [`Model`] ([`sbml_match::scope_keys`], the path a coordinator takes
/// from a parsed UPSERT) are exactly the node, edge and participant
/// posting keys [`MatchIndex::insert`] adds for its preparation, at every
/// semantics level — so a write's evictions and the ranking pool cannot
/// drift apart. Heavy semantics is the interesting case: the index takes
/// edge keys from the preparation's cached reaction content keys, the
/// model path computes them afresh.
#[test]
fn scope_keys_equal_the_posting_keys_insert_adds() {
    let mut models = biomodels_corpus::corpus_187();
    models.extend(biomodels_corpus::corpus_scale(500));
    for options in levels() {
        let semantics = sbml_match::MatchSemantics::from_options(&options);
        let batch = BatchComposer::new(Composer::new(options.clone()));
        let mut index = MatchIndex::build(&[], &options);
        for prepared in batch.prepare_corpus(&models) {
            index.insert(prepared);
        }
        // Slot s holds models[s]: invert the postings back per model.
        let mut posted: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); models.len()];
        for shard in &index.to_raw().shards {
            let families =
                [&shard.node_postings, &shard.edge_postings, &shard.participant_postings];
            for (key, slots) in families.into_iter().flatten() {
                for &slot in slots {
                    posted[slot as usize].insert(sbml_match::scope_hash(key));
                }
            }
        }
        for (model, posted) in models.iter().zip(&posted) {
            let derived = sbml_match::scope_keys(model, &semantics, &options);
            assert!(derived.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert_eq!(
                derived,
                posted.iter().copied().collect::<Vec<u64>>(),
                "{:?} under {:?}: model-derived scope keys differ from the posted keys",
                model.id,
                options.semantics,
            );
            assert_eq!(derived, index.scope_keys(model), "the index derives the same keys");
        }
    }
}
