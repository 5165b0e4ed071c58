//! Algebraic properties of composition, checked over randomly generated
//! models: idempotence (`a + a ≡ a`), identity (`a + ∅ ≡ a`), size
//! monotonicity, mapping soundness and output validity.

use proptest::prelude::*;
use sbml_compose::{ComposeOptions, Composer};
use sbml_model::builder::ModelBuilder;
use sbml_model::Model;

/// A random small model: a chain/branch network over a shared species
/// alphabet so that pairs of generated models overlap.
fn model_strategy() -> impl Strategy<Value = Model> {
    (
        0usize..8,                                   // species count
        proptest::collection::vec((0usize..8, 0usize..8, 1u32..100), 0..8), // reactions
        0u64..1_000_000,                             // id salt
    )
        .prop_map(|(n_species, reactions, salt)| {
            let mut b = ModelBuilder::new(format!("gen_{salt}")).compartment("cell", 1.0);
            for i in 0..n_species {
                b = b.species(&format!("S{i}"), i as f64);
            }
            let mut used = std::collections::BTreeSet::new();
            for (idx, (from, to, k)) in reactions.into_iter().enumerate() {
                if n_species == 0 {
                    break;
                }
                let (from, to) = (from % n_species, to % n_species);
                if from == to || !used.insert((from, to)) {
                    continue;
                }
                let k_id = format!("k{from}_{to}");
                let (s_from, s_to) = (format!("S{from}"), format!("S{to}"));
                b = b
                    .parameter(&k_id, k as f64 / 100.0)
                    .reaction(
                        &format!("r{idx}_{from}_{to}"),
                        &[s_from.as_str()],
                        &[s_to.as_str()],
                        &format!("{k_id}*{s_from}"),
                    );
            }
            b.build()
        })
}

fn composer() -> Composer {
    Composer::new(ComposeOptions::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn idempotence(a in model_strategy()) {
        // a + a has exactly a's components (paper Fig. 1).
        let r = composer().compose(&a, &a);
        prop_assert_eq!(r.model.species.len(), a.species.len());
        prop_assert_eq!(r.model.reactions.len(), a.reactions.len());
        prop_assert_eq!(r.model.parameters.len(), a.parameters.len());
        prop_assert_eq!(r.log.conflict_count(), 0, "self-merge can never conflict");
    }

    #[test]
    fn identity(a in model_strategy()) {
        let empty = Model::new("empty");
        let right = composer().compose(&a, &empty);
        prop_assert_eq!(&right.model, &a);
        let left = composer().compose(&empty, &a);
        prop_assert_eq!(&left.model, &a);
    }

    #[test]
    fn union_bounds(a in model_strategy(), b in model_strategy()) {
        // The composed model is at least as big as each input and at most
        // the sum (plus nothing: merging never invents components).
        let r = composer().compose(&a, &b);
        let n = r.model.species.len();
        prop_assert!(n >= a.species.len().max(b.species.len()) || b.species.is_empty() || a.is_empty());
        prop_assert!(n <= a.species.len() + b.species.len());
        let e = r.model.reactions.len();
        prop_assert!(e <= a.reactions.len() + b.reactions.len());
    }

    #[test]
    fn composed_model_is_valid(a in model_strategy(), b in model_strategy()) {
        let r = composer().compose(&a, &b);
        let issues = sbml_model::validate(&r.model);
        let errors: Vec<_> = issues
            .iter()
            .filter(|i| i.severity == sbml_model::Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "merge produced invalid SBML: {:?}\nlog:\n{}", errors, r.log.to_text());
    }

    #[test]
    fn mappings_point_into_the_composed_model(a in model_strategy(), b in model_strategy()) {
        let r = composer().compose(&a, &b);
        let ids = r.model.global_ids();
        for (from, to) in &r.mappings {
            prop_assert!(ids.contains(to), "mapping {from} -> {to} dangles");
        }
    }

    #[test]
    fn composition_is_associative_in_size(
        a in model_strategy(),
        b in model_strategy(),
        c in model_strategy()
    ) {
        // (a+b)+c and a+(b+c) need not be identical models (ids may differ),
        // but they must agree on network size.
        let cmp = composer();
        let ab_c = cmp.compose(&cmp.compose(&a, &b).model, &c).model;
        let a_bc = cmp.compose(&a, &cmp.compose(&b, &c).model).model;
        prop_assert_eq!(ab_c.species.len(), a_bc.species.len());
        prop_assert_eq!(ab_c.reactions.len(), a_bc.reactions.len());
    }

    #[test]
    fn round_trip_through_sbml_preserves_composition(a in model_strategy(), b in model_strategy()) {
        // compose(parse(write(a)), parse(write(b))) == compose(a, b)
        let direct = composer().compose(&a, &b).model;
        let a2 = sbml_model::parse_sbml(&sbml_model::write_sbml(&a)).unwrap();
        let b2 = sbml_model::parse_sbml(&sbml_model::write_sbml(&b)).unwrap();
        let via_xml = composer().compose(&a2, &b2).model;
        prop_assert_eq!(direct, via_xml);
    }
}

mod decompose_props {
    use super::*;
    
    use sbml_compose::{compose_many, split_components};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn split_partitions_species_and_reactions(m in model_strategy()) {
            let parts = split_components(&m);
            let total_species: usize = parts.iter().map(|p| p.species.len()).sum();
            let total_reactions: usize = parts.iter().map(|p| p.reactions.len()).sum();
            if m.species.is_empty() {
                prop_assert_eq!(parts.len(), 1);
            } else {
                prop_assert_eq!(total_species, m.species.len(), "species partitioned exactly");
                prop_assert_eq!(total_reactions, m.reactions.len(), "reactions partitioned exactly");
            }
        }

        #[test]
        fn split_parts_are_valid(m in model_strategy()) {
            for part in split_components(&m) {
                let errors: Vec<_> = sbml_model::validate(&part)
                    .into_iter()
                    .filter(|i| i.severity == sbml_model::Severity::Error)
                    .collect();
                prop_assert!(errors.is_empty(), "{}: {:?}", part.id, errors);
            }
        }

        #[test]
        fn compose_of_split_restores_network(m in model_strategy()) {
            // Round-trip law: species and reactions all come back.
            let parts = split_components(&m);
            let rebuilt = compose_many(&composer(), &parts);
            prop_assert_eq!(rebuilt.model.species.len(), m.species.len());
            prop_assert_eq!(rebuilt.model.reactions.len(), m.reactions.len());
        }

        #[test]
        fn zoom_is_monotone_in_radius(m in model_strategy(), radius in 0usize..4) {
            if let Some(seed) = m.species.first().map(|s| s.id.clone()) {
                let smaller = sbml_compose::extract_submodel(&m, &[&seed], radius);
                let larger = sbml_compose::extract_submodel(&m, &[&seed], radius + 1);
                prop_assert!(larger.species.len() >= smaller.species.len());
                prop_assert!(larger.reactions.len() >= smaller.reactions.len());
                // zoom never exceeds the whole model
                prop_assert!(larger.species.len() <= m.species.len());
            }
        }
    }
}

mod session_props {
    use super::*;

    use sbml_compose::{
        compose_many, compose_many_owned, compose_many_pairwise, ComposeResult,
        CompositionSession,
    };

    /// The seed implementation of chain composition (left fold of pairwise
    /// `compose`, re-exported by the crate as the single reference
    /// baseline). `CompositionSession` must be indistinguishable from it.
    fn fold_pairwise(models: &[Model]) -> ComposeResult {
        compose_many_pairwise(&composer(), models)
    }

    /// A model exercising *every* component kind the Fig. 4 pipeline
    /// merges — function definitions, unit definitions, compartment and
    /// species types, initial assignments, rules, constraints and events
    /// on top of `model_strategy`'s species/parameters/reactions — drawn
    /// from small overlapping pools so chained models collide in all the
    /// interesting ways (duplicates, content hits, id-clash renames).
    pub(crate) fn rich_model_strategy() -> impl Strategy<Value = Model> {
        (
            model_strategy(),
            proptest::collection::vec((0usize..3, 0usize..2), 0..3), // functions
            proptest::collection::vec(0usize..3, 0..2),              // unit definitions
            proptest::collection::vec(0usize..3, 0..2),              // compartment types
            proptest::collection::vec(0usize..4, 0..2),              // species types
            proptest::collection::vec((0usize..6, 1u32..20), 0..2),  // initial assignments
            proptest::collection::vec((0usize..6, 0usize..2), 0..3), // rules
            proptest::collection::vec(0usize..6, 0..2),              // constraints
            proptest::collection::vec((0usize..3, 0usize..6), 0..2), // events
        )
            .prop_map(|(mut m, fns, units, ctypes, stypes, ias, rules, cons, events)| {
                use sbml_math::infix;
                use sbml_model::{Event, EventAssignment, FunctionDefinition, Rule};
                use sbml_units::{Unit, UnitKind};

                for (idx, variant) in fns {
                    let body = if variant == 0 { "x*2" } else { "x+1" };
                    m.function_definitions.push(FunctionDefinition::new(
                        format!("fn{idx}"),
                        vec!["x".into()],
                        infix::parse(body).unwrap(),
                    ));
                }
                for idx in units {
                    let unit = match idx {
                        0 => Unit::of(UnitKind::Litre),
                        1 => Unit::of(UnitKind::Mole),
                        _ => Unit::of(UnitKind::Second).pow(-1),
                    };
                    m.unit_definitions
                        .push(sbml_units::UnitDefinition::new(format!("u{idx}"), vec![unit]));
                }
                for idx in ctypes {
                    // `ct1` deliberately collides with nothing, `ct0` with a
                    // species-type id below — exercising cross-kind renames.
                    m.compartment_types.push(sbml_model::CompartmentType {
                        id: format!("ct{idx}"),
                        name: (idx == 0).then(|| "membrane".to_owned()),
                    });
                }
                for idx in stypes {
                    m.species_types.push(sbml_model::SpeciesType {
                        id: if idx == 3 { "ct0".to_owned() } else { format!("st{idx}") },
                        name: (idx == 1).then(|| "protein".to_owned()),
                    });
                }
                for (idx, value) in ias {
                    m.initial_assignments.push(sbml_model::InitialAssignment {
                        symbol: format!("S{}", idx % 8),
                        math: infix::parse(&format!("{value} / 2")).unwrap(),
                    });
                }
                for (idx, kind) in rules {
                    let math = infix::parse(&format!("S{} * 3", (idx + 1) % 8)).unwrap();
                    m.rules.push(if kind == 0 {
                        Rule::Rate { variable: format!("S{}", idx % 8), math }
                    } else {
                        Rule::Algebraic { math }
                    });
                }
                for idx in cons {
                    m.constraints.push(sbml_model::rule::Constraint {
                        math: infix::parse(&format!("S{idx} >= 0")).unwrap(),
                        message: None,
                    });
                }
                for (salt, target) in events {
                    let mut ev = Event::new(infix::parse(&format!("time >= {salt}")).unwrap());
                    // Anonymous every other time, to exercise both the
                    // by-id and by-content event paths.
                    if salt % 2 == 0 {
                        ev.id = Some(format!("ev{salt}"));
                    }
                    ev.assignments.push(EventAssignment {
                        variable: format!("S{}", target % 8),
                        math: infix::parse("0").unwrap(),
                    });
                    m.events.push(ev);
                }
                m
            })
    }

    fn run_session(models: &[Model]) -> ComposeResult {
        let options = ComposeOptions::default();
        let mut session = CompositionSession::new(&options);
        for m in models {
            session.push(m);
        }
        session.finish()
    }

    /// Model, merge-log event sequence (hence multiset) and mappings must
    /// all be identical between the two engines.
    fn assert_equivalent(models: &[Model]) -> Result<(), TestCaseError> {
        let folded = fold_pairwise(models);
        let chained = run_session(models);
        prop_assert_eq!(&chained.model, &folded.model);
        prop_assert_eq!(&chained.log.events, &folded.log.events);
        prop_assert_eq!(&chained.mappings, &folded.mappings);

        // compose_many / compose_many_owned ride the same session path.
        let many = compose_many(&composer(), models);
        prop_assert_eq!(&many.model, &folded.model);
        let owned = compose_many_owned(&composer(), models.to_vec());
        prop_assert_eq!(&owned.model, &folded.model);
        prop_assert_eq!(&owned.log.events, &folded.log.events);
        prop_assert_eq!(&owned.mappings, &folded.mappings);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn session_equals_pairwise_fold(
            models in proptest::collection::vec(model_strategy(), 0..6)
        ) {
            assert_equivalent(&models)?;
        }

        #[test]
        fn session_equals_fold_on_self_merge_chains(
            m in model_strategy(),
            repeats in 1usize..6
        ) {
            let chain: Vec<Model> = std::iter::repeat_with(|| m.clone()).take(repeats).collect();
            assert_equivalent(&chain)?;
        }

        #[test]
        fn session_equals_fold_with_empty_models(
            models in proptest::collection::vec(model_strategy(), 1..5),
            empty_at in 0usize..5
        ) {
            // Splice an empty model somewhere in the chain (including the
            // front, where it must surrender the base slot).
            let mut chain = models;
            let at = empty_at % (chain.len() + 1);
            chain.insert(at, Model::new("hole"));
            assert_equivalent(&chain)?;
        }

        #[test]
        fn session_equals_fold_under_every_semantics(
            models in proptest::collection::vec(rich_model_strategy(), 0..4)
        ) {
            for options in [
                ComposeOptions::heavy(),
                ComposeOptions::light(),
                ComposeOptions::none(),
                ComposeOptions::default().with_pattern_cache(false),
                ComposeOptions::default().with_content_key_cache(false),
            ] {
                let cmp = Composer::new(options.clone());
                let folded = compose_many_pairwise(&cmp, &models);
                let mut session = CompositionSession::new(&options);
                for m in &models {
                    session.push(m);
                }
                let chained = session.finish();
                prop_assert_eq!(&chained.model, &folded.model);
                prop_assert_eq!(&chained.log.events, &folded.log.events);
                prop_assert_eq!(&chained.mappings, &folded.mappings);
            }
        }

        #[test]
        fn session_equals_fold_on_all_component_kinds(
            models in proptest::collection::vec(rich_model_strategy(), 0..5)
        ) {
            // Chains over models carrying every Fig. 4 component kind —
            // the delta-index and key-cache machinery for functions,
            // units, types, assignments, rules, constraints and events
            // must match the pairwise fold exactly.
            assert_equivalent(&models)?;
        }

        #[test]
        fn session_equals_fold_on_rich_self_merge(m in rich_model_strategy(), repeats in 1usize..5) {
            let chain: Vec<Model> = std::iter::repeat_with(|| m.clone()).take(repeats).collect();
            assert_equivalent(&chain)?;
        }
    }
}

mod incremental_value_props {
    use super::*;

    use sbml_compose::initial_values::collect;
    use sbml_compose::{compose_many_pairwise, CompositionSession, PreparedModel};

    use crate::session_props::rich_model_strategy;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The satellite invariant: a session interleaving `push` and
        /// `push_prepared` over models whose initial assignments collide
        /// (the rich strategy assigns into the shared S0..S7 alphabet)
        /// reports values identical to a fresh full `collect` over the
        /// accumulator after EVERY push — with the incremental store on,
        /// off, and under every semantics level.
        #[test]
        fn interleaved_push_values_equal_fresh_collect_after_every_push(
            models in proptest::collection::vec(rich_model_strategy(), 1..5),
            prepared_mask in 0u32..32
        ) {
            for options in [
                ComposeOptions::heavy(),
                ComposeOptions::light(),
                ComposeOptions::none(),
                ComposeOptions::default().with_incremental_initial_values(false),
                ComposeOptions::default().with_parallel_push_threshold(0),
            ] {
                let mut session = CompositionSession::new(&options);
                for (i, m) in models.iter().enumerate() {
                    if prepared_mask & (1 << (i % 32)) != 0 {
                        session.push_prepared(&PreparedModel::new(m, &options));
                    } else {
                        session.push(m);
                    }
                    prop_assert_eq!(
                        session.current_initial_values(),
                        collect(session.model()),
                        "push {} under {:?}", i, options.semantics
                    );
                }
            }
        }

        /// The incremental-store and parallel-key ablations are
        /// output-invisible: every combination equals the re-collect,
        /// never-parallel session AND the pairwise fold, per semantics
        /// level.
        #[test]
        fn incremental_and_parallel_knobs_never_change_output(
            models in proptest::collection::vec(rich_model_strategy(), 0..5)
        ) {
            for base in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()] {
                let reference_options = base
                    .clone()
                    .with_incremental_initial_values(false)
                    .with_parallel_push_threshold(usize::MAX);
                let folded =
                    compose_many_pairwise(&Composer::new(reference_options.clone()), &models);
                for options in [
                    base.clone(),
                    base.clone().with_parallel_push_threshold(0),
                    base.clone().with_incremental_initial_values(false),
                    base.clone()
                        .with_initial_values(false)
                        .with_parallel_push_threshold(0),
                ] {
                    let collects_values = options.collect_initial_values;
                    let mut session = CompositionSession::new(&options);
                    for m in &models {
                        session.push(m);
                    }
                    let chained = session.finish();
                    if collects_values {
                        prop_assert_eq!(&chained.model, &folded.model);
                        prop_assert_eq!(&chained.log.events, &folded.log.events);
                        prop_assert_eq!(&chained.mappings, &folded.mappings);
                    } else {
                        // Without value evaluation the merge decisions may
                        // legitimately differ from the reference; compare
                        // against the same options' own pairwise fold
                        // instead.
                        let no_iv_folded =
                            compose_many_pairwise(&Composer::new(options.clone()), &models);
                        prop_assert_eq!(&chained.model, &no_iv_folded.model);
                        prop_assert_eq!(&chained.log.events, &no_iv_folded.log.events);
                        prop_assert_eq!(&chained.mappings, &no_iv_folded.mappings);
                    }
                }
            }
        }

        /// Incremental cached-key renaming is output-invisible: for every
        /// semantics level, raw and prepared pushes with the rename on
        /// produce the model, log event sequence and mappings of the
        /// full-recompute ablation.
        #[test]
        fn key_rename_never_changes_output(
            models in proptest::collection::vec(rich_model_strategy(), 0..4),
        ) {
            use sbml_compose::PreparedModel;
            for base in [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()] {
                // Keys precomputed (threshold 0) on both sides, so the
                // cached-key paths are exercised.
                let full = base
                    .clone()
                    .with_parallel_push_threshold(0)
                    .with_incremental_key_rename(false);
                let mut reference = CompositionSession::new(&full);
                for m in &models {
                    reference.push(m);
                }
                let reference = reference.finish();

                let renaming = base.clone().with_parallel_push_threshold(0);
                let mut raw = CompositionSession::new(&renaming);
                for m in &models {
                    raw.push(m);
                }
                // A preparation built under the full-recompute options is
                // accepted by the renaming session (the knob is
                // fingerprint-neutral).
                let mut prepared = CompositionSession::new(&renaming);
                for m in &models {
                    prepared.push_prepared(&PreparedModel::new(m, &full));
                }
                for (entry, out) in [("raw", raw.finish()), ("prepared", prepared.finish())] {
                    prop_assert_eq!(&out.model, &reference.model, "{}", entry);
                    prop_assert_eq!(&out.log.events, &reference.log.events, "{}", entry);
                    prop_assert_eq!(&out.mappings, &reference.mappings, "{}", entry);
                }
            }
        }
    }
}

mod prepared_props {
    use super::*;
    use std::sync::Arc;

    use sbml_compose::{
        compose_many_pairwise, compose_many_prepared, BatchComposer, CompositionSession,
        PreparedModel,
    };

    use crate::session_props::rich_model_strategy;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `compose_prepared` is indistinguishable from raw `compose` —
        /// model, log event sequence and mappings — for every semantics
        /// level and cache ablation.
        #[test]
        fn compose_prepared_equals_compose(
            a in rich_model_strategy(),
            b in rich_model_strategy()
        ) {
            for options in [
                ComposeOptions::heavy(),
                ComposeOptions::light(),
                ComposeOptions::none(),
                ComposeOptions::default().with_pattern_cache(false),
                ComposeOptions::default().with_content_key_cache(false),
                ComposeOptions::default().with_initial_values(false),
                ComposeOptions::default().with_index(sbml_compose::IndexKind::BTree),
                ComposeOptions::default().with_index(sbml_compose::IndexKind::LinearScan),
            ] {
                let cmp = Composer::new(options);
                let raw = cmp.compose(&a, &b);
                let prepared = cmp.compose_prepared(&cmp.prepare(&a), &cmp.prepare(&b));
                prop_assert_eq!(&prepared.model, &raw.model);
                prop_assert_eq!(&prepared.log.events, &raw.log.events);
                prop_assert_eq!(&prepared.mappings, &raw.mappings);
            }
        }

        /// A chain of `push_prepared` calls equals the pairwise fold of
        /// raw `compose`, including empty models anywhere in the chain.
        #[test]
        fn prepared_chain_equals_pairwise_fold(
            models in proptest::collection::vec(rich_model_strategy(), 0..5),
            empty_at in 0usize..6
        ) {
            let mut chain = models;
            let at = empty_at % (chain.len() + 1);
            chain.insert(at, Model::new("hole"));

            let options = ComposeOptions::default();
            let cmp = Composer::new(options.clone());
            let folded = compose_many_pairwise(&cmp, &chain);

            let prepared: Vec<PreparedModel> = chain.iter().map(|m| cmp.prepare(m)).collect();
            let mut session = CompositionSession::new(&options);
            for p in &prepared {
                session.push_prepared(p);
            }
            let chained = session.finish();
            prop_assert_eq!(&chained.model, &folded.model);
            prop_assert_eq!(&chained.log.events, &folded.log.events);
            prop_assert_eq!(&chained.mappings, &folded.mappings);

            let many = compose_many_prepared(&cmp, &prepared);
            prop_assert_eq!(&many.model, &folded.model);
            prop_assert_eq!(&many.log.events, &folded.log.events);
            prop_assert_eq!(&many.mappings, &folded.mappings);
        }

        /// One `Arc`-shared preparation serves many pairs (both as base
        /// and as incoming side) without drifting from the raw path.
        #[test]
        fn shared_preparation_reused_across_pairs(
            hub in rich_model_strategy(),
            spokes in proptest::collection::vec(rich_model_strategy(), 1..4)
        ) {
            let cmp = Composer::default();
            let hub_prepared = Arc::new(cmp.prepare(&hub));
            for spoke in &spokes {
                let spoke_prepared = cmp.prepare(spoke);
                let forward = cmp.compose_prepared(&hub_prepared, &spoke_prepared);
                let forward_raw = cmp.compose(&hub, spoke);
                prop_assert_eq!(&forward.model, &forward_raw.model);
                prop_assert_eq!(&forward.log.events, &forward_raw.log.events);
                prop_assert_eq!(&forward.mappings, &forward_raw.mappings);

                let backward = cmp.compose_prepared(&spoke_prepared, &hub_prepared);
                let backward_raw = cmp.compose(spoke, &hub);
                prop_assert_eq!(&backward.model, &backward_raw.model);
                prop_assert_eq!(&backward.log.events, &backward_raw.log.events);
                prop_assert_eq!(&backward.mappings, &backward_raw.mappings);
            }
        }

        /// The batch all-pairs grid equals the raw per-pair path, whatever
        /// the worker-thread count.
        #[test]
        fn batch_all_pairs_equals_raw_pairs(
            models in proptest::collection::vec(rich_model_strategy(), 2..5),
            threads in 1usize..4
        ) {
            let cmp = Composer::default();
            let batch = BatchComposer::new(cmp.clone()).with_threads(threads);
            let prepared = batch.prepare_corpus(&models);
            let batched = batch.all_pairs_with(&prepared, |i, j, result| (i, j, result));
            let mut expected_index = 0usize;
            for i in 0..models.len() {
                for j in i + 1..models.len() {
                    let (bi, bj, result) = &batched[expected_index];
                    prop_assert_eq!((*bi, *bj), (i, j), "pair order must be deterministic");
                    let raw = cmp.compose(&models[i], &models[j]);
                    prop_assert_eq!(&result.model, &raw.model);
                    prop_assert_eq!(&result.log.events, &raw.log.events);
                    prop_assert_eq!(&result.mappings, &raw.mappings);
                    expected_index += 1;
                }
            }
            prop_assert_eq!(batched.len(), expected_index);
        }
    }
}
