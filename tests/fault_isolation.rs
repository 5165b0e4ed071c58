//! Deterministic fault-injection suite: every injected fault must surface
//! as a structured [`ExecError`] at the site it was injected, a failed
//! push must leave the session exactly at its pre-push state, and
//! survivors (and disarmed retries) must be bit-identical to a fault-free
//! run.
//!
//! Compiled only with the `fault-injection` feature (`ci.sh` runs
//! `cargo test --features fault-injection --test fault_isolation`); the
//! armed fail points live behind [`guard::fail_point`]. Plans are
//! process-global and every push reaches the `Site::Pass` fail points, so
//! each test holds [`exclusive`] for its whole body: a plan armed by one
//! test can never strike another test's fault-free work.

#![cfg(feature = "fault-injection")]

use sbmlcompose::compose::guard::injection::{with_plan, FailPlan, INJECTED};
use sbmlcompose::compose::{
    BatchComposer, Budget, ComposeOptions, Composer, CompositionSession, ExecError, ItemOutcome,
    Site,
};
use sbmlcompose::model::builder::ModelBuilder;
use sbmlcompose::model::{write_sbml, Model};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file (see the module docs).
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A linear pathway with `n` reactions over distinctly-named species;
/// `tag` keeps two chains overlapping but not identical.
fn chain(id: &str, tag: &str, n: usize) -> Model {
    let mut b = ModelBuilder::new(id).compartment("cell", 1.0);
    for i in 0..=n {
        b = b.species(&format!("S{tag}{i}"), i as f64);
    }
    for i in 0..n {
        b = b.parameter(&format!("k{tag}{i}"), 0.1 * (i + 1) as f64).reaction(
            &format!("r{tag}{i}"),
            &[&format!("S{tag}{i}")],
            &[&format!("S{tag}{}", i + 1)],
            &format!("k{tag}{i} * S{tag}{i}"),
        );
    }
    b.build()
}

/// A [`chain`] extended with every remaining component kind (functions,
/// units, types, initial assignments, rules, constraints, events), so
/// every one of the twelve merge passes has work and a fault injected at
/// `Site::Pass(i)` strikes after passes `0..i` have mutated the
/// accumulator.
fn rich(id: &str, tag: &str, n: usize) -> Model {
    use sbmlcompose::units::{Unit, UnitDefinition, UnitKind};
    let mut b = ModelBuilder::new(id)
        .function(&format!("f{tag}"), &["x"], "x + 1")
        .unit_definition(UnitDefinition::new(
            format!("per_s_{tag}"),
            vec![Unit::of(UnitKind::Second).pow(-1)],
        ))
        .compartment_type(&format!("ct{tag}"))
        .species_type(&format!("st{tag}"))
        .compartment("cell", 1.0);
    for i in 0..=n {
        b = b.species(&format!("S{tag}{i}"), i as f64);
    }
    for i in 0..n {
        b = b.parameter(&format!("k{tag}{i}"), 0.1 * (i + 1) as f64).reaction(
            &format!("r{tag}{i}"),
            &[&format!("S{tag}{i}")],
            &[&format!("S{tag}{}", i + 1)],
            &format!("k{tag}{i} * S{tag}{i}"),
        );
    }
    b.initial_assignment(&format!("S{tag}0"), "1 + 1")
        .rate_rule(&format!("S{tag}1"), &format!("k{tag}0 * S{tag}0"))
        .constraint(&format!("S{tag}0 > 0"), None)
        .event(
            &format!("e{tag}"),
            &format!("S{tag}0 > 5"),
            &[(&format!("S{tag}1"), "0")],
        )
        .build()
}

/// The merged output of a fault-free guarded two-model composition.
fn fault_free_reference(options: &ComposeOptions, a: &Model, b: &Model) -> (String, String) {
    let mut session = CompositionSession::new(options);
    session.push_guarded(a, None).expect("fault-free push");
    session.push_guarded(b, None).expect("fault-free push");
    let result = session.finish();
    (write_sbml(&result.model), result.log.to_text())
}

#[test]
fn injected_pass_fault_fails_push_and_rolls_back() {
    let _exclusive = exclusive();
    let options = ComposeOptions::default();
    let a = rich("a", "x", 6);
    let b = rich("b", "x", 9);
    let (want_xml, want_log) = fault_free_reference(&options, &a, &b);

    // Every one of the twelve merge passes is a containment boundary.
    for pass in 0..12 {
        let mut session = CompositionSession::new(&options);
        session.push_guarded(&a, None).expect("first push adopts the base");
        let (before_xml, before_log) = (write_sbml(session.model()), session.log().to_text());

        let plan = FailPlan::new().fail_at(Site::Pass(pass));
        let err = with_plan(plan, || session.push_guarded(&b, None).expect_err("push fails"));
        match err {
            ExecError::Panicked { site, ref detail } => {
                assert_eq!(site, Site::Pass(pass), "fault attributed to the injected site");
                assert!(detail.contains(INJECTED), "payload preserved: {detail}");
            }
            other => panic!("pass {pass}: expected a contained panic, got {other:?}"),
        }
        assert_eq!(write_sbml(session.model()), before_xml, "pass {pass}: model rolled back");
        assert_eq!(session.log().to_text(), before_log, "pass {pass}: log rolled back");

        // Disarmed, the same push reproduces the fault-free result.
        session.push_guarded(&b, None).expect("disarmed retry");
        let result = session.finish();
        assert_eq!(write_sbml(&result.model), want_xml, "pass {pass}: retry result");
        assert_eq!(result.log.to_text(), want_log, "pass {pass}: retry decision log");
    }
}

#[test]
fn pass_and_push_fault_fails_push_and_leaves_accumulator_intact() {
    let _exclusive = exclusive();
    let options = ComposeOptions::default();
    let a = rich("a", "x", 6);
    let b = rich("b", "x", 9);

    // Base-only reference: what the session must still hold after the
    // second push fails.
    let base_only = {
        let mut session = CompositionSession::new(&options);
        session.push_guarded(&a, None).expect("push");
        let result = session.finish();
        (write_sbml(&result.model), result.log.to_text())
    };

    // Fail a pass midway through the push — the whole push must error out.
    let plan = FailPlan::new().fail_at(Site::Pass(3));
    let (xml, log, err) = with_plan(plan, || {
        let mut session = CompositionSession::new(&options);
        session.push_guarded(&a, None).expect("first push adopts the base");
        let err = session.push_guarded(&b, None).expect_err("push fails");
        let result = session.finish();
        (write_sbml(&result.model), result.log.to_text(), err)
    });
    match err {
        ExecError::Panicked { site, ref detail } => {
            assert_eq!(site, Site::Pass(3), "attributed to the failed pass");
            assert!(detail.contains(INJECTED), "{detail}");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert_eq!(xml, base_only.0, "failed push must not change the accumulator");
    assert_eq!(log, base_only.1, "failed push must not leak log events");
}

#[test]
fn session_survives_a_failed_push_and_accepts_the_next() {
    let _exclusive = exclusive();
    let options = ComposeOptions::default();
    let a = rich("a", "x", 6);
    let b = rich("b", "x", 9);

    let mut session = CompositionSession::new(&options);
    session.push_guarded(&a, None).expect("push");
    let plan = FailPlan::new().fail_at(Site::Pass(0));
    with_plan(plan, || {
        session.push_guarded(&b, None).expect_err("push fails");
    });
    // Disarmed again: the same push now succeeds cleanly.
    session.push_guarded(&b, None).expect("push after rollback");
    let merged = session.finish().model;
    assert!(merged.species.len() >= b.species.len(), "second model actually merged");
}

#[test]
fn batch_shard_fault_is_contained_to_its_item() {
    let _exclusive = exclusive();
    let options = ComposeOptions::default();
    let batch = BatchComposer::new(Composer::new(options));
    let models: Vec<Model> =
        (0..5).map(|i| chain(&format!("m{i}"), "x", 3 + i)).collect();
    let prepared = batch.prepare_corpus(&models);
    let want = batch.all_pairs(&prepared); // 10 pairs, fault-free

    let faulty = 4; // pair ordinal, deterministic: (0,1)..(0,4),(1,2)..
    let report = with_plan(FailPlan::new().fail_at(Site::Shard(faulty)), || {
        batch.try_all_pairs(&prepared, &Budget::unlimited())
    });
    assert_eq!(report.items.len(), want.len());
    assert_eq!(report.failed_count(), 1, "exactly the faulted item failed");
    for (k, (item, want)) in report.items.iter().zip(&want).enumerate() {
        if k == faulty {
            match item {
                ItemOutcome::Failed(ExecError::Panicked { site, detail }) => {
                    assert_eq!(*site, Site::Shard(faulty));
                    assert!(detail.contains(INJECTED), "{detail}");
                }
                other => panic!("item {k}: expected a contained panic, got {other:?}"),
            }
        } else {
            assert_eq!(item, &ItemOutcome::Ok(want.clone()), "survivor {k} bit-identical");
        }
    }
}

#[test]
fn batch_step_budget_cuts_a_deterministic_suffix() {
    let _exclusive = exclusive();
    let options = ComposeOptions::default();
    let models: Vec<Model> =
        (0..6).map(|i| chain(&format!("m{i}"), "x", 4)).collect();
    // Allow exactly the first two items' worth of component steps.
    let allowance: u64 =
        models.iter().take(2).map(|m| m.component_count() as u64).sum();
    let budget = Budget::unlimited().with_max_steps(allowance);

    // Which items get cut must not depend on the worker count: the step
    // gate is a prefix sum over item order, not a race.
    let mut reports = Vec::new();
    for threads in [1, 4] {
        let batch = BatchComposer::new(Composer::new(options.clone())).with_threads(threads);
        let prepared = batch.prepare_corpus(&models);
        let report =
            batch.try_map_corpus(&prepared, &budget, |_, p| p.model().species.len());
        for (k, item) in report.items.iter().enumerate() {
            if k < 2 {
                assert!(item.is_ok(), "threads={threads}: item {k} fits the allowance");
            } else {
                match item {
                    ItemOutcome::Failed(ExecError::StepsExhausted { site, limit }) => {
                        assert_eq!(*site, Site::Shard(k));
                        assert_eq!(*limit, allowance);
                    }
                    other => panic!("threads={threads}, item {k}: {other:?}"),
                }
            }
        }
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "outcome pattern is schedule-independent");
}

#[test]
fn zero_deadline_fails_every_batch_item() {
    let _exclusive = exclusive();
    let options = ComposeOptions::default();
    let batch = BatchComposer::new(Composer::new(options));
    let models: Vec<Model> = (0..4).map(|i| chain(&format!("m{i}"), "x", 3)).collect();
    let prepared = batch.prepare_corpus(&models);
    let report = batch.try_map_corpus(
        &prepared,
        &Budget::unlimited().with_deadline_ms(0),
        |_, p| p.model().species.len(),
    );
    assert_eq!(report.ok_count(), 0);
    for (k, item) in report.items.iter().enumerate() {
        match item {
            ItemOutcome::Failed(ExecError::DeadlineExceeded { site, .. }) => {
                assert_eq!(*site, Site::Shard(k));
            }
            other => panic!("item {k}: {other:?}"),
        }
    }
}

#[test]
fn cow_failed_push_leaves_shared_base_unmaterialised() {
    let _exclusive = exclusive();
    use std::sync::Arc;

    let options = ComposeOptions::default();
    let composer = Composer::new(options.clone());
    let base = rich("base", "x", 8);
    let prepared_base = Arc::new(composer.prepare(&base));
    let base_xml = write_sbml(prepared_base.model());
    let incoming = rich("b", "y", 6);

    // Fail every one of the twelve pass boundaries while the accumulator
    // still *is* the shared base (passes before the faulted one may
    // already have materialised kinds).
    for pass in 0..12 {
        let mut session =
            CompositionSession::with_shared_base(&options, Arc::clone(&prepared_base));
        assert!(session.is_base_shared());
        let arcs_before = Arc::strong_count(&prepared_base);

        let plan = FailPlan::new().fail_at(Site::Pass(pass));
        let err = with_plan(plan, || session.push_guarded(&incoming, None).expect_err("fails"));
        assert_eq!(err.site(), Site::Pass(pass), "{err:?}");
        assert!(matches!(err, ExecError::Panicked { .. }), "{err:?}");

        // Rollback must re-adopt the base wholesale: no kind left
        // materialised, no extra Arc handle leaked, accumulator
        // byte-identical, log empty.
        assert!(session.is_base_shared(), "pass {pass}: base must stay shared");
        assert_eq!(Arc::strong_count(&prepared_base), arcs_before, "pass {pass}");
        assert_eq!(write_sbml(session.model()), base_xml, "pass {pass}");
        assert!(session.log().events.is_empty(), "pass {pass}");
    }
}

#[test]
fn cow_session_interleaved_entrypoints_under_faults_match_fault_free() {
    let _exclusive = exclusive();
    use std::sync::Arc;

    let options = ComposeOptions::default();
    let composer = Composer::new(options.clone());
    let base = rich("base", "x", 8);
    let prepared_base = Arc::new(composer.prepare(&base));
    // A strict subset of the base: absorbed without materialising.
    let dup = composer.prepare(&rich("dup", "x", 5));
    // Overlapping but not contained: materialises when merged.
    let overlap = rich("ov", "x", 10);
    let stranger = rich("st", "z", 4);

    // Reference: the same interleaving without the doomed push.
    let want = {
        let mut session =
            CompositionSession::with_shared_base(&options, Arc::clone(&prepared_base));
        session.push_prepared(&dup);
        session.push(&stranger);
        session.push_guarded(&overlap, None).expect("fault-free");
        let result = session.finish();
        (write_sbml(&result.model), result.log.to_text())
    };

    for pass in 0..12 {
        let mut session =
            CompositionSession::with_shared_base(&options, Arc::clone(&prepared_base));
        // Duplicate-only prepared push: still zero-copy afterwards.
        session.push_prepared(&dup);
        assert!(session.is_base_shared(), "pass {pass}: duplicates must not materialise");

        // Faulted guarded push: rolls back to the shared base (the only
        // push so far was absorbed, so the at-rest state is Shared and
        // rollback must restore exactly that).
        let plan = FailPlan::new().fail_at(Site::Pass(pass));
        with_plan(plan, || {
            session.push_guarded(&stranger, None).expect_err("push fails");
        });
        assert!(session.is_base_shared(), "pass {pass}: rollback keeps the base shared");

        // Disarmed: the rest of the interleaving must land bit-identical
        // to the fault-free reference.
        session.push(&stranger);
        session.push_guarded(&overlap, None).expect("disarmed");
        assert!(!session.is_base_shared(), "pass {pass}: overlap materialises");
        let result = session.finish();
        assert_eq!(write_sbml(&result.model), want.0, "pass {pass}");
        assert_eq!(result.log.to_text(), want.1, "pass {pass}");
    }
}

#[test]
fn query_fault_is_contained_per_candidate() {
    let _exclusive = exclusive();
    use sbmlcompose::matching::MatchIndex;

    let options = ComposeOptions::default();
    let corpus: Vec<Model> = vec![
        chain("c0", "x", 6), // embeds the query
        chain("c1", "y", 4), // disjoint species: pruned from candidates
        chain("c2", "x", 9), // embeds the query
    ];
    let query = chain("q", "x", 3);
    let batch = BatchComposer::new(Composer::new(options.clone()));
    let prepared = batch.prepare_corpus(&corpus);
    let index = MatchIndex::build(&prepared, &options);

    let clean = index.query_corpus(&query);
    let clean_hits: Vec<usize> = clean.exact.iter().map(|h| h.model).collect();
    assert_eq!(clean_hits, vec![0, 2], "fixture sanity");
    assert!(clean.failed.is_empty() && clean.truncated.is_empty());

    // Fail candidate ordinal 1 (= corpus model 2). The other candidate's
    // verdict and witness must be exactly the fault-free ones.
    let faulted = with_plan(FailPlan::new().fail_at(Site::Query(1)), || {
        index.query_corpus(&query)
    });
    assert_eq!(faulted.candidates, clean.candidates);
    assert_eq!(faulted.failed, vec![2], "the faulted candidate is reported");
    assert!(faulted.truncated.is_empty());
    let faulted_hits: Vec<usize> = faulted.exact.iter().map(|h| h.model).collect();
    assert_eq!(faulted_hits, vec![0]);
    assert_eq!(faulted.exact[0], clean.exact[0], "survivor embedding bit-identical");
}
