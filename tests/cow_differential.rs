//! Differential test harness for the zero-copy session machinery.
//!
//! Proves the two execution-detail layers introduced with copy-on-write
//! base adoption — the COW accumulator itself and the session-lifetime
//! [`WorkerPool`](sbml_compose::WorkerPool) — bit-identical to the eager
//! clone-on-adopt reference across:
//!
//! * all three semantics levels × the knob ablations (content-key cache,
//!   incremental initial values, forced-parallel pushes, no initial
//!   values),
//! * worker-pool sizes 1..8,
//! * every push entry point (raw / prepared / guarded),
//! * rollback: a failed guarded push must leave the shared base
//!   untouched (covered against injected faults in
//!   `tests/fault_isolation.rs`; budget-exhaustion rollback here).
//!
//! The comparison engine lives in `compose_bench::oracle` so the fig8
//! bench binary measures exactly the workload proven here.

use std::sync::Arc;

use compose_bench::oracle::{
    self, assert_cow_matches_clone, base_model, duplicate_push, overlap_push, PushMode,
};
use sbml_compose::{
    Budget, ComposeOptions, Composer, CompositionSession, SemanticsLevel, SharedModel,
};

fn semantics_levels() -> [ComposeOptions; 3] {
    [ComposeOptions::heavy(), ComposeOptions::light(), ComposeOptions::none()]
}

/// The knob ablations the COW path must be neutral under, applied to a
/// base options value.
fn ablations(options: &ComposeOptions) -> Vec<(&'static str, ComposeOptions)> {
    vec![
        ("default", options.clone()),
        ("no-content-key-cache", options.clone().with_content_key_cache(false)),
        ("no-incremental-ivs", options.clone().with_incremental_initial_values(false)),
        ("forced-parallel-push", options.clone().with_parallel_push_threshold(0)),
        ("no-initial-values", options.clone().with_initial_values(false)),
    ]
}

#[test]
fn cow_equals_clone_across_semantics_ablations_and_workers() {
    let base = base_model(6);
    let pushes = [overlap_push(1), duplicate_push(3), overlap_push(2)];
    for options in semantics_levels() {
        for (name, options) in ablations(&options) {
            for workers in 1..=8usize {
                for mode in [PushMode::Raw, PushMode::Prepared, PushMode::Guarded] {
                    let outcome =
                        assert_cow_matches_clone(&options, &base, &pushes, mode, workers);
                    assert!(
                        !outcome.base_stayed_shared,
                        "overlap pushes must materialise ({name}, workers={workers})"
                    );
                }
            }
        }
    }
}

#[test]
fn duplicate_only_composition_never_copies_the_base() {
    let base = base_model(6);
    let pushes = [duplicate_push(3), duplicate_push(5), duplicate_push(2)];
    for options in semantics_levels() {
        for (name, options) in ablations(&options) {
            for mode in [PushMode::Raw, PushMode::Prepared, PushMode::Guarded] {
                let outcome = assert_cow_matches_clone(&options, &base, &pushes, mode, 4);
                assert!(
                    outcome.base_stayed_shared,
                    "pure-duplicate pushes must leave the base shared ({name}, {mode:?})"
                );
            }
        }
    }
}

#[test]
fn match_miss_empty_push_keeps_base_shared() {
    // A push with nothing new *and* nothing matching still must not
    // materialise: zero additions means zero copies.
    let options = ComposeOptions::default();
    let base = base_model(4);
    let outcome = assert_cow_matches_clone(
        &options,
        &base,
        &[duplicate_push(1)],
        PushMode::Prepared,
        2,
    );
    assert!(outcome.base_stayed_shared);
}

#[test]
fn compose_shared_duplicate_pair_returns_the_base_arc() {
    let options = ComposeOptions::default();
    let composer = Composer::new(options);
    let base = Arc::new(composer.prepare(&base_model(5)));
    let dup = composer.prepare(&duplicate_push(4));
    let result = composer.compose_shared(Arc::clone(&base), &dup);
    match &result.model {
        SharedModel::Base(returned) => {
            assert!(Arc::ptr_eq(returned, &base), "must be the very same Arc")
        }
        SharedModel::Owned(_) => panic!("duplicate-only pair must not materialise"),
    }
    // And the shared result matches the eager pairwise compose.
    let reference =
        oracle::reference_compose(composer.options(), base.model(), dup.model());
    assert_eq!(result.model.as_model(), &reference.model);
    assert_eq!(result.log.events, reference.log.events);
    assert_eq!(result.mappings, reference.mappings);
}

#[test]
fn budget_exhausted_push_rolls_back_to_shared_base() {
    let options = ComposeOptions::default();
    let composer = Composer::new(options.clone());
    let base = Arc::new(composer.prepare(&base_model(6)));
    let mut session = CompositionSession::with_shared_base(&options, Arc::clone(&base));
    assert!(session.is_base_shared());

    // A one-step budget dies mid-push; the session must roll back to the
    // untouched shared base.
    let budget = Budget::unlimited().with_max_steps(1);
    let meter = budget.start();
    let overlap = overlap_push(7);
    session.push_guarded(&overlap, Some(&meter)).expect_err("1 step cannot finish a push");
    assert!(
        session.is_base_shared(),
        "failed push must re-adopt the shared base, not keep a half-copy"
    );
    assert_eq!(session.model(), base.model(), "accumulator must be byte-identical");
    assert_eq!(session.pushes(), 0);
    assert!(session.log().events.is_empty());

    // The session is still fully usable and still zero-copy afterwards.
    session.push(&duplicate_push(3));
    assert!(session.is_base_shared());
    let shared = session.finish_shared();
    assert!(matches!(shared.model, SharedModel::Base(_)));
}

#[test]
fn cow_session_interleaves_materialising_and_absorbed_pushes() {
    // Duplicate, then overlap (materialises), then more pushes on the now
    // owned accumulator — equality must hold through the transition, at
    // every worker count.
    let base = base_model(5);
    let pushes =
        [duplicate_push(2), overlap_push(3), duplicate_push(4), overlap_push(9)];
    for workers in [1, 2, 5, 8] {
        for mode in [PushMode::Raw, PushMode::Prepared, PushMode::Guarded] {
            let outcome = assert_cow_matches_clone(
                &ComposeOptions::default(),
                &base,
                &pushes,
                mode,
                workers,
            );
            assert!(!outcome.base_stayed_shared);
        }
    }
}

#[test]
fn semantics_none_duplicates_still_share() {
    // Under SemanticsLevel::None the id-equality path decides duplicates;
    // the COW invariants are semantics-independent.
    let options = ComposeOptions::default().with_semantics(SemanticsLevel::None);
    let base = base_model(4);
    let outcome = assert_cow_matches_clone(
        &options,
        &base,
        &[duplicate_push(2)],
        PushMode::Raw,
        3,
    );
    assert!(outcome.base_stayed_shared);
}

#[test]
fn one_pool_serves_many_sessions_against_one_base() {
    // The serving shape: one hot base, one long-lived pool, many
    // sessions. Every composition must match the clone oracle and the
    // base Arc must end with no session still holding it.
    let options = ComposeOptions::default().with_parallel_push_threshold(0);
    let composer = Composer::new(options.clone());
    let base = Arc::new(composer.prepare(&base_model(6)));
    let pool = Arc::new(sbml_compose::WorkerPool::new(4));
    for seed in 0..6 {
        let push = if seed % 2 == 0 { duplicate_push(3) } else { overlap_push(seed) };
        let prepared_push = composer.prepare(&push);
        let result = composer.compose_shared_on(
            Arc::clone(&base),
            &prepared_push,
            Some(Arc::clone(&pool)),
        );
        let reference = oracle::reference_compose(&options, base.model(), &push);
        assert_eq!(result.model.as_model(), &reference.model, "seed={seed}");
        assert_eq!(result.log.events, reference.log.events, "seed={seed}");
        assert_eq!(result.mappings, reference.mappings, "seed={seed}");
        assert_eq!(result.model.is_base(), seed % 2 == 0, "seed={seed}");
    }
    // Only our own handle remains.
    assert_eq!(Arc::strong_count(&base), 1);
}
