//! Conflict-heavy composition: incremental mapped-key renaming vs the
//! full-recompute engine.
//!
//! The workload is [`biomodels_corpus::corpus_conflict`]: every push
//! renames every shared parameter (value conflicts) and maps every alias
//! species by name, so the in-flight mapping table is hot from the
//! species pass onwards and **every** math-bearing component must
//! revalidate its cached content key under live mappings. Both engines run
//! the Fig. 4 passes in one serial order; they differ only in how a dirty
//! key is revalidated:
//!
//! * the **serial** engine (`incremental_key_rename=false`) rebuilds each
//!   dirty key by full re-canonicalisation of the formula (O(formula));
//! * the **default** engine ([`ComposeOptions::default`]) revalidates
//!   dirty keys by incremental rename of the cached canonical text
//!   (O(touched leaves), dirty commutative groups only).
//!
//! The gated metric is the **chain** composition of the whole corpus
//! (one `compose_many_prepared` session — the shape where per-push merge
//! cost, not per-pair base adoption, dominates); the all-pairs sweep is
//! reported alongside. Both engines share one prepared corpus (the
//! key-rename knob is fingerprint-neutral) and are asserted bit-for-bit
//! identical before any timing. Writes `BENCH_pipeline.json` at the
//! workspace root with the `host_parallelism` it ran under; `ci.sh` gates
//! the chain speedup at ≥ 1.5x. (The file and JSON key names predate the
//! removal of the merge-pass DAG executor and are kept for continuity.)
//!
//! Run with: `cargo run --release -p compose-bench --bin pipeline_conflict`

use std::sync::Arc;

use biomodels_corpus::corpus_conflict;
use compose_bench::{compare, host_parallelism, Json};
use sbml_compose::{compose_many_prepared, ComposeOptions, Composer, PreparedModel};

/// Models in the conflict corpus.
const MODELS: usize = 12;

fn chain(composer: &Composer, prepared: &[Arc<PreparedModel>]) -> usize {
    compose_many_prepared(composer, prepared.iter().map(Arc::as_ref)).model.species.len()
}

fn pairs(composer: &Composer, prepared: &[Arc<PreparedModel>]) -> usize {
    let mut acc = 0usize;
    for i in 0..prepared.len() {
        for j in (i + 1)..prepared.len() {
            acc += composer.compose_prepared(&prepared[i], &prepared[j]).model.species.len();
        }
    }
    acc
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let models = corpus_conflict(if quick { 5 } else { MODELS });
    let n = models.len();

    // Shared analysis fingerprint: the two engines differ only in the
    // fingerprint-neutral key-rename knob, so one prepared corpus serves
    // both.
    let serial_options = ComposeOptions::default().with_incremental_key_rename(false);
    let default_options = ComposeOptions::default();
    assert_eq!(serial_options.fingerprint(), default_options.fingerprint());

    let serial = Composer::new(serial_options);
    let fast = Composer::new(default_options);
    let prepared: Vec<Arc<PreparedModel>> =
        models.iter().map(|m| Arc::new(serial.prepare(m))).collect();

    // Bit-for-bit identity before any timing: the full chain and a few
    // representative pairs.
    {
        let a = compose_many_prepared(&serial, prepared.iter().map(Arc::as_ref));
        let b = compose_many_prepared(&fast, prepared.iter().map(Arc::as_ref));
        assert_eq!(a.model, b.model, "chain model diverged");
        assert_eq!(a.log.events, b.log.events, "chain log diverged");
        assert_eq!(a.mappings, b.mappings, "chain mappings diverged");
        for (i, j) in [(0usize, 1usize), (0, n - 1), (n / 2, n / 2 + 1)] {
            let a = serial.compose_prepared(&prepared[i], &prepared[j]);
            let b = fast.compose_prepared(&prepared[i], &prepared[j]);
            assert_eq!(a.model, b.model, "pair ({i},{j}) diverged");
            assert_eq!(a.log.events, b.log.events, "pair ({i},{j}) log diverged");
            assert_eq!(a.mappings, b.mappings, "pair ({i},{j}) mappings diverged");
        }
    }

    println!(
        "conflict corpus: {n} models, {} keyed components each; host parallelism {}",
        models[0].species.len()
            + models[0].reactions.len()
            + models[0].rules.len()
            + models[0].constraints.len()
            + models[0].events.len()
            + models[0].function_definitions.len()
            + models[0].compartments.len(),
        host_parallelism(),
    );

    let rounds = if quick { 3 } else { 9 };
    let chains = compare(rounds, |_| chain(&serial, &prepared), |_| chain(&fast, &prepared));
    let chain_speedup = chains.ratio.median;
    println!(
        "chain ({n} pushes):   serial {:.4}s  default {:.4}s  speedup {chain_speedup:.2}x",
        chains.a.median, chains.b.median
    );

    let pair_rounds = if quick { 1 } else { 3 };
    let all_pairs = compare(pair_rounds, |_| pairs(&serial, &prepared), |_| pairs(&fast, &prepared));
    println!(
        "all-pairs ({} pairs): serial {:.4}s  default {:.4}s  speedup {:.2}x",
        n * (n - 1) / 2,
        all_pairs.a.median,
        all_pairs.b.median,
        all_pairs.ratio.median
    );

    if quick {
        println!("(--quick run: BENCH_pipeline.json not written)");
        return;
    }

    Json::new()
        .str("benchmark", "pipeline_conflict")
        .str("corpus", "biomodels_corpus::corpus_conflict (deterministic; every push renames every shared parameter and maps every alias species by name)")
        .int("models", n)
        .obj(
            "engines",
            Json::new()
                .str("serial", "incremental_key_rename=false: Fig. 4 passes in order, dirty cached keys rebuilt by full re-canonicalisation")
                .str("pipelined", "ComposeOptions::default(): Fig. 4 passes in order, dirty cached keys revalidated by incremental rename of canonical text (dirty commutative groups only); key name kept from the removed merge-pass DAG executor"),
        )
        .compared("chain_seconds", "serial", "pipelined", &chains)
        .compared("pairs_seconds", "serial", "pipelined", &all_pairs)
        .num("speedup_pairs", all_pairs.ratio.median)
        .num("speedup_pipelined_vs_serial", chain_speedup)
        .write("pipeline");
}
