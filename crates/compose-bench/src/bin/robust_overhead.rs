//! Guard-rail overhead: what fault containment and budget governance
//! cost on the fast path.
//!
//! The robustness layer promises that `push_guarded` with an unlimited
//! [`Meter`] is bit-for-bit identical to `push` — and close to free. This
//! binary times both entry points over the same corpus chain and writes
//! `BENCH_robust.json` at the workspace root; `ci.sh` gates
//! `guard_overhead_pct` at ≤ 5%.
//!
//! Run with: `cargo run --release -p compose-bench --bin robust_overhead`
//!
//! [`Meter`]: sbml_compose::guard::Meter

use compose_bench::{compare, Json};
use sbml_compose::guard::Budget;
use sbml_compose::{ComposeOptions, CompositionSession};
use sbml_model::Model;

const CHAIN_LENGTH: usize = 64;
/// Rounds: one round of either side is ~25 ms, and at 7 rounds the
/// median per-round ratio still spread -15..+6% over 10 runs on a
/// 2-vCPU host.
const RUNS: usize = 21;

fn run_plain(options: &ComposeOptions, chain: &[Model]) -> Model {
    let mut session = CompositionSession::new(options);
    for m in chain {
        session.push(m);
    }
    session.finish().model
}

fn run_guarded(options: &ComposeOptions, chain: &[Model]) -> Model {
    let budget = Budget::unlimited();
    let meter = budget.start();
    let mut session = CompositionSession::new(options);
    for m in chain {
        session.push_guarded(m, Some(&meter)).expect("unlimited budget never fails");
    }
    session.finish().model
}

fn main() {
    let corpus = biomodels_corpus::corpus_187();
    // Ascending size order, starts with empty models: skip ahead so every
    // push does real merge work.
    let chain: Vec<Model> = corpus.iter().skip(30).take(CHAIN_LENGTH).cloned().collect();
    let options = ComposeOptions::default();

    // The guarantee the overhead number is only meaningful under.
    let plain = run_plain(&options, &chain);
    let guarded = run_guarded(&options, &chain);
    assert_eq!(plain, guarded, "guarded output diverged from plain push");

    // Interleaved rounds: on a loaded single-CPU host, sampling all plain
    // runs before all guarded runs lets scheduling drift masquerade as
    // guard overhead (or hide it).
    let c = compare(RUNS, |_| run_guarded(&options, &chain), |_| run_plain(&options, &chain));
    let overhead_pct = (c.ratio.median - 1.0) * 100.0;

    println!("guard overhead — push vs push_guarded(unlimited meter), length-{CHAIN_LENGTH} chain");
    println!("  plain   : {:.6} s", c.b.median);
    println!("  guarded : {:.6} s", c.a.median);
    println!("  overhead: {overhead_pct:.2} %");

    Json::new()
        .str("benchmark", "robust_overhead")
        .str("corpus", "biomodels_corpus::corpus_187 (deterministic synthetic)")
        .int("chain_length", CHAIN_LENGTH)
        .obj(
            "engines",
            Json::new()
                .str("plain", "CompositionSession::push — no containment, no metering")
                .str("guarded", "CompositionSession::push_guarded with an unlimited Meter: per-push step charge + deadline check + degradation-ladder plumbing"),
        )
        .compared("seconds", "guarded", "plain", &c)
        .num("guard_overhead_pct", overhead_pct)
        .write("robust");
}
