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

use std::fs;
use std::io::Write as _;

use compose_bench::{time_median_interleaved, workspace_root};
use sbml_compose::guard::Budget;
use sbml_compose::{ComposeOptions, CompositionSession};
use sbml_model::Model;

const CHAIN_LENGTH: usize = 64;
const RUNS: usize = 7;

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
    let (plain_seconds, guarded_seconds) = time_median_interleaved(
        RUNS,
        || {
            std::hint::black_box(run_plain(&options, &chain));
        },
        || {
            std::hint::black_box(run_guarded(&options, &chain));
        },
    );
    let overhead_pct = (guarded_seconds / plain_seconds.max(1e-12) - 1.0) * 100.0;

    println!("guard overhead — push vs push_guarded(unlimited meter), length-{CHAIN_LENGTH} chain");
    println!("  plain   : {plain_seconds:.6} s");
    println!("  guarded : {guarded_seconds:.6} s");
    println!("  overhead: {overhead_pct:.2} %");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        compose_bench::host_parallelism()
    ));
    json.push_str("  \"benchmark\": \"robust_overhead\",\n");
    json.push_str("  \"corpus\": \"biomodels_corpus::corpus_187 (deterministic synthetic)\",\n");
    json.push_str(&format!("  \"chain_length\": {CHAIN_LENGTH},\n"));
    json.push_str("  \"engines\": {\n");
    json.push_str("    \"plain\": \"CompositionSession::push — no containment, no metering\",\n");
    json.push_str("    \"guarded\": \"CompositionSession::push_guarded with an unlimited Meter: per-push step charge + deadline check + degradation-ladder plumbing\"\n");
    json.push_str("  },\n");
    json.push_str(&format!("  \"plain_seconds\": {plain_seconds:.6},\n"));
    json.push_str(&format!("  \"guarded_seconds\": {guarded_seconds:.6},\n"));
    json.push_str(&format!("  \"guard_overhead_pct\": {overhead_pct:.2}\n"));
    json.push_str("}\n");

    let path = workspace_root().join("BENCH_robust.json");
    let mut out = fs::File::create(&path).expect("create BENCH_robust.json");
    out.write_all(json.as_bytes()).expect("write BENCH_robust.json");
    println!("\nwrote {}", path.display());
}
