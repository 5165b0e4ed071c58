#!/usr/bin/env bash
# CI for the sbmlcompose workspace. Fully offline: the three external
# crates (rand/proptest/criterion) are vendored under vendor/.
#
#   ./ci.sh          build + test + doc gate + perf gates (chain, fig8, values)
#   ./ci.sh quick    build + test only
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== test =="
cargo test -q

echo "== COW differential harness (clone oracle vs zero-copy engine) =="
# tests/cow_differential.rs replays every scenario through both engines —
# the eager clone-on-adopt reference and the copy-on-write candidate —
# and asserts bit-identity. Run under the default build and again with
# the fault-injection hooks compiled in, so the proof holds for the
# exact binary the fault suite exercises.
cargo test -q --test cow_differential
cargo test -q --features fault-injection --test cow_differential

echo "== fault-injection suite (deterministic injected faults) =="
cargo test -q --features fault-injection --test fault_isolation

echo "== wire-protocol suite (frame codec + live daemon round-trips) =="
cargo test -q --test serve_protocol

echo "== cluster suite (shard daemons + coordinator, loopback TCP) =="
# In-process daemons on ephemeral ports: the coordinator must be
# bit-identical to a single-process daemon at shard counts 1/2/4 across
# all three semantics levels and under randomized UPSERT/REMOVE
# interleavings; a killed shard degrades reads (exit 4, shard named)
# and fails writes loudly.
cargo test -q --release --test cluster
cargo test -q --release --test cluster_e2e

echo "== incremental ≡ rebuild property suite (sharded MatchIndex) =="
# Random insert/remove interleavings replayed against a fresh build of
# the surviving corpus, across shard counts and every semantics level —
# an incrementally mutated index must answer bit-identically to one
# built from scratch, or UPSERT/REMOVE silently corrupt the daemon.
cargo test -q -p sbml-match --test properties

echo "== certified ≡ VF2 suite (forced-embedding certification) =="
# Wherever the refiner certifies a forced node map instead of searching,
# its answer must equal the VF2 search's under the same limits: Found
# with the same map, NotFound, or BudgetExhausted — over corpus_187,
# scale-tier and conflict fragments (and synonym twins) at every
# semantics level, every budget up to one past the step bound, and an
# already-passed deadline. Release build: the budget sweeps are long.
cargo test -q --release -p sbml-match --lib vf2::certified_equivalence

echo "== panic audit (fan-out modules, SBML I/O, snapshot decode) =="
# Containment boundaries (catch_unwind) only help if the code inside them
# is not sprinkled with *new* input-reachable unwrap/expect/panic sites.
# Ceilings are the audited counts (tests included); raising one requires
# justifying the new site in review.
panic_audit() {
    local file="$1" ceiling="$2"
    local count
    count=$(grep -c '\.unwrap()\|\.expect(\|panic!(' "$file" || true)
    echo "  ${file}: ${count} (ceiling: ${ceiling})"
    if (( count > ceiling )); then
        echo "FAIL: ${file} gained unaudited unwrap/expect/panic sites (${count} > ${ceiling})" >&2
        exit 1
    fi
}
# batch.rs 6 -> 1: its two thread::scope fan-outs moved onto the pool's
# striped path, taking their join expects with them.
panic_audit crates/sbml-compose/src/batch.rs 1
# session.rs 14 -> 9 with the merge-pass DAG executor's removal (its
# pipelined rung and the pool expect are gone; one audited expect covers
# the unmetered push, which has no deadline to miss).
panic_audit crates/sbml-compose/src/session.rs 9
# New fan-out modules after the worker-pool refactor: the pool itself
# (spawn + chunking expects, two injected-panic test sites) and the
# parallel incoming-key build in prepared.rs.
panic_audit crates/sbml-compose/src/pool.rs 4
# prepared.rs 17 -> 16: the parallel incoming-key build runs on the
# worker pool only; its thread::scope fallback (and join expect) is gone.
panic_audit crates/sbml-compose/src/prepared.rs 16
panic_audit crates/sbml-match/src/index.rs 0
panic_audit crates/sbml-match/src/vf2.rs 3
# Snapshot loading and lazy model decode read untrusted bytes after the
# load has returned (a model decodes on its first query): no site at all
# in the loader or the lazy handle; codec.rs's 3 are in unit tests.
panic_audit crates/sbml-serve/src/snapshot.rs 0
panic_audit crates/sbml-serve/src/codec.rs 3
panic_audit crates/sbml-match/src/lazy.rs 0
# The streaming SBML reader and writer (every MATCH/COMPOSE/UPSERT body
# goes through them on a worker thread): no input-reachable site; the
# counted ones are in unit tests and doc examples.
panic_audit crates/sbml-xml/src/tokenizer.rs 12
panic_audit crates/sbml-xml/src/reader.rs 14
panic_audit crates/sbml-xml/src/writer.rs 9
panic_audit crates/sbml-model/src/read.rs 2
panic_audit crates/sbml-model/src/xmlutil.rs 9
panic_audit crates/sbml-model/src/units_xml.rs 1
panic_audit crates/sbml-model/src/write.rs 0
panic_audit crates/sbml-math/src/parser.rs 5
panic_audit crates/sbml-math/src/writer.rs 1

if [[ "${1:-}" != "quick" ]]; then
    # Perf gates read one number from a bench's JSON output and compare
    # it against a fixed bound: gate FILE KEY OP BOUND LABEL, where OP is
    # ">=" or "<=". The grep is sign-tolerant (overheads can be negative).
    # The key must carry exactly one number in the file: a missing key, a
    # missing file or a key repeated (say, in a nested object) fails.
    gate() {
        local file="$1" key="$2" op="$3" bound="$4" label="$5"
        local value count
        value=$(grep -o "\"${key}\": *-\?[0-9][0-9.]*" "$file" 2>/dev/null | grep -o -- '-\?[0-9][0-9.]*$' || true)
        count=$(grep -c . <<<"$value" || true)
        if (( count != 1 )); then
            echo "FAIL: ${label} needs one value (${file} ${key}): found ${count} values" >&2
            exit 1
        fi
        echo "${label}: ${value} (gate: ${op} ${bound})"
        awk -v v="$value" -v b="$bound" -v op="$op" \
            'BEGIN { exit ((op == ">=" && v >= b) || (op == "<=" && v <= b)) ? 0 : 1 }' || {
            echo "FAIL: ${label} ${value} violates ${op} ${bound} (${file} ${key})" >&2
            exit 1
        }
    }

    echo "== docs (cargo doc --no-deps, warnings are errors) =="
    # Broken intra-doc links or malformed rustdoc fail the build.
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

    echo "== chain-scaling benchmark (writes BENCH_chain.json) =="
    cargo run --release -p compose-bench --bin chain_scaling

    # Perf gate: the session engine must stay >= 2x faster than the seed
    # pairwise fold on the length-128 chain.
    gate BENCH_chain.json speedup_at_length_128 ">=" 2.0 "length-128 speedup"

    echo "== fig8 all-pairs benchmark (writes BENCH_fig8.json) =="
    cargo run --release -p compose-bench --bin all_pairs

    # Perf gate: prepared-and-shared model analysis must keep the
    # 187-model all-pairs workload >= 2x faster than per-pair recompute.
    gate BENCH_fig8.json speedup_prepared_reuse ">=" 2.0 "all-pairs prepared-reuse speedup"

    # Perf gate: copy-on-write base adoption must keep the per-pair fixed
    # cost (tiny duplicate-only push vs growing bases) >= 1.5x cheaper
    # than eager clone-on-adopt.
    gate BENCH_fig8.json speedup_fixed_cost ">=" 1.5 "fig8 fixed-cost speedup (COW adoption)"

    echo "== long-chain values benchmark (writes BENCH_values.json) =="
    cargo run --release -p compose-bench --bin long_chain_values

    # Perf gate: incremental initial-value maintenance must keep the
    # length-128 value-heavy chain >= 2x faster than per-push re-collect.
    gate BENCH_values.json speedup_incremental_values_at_length_128 ">=" 2.0 "length-128 incremental-values speedup"

    echo "== corpus match benchmark (writes BENCH_match.json) =="
    cargo run --release -p compose-bench --bin corpus_match

    # Perf gate: posting-list candidate generation must stay >= 5x faster
    # than the naive per-model VF2 scan over the 187-model fig8 corpus
    # (the bench also asserts indexed hit sets == naive hit sets for
    # every query under every semantics level before timing anything).
    gate BENCH_match.json speedup_candidate_generation ">=" 5.0 "corpus-match candidate-generation speedup"

    echo "== pipeline conflict benchmark (writes BENCH_pipeline.json) =="
    cargo run --release -p compose-bench --bin pipeline_conflict

    # Perf gate: the default engine (incremental cached-key renaming) must
    # stay >= 1.5x faster than the full-recompute engine on the
    # conflict-heavy corpus chain; both run the Fig. 4 passes in one
    # serial order. BENCH_pipeline.json records the host parallelism the
    # run had (its JSON keys keep their historical "pipelined" names).
    gate BENCH_pipeline.json speedup_pipelined_vs_serial ">=" 1.5 "conflict-corpus pipelined speedup"

    echo "== snapshot load benchmark (writes BENCH_serve.json) =="
    cargo run --release -p compose-bench --bin serve_snapshot

    # Perf gate: loading a prepared-corpus snapshot (decode only — no
    # re-canonicalisation, no re-analysis, lazy graphs/refs) must stay
    # >= 10x faster than rebuilding the corpus from SBML XML. The bench
    # asserts posting-list stats and a 23-query battery are identical
    # between the loaded and rebuilt corpus before timing anything.
    gate BENCH_serve.json speedup_snapshot_load ">=" 10.0 "snapshot-load speedup"

    echo "== 10k-model scale benchmark (writes BENCH_scale.json) =="
    cargo run --release -p compose-bench --bin index_scale

    # Perf gate: absorbing a 100-model batch through MatchIndex::insert
    # must stay >= 10x cheaper than rebuilding the 10k-model index from
    # scratch — the whole point of the daemon's in-place UPSERT path.
    # (The bench asserts bit-identical answers across shard counts
    # 1/2/4/8 before timing anything.)
    gate BENCH_scale.json speedup_incremental_append ">=" 10.0 "incremental-append speedup"

    # Perf gate: scatter-gather query latency must stay flat-to-sublinear
    # in the shard count — 8 shards may cost at most 1.5x a single shard
    # on the same 10k corpus, or partitioning overhead has eaten the
    # parallelism sharding exists to provide.
    gate BENCH_scale.json latency_ratio_shards_8_vs_1 "<=" 1.5 "8-shard vs 1-shard latency ratio"

    echo "== cluster scatter-gather benchmark (writes BENCH_cluster.json) =="
    cargo run --release -p compose-bench --bin cluster_scatter

    # Perf gate: a MATCH through the coordinator fronting 4 shard
    # daemons may cost at most 1.5x the same request through a 1-shard
    # cluster over the 10k corpus — the scatter fans out concurrently,
    # so the fan-out must not eat the partitioning. (The bench asserts
    # both widths answer byte-identically to a single-process daemon
    # before timing anything.)
    gate BENCH_cluster.json latency_ratio_cluster_4_vs_1 "<=" 1.5 "4-shard vs 1-shard cluster MATCH latency ratio"

    # Perf gate: absorbing a 100-model batch as coordinator-routed
    # UPSERT frames must stay >= 10x cheaper than re-preparing and
    # rebuilding the 10k index from source models.
    gate BENCH_cluster.json speedup_cluster_upsert ">=" 10.0 "coordinator UPSERT speedup"

    echo "== guard overhead benchmark (writes BENCH_robust.json) =="
    cargo run --release -p compose-bench --bin robust_overhead

    # Perf gate: fault containment + budget metering on the fast path
    # (push_guarded with an unlimited meter vs plain push) must cost
    # <= 5%. The value can be negative (noise); the grep is sign-tolerant.
    gate BENCH_robust.json guard_overhead_pct "<=" 5.0 "guard overhead"
fi

echo "CI OK"
