#!/usr/bin/env bash
# Tier-1 CI gate: build, test, lint — all offline, all under a global
# timeout so a deadlocked test turns into a failure instead of a hung job.
#
#   scripts/ci.sh [timeout-seconds]
#
# Exits non-zero if any step fails.
set -euo pipefail

cd "$(dirname "$0")/.."

LIMIT="${1:-1200}"

run() {
    echo "==> $*"
    timeout --signal=KILL "$LIMIT" "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo clippy --offline --workspace --all-targets -- -D warnings

# Examples gate: the README and the verify notes tell users to run the
# examples, and `cargo test` only compiles them. Six of them assert their
# numeric results (legal routes, factorizations and grids within
# tolerance), so build them once in release and run each one.
run cargo build --release --offline --examples
for example in examples/*.rs; do
    run "target/release/examples/$(basename "$example" .rs)"
done

# Benchmark build gate: the ledger benchmark is its own package over the
# workspace crates, so a crate API change that breaks it fails here rather
# than in a benchmark run.
run cargo test -q --offline --manifest-path ledger/Cargo.toml

# Analyze gate: run the happens-before / lock-order / lint passes over all
# six apps at their small-scale inputs (the golden TSV's), default and
# fault-injected schedules. The binary exits non-zero on any race or lock
# cycle; the diff check makes lint findings (and any
# change in the analysis surface) reviewable instead of silent.
run cargo run --release --offline -q -p cool-analyze -- analyze_findings.json
run git diff --exit-code -- analyze_findings.json

# cool-check gate: bounded schedule exploration of the serve and queue
# virtual machines (naive + sleep-set DPOR, zero violations, reduction
# required), exhaustive small-config protocol reachability, and the pinned
# app sweep in coherence-checked mode. Both machines run shipped code: the
# queue machine the real steal scan, the serve machine the work server's
# own request books (admit/start/settle). The byte-stable report is diffed so
# any change in the explored state space is reviewable; the seeded-defect
# suite proves each protocol invariant actually fires when its rule is
# broken.
run cargo run --release --offline -q -p cool-analyze --bin cool-check -- cool_check.json
run git diff --exit-code -- cool_check.json
run cargo test -q --offline -p cool-analyze --test check_seeded

# Observability gate: a fixed-seed traced run of one app, on the contended
# 8-processor machine results/smoke uses, through the one trace exporter
# (figures --trace-out), must emit a Perfetto-loadable Chrome trace and the
# schema'd cool-metrics-v1 summary (the producer
# validates the schema and that per-set rows sum exactly to the totals
# before writing). The metrics document is byte-diffed against the
# committed golden so any drift in scheduling, locality attribution or the
# contention engine's per-resource counters is reviewable instead of
# silent.
mkdir -p target
run cargo run --release --offline -q -p bench --bin figures -- --trace-out target/obs_gate
run grep -q '"schema": "cool-metrics-v1"' target/obs_gate.metrics.json
run grep -q '"traceEvents"' target/obs_gate.trace.json
run cmp tests/gauss_metrics_golden.json target/obs_gate.metrics.json

# Service gate: a fixed-seed chaos replay through the cool-serve work
# server (tight queues, slowed domain, injected request failures and an
# intake stall) must shed and retry — and still lose nothing and double-run
# nothing. The binary exits non-zero if any --require-* fact is missing or
# the accounting invariants break; the --check pass re-validates the
# written cool-serve-v1 document (schema, balanced books, canonical byte
# form) exactly as a consumer would.
run cargo run --release --offline -q -p bench --bin cool-serve -- \
    --smoke --faults --seed 42 --out target/serve_smoke.json \
    --require-zero-lost --require-shed --require-retries
run cargo run --release --offline -q -p bench --bin cool-serve -- \
    --check target/serve_smoke.json

# Behaviour gate: the golden-run sweep (24 repro matrix points at small
# scale, run through the same MatrixPoint::run as every sweep) must match
# the committed TSV byte-for-byte (the workspace test run above already
# includes it; running it by name makes a golden failure unmistakable in
# the log). golden_figures is the exact-count gate: it pins every point's
# refs and simulated cycles, whose sums the removed perf step checked
# against a committed baseline. Wall time is the benchmark's (ledger/) to
# measure.
run cargo test -q --offline --test golden_figures

# Contention gate: the engine's resources must satisfy the M/D/1 closed
# form (mean queueing delay, utilization, monotonicity in offered load) and
# its statistics stay deterministic; the committed full-scale records must
# carry the epoch-2 contention signature (monotone panel waits, the
# contended-vs-zero A/B degradation, Distr beating Base on queueing); and
# the engine unit suite (the hand-worked fold waits included) and the
# zero-contention-equivalence suite run by name so a failure is
# unmistakable in the log. The observability gate above byte-checks the
# engine's per-resource counters on a whole app run.
run cargo test -q --release --offline --test contention_laws
run cargo test -q --release --offline --test contention_repro
run cargo test -q --offline -p dash-sim --lib engine
run cargo test -q --offline -p dash-sim --lib equiv
run cargo test -q --release --offline -p dash-sim --test contention_props

# Threaded-runtime gate: the cool-rt suites (chaos, stress, obs trace and
# the unit tests) and the root suites that drive the threaded runtime and
# the work server, in release mode by name. The runtime's per-task path
# relies on Relaxed/Release/Acquire orderings, and every request through
# the work server takes its books lock; optimized builds exercise both
# hardest (serve_chaos races a drain against a submit).
run cargo test -q --release --offline -p cool-rt
run cargo test -q --release --offline --test threaded_matches_simulated
run cargo test -q --release --offline --test fault_determinism
run cargo test -q --release --offline --test serve_chaos

# Docs gate: rustdoc for the whole workspace must build warning-free —
# this catches broken intra-doc links and (via cool-core's
# #![warn(missing_docs)]) undocumented public API.
RUSTDOCFLAGS="-D warnings" run cargo doc --offline --workspace --no-deps -q

# Reproduction gate: sweep the pinned smoke matrix (2 apps × 2 versions ×
# {1,4} procs) on the threaded runtime and drift-check the records against
# the committed golden within a 2% band. Every sweep simulates every
# point. The sweep is deterministic, so the records and the rendered
# tables must also match the committed ones byte for byte. (The smoke
# sweep takes milliseconds, too short to race against a serial run; the
# full step below races.)
rm -rf target/repro-smoke
run cargo run --release --offline -q -p bench --bin repro -- \
    --smoke --out target/repro-smoke \
    --check results/smoke/records.json --tolerance 0.02
run cmp results/smoke/records.json target/repro-smoke/records.json
run cmp results/smoke/tables.md target/repro-smoke/tables.md
run cmp results/smoke/tables.tsv target/repro-smoke/tables.tsv

# Topology gate: the N-level tree laws (steal order is a permutation,
# nearest-domain-first, 2-level trees byte-match the original scan), the
# partial-last-cluster and pinned-fingerprint regressions, the deep-vs-
# classic config-string separation, and the committed deep-topology sweep
# (3 apps × 5 steal disciplines × {1,8,32,64} processors on the 3-level
# 64-processor machine) re-swept and drift-checked against results/deep
# within the same 2% band; records and rendered tables must match
# byte-for-byte.
run cargo test -q --offline -p cool-core --test topology_props
run cargo test -q --offline --test topology_tree
run cargo test -q --offline --test repro_determinism
rm -rf target/repro-deep
run cargo run --release --offline -q -p bench --bin repro -- \
    --deep --out target/repro-deep \
    --check results/deep/records.json --tolerance 0.02
run cmp results/deep/records.json target/repro-deep/records.json
run cmp results/deep/tables.md target/repro-deep/tables.md
run cmp results/deep/tables.tsv target/repro-deep/tables.tsv

# Adaptive gate: the feedback-policy behavioural tests (rebalancer recovers
# a bad placement, inert adaptation is cycle-identical to the static
# parents, adapt=/rebal= fingerprint segments give adaptive points their
# own config strings, the committed table really contains the claimed
# dominance), then the adaptive ladder (3 apps × 5 versions × {1,8,32,64}
# on the deep machine) re-swept and drift-checked against results/adaptive
# within the same 2% band; records and rendered tables must match
# byte-for-byte.
run cargo test -q --offline --test adaptive_policies
rm -rf target/repro-adaptive
run cargo run --release --offline -q -p bench --bin repro -- \
    --adaptive --out target/repro-adaptive \
    --check results/adaptive/records.json --tolerance 0.02
run cmp results/adaptive/records.json target/repro-adaptive/records.json
run cmp results/adaptive/tables.md target/repro-adaptive/tables.md
run cmp results/adaptive/tables.tsv target/repro-adaptive/tables.tsv

# Full reproduction gate: the committed paper matrix (6 apps × version
# ladders × 1–32 processors at full scale, Panel Cholesky to 24; 102
# points) re-swept on the threaded runtime and drift-checked against
# results/full within the same 2% band; records and rendered tables must
# match byte-for-byte. Every figure table is a slice of this matrix, so the
# step pins build_matrix and the full-scale inputs. The sweep is raced
# against a serial run of the same points: the runtime's records must be
# byte-identical to the serial ones, and with 2 or more workers the
# runtime must finish first (seconds long, so host noise cannot decide it
# the way it could the sub-second deep sweep).
rm -rf target/repro-full
run cargo run --release --offline -q -p bench --bin repro -- \
    --full --race-serial --out target/repro-full \
    --check results/full/records.json --tolerance 0.02
run cmp results/full/records.json target/repro-full/records.json
run cmp results/full/tables.md target/repro-full/tables.md
run cmp results/full/tables.tsv target/repro-full/tables.tsv

echo "CI OK"
