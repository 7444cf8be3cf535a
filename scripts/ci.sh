#!/usr/bin/env bash
# CI gate: release build, full test suite, zero-warning clippy.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== build the repository benchmark (its own workspace, built against these crates) =="
# --locked: a crate-manifest change that would rewrite tmnbench/Cargo.lock
# fails here instead of silently editing benchmark files during a run.
cargo build --release --offline --locked --manifest-path tmnbench/Cargo.toml

echo "== test =="
cargo test -q --workspace

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== recurrent graph-node budget (<=3 nodes per step x direction) =="
cargo run --release -p tmn-bench --bin profile -- --nodes

echo "== profile smoke (observability artifacts) =="
cargo run --release -p tmn-bench --bin profile -- --quick
test -s results/PROFILE_ops.json
test -s results/PROFILE_telemetry.jsonl
cargo run --release -p tmn-bench --bin profile -- --check

echo "== bench_diff self-check (regression gate dry run) =="
# Identity diff of a results file against itself must pass; a synthetic
# perturbation of every gated metric must be caught. Two-run usage:
#   cargo run --release -p tmn-bench --bin bench_diff -- base.json head.json
cargo run --release -p tmn-bench --bin bench_diff -- --self-check results/PROFILE_ops.json
if [ -s results/BENCH_throughput.json ]; then
  cargo run --release -p tmn-bench --bin bench_diff -- --self-check results/BENCH_throughput.json
fi

echo "== resume smoke (kill-and-resume bit-identical, threads=1 and 4) =="
cargo run --release -p tmn-bench --bin resume_smoke

echo "== serve smoke (lifecycle, degraded mode, cache recovery) =="
cargo run --release -p tmn-bench --bin serve_smoke

echo "== store smoke (mmap round-trip, corruption, blocked GT, sharded eval, warm start) =="
cargo run --release -p tmn-bench --bin store_smoke

echo "== stream smoke (point-by-point replay, bitwise parity, window query, reindex filter) =="
cargo run --release -p tmn-bench --bin stream_smoke

echo "== trace smoke (span trees, chrome export, exemplar linkage, queue metrics) =="
cargo run --release -p tmn-bench --bin trace_smoke

echo "CI OK"
