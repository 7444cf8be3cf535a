#!/usr/bin/env bash
# CI gate: release build, full test suite, zero-warning clippy and rustdoc.
# Run from the repository root: ./scripts/ci.sh
#
# CI leaves the tree as it found it. Bins that write `results/` relative to
# the working directory run from a temporary directory, and inside a git work
# tree the gate fails if `git status --porcelain` differs at the end.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT
# Run a tmn-bench bin with the temporary directory as its working directory.
in_tmp_dir() { (cd "$tmp_dir" && cargo run --release --manifest-path "$root/Cargo.toml" -p tmn-bench "$@"); }
in_git=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  in_git=true
  status_before="$(git status --porcelain)"
fi

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

echo "== rustdoc (-D warnings) =="
# Fails on a doc link to a deleted or private item, and on malformed doc HTML.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== recurrent graph-node budget (<=3 nodes per step) =="
cargo run --release -p tmn-bench --bin profile -- --nodes

echo "== profile smoke (observability artifacts, written under the temporary directory) =="
in_tmp_dir --bin profile -- --quick
test -s "$tmp_dir/results/PROFILE_ops.json"
test -s "$tmp_dir/results/PROFILE_telemetry.jsonl"
in_tmp_dir --bin profile -- --check

echo "== bench_diff self-check (regression gate dry run) =="
# Identity diff of a results file against itself must pass; a synthetic
# perturbation of every gated metric must be caught. Two-run usage:
#   cargo run --release -p tmn-bench --bin bench_diff -- base.json head.json
in_tmp_dir --bin bench_diff -- --self-check results/PROFILE_ops.json
if [ -s results/BENCH_throughput.json ]; then
  cargo run --release -p tmn-bench --bin bench_diff -- --self-check results/BENCH_throughput.json
fi

echo "== benchmark output checks (every workload once, 2 s each) =="
# Each run checks its own outputs and exits nonzero when one is wrong:
# served top-10 bitwise equal to ShardSet::query, streamed vectors bitwise
# equal to re-embeds (a one-row stream step against a multi-row
# pre-projection), DTW cells bitwise equal to Metric::Dtw. Run from the
# temporary directory so the benchmark's temporary files land there.
for workload in query_adhoc query_cached stream_append train_tmn exact_gt; do
  (cd "$tmp_dir" && cargo run --release --offline --locked --quiet \
    --manifest-path "$root/tmnbench/Cargo.toml" -- \
    --workload "$workload" --seed 42 --seconds 2 --trace 0)
done

if $in_git; then
  echo "== work tree unchanged by CI =="
  status_after="$(git status --porcelain)"
  if [ "$status_after" != "$status_before" ]; then
    echo "CI changed the work tree (git status --porcelain before vs after):"
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") || true
    exit 1
  fi
fi

echo "CI OK"
