#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
# Usage: ./ci.sh [--no-clippy] [--no-fmt]
set -euo pipefail
cd "$(dirname "$0")"

run_fmt=1
run_clippy=1
for arg in "$@"; do
    case "$arg" in
        --no-fmt) run_fmt=0 ;;
        --no-clippy) run_clippy=0 ;;
        *) echo "unknown flag $arg" >&2; exit 2 ;;
    esac
done

if [ "$run_fmt" = 1 ]; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
fi

if [ "$run_clippy" = 1 ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy -- -D warnings"
        cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed; skipping"
    fi
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo bench --no-run (smoke-compile the bench targets)"
cargo bench --no-run

echo "==> perfbench build + tests (the benchmark of record compiles against the crates' APIs)"
cargo build --offline --release --manifest-path perfbench/Cargo.toml
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "==> ftcg-lint (workspace invariant rules + waiver staleness, blocking)"
target/release/ftcg-lint

echo "==> lint smoke (seeded violations must fail with the right rule IDs)"
bash scripts/lint_smoke.sh target/release/ftcg-lint

echo "==> cargo test -q"
cargo test -q

echo "==> allocation gate (release; counting-allocator proof of zero steady-state allocs)"
cargo test -q --release -p ftcg-solvers --test alloc_gate

echo "==> shard → merge → diff smoke (byte-identical campaign artifacts)"
bash scripts/shard_smoke.sh target/release/ftcg

echo "==> trace → report smoke (deterministic telemetry, journal reconciliation)"
bash scripts/trace_smoke.sh target/release/ftcg

echo "==> bench observatory smoke (record, migrate, deterministic gate exits)"
bash scripts/bench_smoke.sh target/release/ftcg

echo "==> advisory bench regression gate (vs the checked-in baseline)"
if [ -f BENCH_2026-08-08.json ]; then
    target/release/ftcg bench --suite quick --runs 2 \
        --against BENCH_2026-08-08.json --warn-only
    target/release/ftcg bench --suite kernels --runs 3 \
        --against BENCH_2026-08-08.json --warn-only
else
    echo "    no checked-in baseline; skipping"
fi

echo "CI gate passed."
