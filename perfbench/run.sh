#!/usr/bin/env bash
# Build `bikron` and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--out FILE]
#   bash perfbench/run.sh summarize RUNS.jsonl...
#
# Run from the repository root. Both binaries land in one target
# directory ($CARGO_TARGET_DIR, default .bench_build), so the benchmark
# finds `bikron` beside its own executable.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p bikron-cli --bin bikron --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" \
    --target-dir "$target" >&2

exec "$target/release/perfbench" "$@"
