#!/usr/bin/env bash
# Builds the store daemon and the benchmark binary in release mode from
# this checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload kv-write-small --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last line of standard output is the
# JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/store || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (crates/ and perfbench/ not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet -p dynvote-store --bin dynvote-stored 1>&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/dynvote-perfbench" --bin-dir "$target/release" "$@"
