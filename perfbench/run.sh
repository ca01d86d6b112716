#!/usr/bin/env bash
# Builds p3-serve (the repository's workspace) and the benchmark (its own
# workspace) from source, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p p3-service --bin p3-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
P3_SERVE_BIN="$CARGO_TARGET_DIR/release/p3-serve" \
    exec "$CARGO_TARGET_DIR/release/p3-perfbench" "$@"
