#!/usr/bin/env bash
# Build the benchmark and the archgraphd daemon from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload graph-mta --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the last
# line of standard output is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml
cargo build --release --offline -q -p archgraphd --bin archgraphd
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/archgraphd" "$@"
