#!/usr/bin/env bash
# Builds the release spg-server and the benchmark from source, then runs
# one benchmark invocation (see spgbench/README.md). From the repository
# root:
#   bash spgbench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#   bash spgbench/run.sh --smoke
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p spg-server --bin spg-server >&2
cargo build --release --offline --quiet --manifest-path spgbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/spgbench" \
    --server "$CARGO_TARGET_DIR/release/spg-server" \
    --data-dir "$CARGO_TARGET_DIR/spgbench-data" \
    "$@"
