#!/usr/bin/env bash
# Builds the `case_tool` service binary and the benchmark program from
# this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, scratch data directories
# and trace files all land under $CARGO_TARGET_DIR (default
# .bench_build). The last stdout line is the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p depcase-service --bin case_tool >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/depbench" \
    --server "$CARGO_TARGET_DIR/release/case_tool" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" "$@"
