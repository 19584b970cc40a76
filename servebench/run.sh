#!/usr/bin/env bash
# Builds haqjsk-serve and the benchmark from source, then runs one pass.
#
# Usage, from the repository root:
#   bash servebench/run.sh --workload fit_gram|serve_mixed|transform_large \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), cargo's
# messages to stderr; standard output carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f src/bin/haqjsk_serve.rs ]]; then
    echo "servebench: run from the repository root (no haqjsk sources here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin haqjsk-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --server "$CARGO_TARGET_DIR/release/haqjsk-serve" "$@"
