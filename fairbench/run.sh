#!/usr/bin/env bash
# Builds fairschedd and the benchmark from source, then runs one workload:
#
#   bash fairbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-.bench_build}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p fairbench -p fairsched-served --bin fairbench --bin fairschedd >&2
exec "$CARGO_TARGET_DIR/release/fairbench" --daemon "$CARGO_TARGET_DIR/release/fairschedd" "$@"
