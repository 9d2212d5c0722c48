#!/usr/bin/env bash
# Builds the benchmark in release mode (offline; every dependency is a path
# into this repository) and runs it.
#
#   benchmark/run.sh                       every workload untraced, then traced
#   benchmark/run.sh --repeat 3            ... three untraced sets, with the spread check
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is the result object
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/cdmpp-benchmark" --git-rev "$rev" --out-dir benchmark/out "$@"
