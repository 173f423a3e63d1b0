#!/usr/bin/env bash
# The benchmark's one command.  Builds the release `nsc` binary and
# `nsc-loadbench` from source, then hands every argument to the latter:
#
#   bench/run.sh                          four workloads, untraced then traced -> bench/out/run.json
#   bench/run.sh --workload W --seed N    one workload; --quick for 1 s phases (not comparable)
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last stdout line is its result JSON
#   bench/run.sh --compare a.json b.json  verdict per workload x end-to-end metric
#
# Exits non-zero on any failed request or a
# child that does not exit 0 after `shutdown`; a late open-loop generator
# is stamped in the output.
set -euo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$CARGO_TARGET_DIR" in
/*) ;;
*) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
# Build output goes to stderr: stdout carries only the benchmark's result.
cargo build --release --offline --manifest-path "$ROOT/Cargo.toml" --bin nsc >&2
cargo build --release --offline --manifest-path "$ROOT/bench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/nsc-loadbench" --root "$ROOT" "$@"
