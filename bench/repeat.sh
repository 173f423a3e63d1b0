#!/usr/bin/env bash
# Two full sets of the same code, same seed, back to back, compared with
# each end-to-end metric's own bound; then a third set on another seed,
# shown against the first but not gated.
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
OUT="$HERE/out"
"$HERE/run.sh" --seed 1 --out "$OUT/repeat-a.json" "$@"
"$HERE/run.sh" --seed 1 --out "$OUT/repeat-b.json" "$@"
"$HERE/run.sh" --seed 2 --out "$OUT/repeat-seed2.json" "$@"
echo "== seed 1 vs seed 2 (reported, not gated) =="
"$HERE/run.sh" --compare "$OUT/repeat-a.json" "$OUT/repeat-seed2.json" || true
echo "== seed 1 vs seed 1 again (gated) =="
"$HERE/run.sh" --compare "$OUT/repeat-a.json" "$OUT/repeat-b.json"
