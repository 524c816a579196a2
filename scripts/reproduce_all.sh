#!/usr/bin/env bash
# Regenerate the paper's entire evaluation and record it.
#
#   scripts/reproduce_all.sh [smoke|default|full]
#
# Runs the calibration checks, then `all` (Fig. 1, Fig. 2, Table 1 and the
# §5 ratio summary, each sweep run once), then the speedup-vs-best-
# sequential table.
# Writes each binary's stdout to results/<scale>/<binary>.txt, so a smoke
# run (a scripts/ci.sh leg) never overwrites a default or full record.
set -euo pipefail
cd "$(dirname "$0")/.."
SCALE="${1:-default}"
case "$SCALE" in
smoke | default | full) ;;
*)
    echo "usage: scripts/reproduce_all.sh [smoke|default|full]" >&2
    exit 2
    ;;
esac
OUT="results/$SCALE"
mkdir -p "$OUT"

echo "== building (release) =="
cargo build --release --offline -p archgraph-bench

run() {
    local name="$1"
    shift
    echo "== $name =="
    "./target/release/$name" "$@" | tee "$OUT/$name.txt"
}

run calibrate "$SCALE"
run all "$SCALE"
run speedup "$SCALE"

echo
echo "results recorded under $OUT/; see EXPERIMENTS.md for the"
echo "paper-vs-measured interpretation."
