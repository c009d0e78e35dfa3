#!/usr/bin/env bash
# Run every figure-class experiment at desk scale and drop the CSVs under
# $AERIALFL_OUT (default ./results). Expects the package to be installed
# (pip install -e .). Pass a seed as the first argument (default 0).
#
# A step that exits nonzero (a partial failure exits 1) does not stop the
# steps after it; the failing steps are named at the end and the script
# then exits 1.
set -uo pipefail

SEED="${1:-0}"
OUT="${AERIALFL_OUT:-results}"
failed=()

run() {  # run TITLE SUBCOMMAND [ARGS...]
    echo "== $1 =="
    shift
    aerialfl "$@" || failed+=("$1 (exit $?)")
}

run "coverage vs height (analytic + Monte-Carlo)" \
    coverage --seed "$SEED" --trials 5000 --out "$OUT"
run "training trajectories, all aggregators" \
    train --seed "$SEED" --out "$OUT"
run "local epoch sweep" \
    sweep-e --seed "$SEED" --aggregator joint --aggregator ul-only --out "$OUT"
run "altitude sweep" \
    sweep-height --seed "$SEED" --aggregator joint --out "$OUT"
run "environment comparison" \
    env-compare --seed "$SEED" --aggregator joint --out "$OUT"
run "closed forms vs Monte-Carlo oracles" \
    validate --seed "$SEED" --trials 20000

if ((${#failed[@]})); then
    echo "failed steps: ${failed[*]}; CSVs in $OUT/" >&2
    exit 1
fi
echo "done; CSVs in $OUT/"
