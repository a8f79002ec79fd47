#!/usr/bin/env bash
# Run every simulator harness (Fig. 1, Fig. 2, the three ablations and the
# campus deployment) and compare what each prints with the series committed
# under bench/figures/. The harnesses are deterministic, so every line
# except the wall-clock one must match exactly; a harness that exits
# non-zero (a failed acceptance check) fails the script too.
#
#   scripts/check_figures.sh [BUILD_DIR]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"

for fig in fig1_dsearch_speedup fig2_dprml_speedup ablate_granularity \
           ablate_churn ablate_hedging campus_deployment; do
  out="$build/$fig.out"
  status=0
  "$build/bench/$fig" >"$out" || status=$?
  cat "$out"
  if [[ $status -ne 0 ]]; then
    echo "$fig exited $status" >&2
    exit "$status"
  fi
  grep -v '^wall-clock' "$out" | diff -u "bench/figures/$fig.txt" -
done
echo "figures OK: series identical to bench/figures/"
