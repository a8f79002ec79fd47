#!/usr/bin/env bash
# Run the Fig. 1 and Fig. 2 harnesses and compare what they print with the
# series committed under bench/figures/. The harnesses are deterministic, so
# every line except the wall-clock one must match exactly; a harness that
# exits non-zero (a failed acceptance check) fails the script too.
#
#   scripts/check_figures.sh [BUILD_DIR]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"

for fig in fig1_dsearch_speedup fig2_dprml_speedup; do
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
