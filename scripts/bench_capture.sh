#!/usr/bin/env bash
# Runs the smoke benches that have committed baselines (bench/baselines/)
# and writes one BENCH_*.json capture of each into OUT_DIR. scripts/check.sh
# and the CI bench diff call it once per repetition; scripts/bench_diff.py
# gates on the median of the repetitions.
#
#   scripts/bench_capture.sh BUILD_DIR OUT_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
BUILD_DIR="$1"
OUT_DIR="$2"
mkdir -p "${OUT_DIR}"

# capture name -> bench binary
for entry in "fig10 bench_fig10_parallel_replay" \
             "fig11 bench_fig11_record_overhead" \
             "fig13 bench_fig13_scaleout" \
             "fig14 bench_fig14_cost" \
             "table4 bench_table4_storage" \
             "service bench_service_mixed"; do
  read -r name bin <<< "${entry}"
  BENCH_SMOKE=1 BENCH_JSON="${OUT_DIR}/BENCH_${name}.json" \
      "${BUILD_DIR}/${bin}" > /dev/null
done
