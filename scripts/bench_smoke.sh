#!/usr/bin/env bash
# Bench smoke run: execute both micro bench suites briefly and emit their
# schema-versioned JSON files (BENCH_micro_kernels.json,
# BENCH_micro_reuse.json) into $ADR_BENCH_JSON_DIR (default: repo root).
#
# This is the single entry point for producing bench JSON — the checked-in
# baselines at the repo root and CI's fresh run both come from here, so
# benchmark selection and flags cannot drift between the two.
#
# Usage: scripts/bench_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
# Keep the run short: the point is the JSON plumbing and a coarse
# trajectory, not publication-grade numbers.
MIN_TIME="${ADR_BENCH_MIN_TIME:-0.01}"
# The 1- and 4-thread rows: the single-core cost and the scaling.
FILTER="${ADR_BENCH_FILTER:-threads:[14](/|\$)}"

for suite in micro_kernels micro_reuse; do
  bin="$BUILD_DIR/bench/$suite"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR --target $suite)" >&2
    exit 2
  fi
  echo "== $suite (filter=$FILTER, min_time=$MIN_TIME) =="
  "$bin" --benchmark_filter="$FILTER" --benchmark_min_time="$MIN_TIME"
done
