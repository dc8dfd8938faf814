#!/usr/bin/env bash
# Tier-1 verification: build, run the test suite at each thread count in
# $ADR_TIER1_THREADS (default "1 4"), then exercise the concurrency-heavy
# tests under ThreadSanitizer.
#
# The suite builds into $ADR_TIER1_BUILD_DIR (default build) configured
# with $ADR_TIER1_CMAKE_ARGS, so the scalar-only gate is
#   ADR_TIER1_BUILD_DIR=build-nosimd ADR_TIER1_CMAKE_ARGS=-DADR_SIMD=OFF \
#     scripts/tier1.sh --no-tsan
#
# The TSan test list lives in scripts/tsan_tests.txt — the same file the
# tsan_suite CMake target and CI read, so the three can never drift.
#
# Usage: scripts/tier1.sh [--no-tsan | --tsan-only]

set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BUILD=1
RUN_TSAN=1
case "${1:-}" in
  --no-tsan) RUN_TSAN=0 ;;
  --tsan-only) RUN_BUILD=0 ;;
  "") ;;
  *)
    echo "usage: scripts/tier1.sh [--no-tsan | --tsan-only]" >&2
    exit 2
    ;;
esac

# Strip comments/blanks from the shared TSan test list.
mapfile -t TSAN_TESTS < <(sed -e 's/#.*//' -e 's/[[:space:]]*$//' \
                              -e '/^$/d' scripts/tsan_tests.txt)

if [[ "$RUN_BUILD" == "1" ]]; then
  BUILD_DIR="${ADR_TIER1_BUILD_DIR:-build}"
  read -r -a CMAKE_ARGS <<< "${ADR_TIER1_CMAKE_ARGS:-}"
  echo "== configure + build ($BUILD_DIR ${CMAKE_ARGS[*]}) =="
  cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}" >/dev/null
  cmake --build "$BUILD_DIR" -j

  for threads in ${ADR_TIER1_THREADS:-1 4}; do
    echo "== ctest, ADR_THREADS=$threads =="
    ADR_THREADS="$threads" ctest --test-dir "$BUILD_DIR" --output-on-failure -j
  done
fi

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "== ThreadSanitizer: ${TSAN_TESTS[*]} =="
  # Configure is cheap and reuses the CMake cache; the build tree's object
  # files survive across runs, so only changed sources recompile.
  cmake -B build-tsan -S . -DADR_TSAN=ON >/dev/null
  cmake --build build-tsan -j --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    echo "-- tsan: $t"
    ADR_THREADS=4 "./build-tsan/tests/$t" >/dev/null
  done
fi

echo "tier1: OK"
