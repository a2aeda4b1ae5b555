#!/usr/bin/env bash
# Full verification sweep: a Release build with the normal test suite, then
# a Debug build with AddressSanitizer/UBSan (-DEPI_SANITIZE=ON) running the
# same suite, then a ThreadSanitizer build (-DEPI_SANITIZE=tsan) running the
# threaded PDES executor tests plus a small parallel cluster serve. Run from
# the repository root:
#
#     scripts/check.sh [extra ctest args...]
#
# Set EPI_SKIP_TSAN=1 to stop after the ASan sweep (CI runs the TSan stage
# as its own parallel job).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}"
ctest --test-dir build-release --output-on-failure -j "${JOBS}" "$@"

echo "== Simulator-performance smoke (Release only) =="
# abl_simperf must only ever run from a Release tree: the binary exits
# non-zero when built without NDEBUG, so a mis-wired build type fails the
# sweep loudly here instead of producing garbage numbers.
./build-release/bench/abl_simperf \
    --benchmark_filter=BM_EngineEventThroughput --benchmark_min_time=0.05 \
    --benchmark_out=/dev/null --benchmark_out_format=json

echo "== Sanitized debug build (ASan+UBSan) =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DEPI_SANITIZE=ON
cmake --build build-asan -j "${JOBS}"
# Leak checking stays off: the deadlock-detection tests deliberately abandon
# suspended coroutine frames (the engine does not own them), which LSan
# reports at exit. ASan/UBSan proper remain fully enabled.
ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}" "$@"

if [[ "${EPI_SKIP_TSAN:-0}" == 1 ]]; then
  echo "== ThreadSanitizer stage skipped (EPI_SKIP_TSAN=1) =="
  echo "All checks passed."
  exit 0
fi

echo "== ThreadSanitizer build (PDES executor) =="
# TSan checks the genuinely multi-threaded code: the SPSC channels, the
# window barrier, and the cluster executor. The sim/parallel test binaries
# cover the synchronisation paths, and the filter's `Cluster` also selects
# ClusterChaos.*, the chip-crash failover run at 4, 1 and 2 workers;
# epi_serve then serves a real multi-chip workload at several worker counts
# under TSan, and the reports must match.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DEPI_SANITIZE=tsan
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
    -R '(Parallel|Cluster|Spsc|Engine|Determinism)' "$@"
for w in 1 2 4; do
  ./build-tsan/tools/epi_serve --chips=2x2 --jobs=6 --parallel="${w}" \
      --report="build-tsan/cluster-report.${w}" > /dev/null
done
cmp build-tsan/cluster-report.1 build-tsan/cluster-report.2
cmp build-tsan/cluster-report.1 build-tsan/cluster-report.4

echo "All checks passed."
