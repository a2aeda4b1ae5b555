#!/usr/bin/env bash
# Benchmark records: a Release build, then every bench that writes a record
# at the repository root:
#   * abl_simperf        -> BENCH_simperf.json        (wall-clock simulator throughput)
#   * abl_sched          -> BENCH_sched.json          (serving throughput/latency sweep)
#   * abl_faults         -> BENCH_faults.json         (goodput/detection under injected faults)
#   * abl_cluster_faults -> BENCH_cluster_faults.json (cluster goodput/recovery under chip faults)
#   * abl_shmem          -> BENCH_shmem.json          (PGAS put/get/barrier/reduce sweep)
#   * abl_dag            -> BENCH_dag.json            (pipeline overlap/handoff policy ablation)
# Run from anywhere:
#
#     scripts/bench.sh [extra google-benchmark args for abl_simperf...]
#
# The committed BENCH_*.json files are the baselines. scripts/bench_check.py
# then compares the fresh records against them: the five simulated-cycle
# records must match exactly, BENCH_simperf.json warns on a >20% slowdown.
# To move a baseline, re-run this script and commit the new files.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
SWEEPS=(sched faults cluster_faults shmem dag)

echo "== Release build =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${JOBS}" --target abl_simperf "${SWEEPS[@]/#/abl_}"

echo "== abl_simperf (results -> BENCH_simperf.json) =="
# Debian's libbenchmark is packaged with an unset build type, so the library
# itself prints a spurious "Library was built as DEBUG" banner to stderr.
# Our binary *is* a Release build (it refuses to run otherwise -- see the
# NDEBUG guard in bench/abl_simperf.cpp); drop that one known-bogus line and
# pass every other stderr line through.
./build-release/bench/abl_simperf \
    --benchmark_out=BENCH_simperf.json --benchmark_out_format=json "$@" \
    2> >(grep -v '^\*\*\*WARNING\*\*\* Library was built as DEBUG' >&2)
echo "Wrote $(pwd)/BENCH_simperf.json"

for s in "${SWEEPS[@]}"; do
  echo "== abl_${s} (results -> BENCH_${s}.json) =="
  "./build-release/bench/abl_${s}" --metrics="BENCH_${s}.json"
  echo "Wrote $(pwd)/BENCH_${s}.json"
done
