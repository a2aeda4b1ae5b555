#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json briefly, untraced once and traced twice,
and checks that:
  * each run exits 0 and its last stdout line is the result JSON with exactly
    the keys correct/attempted/failed/metrics, correct and no failed operation;
  * the untraced run reports every end_to_end metric and the traced run every
    per_layer metric, each with the unit BENCHMARK.json gives it;
  * every count metric (unit count, cycles or bytes) and every simulated ratio
    repeats exactly between the two traced runs.

Run from the root of the repository (about a minute after the first build):

    python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "cycles", "bytes"}
# Simulated (not host-time) metrics whose unit does not say so.
EXACT_NAMES = {
    "sched.allocator.placed_frac",
    "core.matmul_offchip.512.gflops",
    "core.matmul_offchip.1024.gflops",
    "core.matmul_offchip.512.transfer_fraction",
    "core.matmul_offchip.1024.transfer_fraction",
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        raise AssertionError(f"{where}: exit {out.returncode}\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{where}: {result['attempted']} attempted, "
                             f"{result['failed']} failed")
    return result["metrics"]


def check_units(where: str, metrics: dict, spec: list) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    if set(metrics) != set(want):
        raise AssertionError(f"{where}: missing {sorted(set(want) - set(metrics))}, "
                             f"unexpected {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics[name]
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            raise AssertionError(f"{where}: {name} is {got}, want unit {unit}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (wl["name"] for wl in bench["workloads"]):
        check_units(f"{w} untraced", run(w, 0), bench["end_to_end"])
        first, second = run(w, 1), run(w, 1)
        check_units(f"{w} traced", first, bench["per_layer"])
        for m in bench["per_layer"]:
            name = m["name"]
            if m["unit"] in EXACT_UNITS or name in EXACT_NAMES:
                a, b = first[name]["value"], second[name]["value"]
                if a != b:
                    raise AssertionError(f"{w}: {name} read {a} then {b}")
        print(f"{w}: ok")
    print("smoke test: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
