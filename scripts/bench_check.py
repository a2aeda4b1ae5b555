#!/usr/bin/env python3
"""Check the BENCH_*.json records scripts/bench.sh writes against the
committed baselines. Run from anywhere, after scripts/bench.sh:

    python3 scripts/bench_check.py

Each baseline is read with `git show HEAD:<file>`, so the working-tree file
is the fresh run and the committed one is the reference. RECORDS below is
the one place that says which records exist and how each is gated:

  * exact     -- simulated-cycle records. The simulator is deterministic, so
                 the bench name, the metric key set and every value must
                 match the baseline; any difference fails and is printed as
                 `key: old → new`. To move a number, regenerate the record
                 with scripts/bench.sh, commit it and explain it.
  * wallclock -- BENCH_simperf.json, google-benchmark host timings. Noisy
                 across machines, so a >20% slowdown only prints a GitHub
                 `::warning::` and never fails. The BM_ClusterServe worker
                 sweep is compared only when the run and the baseline saw
                 the same num_cpus: its shape is a property of the core
                 count.

Exit status: 0 when every exact record matches, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 0.2  # wall-clock drift that warns


def exact(name, base, cur):
    """Every difference between two simulated-cycle records, as lines."""
    diffs = []
    if base.get("bench") != cur.get("bench"):
        diffs.append(f"bench: {base.get('bench')!r} → {cur.get('bench')!r}")
    old, new = base.get("metrics", {}), cur.get("metrics", {})
    for key in old:
        if key not in new:
            diffs.append(f"{key}: {old[key]!r} → (missing)")
        elif old[key] != new[key]:
            diffs.append(f"{key}: {old[key]!r} → {new[key]!r}")
    for key in new:
        if key not in old:
            diffs.append(f"{key}: (not in baseline) → {new[key]!r}")
    return diffs


def wallclock(name, base, cur):
    """Warns on >20% slowdowns in the engine and cluster rows; never fails."""
    def rows(doc):
        return ({b["name"]: b for b in doc.get("benchmarks", [])},
                doc.get("context", {}).get("num_cpus"))

    (old, old_cpus), (new, new_cpus) = rows(base), rows(cur)
    engine = "BM_EngineEventThroughput"
    b, c = (old.get(engine, {}).get("items_per_second"),
            new.get(engine, {}).get("items_per_second"))
    if not b or not c:
        print(f"::warning::{name}: {engine} missing from baseline or current run")
    elif c < (1 - TOLERANCE) * b:
        print(f"::warning::{name}: {engine} regressed: {c / 1e6:.1f}M/s vs "
              f"baseline {b / 1e6:.1f}M/s ({c / b:.0%}); investigate if this "
              f"persists across runs")
    else:
        print(f"{name}: {engine} {c / 1e6:.1f}M/s vs baseline {b / 1e6:.1f}M/s (ok)")

    cluster = sorted(k for k in old if k.startswith("BM_ClusterServe"))
    if not cluster:
        print(f"::warning::{name}: no BM_ClusterServe rows in baseline")
    elif old_cpus != new_cpus:
        print(f"::notice::{name}: BM_ClusterServe comparison skipped: this run "
              f"saw num_cpus={new_cpus}, the baseline {old_cpus}")
    else:
        for key in cluster:
            b, c = old[key].get("real_time"), new.get(key, {}).get("real_time")
            if not b or not c:
                print(f"::warning::{name}: {key} missing from baseline or current run")
            elif c > (1 + TOLERANCE) * b:
                print(f"::warning::{name}: {key} regressed: {c / 1e6:.1f}ms vs "
                      f"baseline {b / 1e6:.1f}ms ({c / b:.0%})")
            else:
                print(f"{name}: {key} {c / 1e6:.1f}ms vs baseline {b / 1e6:.1f}ms (ok)")
    return []


RECORDS = [
    ("BENCH_sched.json", exact),
    ("BENCH_faults.json", exact),
    ("BENCH_cluster_faults.json", exact),
    ("BENCH_shmem.json", exact),
    ("BENCH_dag.json", exact),
    ("BENCH_simperf.json", wallclock),
]


def load(name):
    """(baseline, current) documents of one record."""
    shown = subprocess.run(["git", "-C", str(ROOT), "show", f"HEAD:{name}"],
                           capture_output=True, text=True, check=True)
    return json.loads(shown.stdout), json.loads((ROOT / name).read_text())


def main():
    failed = 0
    for name, check in RECORDS:
        try:
            base, cur = load(name)
        except (OSError, ValueError, subprocess.CalledProcessError) as e:
            print(f"::error::{name}: cannot read baseline and current run: {e}")
            failed += 1
            continue
        diffs = check(name, base, cur)
        if diffs:
            print(f"::error::{name}: {len(diffs)} value(s) differ from the "
                  f"committed baseline")
            for line in diffs:
                print(f"  {line}")
            failed += 1
        elif check is exact:
            print(f"{name}: {len(cur.get('metrics', {}))} metrics match the "
                  f"committed baseline exactly (ok)")
    if failed:
        print(f"{failed} record(s) failed. If the change is intended, "
              f"regenerate with scripts/bench.sh, commit the records and "
              f"say why in CHANGES.md.")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
