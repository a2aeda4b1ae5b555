#!/usr/bin/env python3
"""Self-test of scripts/bench_check.py. Copies the script and the committed
BENCH_*.json records into a temporary git repository, commits them as the
baselines, then edits the working-tree records and checks the gate's verdict:

    python3 tests/bench_check_selftest.py <repository root>
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RECORDS = ["BENCH_sched.json", "BENCH_faults.json", "BENCH_cluster_faults.json",
           "BENCH_shmem.json", "BENCH_dag.json", "BENCH_simperf.json"]


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=selftest",
                    "-c", "user.email=selftest@localhost",
                    "-c", "commit.gpgsign=false", *args],
                   check=True, capture_output=True)


def edit(repo, name, change):
    path = repo / name
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def gate(repo):
    run = subprocess.run([sys.executable, str(repo / "scripts" / "bench_check.py")],
                         capture_output=True, text=True)
    return run.returncode, run.stdout + run.stderr


def main(src):
    failures = []

    def expect(what, ok, out):
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)
            print(out)

    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp)
        (repo / "scripts").mkdir()
        shutil.copy(src / "scripts" / "bench_check.py", repo / "scripts")
        for name in RECORDS:
            shutil.copy(src / name, repo)
        git(repo, "init", "-q")
        git(repo, "add", ".")
        git(repo, "commit", "-q", "-m", "baselines")

        rc, out = gate(repo)
        expect("unchanged records pass", rc == 0, out)

        first = next(iter(json.loads((repo / "BENCH_shmem.json").read_text())["metrics"]))
        edit(repo, "BENCH_shmem.json", lambda d: d["metrics"].update({first: d["metrics"][first] + 1}))
        rc, out = gate(repo)
        expect("one changed simulated-cycle value fails and is named",
               rc != 0 and "BENCH_shmem.json" in out and f"{first}:" in out, out)
        git(repo, "checkout", "--", ".")

        edit(repo, "BENCH_dag.json", lambda d: d["metrics"].pop("piped_e2e_p50_cycles"))
        rc, out = gate(repo)
        expect("one removed key fails and is named",
               rc != 0 and "piped_e2e_p50_cycles" in out, out)
        git(repo, "checkout", "--", ".")

        def slower(doc):
            for b in doc["benchmarks"]:
                if b["name"] == "BM_EngineEventThroughput":
                    b["items_per_second"] *= 0.75
        edit(repo, "BENCH_simperf.json", slower)
        rc, out = gate(repo)
        expect("engine throughput 25% slower warns and passes",
               rc == 0 and "::warning::" in out and "BM_EngineEventThroughput" in out, out)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
