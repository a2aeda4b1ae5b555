#!/usr/bin/env python3
"""Build the repository benchmark (perfbench/epi_bench) and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chip_serve --seed 1 --seconds 50 --trace 0

The benchmark is configured in Release into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and rebuilt incrementally on every call, so a
fresh checkout pays for one build on its first run. Build output goes to
stderr; the last line of stdout is the result JSON printed by epi_bench. With
--trace 1 the spans of the traced run are written beside the build, to
spans-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("chip_serve", "chip_pipelines")


def source_revision() -> str:
    """The git commit of the checkout, or "unknown" outside a git clone."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        top, rev = out.stdout.split()
        if Path(top).resolve() == ROOT:
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return "unknown"


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources at src/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir / "epi_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_revision()]
    if args.trace:
        cmd += ["--spans", str(build_dir / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    # Stop the benchmark with this script: a SIGTERM becomes SystemExit, and
    # the child is terminated and waited for before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
