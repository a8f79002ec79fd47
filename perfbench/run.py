#!/usr/bin/env python3
"""Build and run the hdcs end-to-end job benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dsearch_large --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark (the hdcs libraries
from src/ plus the hdcs_e2e binary in perfbench/src) into .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout is hdcs_e2e's JSON result. WAL directories live under
.bench_work/ (which must not be on tmpfs) and are removed after the run;
the traced run (--trace 1) leaves its spans in
.bench_work/spans-<workload>-<seed>.jsonl.

Extra flags are passed to hdcs_e2e: --tiny (small inputs, 3 jobs) and
--tamper-reference (corrupt one serial reference; the run must then fail
the correctness gate).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
BINARY = BUILD / "hdcs_e2e"
RUN_TIMEOUT_S = 900


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hdcs_e2e",
                  "-j", jobs])
    for cmd in steps:
        # stdout -> stderr: only hdcs_e2e writes to our stdout.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    build()
    WORK.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK / f"run-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out",
                str(WORK / f"spans-{args.workload}-{args.seed}.jsonl")]
    cmd += extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: hdcs_e2e timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
