#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark. Run from the repository root:

    python3 perfbench/test/selftest.py

1. A tiny-size pass over every workload, untraced and traced, prints every
   end-to-end and per-layer metric named in BENCHMARK.json with its unit,
   every job verifies against its serial reference, and error_rate is 0.
2. A tampered serial reference trips the correctness gate: the run exits
   non-zero, reports correct=false and names the mismatching job.
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL {workload} trace={trace}: no output\n{proc.stderr}")
    return proc.returncode, proc.stdout, json.loads(lines[-1])


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, _, result = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(rc == 0 and result["correct"] and result["failed"] == 0,
                  f"{tag}: every job matches its serial reference")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: prints exactly the {key} metrics "
                               "with their units")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{tag}: every value is a number")
            if trace:
                check(result["metrics"]["error_rate"]["value"] == 0,
                      f"{tag}: error_rate is 0")

    rc, out, result = run("dboot_tiny", 0, "--tamper-reference")
    check(rc != 0 and not result["correct"] and result["failed"] >= 1
          and "MISMATCH" in out,
          "a tampered reference trips the correctness gate")
    print("selftest passed")


if __name__ == "__main__":
    main()
