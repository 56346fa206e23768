#!/usr/bin/env python3
"""Check that the deterministic half of the ledger repeats exactly.

    python3 latbench/test_ledger.py [WORKLOAD ...]

Runs the traced benchmark twice per workload (default: all three) at the
default seed and once more at another seed, and fails unless every run is
correct and the exact counts (scheduler calls, instruction draws, steps,
snapshot bytes, windows and every simulated component counter) agree
between the two default-seed runs.  Run from the repository root; takes a
few minutes.
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["fig8-quick", "kernels-quick", "sampled-long"]
EXACT = {"sim.steps", "core.policy_calls", "mc.policy_calls",
         "workload.next_calls", "ckpt.snapshot_bytes", "ckpt.windows"}
EXACT_PREFIXES = ("gpu.", "cache.", "icnt.", "dram.", "mc.read_queueing",
                  "mc.drains", "core.groups", "core.merb", "core.coord")


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def exact_counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k in EXACT or k.startswith(EXACT_PREFIXES)}


def main():
    failures = []
    for workload in sys.argv[1:] or WORKLOADS:
        first, second, other = traced(workload, 1), traced(workload, 1), traced(workload, 7)
        for name, r in (("first", first), ("second", second), ("seed 7", other)):
            if not r["correct"] or r["failed"] != 0:
                failures.append(f"{workload}: {name} run not correct")
        a, b = exact_counts(first), exact_counts(second)
        if not a:
            failures.append(f"{workload}: no exact counts reported")
        for key in sorted(a):
            if a[key] != b.get(key):
                failures.append(f"{workload}: {key} {a[key]} != {b.get(key)}")
        if exact_counts(other) == a:
            failures.append(f"{workload}: seed 7 produced the seed-1 counts")
        print(f"{workload}: {len(a)} exact counts compared", file=sys.stderr)
    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print("ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
