#!/usr/bin/env python3
"""Build and run the latdiv benchmark.

    python3 latbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
benchmark (CMake, Release) into .bench_build/latbench, or into
$CARGO_TARGET_DIR/latbench when that is set; later calls only rebuild what
changed.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Exits 2 without a result when the sources, the
build or the run fail.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run stops starting passes after --seconds; the last pass may run past
# that by this much.
RUN_MARGIN_S = 120


def fail(msg):
    print(f"latbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "latbench"


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    # One build at a time per build directory.
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", jobs,
                      "--target", "latbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    return out / "latbench"


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "sim" / "simulator.hpp").is_file():
        fail(f"latdiv sources not found under {ROOT / 'src'}")

    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--out", str(ROOT / ".latbench_out"),
           "--git-rev", git_rev()]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited {proc.returncode} without a result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
