#!/usr/bin/env python3
"""Build the session benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload session_read --seed 1 --seconds 10 --trace 0

Build output goes to stderr. Standard output is the benchmark's own:
one "metric NAME VALUE UNIT" line per metric, and as the last line a
JSON object with the metrics BENCHMARK.json names. Exits non-zero,
without a result, if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "sessionbench.exe")
OUT = ".perfbench-run"


def filesystem(path):
    try:
        r = subprocess.run(["stat", "-f", "-c", "%T", path],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["session_read", "session_write", "restart"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/sessionbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", OUT, "--fs", filesystem(OUT)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
