#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload session_read --runs 10 [--trace 0] [--first-seed 1]

For every metric in the closing JSON object this prints the median of
the runs and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        r = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.stderr.write(r.stderr)
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect: {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34s} median {med:12.5g}  iqr/median {share:6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
