#!/usr/bin/env python3
"""Smoke test of the session benchmark.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit, both as a
"metric NAME VALUE UNIT" line and in the closing JSON object, and that
every correctness check passed. Then checks that 2000 of 2000 generated
queries survive printing with Quel.Ast.pp and parsing with
Quel.Parser.parse. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
EXE = os.path.join("_build", "default", "perfbench", "sessionbench.exe")


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def check_workload(name, trace, expected):
    r = subprocess.run(
        ["python3", RUN, "--workload", name, "--seed", "7", "--seconds", "2",
         "--trace", str(trace)],
        capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        fail(f"{name} --trace {trace} exited with {r.returncode}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"{name}: {m['name']} not in the JSON object in {m['unit']}")
        if printed.get(m["name"]) != m["unit"]:
            fail(f"{name}: no line 'metric {m['name']} VALUE {m['unit']}'")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{name} --trace {trace}: {result['failed']} of "
             f"{result['attempted']} checks failed")
    print(f"smoke: {name} --trace {trace}: {len(expected)} metrics, "
          f"{result['attempted']} checks passed")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        check_workload(w["name"], 0, bench["end_to_end"])
        check_workload(w["name"], 1, bench["per_layer"])
    r = subprocess.run([EXE, "--roundtrip", "2000", "--seed", "7"],
                       capture_output=True, text=True)
    if r.returncode != 0 or "roundtrip 2000/2000" not in r.stdout:
        fail("query round-trip: " + r.stdout.strip())
    print("smoke: " + r.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
