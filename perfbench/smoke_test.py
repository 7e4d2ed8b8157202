#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs perfbench/run.py on every workload of BENCHMARK.json with --size tiny,
once untraced and once traced, plus fuzz_sweep from a seed other than the
golden one. Checks that each run exits 0, is correct, and emits every
metric BENCHMARK.json names with its unit. End-to-end values must be
positive, and each traced run must leave a readable Chrome trace. Exits 0
when all of that holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, seed=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--size", "tiny", "--seconds", "0",
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_run(spec, workload, trace, seed=None):
    """Problems with one run, as a list of messages."""
    name = f"{workload} trace={trace}" + (f" seed={seed}" if seed else "")
    code, result, output = run(workload, trace, seed)
    if code != 0 or result is None:
        return [f"{name}: exit {code}\n{output}"]
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{name}: not correct\n{output}")
    if result["attempted"] < 1:
        problems.append(f"{name}: attempted {result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{name}: metrics {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(
                got["value"], (int, float)):
            problems.append(f"{name}: metric {m['name']} is {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{name}: {m['name']} = {got['value']}")
    if trace:
        traces = [line.split("trace: ", 1)[1] for line in output.splitlines()
                  if line.strip().startswith("trace: ")]
        if not traces:
            problems.append(f"{name}: no trace file reported")
        for path in traces:
            with open(os.path.join(ROOT, path)) as f:
                if not json.load(f)["traceEvents"]:
                    problems.append(f"{name}: empty trace {path}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    problems += check_run(spec, "fuzz_sweep", 0, seed=7)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
