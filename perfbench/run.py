#!/usr/bin/env python3
"""PiCloud-Sim benchmark: wall time of whole simulated clouds, per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload idle_fleet|flash_crowd|fuzz_sweep \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Builds perfbench_workload (optimized, under .bench_build/perfbench) on first
use, then runs one workload repetition per process until --seconds have
passed (at least three), checks every repetition's simulated outputs and
that all of them agree, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the repetitions; run_s and setup_s are scaled to a
reference host speed by the workload's host-speed probe. With --trace 1 the
repetitions alternate untraced and traced, and the metrics are the per-layer
metrics: work counts (identical in every repetition), host times (medians
over the traced repetitions, or over the untraced ones for the host.* and
sim.host_ns_per_event figures) and the tracing overhead. Traces are written as Chrome
trace-event JSON under .bench_build/perfbench/traces/. `attempted` counts
workload repetitions and `failed` those whose checks did not hold.

perfbench/README.md documents the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")

# Default seeds: the reference runs (fuzz seed 1 = the tier-1
# corpus, checked against kFuzzSweepGoldens).
DEFAULT_SEEDS = {"idle_fleet": 1, "flash_crowd": 29, "fuzz_sweep": 1}
MIN_REPS = 3
RUN_BUDGET_S = 170  # a whole run, build excluded, ends within this

class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources (src/) next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_tool(cmd)
    run_tool(["cmake", "--build", BUILD_DIR, "--target", "perfbench_workload",
              "-j", "4"])


def run_tool(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        raise BenchError("build step failed: " + " ".join(cmd))


def run_rep(args, index, traced, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(
            TRACE_DIR, f"{args.workload}-seed{args.seed}-rep{index}.json")
        cmd += ["--trace-out", path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition {index} did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr)
        raise BenchError(f"repetition {index} exited {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    if traced:
        rep["trace_file"] = os.path.relpath(path, ROOT)
    return rep


def run_reps(args):
    """Runs repetitions until args.seconds have passed (at least MIN_REPS)."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reps = []
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        now = time.monotonic()
        if reps and now + 1.5 * longest > deadline:
            break
        traced = args.trace == 1 and len(reps) % 2 == 1
        reps.append(run_rep(args, len(reps), traced, deadline))
        longest = max(longest, time.monotonic() - now)
    return reps


def check(reps):
    """Every correctness check, as a list of failure messages."""
    failures = []
    for i, rep in enumerate(reps):
        failures += [f"repetition {i}: {f}" for f in rep["failures"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["sim_digest"] != first["sim_digest"]:
            failures.append(
                f"sim_digest of repetition {i} ({rep['sim_digest']}) differs "
                f"from repetition 0 ({first['sim_digest']})")
        for name in rep["counts"].keys() & first["counts"].keys():
            if rep["counts"][name] != first["counts"][name]:
                failures.append(f"count {name} of repetition {i} differs")
    return failures


def median_of(reps, key):
    return statistics.median(rep[key] for rep in reps)


def end_to_end(spec, reps):
    """Each end-to-end metric, the median of the repetitions' values."""
    return {m["name"]: median_of(reps, m["name"]) for m in spec["end_to_end"]}


def per_layer(reps):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = traced[0]
    m = dict(first["counts"])
    for name in first["times"]:
        m[name] = statistics.median(r["times"][name] for r in traced)
    if first["windows_s"]:
        m["sim.window_s.p50"] = statistics.median(
            statistics.median(r["windows_s"]) for r in traced)
        m["sim.window_s.max"] = statistics.median(
            max(r["windows_s"]) for r in traced)
    m["ops"] = first["ops"]
    m["ops_failed_ratio"] = first["ops_failed"] / max(1, first["ops"])
    clean_run_s = median_of(untraced, "run_wall_s")
    m["sim.host_ns_per_event"] = clean_run_s * 1e9 / max(1, m["sim.events"])
    m["host.run_wall_s"] = clean_run_s
    m["host.setup_wall_s"] = median_of(untraced, "setup_wall_s")
    m["host.probe_slice_ms"] = median_of(untraced, "probe_slice_s") * 1e3
    m["trace.overhead_s"] = median_of(traced, "run_wall_s") - clean_run_s
    return m


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(args, spec, reps, failures, e2e, layer):
    first = reps[0]
    print(f"perfbench {args.workload}  seed {args.seed}  size {args.size}  "
          f"{len(reps)} repetitions ({sum(r['traced'] for r in reps)} traced)")
    for m in spec["end_to_end"]:
        name = m["name"]
        values = " ".join(f"{r[name]:.6g}" for r in reps)
        print(f"  {name:<16} {e2e[name]:12.6g} {m['unit']:<5} "
              f"median of [{values}]")
    for name in ("run_wall_s", "setup_wall_s"):
        values = " ".join(f"{r[name]:.6g}" for r in reps)
        print(f"  {name:<16} {median_of(reps, name):12.6g} s     "
              f"as measured, median of [{values}]")
    print(f"  {'probe_slice_ms':<16} "
          f"{median_of(reps, 'probe_slice_s') * 1e3:12.6g} ms    "
          f"host-speed probe slice, median")
    if first["sim_seconds"] > 0:
        print(f"  {'sim_s_per_host_s':<16} "
              f"{first['sim_seconds'] / e2e['run_s']:12.6g} (information)")
    ratio = first["ops_failed"] / max(1, first["ops"])
    print(f"  {'ops_failed_ratio':<16} {ratio:12.6g} ratio of "
          f"ops={first['ops']:.0f} simulated operations")
    if "sim_p50_ms" in first["counts"]:
        c = first["counts"]
        print(f"  {'sim_p50_ms':<16} {c['sim_p50_ms']:12.6g} ms    "
              f"{'sim_p99_ms':<12} {c['sim_p99_ms']:.6g} ms  "
              f"(samples={c['sim_latency_samples']:.0f})")
    agree = all(r["sim_digest"] == first["sim_digest"] for r in reps)
    print(f"  sim_digest {first['sim_digest']} "
          f"({'the same in every' if agree else 'differs between'} "
          f"repetition)")
    if layer is not None:
        print("  per-layer (counts over the measured phase; times median "
              "over traced repetitions):")
        for name in sorted(layer):
            print(f"    {name:<48} {layer[name]:.6g}")
        windows = next(r["windows_s"] for r in reps if r["traced"])
        if windows:
            print("  sim.window_s per window: " +
                  " ".join(f"{w:.3g}" for w in windows))
        for r in reps:
            if r["traced"]:
                print(f"  trace: {r['trace_file']}")
    for f in failures:
        print(f"  CHECK FAILED: {f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=DEFAULT_SEEDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]

    try:
        spec = load_spec()
        build()
        reps = run_reps(args)
    except (BenchError, OSError) as e:
        log(f"perfbench: {e}")
        return 2

    failures = check(reps)
    e2e = end_to_end(spec, reps)
    layer = per_layer(reps) if args.trace else None
    report(args, spec, reps, failures, e2e, layer)

    # A per-layer metric this workload does not exercise (or, for
    # fuzz_sweep, cannot observe from outside run_scenario) reads 0.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    failed = sum(1 for r in reps if r["failures"])
    if failures and failed == 0:
        failed = len(reps)  # the repetitions disagree with each other
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
