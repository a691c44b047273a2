#!/usr/bin/env python3
"""Build and run one workload of the ROADS benchmark.

    python3 roadsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
roads_bench (the simulator library from src/ plus the benchmark program
in roadsbench/src) into .bench_build/roadsbench; later calls only check
that the build is up to date. roads_bench's last stdout line is checked
against BENCHMARK.json (every end-to-end metric for --trace 0, every
per-layer metric for --trace 1, each with its unit) and printed as this
script's last stdout line. Any build, check or validation failure exits
non-zero without printing a result.
"""

import argparse
import fcntl
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "roadsbench"
WORKLOADS = ("refresh_churn", "query_scan", "serve_mixed")
# roads_bench runs take 20-45 s; a hung one is killed well inside the
# three-minute limit a benchmark run has.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; serialized by a lock
    so concurrent runs in one checkout never build over each other."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    exe = BUILD / "roads_bench"
    if not exe.exists():
        fail(f"build produced no {exe}")
    return exe


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result is not JSON ({e}): {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True:
        fail("outputs were not correct")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"bad {key}: {result[key]!r}")
    if result["attempted"] < 1:
        fail("no operation was measured")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metric names differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{name}: value {v!r} is not a finite number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"roads_bench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"roads_bench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("roads_bench printed no result")
    validate(lines[-1], args.trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
