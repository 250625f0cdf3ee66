#!/usr/bin/env python3
"""Entry point of the end-to-end MonitorService benchmark (see README.md).

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver from this checkout's sources with CMake (Release) into
$CARGO_TARGET_DIR/e2e_bench (default .bench_build/e2e_bench), runs one
workload, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run measures the workload twice, untraced and then traced, so that
the tracing overhead is itself a measured number.  The lines before the JSON
describe the run: its input properties, sample counts and, when traced, the
self time of every span name.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("long_horizon", "streams_churn", "decide_corpus")
# Every run ends within 180 s once the driver is built.
RUN_BUDGET_S = 170.0


def fail(message):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "service.h")):
        fail("no library sources (src/) in this checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2e_bench")
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    return build_dir


def run_driver(build_dir, args, trace, deadline):
    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace == 0:
        runs = [run_driver(build_dir, args, 0, deadline)]
        metrics = runs[0]["e2e"]
    else:
        untraced = run_driver(build_dir, args, 0, deadline)
        traced = run_driver(build_dir, args, 1, deadline)
        runs = [untraced, traced]
        metrics = dict(traced["layer"])
        base = untraced["layer"]["states_per_s"]["value"]
        overhead = (base - traced["layer"]["states_per_s"]["value"]) / base if base > 0 else 0.0
        metrics["tracing.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
