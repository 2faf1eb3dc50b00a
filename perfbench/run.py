#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own check tests

Builds perfbench/ as its own CMake package (Release) under
$CARGO_TARGET_DIR (default .bench_build) inside the checkout, runs the
harness, passes its report through, and prints as the last line the result
object with exactly the metrics BENCHMARK.json lists for the run (end_to_end
for --trace 0, per_layer for --trace 1). Build logs go to stderr; nothing is
written outside the checkout.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "--target", target,
                        "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def result_line(report, trace):
    """The result object for the harness `report` (its stdout lines).

    A per-layer metric the workload's stack lacks reads 0. Every end-to-end
    metric must be measured, finite and positive: each counts as a check.
    """
    measured = {}
    attempted = failed = None
    for line in report:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            measured[fields[1]] = (float(fields[2]), fields[3])
        elif len(fields) == 3 and fields[0] == "checks":
            attempted, failed = int(fields[1]), int(fields[2])
    if attempted is None:
        raise ValueError("harness printed no checks line")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value, got_unit = measured.get(name, (0.0, unit))
        if got_unit != unit:
            raise ValueError("%s measured in %s, specified in %s"
                             % (name, got_unit, unit))
        if not math.isfinite(value):
            value = 0.0
        if trace:
            if name not in measured:
                print("%s: not in this workload's stack, reads 0" % name)
        else:
            attempted += 1
            if name not in measured or value <= 0.0:
                failed += 1
                print("check failed: %s not measured or not positive" % name)
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["ingest", "live_query", "durable"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dwrs.h")):
        print("perfbench: the dwrs sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")

    if args.test:
        return subprocess.run([build(build_dir, "perfbench_checks_test")]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    exe = build(build_dir, "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    print(result_line(run.stdout.splitlines(), args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
