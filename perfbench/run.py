#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload serve-volunteer-long --seed 3 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the scheduler
from ../src) into .bench_build/; later calls only let CMake confirm that the
build is current. Build output goes to standard error, so the last line of
standard output is the runner's JSON result, with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, the run fails or times out, or an output check fails. With --trace 1
the run's spans are also written under .bench_build/traces/ as a Chrome
trace_event file (open it in Perfetto).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")
TESTS = os.path.join(BUILD, "perfbench_tests")
WORKLOADS = (
    "serve-sharded-approx",
    "batch-approx",
    "serve-edf3-firehose",
    "serve-volunteer-long",
)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the rest is left for the build check.
RUN_TIMEOUT_S = 170
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(*targets):
    """Configure .bench_build once, then build `targets`; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no scheduler sources in " + os.path.join(ROOT, "src") +
            "; run the benchmark inside a repository checkout")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {cmd[0]}: {err}")
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run_workload(args):
    if not build("perfbench_runner"):
        return 2
    cmd = [RUNNER, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--repo", ROOT]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        # Pass the runner's output on, but print no result line.
        sys.stderr.write(done.stdout)
        log(f"the runner exited with code {done.returncode} and no result")
        return done.returncode or 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def metric_entries(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def self_test():
    """Run the benchmark's tests; check BENCHMARK.json against the runner."""
    if not build("perfbench_runner", "perfbench_tests"):
        return 2
    ok = subprocess.run([TESTS]).returncode == 0
    listed = json.loads(subprocess.run(
        [RUNNER, "--list-metrics"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        printed = metric_entries(listed[kind])
        if metric_entries(declared[kind]) != printed:
            log(f"BENCHMARK.json {kind} differs from the runner's metrics")
            ok = False
        for name, unit, _ in printed:
            if not NAME.fullmatch(name) or not UNIT.fullmatch(unit):
                log(f"malformed metric {name} ({unit})")
                ok = False
    if tuple(w["name"] for w in declared["workloads"]) != WORKLOADS:
        log("BENCHMARK.json workloads differ from the runner's")
        ok = False
    print("perfbench self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the measured passes may last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
