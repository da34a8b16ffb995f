#!/usr/bin/env python3
"""Builds the SupMR benchmark from source and runs it.

    python3 perfbench/run.py --workload wordcount --seed 1 --trace 0

--workload is one of wordcount, terasort, shuffle, jobmix, or all (the
default), which runs the four in turn and ends with one combined result.
The last line of standard output is the JSON result: correct, attempted,
failed and metrics. Every job's output is checked against the sequential
oracle; the exit code is non-zero when any job failed or differed.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the directory this is run from; --trace 1 writes the traced spans as
Chrome-trace JSON to <trace-dir>/<workload>-seed<seed>.json, where
--trace-dir defaults to <build>/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["wordcount", "terasort", "shuffle", "jobmix"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "supmr_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "supmr_perfbench")


def run_one(binary, workload, seed, seconds, trace, trace_dir):
    """Runs one workload; echoes its report and returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    trace_dir = os.path.abspath(args.trace_dir or
                                os.path.join(build_dir, "traces"))
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    for w in workloads:
        try:
            code, result = run_one(binary, w, args.seed, args.seconds,
                                   args.trace, trace_dir)
        except subprocess.TimeoutExpired:
            log(f"{w}: no result within {RUN_TIMEOUT_S} s")
            return 1
        if result is None:
            log(f"{w}: exited {code} without a result")
            return code or 1
        status = status or code
        if len(workloads) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = metric
        print(json.dumps(result))
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
