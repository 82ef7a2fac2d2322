#!/usr/bin/env python3
"""Builds wallbench from source and runs one workload (METRICS.md).

    python3 wallbench/run.py --workload office_save --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that has src/.  The Release build goes
to .bench_build/wallbench at the checkout root and is reused by later runs;
build output goes to stderr.  stdout carries the benchmark's own report and
ends with its one-line JSON result.  The exit code is non-zero when the
build fails, a save fails or the result line is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD_DIR, "wallbench")
WORKLOADS = ("office_save", "db_commit", "small_files")
# A run replays a fixed number of saves; this only stops a wedged one.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "wallbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            sys.stderr.write(f"wallbench: cannot run {cmd[0]}: {err}\n")
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"wallbench: build step failed: {' '.join(cmd)}\n")
            return False
    return True


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds within 1..600")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"wallbench: no result within {RUN_TIMEOUT_S} s\n")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        sys.stderr.write("wallbench: the run printed no result line\n")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
