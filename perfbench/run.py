#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold-prune|serve-mix|update-churn \
        --seed N --seconds S --trace 0|1 [--serve-rate R]

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ (CMake,
Release). Build output goes to stderr; the binary's stdout passes through,
so the last stdout line is its result JSON. Exits non-zero without
printing a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_to_stderr(command, timeout):
    """Runs a build step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(build_dir):
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if run_to_stderr(configure, BUILD_TIMEOUT_S) != 0:
        fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_to_stderr(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench"], BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-prune", "serve-mix", "update-churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--serve-rate", type=float, default=None)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    if args.serve_rate is not None:
        command += ["--serve-rate", str(args.serve_rate)]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
