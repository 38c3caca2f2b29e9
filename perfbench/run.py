#!/usr/bin/env python3
"""Build and run the TetriServe end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which compiles the libraries under
src/) into .bench_build/perfbench, then runs the benchmark binary. The
binary's standard output is passed through; its last line is the JSON
result. Build output goes to standard error. The exit code is the
binary's, or 1 when the build fails or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for --seconds and then finishes its checks; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["sim-long", "sim-burst", "rt-closed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    if args.self_test:
        cmd = [BINARY, "--self-test"]
    else:
        # Set-up time runs from this instant (CLOCK_MONOTONIC, the clock
        # the binary reads).
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--t0-ns", str(time.monotonic_ns())]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
