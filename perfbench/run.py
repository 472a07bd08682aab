#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the lfi library, lfi_tool and campaign_bench) into
.bench_build/; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. Exits
nonzero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ("pbft-explore", "table1", "resume", "epoch-shards")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "campaign_bench", "lfi_tool"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.makedirs(BUILD, exist_ok=True)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [
        os.path.join(CMAKE_DIR, "campaign_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--tool", os.path.join(CMAKE_DIR, "lfi_tool"),
        "--workdir", os.path.join(BUILD, "run-%d" % os.getpid()),
        "--expected", os.path.join(HERE, "expected.tsv"),
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
