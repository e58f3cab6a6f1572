#!/usr/bin/env python3
"""Builds and runs one AquaMAC benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator library from src/ plus the two benchmark
executables) in Release into .bench_build/; later calls only let the
build tool confirm it is up to date. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
--trace 0 runs aquamac_perf (the end-to-end metrics); --trace 1 runs
aquamac_perf_traced, the traced per-layer pass, and writes its spans to
.bench_build/spans/<workload>-seed<N>.tsv.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def build() -> bool:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        return 1
    traced = args.trace == "1"
    binary = os.path.join(BUILD, "aquamac_perf_traced" if traced else "aquamac_perf")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if traced:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
