#!/usr/bin/env python3
"""Builds and runs one workload of the real-thread end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload fused_text --seed 1 --seconds 20 --trace 0

The benchmark is a package of its own (e2ebench/CMakeLists.txt) that
builds the library from src/ into .bench_build/e2ebench. Inputs and
scratch files go to .bench_work/<workload>. Workload parameters live in
e2ebench/workloads.json; the values common to all workloads are
constants of the binary (e2ebench/src/main.cc). The last line of standard output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics
(from a separate traced pass) with --trace 1. The exit code is non-zero
when the build, a run or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "e2ebench")
WORK_DIR = ".bench_work"
JOBS = "4"


def build():
    """Configures and builds the benchmark binary; build logs go to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD_DIR, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    w = config["workloads"].get(args.workload)
    if w is None:
        sys.exit("unknown workload %r (have: %s)" %
                 (args.workload, ", ".join(config["workloads"])))
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")

    binary = build()
    if binary is None:
        sys.exit("build failed")

    work = os.path.join(WORK_DIR, args.workload)
    common = ["--dir", work, "--seed", str(args.seed), "--k", str(w["k"])]
    gen = [binary, "gen", "--scale", str(w["scale"])] + common
    if subprocess.run(gen, stdout=sys.stderr).returncode != 0:
        sys.exit("input generation failed")

    run = [binary, "run"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--plan", w["plan"], "--iters", str(w["iters"]),
        "--serve_rounds", str(w["serve_rounds"]),
        "--light_rps", str(w["light_rps"]),
        "--heavy_rps", str(w["heavy_rps"])]
    sys.exit(subprocess.run(run).returncode)


if __name__ == "__main__":
    main()
