#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Run from the repository root. On first use it builds the benchmark program
from the repository sources into $CARGO_TARGET_DIR (default .bench_build);
inputs for each seed are generated once under .bench_data/seed<N> and kept
for the KEEP_SEEDS most recently used seeds. The last line of standard
output is the JSON result. The exit code is 0 only when the run finished and
every checked answer was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lookup", "scan", "serve", "ingest")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s. The slowest, --trace 1 runs of lookup (three
# passes over its operations and eight start-ups) and serve, take about
# 45 s at --seconds 10, so --seconds stops at 20.
RUN_TIMEOUT_S = 170
MAX_SECONDS = 20
# Each seed's inputs take about 170 MB on disk.
KEEP_SEEDS = 10


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then lets the build tool skip what is up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "seqbench")


def seed_dir(data_root, seed):
    """The seed's input directory, marked as just used. Inputs of all but
    the KEEP_SEEDS most recently used seeds are removed."""
    os.makedirs(data_root, exist_ok=True)
    path = os.path.join(data_root, f"seed{seed}")
    os.makedirs(path, exist_ok=True)
    os.utime(path)
    others = [os.path.join(data_root, d) for d in os.listdir(data_root)
              if d.startswith("seed") and d != f"seed{seed}"]
    others.sort(key=os.path.getmtime, reverse=True)
    for old in others[KEEP_SEEDS - 1:]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        log(f"--seed must be >= 0 and --seconds within 1..{MAX_SECONDS}")
        return 2

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        exe = build(build_dir)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 2
    if exe is None or not os.path.exists(exe):
        return 2

    # Library defaults only: no SEQ_* overrides leak into the measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEQ_")}
    # malloc asks for transparent huge pages (where the kernel grants them
    # on request). With 4 KiB pages, the time to load the same database
    # ranged from 0.66 to 0.95 s between processes on a 4-core virtual
    # machine; with huge pages, from 0.55 to 0.61 s. See README.md.
    env["GLIBC_TUNABLES"] = "glibc.malloc.hugetlb=1"
    data_dir = seed_dir(os.path.join(root, ".bench_data"), args.seed)
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--data", data_dir]
    try:
        # Input generation is a process of its own, so neither its time
        # nor its memory is part of the measured run.
        gen = subprocess.run([exe, "gen"] + common, env=env,
                             timeout=RUN_TIMEOUT_S, check=False)
        if gen.returncode != 0:
            log("input generation failed")
            return 2
        run = subprocess.run(
            [exe, "run", "--workload", args.workload, "--trace",
             str(args.trace)] + common,
            env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            check=False, text=True)
    except subprocess.TimeoutExpired:
        log("timed out")
        return 2
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result (exit code {run.returncode})")
        return 2
    if not isinstance(result, dict) or "metrics" not in result:
        log("malformed result line")
        return 2
    print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
