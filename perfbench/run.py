#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the simulator library and the
benchmark harness from source into .bench_build/perfbench (Release, an
incremental no-op after the first build), runs one workload and passes the
harness's report through. The last line of stdout is the JSON result; build
output goes to stderr. Exits nonzero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("snoop-apache", "dico-mixcom-report", "sci-hitpath")
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "eecc_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "eecc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds within 1..120")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(root, ".bench_build", "perfbench-out")
    try:
        binary = build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", os.path.join(bench_dir, "reference_digests.txt"),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: harness exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
