#!/usr/bin/env python3
"""Builds the SIMQNET1 benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The harness and the library are built
into .bench_build/perfbench by perfbench/CMakeLists.txt (the first run
compiles everything; later runs only check that the build is current).
The harness prints its settings and figures, and as its last line the
result JSON; see perfbench/README.md for the workloads and the metrics.
--selftest builds and runs the benchmark's own tests instead.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

# A run must end within 180 s; the first one may also spend minutes building.
RUN_LIMIT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")


def build(target):
    """Configures once, then brings `target` up to date; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "query_service.h")):
        sys.exit("perfbench: no library sources under %s/src; run from the "
                 "root of a full checkout" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                        "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)


def selftest():
    build("ledger_test")
    return subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                           "--output-on-failure"]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        build("simq_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    work_dir = os.path.join(BUILD_ROOT, "run-%s-%d" % (args.workload,
                                                       os.getpid()))
    command = [os.path.join(BUILD_DIR, "simq_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: the run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
