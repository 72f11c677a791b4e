#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zr_read --seed 1 --seconds 45 --trace 0

The first run configures and builds perfbench/ (the library from src/, the
shard-server binary and the benchmark binary zr_perfbench) in
$CARGO_TARGET_DIR, or .bench_build when that is unset, as an optimised
(Release) build. Every run then runs the benchmark's own unit tests and
zr_perfbench, whose last line of standard output is the JSON result. Build and test output goes to standard
error. Exits non-zero, without a result line, when the build or the tests
fail; exits with zr_perfbench's code otherwise.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("zr_read", "zr_write", "cluster4")
# A run still going after this long is stopped with its shard servers.
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build or test step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs]) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    tests = os.path.join(build_dir, "perfbench_test")
    if os.path.exists(tests) and run_quiet([tests, "--gtest_brief=1"]) != 0:
        print("perfbench: the benchmark's own tests failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "zr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--shard-server", os.path.join(build_dir, "shard_server")]
    # Its own process group, so a run that overstays is stopped together
    # with the shard servers it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
