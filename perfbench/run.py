#!/usr/bin/env python3
"""Builds the CVCP benchmark from the enclosing source tree and runs one
workload; the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload fosc-trials --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The build goes to .bench_build/
and run-time scratch (stores, sockets, span files) to .bench_run/, both
under the checkout. Exits non-zero, without a result line, when the
checkout holds no CVCP sources or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "core", "job.h")
    ):
        print("perfbench: no CVCP source tree around " + HERE, file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "cvcp_perfbench", "perfbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT).returncode
    command = [os.path.join(BUILD, "cvcp_perfbench")] + argv + [
        "--workdir", ".bench_run",
        "--digests", os.path.join("perfbench", "digests.txt"),
    ]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
