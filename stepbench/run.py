#!/usr/bin/env python3
"""Builds and runs the training-step benchmark.

    python3 stepbench/run.py --workload cifarnet-dense-2t --seed 1 \
        --seconds 45 --trace 0

Run from the repository root. The first call configures and builds the
library and the benchmark binary into .bench_build/ (about a minute);
later calls only rebuild what changed. Build output goes to stderr, so the
last stdout line is the binary's JSON result. The exit code is the
binary's: 0 when every correctness check passed, 1 when one failed, 2 on a
usage or build error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stepbench")
# Leaves room under the caller's 180 s limit for a run that hangs.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "step_bench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(BUILD, "step_bench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("stepbench: library sources not found next to the benchmark",
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("stepbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("stepbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
