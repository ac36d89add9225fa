#!/usr/bin/env python3
"""Builds and runs the end-to-end ACQ benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload search_bound --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is its own CMake project (perfbench/CMakeLists.txt) compiled
from the engine's sources in an optimized build under $CARGO_TARGET_DIR
(default .bench_build)/perfbench. The first run builds; later runs only
re-check it. Build output goes to stderr, so the last stdout line is always
the benchmark's result object. Exits non-zero, printing no result, when the
build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "acq_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(root, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "acq_perfbench")
    args = [binary] + argv
    if "--selftest" not in argv:
        args += ["--out-dir", os.path.join(build_dir, "runs")]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    if "--selftest" not in argv:
        json.loads(lines[-1])  # the result object must parse
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
