#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which pulls in the repository's libraries)
in $CARGO_TARGET_DIR, default .bench_build, then replaces this process with
the benchmark binary. Build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "oef_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"cannot run {step[0]}: {error}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("benchmark build failed", file=sys.stderr)
            return 1
    binary = os.path.join(cmake_dir, "oef_perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--work-dir", build_dir])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
