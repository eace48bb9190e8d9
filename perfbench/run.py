#!/usr/bin/env python3
"""Builds the benchmark against this checkout's sources and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) and trace files
to .bench_out, both under the repository root. Build output goes to stderr;
stdout carries the benchmark's report, whose last line is the JSON result.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = "hpv_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "specs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no hyparview source tree here ({needed} is missing)")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", TARGET, "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, TARGET)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, *sys.argv[1:], "--root", ROOT,
           "--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
