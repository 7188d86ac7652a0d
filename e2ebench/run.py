#!/usr/bin/env python3
"""Build and run the client-latency benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload brb-tcp-open --seed 1 --seconds 10 --trace 0

Builds e2ebench/ (which pulls in the repository's module libraries) with
CMake into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
the harness with the given arguments. Build output goes to stderr, so the
last line of stdout is the harness's JSON result. The exit status is the
harness's; a failed build exits 3 without printing a result.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(build_dir, "e2ebench")
    work_dir = os.path.join(build_dir, "e2ebench-work")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
