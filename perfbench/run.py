#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload metro|link|warehouse
                             --seed N --seconds S --trace 0|1

The first call configures and compiles the
simulator libraries and the benchmark binary (Release) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the benchmark's report — ending in one JSON result line —
is all that reaches stdout. Exits non-zero, without a result line, when the
build fails (for example when the repository's src/ is missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
