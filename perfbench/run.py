#!/usr/bin/env python3
"""Builds the m3xu benchmark from source and runs one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload sgemm_large --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare results/parent results/change

The m3xu_bench binary is built under .bench_build/perfbench on first
use; build output goes to stderr so the last line of stdout stays the
result JSON. Every argument is passed through to m3xu_bench (see
README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "m3xu_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()[:12]
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:12]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "gemm", "plan.hpp")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 2
    cmd = [BINARY] + sys.argv[1:] + ["--git-rev", git_rev(),
                                     "--root", ROOT]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
