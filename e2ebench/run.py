#!/usr/bin/env python3
"""Builds and runs the end-to-end request benchmark.

    python3 e2ebench/run.py --workload interactive|table1|service|tune \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
dpopt library and the e2ebench program from source under .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the program's JSON result. Exits non-zero, without a
result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-build")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "e2ebench-run")
WORKLOADS = ["interactive", "table1", "service", "tune"]
# A run measures for --seconds; set-up, the post-run checks and the
# traced pass fit well inside this.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns the executable or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return None
    exe = os.path.join(BUILD_DIR, "e2ebench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--scratch", SCRATCH_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
