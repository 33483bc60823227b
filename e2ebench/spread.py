#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 e2ebench/spread.py --workload table1 --seeds 1-10 [--seconds 10]
        [--trace 0|1]

For every metric of the result line it prints the median over the runs
and the distance between the first and third quartile as a share of the
median -- the figure a metric's bound in BENCHMARK.json is compared with.
Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print("seed %d failed (exit %d)" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect result" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))

    for name, vals in values.items():
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-32s median %-14.6g spread %.4f" % (name, med, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
