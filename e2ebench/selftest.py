#!/usr/bin/env python3
"""The benchmark's own tests: correctness, result shape and determinism.

    python3 e2ebench/selftest.py [--seconds 2] [--workloads a,b,...]

Runs every workload run.py knows (table1 too, which BENCHMARK.json does not
list) twice with the same seed and demands that
  - both runs exit 0 with "correct": true and no failed request;
  - the result line has exactly the keys correct/attempted/failed/metrics,
    and (with --trace 0) every end-to-end metric BENCHMARK.json names;
  - the deterministic counts (code_instrs, model_gpu_us, vm.exec.steps,
    vm.exec.device_launches, the service hit/miss/store counts,
    tuner.vm_evaluations, ...) repeat exactly.
Then runs one traced pass per workload and checks it reports every
per-layer metric BENCHMARK.json names. Run it from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    det = next((json.loads(l.split(":", 1)[1]) for l in lines
                if l.startswith("deterministic:")), None)
    return out.returncode, (json.loads(lines[-1]) if lines else None), det


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", default="2")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or WORKLOADS
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}

    problems = []
    for w in workloads:
        runs = [run(w, args.seconds, 0) for _ in range(2)]
        for code, result, det in runs:
            if code != 0 or result is None or det is None:
                problems.append("%s: run exited %d" % (w, code))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (w, sorted(result)))
            if not result["correct"] or result["failed"]:
                problems.append("%s: incorrect result" % w)
            if set(result["metrics"]) != e2e_names:
                problems.append("%s: end-to-end metrics %s" %
                                (w, sorted(result["metrics"])))
        dets = [det for _, _, det in runs]
        if None not in dets and dets[0] != dets[1]:
            diff = {k: (dets[0][k], dets[1].get(k)) for k in dets[0]
                    if dets[0][k] != dets[1].get(k)}
            problems.append("%s: deterministic counts differ: %s" % (w, diff))
        code, result, _ = run(w, args.seconds, 1)
        if code != 0 or result is None:
            problems.append("%s: traced run exited %d" % (w, code))
        elif set(result["metrics"]) != layer_names:
            missing = layer_names ^ set(result["metrics"])
            problems.append("%s: per-layer metrics differ: %s" %
                            (w, sorted(missing)))
        print("%s: %s" % (w, "ok" if not any(p.startswith(w + ":")
                                              for p in problems) else "FAILED"))

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
