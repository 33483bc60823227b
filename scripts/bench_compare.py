#!/usr/bin/env python3
"""Compare two google-benchmark JSON snapshots and fail on throughput regression.

Usage: bench_compare.py FRESH.json BASELINE.json [tolerance_percent]

For every benchmark present in both files, picks a throughput metric in
priority order: the `steps_per_sec` user counter, then `items_per_second`,
then inverse cpu_time. A benchmark regresses when its fresh throughput
falls more than `tolerance_percent` (default 15) below the baseline.
Repeated entries (from --benchmark_repetitions) are reduced to their best
throughput before comparison, which drops scheduler-noise outliers.

Multi-worker scaling entries (BM_GridDrain/N with N > 1) are reported as
informational only and never flagged: their wall time depends on how many
host cores the machine running the check has, which the committed
baseline cannot know. BM_GridDrain/1 — the deterministic single-lane
drain — stays inside the gate. When the fresh snapshot has the full
series, a worker-scaling summary (speedup vs one worker) is printed.

The BM_DeviceBuild series (device construction: validation, decoded-IR
lowering, trace formation) stays inside the gate like any other entry —
that is what keeps trace-formation cost within the compile-time
tolerance — and additionally gets a decode-time delta summary breaking
construction cost down by engine mode.

Exit status: 0 = no regression, 1 = at least one regression, 2 = bad input.

Caveat: absolute throughput is machine-dependent. Comparing a committed
baseline from one machine against a run on another only gates gross
regressions; regenerate the baseline (scripts/bench_baseline.sh) when the
reference hardware changes.
"""

import json
import sys


def is_multiworker(name):
    """Worker-scaling series entries above one worker: host-core-count
    dependent, tracked for trajectory but exempt from the gate. Covers
    both the VM grid-drain series and the compile-service batch-drain
    series; BM_GridDrain/1 and BM_ServeBatch/1 stay inside the gate."""
    if "/" not in name:
        return False
    base, _, arg = name.partition("/")
    return base in ("BM_GridDrain", "BM_ServeBatch") \
        and arg.split("/")[0].isdigit() and int(arg.split("/")[0]) > 1


def scaling_summary(fresh):
    """Speedup of each BM_GridDrain/N over BM_GridDrain/1 (by wall
    throughput), printed when the fresh snapshot carries the series."""
    series = {}
    for name, (value, _metric) in fresh.items():
        base, _, arg = name.partition("/")
        workers = arg.split("/")[0]
        if base == "BM_GridDrain" and workers.isdigit():
            series[int(workers)] = value
    if 1 not in series or len(series) < 2:
        return
    print("worker scaling (grid-drain throughput vs 1 worker):")
    for workers in sorted(series):
        print(f"  {workers} worker(s): {series[workers] / series[1]:.2f}x")


def decode_summary(fresh):
    """Decode-time delta from the fresh BM_DeviceBuild series: what the
    ExecIR lowering (pair fusions and traces) adds to device construction.
    Entries carry 1/cpu_time throughput, so time ratios invert them."""
    series = {}
    for name, (value, _metric) in fresh.items():
        base, _, variant = name.partition("/")
        if base == "BM_DeviceBuild" and variant:
            series[variant] = value
    if "decoded" not in series:
        return
    print("decode-time deltas (device construction cost by engine mode):")
    if "bytecode" in series:
        overhead = series["bytecode"] / series["decoded"] - 1.0
        print(f"  full decode (pairs + traces): {overhead * 100.0:+.1f}% on "
              "top of validation alone")


def service_summary(fresh):
    """Warm-over-cold speedup of the compile service on the duplicate
    request mix — the acceptance bar for the artifact cache is >=10x —
    plus batch-drain worker scaling when the series is present."""
    if "BM_DuplicateMixCold" in fresh and "BM_DuplicateMixWarm" in fresh:
        cold = fresh["BM_DuplicateMixCold"][0]
        warm = fresh["BM_DuplicateMixWarm"][0]
        if cold > 0:
            print("compile service (duplicate-request mix): warm cache "
                  f"{warm / cold:.1f}x over cold")
    series = {}
    for name, (value, _metric) in fresh.items():
        base, _, arg = name.partition("/")
        workers = arg.split("/")[0]
        if base == "BM_ServeBatch" and workers.isdigit():
            series[int(workers)] = value
    if 1 in series and len(series) > 1:
        print("service batch-drain scaling (throughput vs 1 worker):")
        for workers in sorted(series):
            print(f"  {workers} worker(s): {series[workers] / series[1]:.2f}x")


def throughput(entry):
    if "steps_per_sec" in entry:
        return float(entry["steps_per_sec"]), "steps_per_sec"
    if "items_per_second" in entry:
        return float(entry["items_per_second"]), "items_per_second"
    cpu = float(entry.get("cpu_time", 0.0))
    if cpu <= 0:
        return None, None
    return 1e9 / cpu, "1/cpu_time"


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    best = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("run_name", entry.get("name"))
        value, metric = throughput(entry)
        if value is None:
            continue
        if name not in best or value > best[name][0]:
            best[name] = (value, metric)
    return best


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_path, base_path = argv[1], argv[2]
    tolerance = float(argv[3]) if len(argv) > 3 else 15.0

    fresh = load(fresh_path)
    base = load(base_path)
    common = sorted(set(fresh) & set(base))
    if not common:
        print("bench_compare: no common benchmarks between "
              f"{fresh_path} and {base_path}", file=sys.stderr)
        return 2

    regressions = 0
    print(f"{'benchmark':<44} {'baseline':>12} {'fresh':>12} {'delta':>8}")
    for name in common:
        base_v, metric = base[name]
        fresh_v, _ = fresh[name]
        delta = (fresh_v / base_v - 1.0) * 100.0
        flag = ""
        if is_multiworker(name):
            flag = "  (info: outside gate)"
        elif delta < -tolerance:
            regressions += 1
            flag = "  REGRESSION"
        print(f"{name:<44} {base_v:12.3g} {fresh_v:12.3g} {delta:+7.1f}%"
              f"{flag}")
    scaling_summary(fresh)
    decode_summary(fresh)
    service_summary(fresh)
    skipped = (set(fresh) | set(base)) - set(common)
    if skipped:
        print(f"(skipped {len(skipped)} benchmark(s) present on one side "
              "only)")
    if regressions:
        print(f"bench_compare: {regressions} benchmark(s) regressed more "
              f"than {tolerance:.0f}% vs {base_path}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK — no benchmark regressed more than "
          f"{tolerance:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
