#!/usr/bin/env bash
#===--- bench_baseline.sh - snapshot/check benchmark baselines ---------------===#
#
# Snapshot mode (default): builds the benchmark harnesses and writes their
# results as JSON so future PRs can compare performance against this
# baseline:
#
#   scripts/bench_baseline.sh [vm_output.json [compiler_output.json [service_output.json]]]
#
# Emits:
#   BENCH_vm.json        vm_throughput (interpreter dispatch/throughput,
#                        including the BM_GridDrain/{1,2,4,8} multi-worker
#                        scaling series — archived with the snapshot, but
#                        bench_compare.py gates only the single-worker
#                        entries since multi-worker wall time depends on
#                        the host's core count)
#   BENCH_compiler.json  compiler_throughput (parse, print, passes, VM compile)
#   BENCH_service.json   service_throughput (compile-service cold/warm/
#                        duplicate-mix/disk-warm series; the
#                        BM_ServeBatch/{2,4} worker entries are outside
#                        the gate like BM_GridDrain)
#
# Check mode (the CI regression gate): runs fresh vm_throughput and
# compiler_throughput snapshots and compares each against its committed
# baseline with bench_compare.py, failing on >15% per-benchmark
# throughput regression:
#
#   scripts/bench_baseline.sh --check [vm_fresh.json [compiler_fresh.json [service_fresh.json]]]
#
# To refresh the committed baselines after an intentional perf change:
#
#   scripts/bench_baseline.sh bench/baselines/BENCH_vm.json \
#                             bench/baselines/BENCH_compiler.json \
#                             bench/baselines/BENCH_service.json
#
# Environment:
#   BUILD_DIR              cmake build directory (default: build)
#   BENCH_ARGS             extra google-benchmark flags
#   BENCH_REPS             benchmark repetitions (default: 1; the check
#                          uses 3 and compares best-of to cut noise)
#   BENCH_BASELINE         vm baseline JSON for --check
#                          (default: bench/baselines/BENCH_vm.json)
#   BENCH_COMPILER_BASELINE  compiler baseline JSON for --check
#                          (default: bench/baselines/BENCH_compiler.json)
#   BENCH_SERVICE_BASELINE  service baseline JSON for --check
#                          (default: bench/baselines/BENCH_service.json)
#   BENCH_CHECK_TOLERANCE  allowed regression percent (default: 15)
#
#===---------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi

VM_OUT="${1:-BENCH_vm.json}"
COMPILER_OUT="${2:-BENCH_compiler.json}"
SERVICE_OUT="${3:-BENCH_service.json}"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j --target vm_throughput --target compiler_throughput \
      --target service_throughput >/dev/null

if [[ "$CHECK" == 1 ]]; then
  BASELINE="${BENCH_BASELINE:-bench/baselines/BENCH_vm.json}"
  COMPILER_BASELINE="${BENCH_COMPILER_BASELINE:-bench/baselines/BENCH_compiler.json}"
  SERVICE_BASELINE="${BENCH_SERVICE_BASELINE:-bench/baselines/BENCH_service.json}"
  STATUS=0
  for PAIR in "vm_throughput:$VM_OUT:$BASELINE" \
              "compiler_throughput:$COMPILER_OUT:$COMPILER_BASELINE" \
              "service_throughput:$SERVICE_OUT:$SERVICE_BASELINE"; do
    IFS=: read -r HARNESS FRESH COMMITTED <<<"$PAIR"
    if [[ ! -f "$COMMITTED" ]]; then
      echo "bench_baseline.sh: no committed baseline at $COMMITTED" >&2
      exit 2
    fi
    "$BUILD_DIR/$HARNESS" \
      --benchmark_out="$FRESH" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-3}" \
      ${BENCH_ARGS:-}
    echo "wrote $FRESH; comparing against $COMMITTED"
    python3 scripts/bench_compare.py "$FRESH" "$COMMITTED" \
      "${BENCH_CHECK_TOLERANCE:-15}" || STATUS=$?
  done
  exit "$STATUS"
fi

"$BUILD_DIR/vm_throughput" \
  --benchmark_out="$VM_OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}" \
  ${BENCH_ARGS:-}
echo "wrote $VM_OUT"

"$BUILD_DIR/compiler_throughput" \
  --benchmark_out="$COMPILER_OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}" \
  ${BENCH_ARGS:-}
echo "wrote $COMPILER_OUT"

"$BUILD_DIR/service_throughput" \
  --benchmark_out="$SERVICE_OUT" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}" \
  ${BENCH_ARGS:-}
echo "wrote $SERVICE_OUT"

# Extend the committed performance trajectory: snapshot mode runs when
# baselines are being refreshed, so archive this commit's vm snapshot
# under bench/history/ for the committer to include
# (scripts/bench_history.py flattens the directory into a CSV).
if SHA="$(git rev-parse --short HEAD 2>/dev/null)"; then
  mkdir -p bench/history
  cp "$VM_OUT" "bench/history/$SHA.json"
  echo "archived bench/history/$SHA.json (commit it to extend the trajectory)"
fi
