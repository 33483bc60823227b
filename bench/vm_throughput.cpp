//===--- vm_throughput.cpp - Interpreter throughput benchmarks -----------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark harness for the bytecode VM's execution engine — the
/// path every equivalence/fuzz check funnels through, so its throughput
/// gates how many verification scenarios the project can afford.
///
/// Workloads:
///  - quickstart: the nested parent/child launch program from
///    examples/quickstart.cpp (the repository's canonical CDP shape);
///  - coarsened: the same program after the thread-coarsening pass
///    (factor 4), exercising the loop/indexing superinstructions;
///  - bfs: a CDP top-down BFS over a synthetic power-law-ish graph,
///    exercising dynamic launches, atomics, and frontier bookkeeping;
///  - compute: a flat arithmetic-loop kernel measuring raw dispatch;
///  - grid_drain: a parent fanning out hundreds of compute-heavy child
///    grids, drained at 1/2/4/8 device workers (BM_GridDrain/N) — the
///    multi-worker device's scaling series. The series is tracked for
///    trajectory only (scripts/bench_compare.py keeps multi-worker
///    numbers outside the regression gate; wall time depends on host
///    core count).
///
/// Every workload runs with the peephole optimizer on and off on the
/// decoded-IR engine (the default); quickstart, compute, and barrier_block
/// additionally run on the bytecode reference engine (exec_bytecode
/// series) so the decoded loop's dispatch-rate win is measured directly,
/// and a decode-time series (BM_DeviceBuild) prices the load-time
/// lowering itself, plus construction at the default image size
/// (BM_DeviceBuild/default_size).
/// Reported counters:
///  - steps_per_sec: bytecode steps retired per second (identical step
///    accounting across engines, so the series are comparable);
///  - us_per_launch: wall time per top-level kernel run;
///  - trace_hit_rate: share of trace executions retiring without a guard
///    side exit (0 on the bytecode series);
///  - decode_instrs_per_sec (decode series): decoded instrs per second.
/// `scripts/bench_baseline.sh` snapshots the numbers to BENCH_vm.json so
/// future PRs can track the trajectory.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/VM.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace dpo;

namespace {

const char *QuickstartSource = R"(
__global__ void child(int *data, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    data[base + i] = base + i * 2;
  }
}
__global__ void parent(int *data, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(data, offsets[v], count);
    }
  }
}
)";

const char *ComputeSource = R"(
__global__ void work(int *out, int n, int rounds) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int acc = 0;
    for (int r = 0; r < rounds; ++r) {
      acc = acc * 3 + (i ^ r) - (acc >> 4);
    }
    out[i] = acc;
  }
}
)";

const char *BfsSource = R"(
__global__ void expand(int *adj, int *offsets, int *dist, int *nextFrontier,
                       int *nextCount, int v, int level) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int begin = offsets[v];
  int deg = offsets[v + 1] - begin;
  if (i < deg) {
    int u = adj[begin + i];
    if (dist[u] == -1) {
      int old = atomicCAS(&dist[u], -1, level);
      if (old == -1) {
        int idx = atomicAdd(nextCount, 1);
        nextFrontier[idx] = u;
      }
    }
  }
}
__global__ void bfsStep(int *adj, int *offsets, int *dist, int *frontier,
                        int *count, int *nextFrontier, int *nextCount,
                        int level) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  if (t < count[0]) {
    int v = frontier[t];
    int deg = offsets[v + 1] - offsets[v];
    if (deg > 0) {
      expand<<<(deg + 31) / 32, 32>>>(adj, offsets, dist, nextFrontier,
                                      nextCount, v, level);
    }
  }
}
)";

std::unique_ptr<Device> mustBuild(const std::string &Source, bool Optimize,
                                  ExecMode Mode = ExecMode::Decoded) {
  DiagnosticEngine Diags;
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = Optimize;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, "", PassPipelineConfig(), Opts, Diags);
  if (!Program) {
    fprintf(stderr, "VM build failed:\n%s\n", Diags.str().c_str());
    abort();
  }
  return std::make_unique<Device>(std::move(*Program),
                                  Device::DefaultMemoryBytes, Mode);
}

void reportVmCounters(benchmark::State &State, Device &Dev) {
  const VmStats &S = Dev.stats();
  State.counters["steps_per_sec"] =
      benchmark::Counter((double)S.Steps, benchmark::Counter::kIsRate);
  State.counters["us_per_launch"] = benchmark::Counter(
      (double)State.iterations() / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  // Share of trace executions (entries + closed-loop iterations) that
  // retired without a guard side exit. 0 when the engine formed or
  // entered no traces (bytecode series).
  uint64_t Retired = S.TraceEntries + S.TraceIters;
  State.counters["trace_hit_rate"] =
      Retired ? 1.0 - (double)S.TraceSideExits / (double)Retired : 0.0;
}

/// Nested parent/child launch workload (quickstart shape). When
/// \p Transformed is non-empty it is a coarsened variant of the same
/// program and is launched through the same entry point.
void runNestedBench(benchmark::State &State, const std::string &Source,
                    bool Optimize, ExecMode Mode = ExecMode::Decoded) {
  auto Dev = mustBuild(Source, Optimize, Mode);
  int NumV = 400;
  std::vector<int32_t> Counts(NumV), Offsets(NumV);
  int Total = 0;
  for (int I = 0; I < NumV; ++I) {
    Counts[I] = (I * 37) % 200;
    Offsets[I] = Total;
    Total += Counts[I];
  }
  uint64_t Data = Dev->alloc((uint64_t)Total * 4);
  uint64_t CountsA = Dev->allocI32(Counts);
  uint64_t OffsetsA = Dev->allocI32(Offsets);
  std::vector<int64_t> Args = {(int64_t)Data, (int64_t)CountsA,
                               (int64_t)OffsetsA, NumV};
  Dim3V Grid = {(uint32_t)((NumV + 63) / 64), 1, 1};
  Dim3V Block = {64, 1, 1};
  if (!Dev->launchKernel("parent", Grid, Block, Args)) { // Warm-up.
    fprintf(stderr, "launch failed: %s\n", Dev->error().c_str());
    abort();
  }
  Dev->resetStats();
  for (auto _ : State) {
    if (!Dev->launchKernel("parent", Grid, Block, Args)) {
      State.SkipWithError(Dev->error().c_str());
      return;
    }
  }
  State.SetItemsProcessed(State.iterations() * Total);
  reportVmCounters(State, *Dev);
}

void BM_Quickstart(benchmark::State &State, bool Optimize) {
  runNestedBench(State, QuickstartSource, Optimize);
}

/// The same workload on the bytecode reference engine: the delta to
/// BM_Quickstart/peephole_on is the decoded layer's dispatch-rate win
/// (step counts are identical across engines by construction).
void BM_QuickstartExec(benchmark::State &State, ExecMode Mode) {
  runNestedBench(State, QuickstartSource, /*Optimize=*/true, Mode);
}

/// Load-time decode cost: parse/compile once, then construct a Device
/// per iteration. The bytecode-mode series prices validation alone; the
/// decoded series adds the bytecode -> ExecIR lowering.
void BM_DeviceBuild(benchmark::State &State, ExecMode Mode,
                    uint64_t MemoryBytes = 1ull << 20) {
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      QuickstartSource, "", PassPipelineConfig(), VmCompileOptions(), Diags);
  if (!Program) {
    State.SkipWithError("compile failed");
    return;
  }
  uint64_t DecodedInstrs = 0;
  for (auto _ : State) {
    Device Dev(*Program, MemoryBytes, Mode);
    DecodedInstrs += Dev.decodeStats().InstrsOut;
    benchmark::DoNotOptimize(Dev.execMode());
  }
  if (Mode == ExecMode::Decoded)
    State.counters["decode_instrs_per_sec"] = benchmark::Counter(
        (double)DecodedInstrs, benchmark::Counter::kIsRate);
}

void BM_Coarsened(benchmark::State &State, bool Optimize) {
  // Thread-coarsen the child (factor 4): each child thread serializes
  // four work items — the Fig. 9 "CDP+C" variant of the same program.
  DiagnosticEngine Diags;
  std::string Transformed = transformSourceWithPipeline(
      QuickstartSource, "coarsen[4]", literalKnobConfig(), Diags);
  if (Transformed.empty()) {
    fprintf(stderr, "coarsening failed:\n%s\n", Diags.str().c_str());
    abort();
  }
  runNestedBench(State, Transformed, Optimize);
}

void BM_Compute(benchmark::State &State, bool Optimize,
                ExecMode Mode = ExecMode::Decoded) {
  auto Dev = mustBuild(ComputeSource, Optimize, Mode);
  int N = 2048, Rounds = 100;
  uint64_t Out = Dev->alloc((uint64_t)N * 4);
  std::vector<int64_t> Args = {(int64_t)Out, N, Rounds};
  Dim3V Grid = {(uint32_t)((N + 127) / 128), 1, 1};
  Dim3V Block = {128, 1, 1};
  if (!Dev->launchKernel("work", Grid, Block, Args)) {
    fprintf(stderr, "launch failed: %s\n", Dev->error().c_str());
    abort();
  }
  Dev->resetStats();
  for (auto _ : State) {
    if (!Dev->launchKernel("work", Grid, Block, Args)) {
      State.SkipWithError(Dev->error().c_str());
      return;
    }
  }
  State.SetItemsProcessed(State.iterations() * (int64_t)N * Rounds);
  reportVmCounters(State, *Dev);
}

const char *DrainSource = R"(
__global__ void child(int *out, int v, int rounds) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int acc = v;
  for (int r = 0; r < rounds; ++r) {
    acc = acc * 3 + (i ^ r) - (acc >> 4);
  }
  out[v * 64 + i] = acc;
}
__global__ void parent(int *out, int numV, int rounds) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    child<<<2, 32>>>(out, v, rounds);
  }
}
)";

/// The many-independent-grids workload: one parent wave enqueues NumV
/// compute-heavy children, which the device drains as a single
/// concurrent wave across State.range(0) workers. Child payloads are
/// disjoint slices of `out`, so the result is identical at every worker
/// count; wall time is the scheduler's scaling measurement.
void BM_GridDrain(benchmark::State &State) {
  auto Dev = mustBuild(DrainSource, /*Optimize=*/true);
  Dev->setWorkers((unsigned)State.range(0));
  int NumV = 256, Rounds = 400;
  uint64_t Out = Dev->alloc((uint64_t)NumV * 64 * 4);
  std::vector<int64_t> Args = {(int64_t)Out, NumV, Rounds};
  Dim3V Grid = {(uint32_t)((NumV + 63) / 64), 1, 1};
  Dim3V Block = {64, 1, 1};
  if (!Dev->launchKernel("parent", Grid, Block, Args)) { // Warm-up.
    fprintf(stderr, "launch failed: %s\n", Dev->error().c_str());
    abort();
  }
  Dev->resetStats();
  for (auto _ : State) {
    if (!Dev->launchKernel("parent", Grid, Block, Args)) {
      State.SkipWithError(Dev->error().c_str());
      return;
    }
  }
  State.SetItemsProcessed(State.iterations() * (int64_t)NumV);
  State.counters["grids_per_sec"] = benchmark::Counter(
      (double)Dev->stats().GridsLaunched, benchmark::Counter::kIsRate);
  reportVmCounters(State, *Dev);
}

const char *BarrierBlockSource = R"(
__global__ void reduce(int *in, int *out, int n, int rounds) {
  __shared__ int tile[128];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int acc = 0;
  for (int r = 0; r < rounds; r = r + 1) {
    tile[threadIdx.x] = i < n ? in[i] + r : 0;
    __syncthreads();
    for (int s = blockDim.x / 2; s > 0; s = s / 2) {
      if (threadIdx.x < s)
        tile[threadIdx.x] = tile[threadIdx.x] + tile[threadIdx.x + s];
      __syncthreads();
    }
    acc = acc + tile[0];
    __syncthreads();
  }
  if (i < n)
    out[i] = acc;
}
)";

/// Cooperative block-mode throughput: repeated shared-memory tree
/// reductions, every round crossing several __syncthreads barriers. The
/// series prices barrier parking/resume and the cooperative scheduler's
/// round-robin switching — the block-mode hot path PR'd alongside the
/// engines it runs on, so regressions in the park/release machinery show
/// up here rather than in the barrier-free series.
void BM_BarrierBlock(benchmark::State &State, bool Optimize,
                     ExecMode Mode = ExecMode::Decoded) {
  auto Dev = mustBuild(BarrierBlockSource, Optimize, Mode);
  int N = 1024, Rounds = 16;
  std::vector<int32_t> In(N);
  for (int I = 0; I < N; ++I)
    In[I] = (I * 13) % 101;
  uint64_t InA = Dev->allocI32(In);
  uint64_t OutA = Dev->alloc((uint64_t)N * 4);
  std::vector<int64_t> Args = {(int64_t)InA, (int64_t)OutA, N, Rounds};
  Dim3V Grid = {(uint32_t)((N + 127) / 128), 1, 1};
  Dim3V Block = {128, 1, 1};
  if (!Dev->launchKernel("reduce", Grid, Block, Args)) { // Warm-up.
    fprintf(stderr, "launch failed: %s\n", Dev->error().c_str());
    abort();
  }
  Dev->resetStats();
  for (auto _ : State) {
    if (!Dev->launchKernel("reduce", Grid, Block, Args)) {
      State.SkipWithError(Dev->error().c_str());
      return;
    }
  }
  State.SetItemsProcessed(State.iterations() * (int64_t)N * Rounds);
  reportVmCounters(State, *Dev);
}

void BM_Bfs(benchmark::State &State, bool Optimize) {
  auto Dev = mustBuild(BfsSource, Optimize);

  // Synthetic graph: 300 vertices, skewed degrees (a few hubs).
  std::mt19937 Rng(1234);
  int N = 300;
  std::vector<std::vector<int32_t>> Adj(N);
  for (int V = 0; V < N; ++V) {
    int Deg = (V % 17 == 0) ? 40 + (int)(Rng() % 60) : (int)(Rng() % 8);
    for (int E = 0; E < Deg; ++E)
      Adj[V].push_back((int32_t)(Rng() % N));
  }
  std::vector<int32_t> Offsets(N + 1), Flat;
  for (int V = 0; V < N; ++V) {
    Offsets[V] = (int32_t)Flat.size();
    Flat.insert(Flat.end(), Adj[V].begin(), Adj[V].end());
  }
  Offsets[N] = (int32_t)Flat.size();

  uint64_t AdjA = Dev->allocI32(Flat);
  uint64_t OffsetsA = Dev->allocI32(Offsets);
  uint64_t DistA = Dev->alloc((uint64_t)N * 4);
  uint64_t FrontierA = Dev->alloc((uint64_t)N * 4);
  uint64_t NextFrontierA = Dev->alloc((uint64_t)N * 4);
  uint64_t CountA = Dev->alloc(4);
  uint64_t NextCountA = Dev->alloc(4);

  auto RunBfs = [&]() -> bool {
    for (int V = 0; V < N; ++V)
      Dev->writeI32(DistA + (uint64_t)V * 4, -1);
    Dev->writeI32(DistA, 0);
    Dev->writeI32(FrontierA, 0);
    Dev->writeI32(CountA, 1);
    uint64_t Cur = FrontierA, Next = NextFrontierA;
    for (int Level = 1; Level < 64; ++Level) {
      Dev->writeI32(NextCountA, 0);
      int Count = Dev->readI32(CountA);
      if (Count == 0)
        break;
      Dim3V Grid = {(uint32_t)((Count + 31) / 32), 1, 1};
      if (!Dev->launchKernel("bfsStep", Grid, {32, 1, 1},
                             {(int64_t)AdjA, (int64_t)OffsetsA, (int64_t)DistA,
                              (int64_t)Cur, (int64_t)CountA, (int64_t)Next,
                              (int64_t)NextCountA, Level}))
        return false;
      Dev->writeI32(CountA, Dev->readI32(NextCountA));
      std::swap(Cur, Next);
    }
    return true;
  };

  if (!RunBfs()) {
    fprintf(stderr, "bfs failed: %s\n", Dev->error().c_str());
    abort();
  }
  Dev->resetStats();
  for (auto _ : State) {
    if (!RunBfs()) {
      State.SkipWithError(Dev->error().c_str());
      return;
    }
  }
  State.SetItemsProcessed(State.iterations() * (int64_t)Flat.size());
  reportVmCounters(State, *Dev);
}

BENCHMARK_CAPTURE(BM_Quickstart, peephole_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Quickstart, peephole_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Coarsened, peephole_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Coarsened, peephole_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Bfs, peephole_on, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Bfs, peephole_off, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Compute, peephole_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Compute, peephole_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BarrierBlock, peephole_on, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BarrierBlock, peephole_off, false)
    ->Unit(benchmark::kMillisecond);

// Worker-scaling series: the same drain workload at 1/2/4/8 device
// workers. BM_GridDrain/1 is the deterministic single-lane baseline.
// Real-time measurement: work happens on device worker threads while the
// main thread waits, so main-thread CPU time (the default rate base)
// would overstate multi-worker throughput; wall time is the honest
// scaling metric. MeasureProcessCPUTime keeps the CPU column meaningful
// (total burn across workers).
BENCHMARK(BM_GridDrain)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

// Engine comparison (same bytecode, decoded loop vs the bytecode
// reference) and the decode-time series.
BENCHMARK_CAPTURE(BM_QuickstartExec, exec_bytecode, ExecMode::Bytecode)
    ->Unit(benchmark::kMillisecond);
static void BM_ComputeExecBytecode(benchmark::State &State) {
  BM_Compute(State, /*Optimize=*/true, ExecMode::Bytecode);
}
BENCHMARK(BM_ComputeExecBytecode)->Unit(benchmark::kMillisecond);
static void BM_BarrierBlockExecBytecode(benchmark::State &State) {
  BM_BarrierBlock(State, /*Optimize=*/true, ExecMode::Bytecode);
}
BENCHMARK(BM_BarrierBlockExecBytecode)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DeviceBuild, decoded, ExecMode::Decoded)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DeviceBuild, bytecode, ExecMode::Bytecode)
    ->Unit(benchmark::kMicrosecond);
// What every buildDevice caller pays: construction and destruction at the
// library's default image size, not the 1 MiB image of the series above.
BENCHMARK_CAPTURE(BM_DeviceBuild, default_size, ExecMode::Decoded,
                  Device::DefaultMemoryBytes)
    ->Unit(benchmark::kMicrosecond);

} // namespace
