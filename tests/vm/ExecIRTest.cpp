//===--- ExecIRTest.cpp - decoded execution IR unit tests ----------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and dynamic checks on the bytecode -> decoded-IR lowering
/// (vm/ExecIR.cpp) and the decoded dispatch loop:
///  - decode is 1:1 except for the declared pair fusions, whose step
///    costs sum to the bytecode instruction count;
///  - fusion never crosses a jump target and jump operands are rebuilt;
///  - the decoded engine and the bytecode reference produce
///    bit-identical memory and identical VmStats on kernels covering
///    calls, barriers, launches, and frame memory;
///  - traces form on loop kernels only, retire exactly, and compose with
///    the worker pool;
///  - the decoded IR of a fixed set of kernels, traces included, is
///    pinned by hash.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"
#include "vm/ExecIR.h"
#include "vm/VM.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>

using namespace dpo;

namespace {

VmProgram compileSource(std::string_view Source, bool Optimize = true) {
  DiagnosticEngine Diags;
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = Optimize;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, "", PassPipelineConfig(), Opts, Diags);
  EXPECT_TRUE(Program) << Diags.str();
  return Program.value_or(VmProgram());
}

TEST(ExecIRTest, DecodeIsOneToOneModuloFusions) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int x = 7;
    int y = x;
    out[i] = y;
  }
}
)";
  VmProgram P = compileSource(Source);
  ExecProgram E = decodeProgram(P, nullptr);
  ASSERT_EQ(E.Functions.size(), P.Functions.size());
  EXPECT_EQ(E.Stats.InstrsIn, (uint64_t)P.Functions[0].Code.size());
  EXPECT_EQ(E.Stats.InstrsOut + E.Stats.FusedPairs, E.Stats.InstrsIn)
      << "every fusion merges exactly two instructions";
  // Step costs over the baseline region must sum back to the bytecode
  // instruction count, the invariant that keeps VmStats identical across
  // engines. The trace region past TraceBase is an alternate encoding of
  // the same paths, not an extension of this sum.
  uint64_t CostSum = 0;
  for (unsigned I = 0; I < E.Functions[0].TraceBase; ++I)
    CostSum += E.Functions[0].Code[I].Cost;
  EXPECT_EQ(CostSum, (uint64_t)P.Functions[0].Code.size());
  // `int x = 7;` decodes into the fused immediate store.
  unsigned StoreImm = 0, CopyLocal = 0, TidStore = 0;
  for (const ExecInstr &I : E.Functions[0].Code) {
    StoreImm += I.Code == (uint16_t)XOp::StoreLocalImm;
    CopyLocal += I.Code == (uint16_t)XOp::CopyLocal;
    TidStore += I.Code == (uint16_t)XOp::GlobalTidStore;
  }
  EXPECT_GE(StoreImm + CopyLocal, 1u);
  EXPECT_EQ(TidStore, 1u) << "the tid idiom decodes into one fused store";
}

TEST(ExecIRTest, JumpTargetsSurviveDecodeFusion) {
  // A loop whose back-edge lands exactly on an instruction that follows
  // a fusable pair: jumps must be remapped onto decoded indices.
  const char *Source = R"(
__global__ void k(int *out, int n) {
  int sum = 0;
  for (int i = 0; i < n; ++i) {
    int t = i;
    sum = sum + t;
  }
  out[0] = sum;
}
)";
  VmProgram P = compileSource(Source);
  ExecProgram E = decodeProgram(P, nullptr);
  const ExecFunc &F = E.Functions[0];
  for (const ExecInstr &I : F.Code)
    if (I.Code < NumOpcodes && isJumpOp((Op)I.Code))
      EXPECT_LT((uint64_t)I.A, F.Code.size()) << "remapped target in range";

  // And the loop still computes the right sum on every engine.
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    VmProgram Prog = compileSource(Source);
    Device Dev(std::move(Prog), 16ull << 20, Mode);
    uint64_t Out = Dev.alloc(4);
    ASSERT_TRUE(Dev.launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 10}))
        << Dev.error();
    EXPECT_EQ(Dev.readI32(Out), 45);
  }
}

/// Runs `k(out, n)` on both engines (peephole on and off) and compares
/// device memory bit-for-bit plus the full VmStats.
void expectEngineEquivalent(const char *Source, int N, Dim3V Grid,
                            Dim3V Block) {
  for (bool Optimize : {true, false}) {
    std::vector<int32_t> Results[2];
    VmStats Stats[2];
    int Idx = 0;
    for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
      VmProgram P = compileSource(Source, Optimize);
      Device Dev(std::move(P), 32ull << 20, Mode);
      ASSERT_EQ(Dev.execMode(), Mode);
      uint64_t Out = Dev.alloc((uint64_t)N * 4);
      ASSERT_TRUE(Dev.launchKernel("k", Grid, Block, {(int64_t)Out, N}))
          << Dev.error();
      Results[Idx] = Dev.readI32Array(Out, N);
      Stats[Idx] = Dev.stats();
      ++Idx;
    }
    EXPECT_EQ(Results[0], Results[1]) << Source;
    EXPECT_EQ(Stats[0].Steps, Stats[1].Steps)
        << "step accounting diverged, peephole=" << Optimize;
    EXPECT_EQ(Stats[0].GridsLaunched, Stats[1].GridsLaunched);
    EXPECT_EQ(Stats[0].DeviceLaunches, Stats[1].DeviceLaunches);
    EXPECT_EQ(Stats[0].ThreadsExecuted, Stats[1].ThreadsExecuted);
  }
}

/// A recursive __device__ call with frame memory and no loops.
const char *CallsAndFramesSource = R"(
__device__ int helper(int x, int depth) {
  int buf[4];
  buf[x % 4] = x;
  if (depth > 0) return helper(x + 1, depth - 1) + buf[x % 4];
  return buf[x % 4];
}
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = helper(i, i % 5);
}
)";

TEST(ExecIRTest, EnginesAgreeOnCallsAndFrames) {
  expectEngineEquivalent(CallsAndFramesSource, 64, {2, 1, 1}, {32, 1, 1});
}

/// A shared-memory tree reduction: a loop with barriers in its body.
const char *BarrierReduceSource = R"(
__global__ void k(int *out, int n) {
  __shared__ int scratch[64];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  scratch[threadIdx.x] = i < n ? i * 3 + 1 : 0;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
    if (threadIdx.x < stride)
      scratch[threadIdx.x] += scratch[threadIdx.x + stride];
    __syncthreads();
  }
  if (threadIdx.x == 0)
    out[blockIdx.x] = scratch[0];
}
)";

TEST(ExecIRTest, EnginesAgreeOnBarriersAndShared) {
  expectEngineEquivalent(BarrierReduceSource, 4, {4, 1, 1}, {64, 1, 1});
}

TEST(ExecIRTest, EnginesAgreeOnDynamicLaunches) {
  expectEngineEquivalent(R"(
__global__ void child(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) atomicAdd(&out[base + i], i + 1);
}
__global__ void k(int *out, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    child<<<(v + 7) / 8, 8>>>(out, v * 2, v);
  }
}
)",
                         256, {2, 1, 1}, {16, 1, 1});
}

TEST(ExecIRTest, TrapsAndStepLimitsFireOnBothEngines) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  out[0] = 10 / (n - n);
}
)";
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    VmProgram P = compileSource(Source);
    Device Dev(std::move(P), 16ull << 20, Mode);
    uint64_t Out = Dev.alloc(4);
    EXPECT_FALSE(Dev.launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 5}));
    EXPECT_NE(Dev.error().find("division by zero"), std::string::npos)
        << Dev.error();
  }
  const char *Loop = R"(
__global__ void k(int *out, int n) {
  while (n < 100) { n = n - 1; if (n < -1000000) n = 0; }
  out[0] = n;
}
)";
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    VmProgram P = compileSource(Loop);
    Device Dev(std::move(P), 16ull << 20, Mode);
    Dev.setStepLimit(10000);
    uint64_t Out = Dev.alloc(4);
    EXPECT_FALSE(Dev.launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 5}));
    EXPECT_NE(Dev.error().find("step limit"), std::string::npos) << Dev.error();
  }
}

TEST(ExecIRTest, DecodeStatsExposedOnDevice) {
  VmProgram P = compileSource(R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = i;
}
)");
  uint64_t Instrs = P.Functions[0].Code.size();
  Device Dev(std::move(P), 16ull << 20, ExecMode::Decoded);
  EXPECT_EQ(Dev.decodeStats().InstrsIn, Instrs);
  EXPECT_GT(Dev.decodeStats().InstrsOut, 0u);
}

//===----------------------------------------------------------------------===//
// Trace layer: superblock formation, side exits, and the exact-step
// contract under abort and concurrency.
//===----------------------------------------------------------------------===//

/// A hot counted loop with a data-dependent early exit: forms a loop
/// trace with at least one guard that actually fires.
const char *TracedLoopSource = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int sum = 0;
  for (int j = 0; j < n; ++j) {
    sum = sum + (i ^ j);
    if (sum > 100000)
      break;
  }
  if (i < n) out[i] = sum;
}
)";

TEST(ExecIRTest, LoopKernelsFormTracesAndRetireThroughThem) {
  VmProgram P = compileSource(TracedLoopSource);
  Device Dev(std::move(P), 16ull << 20, ExecMode::Decoded);
  ASSERT_GT(Dev.decodeStats().TracesFormed, 0u)
      << "a counted loop must form at least one trace";
  EXPECT_GT(Dev.decodeStats().TraceInstrs, 0u);
  uint64_t Out = Dev.alloc(64 * 4);
  ASSERT_TRUE(
      Dev.launchKernel("k", {2, 1, 1}, {32, 1, 1}, {(int64_t)Out, 64}))
      << Dev.error();
  const VmStats &S = Dev.stats();
  EXPECT_GT(S.TraceEntries, 0u) << "threads must enter the formed trace";
  EXPECT_GT(S.TraceIters, 0u) << "the loop trace must take its back edge";
  EXPECT_GT(S.TraceSideExits, 0u)
      << "the break guard must side-exit at least once";
}

TEST(ExecIRTest, UntracedEnginesReportNoTraceActivity) {
  // The bytecode reference decodes nothing, so it forms and enters no
  // traces.
  VmProgram P = compileSource(TracedLoopSource);
  Device Dev(std::move(P), 16ull << 20, ExecMode::Bytecode);
  EXPECT_EQ(Dev.decodeStats().TracesFormed, 0u);
  uint64_t Out = Dev.alloc(64 * 4);
  ASSERT_TRUE(
      Dev.launchKernel("k", {2, 1, 1}, {32, 1, 1}, {(int64_t)Out, 64}))
      << Dev.error();
  EXPECT_EQ(Dev.stats().TraceEntries, 0u);
  EXPECT_EQ(Dev.stats().TraceIters, 0u);
  EXPECT_EQ(Dev.stats().TraceSideExits, 0u);
}

TEST(ExecIRTest, LoopFreeCodeFormsNoTraces) {
  // Only loop heads start traces: straight-line kernels and calls run in
  // the baseline region and retire exactly what the bytecode engine does.
  std::vector<int32_t> Results[2];
  uint64_t Steps[2];
  int Idx = 0;
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    Device Dev(compileSource(CallsAndFramesSource), 16ull << 20, Mode);
    EXPECT_EQ(Dev.decodeStats().TracesFormed, 0u);
    uint64_t Out = Dev.alloc(64 * 4);
    ASSERT_TRUE(
        Dev.launchKernel("k", {2, 1, 1}, {32, 1, 1}, {(int64_t)Out, 64}))
        << Dev.error();
    EXPECT_EQ(Dev.stats().TraceEntries, 0u);
    Results[Idx] = Dev.readI32Array(Out, 64);
    Steps[Idx] = Dev.stats().Steps;
    ++Idx;
  }
  EXPECT_EQ(Results[0], Results[1]);
  EXPECT_EQ(Steps[0], Steps[1]);
}

/// A long-running counted loop with a never-taken break.
const char *SpinLoopSource = R"(
__global__ void k(int *out, int n) {
  int sum = 0;
  for (int j = 0; j < 2000000000; ++j) {
    sum = sum + (n ^ j);
    if (sum < -2000000000) break;
  }
  out[0] = sum;
}
)";

TEST(ExecIRTest, StepLimitAbortsMidTraceWithExactAccounting) {
  // The infinite loop spins inside a trace; the budget must trip at the
  // same retired-step count on every engine even though the traced
  // engine charges multi-instruction regions at once.
  uint64_t StepsAtAbort[2];
  int Idx = 0;
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    VmProgram P = compileSource(SpinLoopSource);
    Device Dev(std::move(P), 16ull << 20, Mode);
    if (Mode == ExecMode::Decoded)
      ASSERT_GT(Dev.decodeStats().TracesFormed, 0u);
    Dev.setStepLimit(12345);
    uint64_t Out = Dev.alloc(4);
    EXPECT_FALSE(
        Dev.launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 5}));
    EXPECT_NE(Dev.error().find("step limit"), std::string::npos)
        << Dev.error();
    StepsAtAbort[Idx++] = Dev.stats().Steps;
  }
  EXPECT_EQ(StepsAtAbort[0], StepsAtAbort[1])
      << "mid-trace abort charged a different step count";
}

/// Device-launched child grids whose threads each run a counted loop.
const char *LaunchedLoopSource = R"(
__global__ void child(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    int sum = 0;
    for (int j = 0; j <= i + base; ++j)
      sum = sum + j;
    atomicAdd(&out[(base + i) % 64], sum);
  }
}
__global__ void k(int *out, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n)
    child<<<(v + 7) / 8, 8>>>(out, v, v);
}
)";

TEST(ExecIRTest, TracedExecutionComposesWithWorkerPool) {
  // Device-launched child grids with a traced hot loop, drained by 2 and
  // 4 workers: payload identical to the single-worker run (the children
  // claim work through an atomic), and the single-worker runs pin the
  // exact step count the tuner prices against.
  auto RunAt = [&](unsigned Workers, std::vector<int32_t> &Out,
                   uint64_t &Steps) {
    VmProgram P = compileSource(LaunchedLoopSource);
    Device Dev(std::move(P), 16ull << 20, ExecMode::Decoded);
    ASSERT_GT(Dev.decodeStats().TracesFormed, 0u);
    Dev.setWorkers(Workers);
    uint64_t OutA = Dev.alloc(64 * 4);
    ASSERT_TRUE(
        Dev.launchKernel("k", {2, 1, 1}, {16, 1, 1}, {(int64_t)OutA, 32}))
        << Dev.error();
    EXPECT_GT(Dev.stats().TraceEntries, 0u);
    Out = Dev.readI32Array(OutA, 64);
    Steps = Dev.stats().Steps;
  };
  std::vector<int32_t> Solo, Solo2, Par;
  uint64_t SoloSteps = 0, Solo2Steps = 0, ParSteps = 0;
  RunAt(1, Solo, SoloSteps);
  RunAt(1, Solo2, Solo2Steps);
  EXPECT_EQ(SoloSteps, Solo2Steps)
      << "single-worker traced execution must stay step-deterministic";
  for (unsigned Workers : {2u, 4u}) {
    RunAt(Workers, Par, ParSteps);
    EXPECT_EQ(Solo, Par) << "payload diverged at workers=" << Workers;
  }
}

//===----------------------------------------------------------------------===//
// Decoded-IR pin: what the peephole and the trace former emit.
//===----------------------------------------------------------------------===//

/// An `int` counted loop whose increment (IncLocalI32) is followed by an
/// unsigned use of the counter that a trace can prove needs no wrap.
const char *IntCountedLoopSource = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  unsigned sum = 0;
  int j = 0;
  while (j < n) {
    if (j < 0) break;
    ++j;
    sum = sum + (unsigned)j * 3u;
  }
  if (i < n) out[i] = (int)sum;
}
)";

/// The same shape over a `long` counter (IncLocalI64).
const char *LongCountedLoopSource = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int sum = 0;
  long j = 0;
  while (j < n) {
    if (j < 0) break;
    ++j;
    sum = sum + (i ^ (int)j);
  }
  if (i < n) out[i] = sum;
}
)";

struct DecodedPin {
  const char *Source;
  const char *Pipeline;
  bool Optimize;
  uint64_t Hash;
  uint64_t Traces;
};

const DecodedPin DecodedPins[] = {
#include "DecodedPinTable.inc"
};

struct PinSource {
  const char *Name;
  std::string Text;
  bool Launches; ///< Also pinned through the transform pipelines.
};

std::vector<PinSource> decodedPinSources() {
  return {{"quickstart", quickstartVmSource(), true},
          {"nestedVmSource(32)", nestedVmSource(32), true},
          {"LaunchedLoopSource", LaunchedLoopSource, true},
          {"TracedLoopSource", TracedLoopSource, false},
          {"SpinLoopSource", SpinLoopSource, false},
          {"BarrierReduceSource", BarrierReduceSource, false},
          {"CallsAndFramesSource", CallsAndFramesSource, false},
          {"IntCountedLoopSource", IntCountedLoopSource, false},
          {"LongCountedLoopSource", LongCountedLoopSource, false}};
}

/// No multi-block aggregation: the pin covers the VM layers, not the
/// multi-block wrapper's buffer sizing.
const char *const DecodedPinPipelines[] = {"threshold[64],coarsen[4]",
                                           "coarsen[4],aggregate[block]"};

/// FNV-1a over every decoded field that reaches execution except the
/// handler addresses, which differ per process.
uint64_t decodedHash(const ExecProgram &E) {
  uint64_t H = fnv1a64("");
  auto Mix = [&](int64_t V) {
    H = fnv1a64(std::string_view((const char *)&V, sizeof(V)), H);
  };
  for (const ExecFunc &F : E.Functions) {
    Mix((int64_t)F.Code.size());
    Mix(F.TraceBase);
    for (const ExecInstr &I : F.Code) {
      Mix(I.Code);
      Mix(I.A);
      Mix(I.B);
      Mix(I.Cost);
      Mix(I.C);
    }
  }
  return H;
}

bool containsOp(const VmProgram &P, Op Code) {
  for (const FuncDef &F : P.Functions)
    for (const Instr &I : F.Code)
      if (I.Code == Code)
        return true;
  return false;
}

TEST(ExecIRTest, DecodedProgramsArePinned) {
  // The pin has to reach both loop-counter superinstructions, which no
  // corpus kernel produces together.
  EXPECT_TRUE(containsOp(compileSource(IntCountedLoopSource), Op::IncLocalI32));
  EXPECT_TRUE(
      containsOp(compileSource(LongCountedLoopSource), Op::IncLocalI64));

  std::map<std::tuple<std::string, std::string, bool>, const DecodedPin *>
      Rows;
  for (const DecodedPin &Row : DecodedPins)
    Rows[{Row.Source, Row.Pipeline, Row.Optimize}] = &Row;
  size_t Checked = 0;
  auto Check = [&](const PinSource &Src, const char *Pipeline) {
    for (bool Optimize : {true, false}) {
      DiagnosticEngine Diags;
      VmCompileOptions Opts;
      Opts.OptimizeBytecode = Optimize;
      std::optional<VmProgram> P = compileWithPipeline(
          Src.Text, Pipeline, literalKnobConfig(), Opts, Diags);
      ASSERT_TRUE(P) << Src.Name << " [" << Pipeline << "]: " << Diags.str();
      ExecProgram E = decodeProgram(*P, nullptr);
      uint64_t Hash = decodedHash(E), Traces = E.Stats.TracesFormed;
      char Now[256];
      std::snprintf(Now, sizeof(Now),
                    "{\"%s\", \"%s\", %s, 0x%016" PRIx64 "u, %" PRIu64
                    "u},",
                    Src.Name, Pipeline, Optimize ? "true" : "false", Hash,
                    Traces);
      auto It = Rows.find({Src.Name, Pipeline, Optimize});
      if (It == Rows.end()) {
        ADD_FAILURE() << "no pinned row; now " << Now;
        continue;
      }
      EXPECT_EQ(It->second->Hash, Hash) << "decoded IR; now " << Now;
      EXPECT_EQ(It->second->Traces, Traces) << "traces formed; now " << Now;
      ++Checked;
    }
  };
  for (const PinSource &Src : decodedPinSources()) {
    Check(Src, "");
    if (Src.Launches)
      for (const char *Pipeline : DecodedPinPipelines)
        Check(Src, Pipeline);
  }
  EXPECT_EQ(Checked, sizeof(DecodedPins) / sizeof(DecodedPins[0]));
}

} // namespace
