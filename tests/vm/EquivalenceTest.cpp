//===--- EquivalenceTest.cpp - Transformed code computes the same thing -------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness property of the whole framework: for every
/// combination of thresholding/coarsening/aggregation (at every
/// granularity), the transformed source must compute exactly the same
/// memory state as the original. Both versions execute on the bytecode VM;
/// outputs are compared element-wise over randomized nested-parallelism
/// workloads, and the transformed version also runs on the bytecode
/// reference engine, which must reproduce the decoded engine's memory.
///
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"
#include "transform/Pipeline.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>

using namespace dpo;

namespace {

/// The canonical nested-parallelism program (BFS-shaped): each parent
/// thread v launches counts[v] child threads, each writing a derived value
/// into its slice of `out`.
const char *NestedSource = R"(
__global__ void child(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    out[base + i] = base * 7 + i * 3 + count;
  }
}
__global__ void parent(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(out, offsets[v], count);
    }
  }
}
)";

/// Variant with per-parent block dimensions (exercises the max-blockDim
/// masking in aggregated children) and an accumulating child (atomics).
const char *VaryingBlockDimSource = R"(
__global__ void child(int *out, int *acc, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    out[base + i] = base + i;
    atomicAdd(acc, 1);
  }
}
__global__ void parent(int *out, int *acc, int *counts, int *offsets,
                       int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    int b = v % 2 == 0 ? 32 : 64;
    if (count > 0) {
      child<<<(count + b - 1) / b, b>>>(out, acc, offsets[v], count);
    }
  }
}
)";

/// Child with an early return (exercises the serial-thread-helper and
/// coarse-body-helper codegen paths).
const char *EarlyReturnSource = R"(
__global__ void child(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= count)
    return;
  if (i % 3 == 0)
    return;
  out[base + i] = base + i * i;
}
__global__ void parent(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 63) / 64, 64>>>(out, offsets[v], count);
    }
  }
}
)";

struct Workload {
  std::vector<int32_t> Counts;
  std::vector<int32_t> Offsets;
  int32_t Total = 0;

  static Workload random(unsigned Seed, int NumV, int MaxCount) {
    std::mt19937 Rng(Seed);
    Workload W;
    W.Counts.resize(NumV);
    W.Offsets.resize(NumV);
    // Skewed distribution: many small, few large (the paper's whole point).
    std::uniform_int_distribution<int> Small(0, 8);
    std::uniform_int_distribution<int> Large(32, MaxCount);
    std::uniform_int_distribution<int> Pick(0, 9);
    for (int V = 0; V < NumV; ++V) {
      W.Offsets[V] = W.Total;
      W.Counts[V] = Pick(Rng) < 7 ? Small(Rng) : Large(Rng);
      W.Total += W.Counts[V];
    }
    return W;
  }
};

struct RunOutcome {
  std::vector<int32_t> Out;
  int32_t Acc = 0;
  VmStats Stats;
};

/// Runs either version of a program on \p Engine: allocates buffers,
/// invokes `parent` (directly, or through a generated `parent_agg` wrapper
/// when present).
RunOutcome runProgram(const std::string &Source, const Workload &W,
                      bool WithAcc, ExecMode Engine = ExecMode::Decoded) {
  constexpr unsigned ParentBlock = 128;
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, "", PassPipelineConfig(), VmCompileOptions(), Diags);
  EXPECT_TRUE(Program) << Diags.str() << "\nsource:\n" << Source;
  RunOutcome Outcome;
  if (!Program)
    return Outcome;
  auto Dev = std::make_unique<Device>(std::move(*Program),
                                      Device::DefaultMemoryBytes, Engine);

  int NumV = (int)W.Counts.size();
  uint64_t Out = Dev->alloc(std::max(1, W.Total) * 4);
  uint64_t Acc = Dev->alloc(4);
  uint64_t Counts = Dev->allocI32(W.Counts);
  uint64_t Offsets = Dev->allocI32(W.Offsets);

  std::vector<int64_t> Args;
  Args.push_back((int64_t)Out);
  if (WithAcc)
    Args.push_back((int64_t)Acc);
  Args.push_back((int64_t)Counts);
  Args.push_back((int64_t)Offsets);
  Args.push_back(NumV);

  unsigned GridX = (NumV + ParentBlock - 1) / ParentBlock;
  bool Ok;
  DiagnosticEngine ProbeDiags;
  ASTContext ProbeCtx;
  TranslationUnit *TU = parseSource(Source, ProbeCtx, ProbeDiags);
  bool HasWrapper = TU && TU->findFunction("parent_agg");
  if (HasWrapper) {
    std::vector<int64_t> HostArgs = {GridX, 1, 1, ParentBlock, 1, 1};
    HostArgs.insert(HostArgs.end(), Args.begin(), Args.end());
    Ok = Dev->callHost("parent_agg", HostArgs);
  } else {
    Ok = Dev->launchKernel("parent", {GridX, 1, 1}, {ParentBlock, 1, 1}, Args);
  }
  EXPECT_TRUE(Ok) << Dev->error() << "\nsource:\n" << Source;
  if (!Ok)
    return Outcome;

  Outcome.Out = Dev->readI32Array(Out, std::max(1, W.Total));
  Outcome.Acc = Dev->readI32(Acc);
  Outcome.Stats = Dev->stats();
  return Outcome;
}

struct PipelineConfig {
  const char *Name;
  bool T, C, A;
  AggGranularity Granularity;
  unsigned Threshold;
  unsigned Factor;
  bool AggThreshold;
};

// Print the name: the struct's bytes hold pointers, unstable in test names.
void PrintTo(const PipelineConfig &C, std::ostream *OS) { *OS << C.Name; }

std::string transformWith(const std::string &Source,
                          const PipelineConfig &Config) {
  std::string Pipeline = std::string(Config.T ? "threshold," : "") +
                         (Config.C ? "coarsen," : "") +
                         (Config.A ? "aggregate," : "");
  Pipeline.pop_back();
  PassPipelineConfig Knobs = literalKnobConfig();
  Knobs.Threshold = Config.Threshold;
  Knobs.CoarsenFactor = Config.Factor;
  Knobs.Granularity = Config.Granularity;
  Knobs.GroupSize = 4;
  if (Config.AggThreshold)
    Knobs.AggThreshold = 3;
  DiagnosticEngine Diags;
  std::string Result =
      transformSourceWithPipeline(Source, Pipeline, Knobs, Diags);
  EXPECT_FALSE(Result.empty()) << Diags.str();
  return Result;
}

/// Re-runs \p Transformed on the bytecode reference engine, which must
/// reproduce the decoded engine's \p Decoded outcome exactly.
void expectReferenceAgrees(const std::string &Transformed, const Workload &W,
                           bool WithAcc, const RunOutcome &Decoded) {
  RunOutcome Reference =
      runProgram(Transformed, W, WithAcc, ExecMode::Bytecode);
  EXPECT_EQ(Reference.Out, Decoded.Out) << "bytecode reference diverged";
  EXPECT_EQ(Reference.Acc, Decoded.Acc) << "bytecode reference diverged";
}

const PipelineConfig Configs[] = {
    {"T_low", true, false, false, AggGranularity::None, 8, 1, false},
    {"T_high", true, false, false, AggGranularity::None, 1000000, 1, false},
    {"T_mid", true, false, false, AggGranularity::None, 64, 1, false},
    {"C2", false, true, false, AggGranularity::None, 0, 2, false},
    {"C8", false, true, false, AggGranularity::None, 0, 8, false},
    {"A_warp", false, false, true, AggGranularity::Warp, 0, 1, false},
    {"A_block", false, false, true, AggGranularity::Block, 0, 1, false},
    {"A_multiblock", false, false, true, AggGranularity::MultiBlock, 0, 1,
     false},
    {"A_grid", false, false, true, AggGranularity::Grid, 0, 1, false},
    {"A_block_thresh", false, false, true, AggGranularity::Block, 0, 1, true},
    {"TC", true, true, false, AggGranularity::None, 32, 4, false},
    {"TA_multiblock", true, false, true, AggGranularity::MultiBlock, 32, 1,
     false},
    {"CA_block", false, true, true, AggGranularity::Block, 0, 4, false},
    {"TCA_multiblock", true, true, true, AggGranularity::MultiBlock, 32, 2,
     false},
    {"TCA_grid", true, true, true, AggGranularity::Grid, 16, 4, false},
    {"TCA_warp", true, true, true, AggGranularity::Warp, 16, 2, false},
};

class EquivalenceTest : public ::testing::TestWithParam<PipelineConfig> {};

TEST_P(EquivalenceTest, NestedWorkload) {
  const PipelineConfig &Config = GetParam();
  Workload W = Workload::random(/*Seed=*/1234, /*NumV=*/300, /*MaxCount=*/200);
  RunOutcome Reference = runProgram(NestedSource, W, /*WithAcc=*/false);
  std::string Transformed = transformWith(NestedSource, Config);
  RunOutcome Result = runProgram(Transformed, W, /*WithAcc=*/false);
  ASSERT_EQ(Reference.Out.size(), Result.Out.size());
  for (size_t I = 0; I < Reference.Out.size(); ++I)
    ASSERT_EQ(Reference.Out[I], Result.Out[I])
        << "config " << Config.Name << " diverges at element " << I << "\n"
        << Transformed;
  expectReferenceAgrees(Transformed, W, /*WithAcc=*/false, Result);
}

TEST_P(EquivalenceTest, VaryingBlockDims) {
  const PipelineConfig &Config = GetParam();
  Workload W = Workload::random(/*Seed=*/77, /*NumV=*/200, /*MaxCount=*/150);
  RunOutcome Reference = runProgram(VaryingBlockDimSource, W, /*WithAcc=*/true);
  std::string Transformed = transformWith(VaryingBlockDimSource, Config);
  RunOutcome Result = runProgram(Transformed, W, /*WithAcc=*/true);
  ASSERT_EQ(Reference.Out.size(), Result.Out.size());
  for (size_t I = 0; I < Reference.Out.size(); ++I)
    ASSERT_EQ(Reference.Out[I], Result.Out[I])
        << "config " << Config.Name << " diverges at element " << I;
  EXPECT_EQ(Reference.Acc, Result.Acc) << "config " << Config.Name;
  expectReferenceAgrees(Transformed, W, /*WithAcc=*/true, Result);
}

TEST_P(EquivalenceTest, EarlyReturnChild) {
  const PipelineConfig &Config = GetParam();
  Workload W = Workload::random(/*Seed=*/999, /*NumV=*/150, /*MaxCount=*/180);
  RunOutcome Reference = runProgram(EarlyReturnSource, W, /*WithAcc=*/false);
  std::string Transformed = transformWith(EarlyReturnSource, Config);
  RunOutcome Result = runProgram(Transformed, W, /*WithAcc=*/false);
  ASSERT_EQ(Reference.Out.size(), Result.Out.size());
  for (size_t I = 0; I < Reference.Out.size(); ++I)
    ASSERT_EQ(Reference.Out[I], Result.Out[I])
        << "config " << Config.Name << " diverges at element " << I;
  expectReferenceAgrees(Transformed, W, /*WithAcc=*/false, Result);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, EquivalenceTest,
                         ::testing::ValuesIn(Configs),
                         ::testing::PrintToStringParamName());

// Behavioral (not just functional) checks via VM statistics.

TEST(TransformBehaviorTest, ThresholdingReducesLaunches) {
  Workload W = Workload::random(42, 400, 100);
  RunOutcome Base = runProgram(NestedSource, W, false);

  PipelineConfig Low{"", true, false, false, AggGranularity::None, 8, 1, false};
  RunOutcome WithLow =
      runProgram(transformWith(NestedSource, Low), W, false);

  PipelineConfig High{"", true, false, false, AggGranularity::None, 1000000, 1,
                      false};
  RunOutcome WithHigh =
      runProgram(transformWith(NestedSource, High), W, false);

  EXPECT_LT(WithLow.Stats.DeviceLaunches, Base.Stats.DeviceLaunches);
  // An unreachable threshold serializes everything: zero dynamic launches.
  EXPECT_EQ(WithHigh.Stats.DeviceLaunches, 0u);
  EXPECT_GT(Base.Stats.DeviceLaunches, 0u);
}

TEST(TransformBehaviorTest, AggregationReducesLaunches) {
  Workload W = Workload::random(43, 400, 100);
  RunOutcome Base = runProgram(NestedSource, W, false);

  PipelineConfig Agg{"", false, false, true, AggGranularity::MultiBlock, 0, 1,
                     false};
  RunOutcome WithAgg = runProgram(transformWith(NestedSource, Agg), W, false);

  // One aggregated launch per group of 4 parent blocks (at most), instead
  // of one per launching parent thread.
  EXPECT_LT(WithAgg.Stats.DeviceLaunches, Base.Stats.DeviceLaunches / 10);
  EXPECT_GT(WithAgg.Stats.DeviceLaunches, 0u);
}

TEST(TransformBehaviorTest, GridAggregationLaunchesOnce) {
  Workload W = Workload::random(44, 300, 80);
  PipelineConfig Agg{"", false, false, true, AggGranularity::Grid, 0, 1, false};
  RunOutcome WithAgg = runProgram(transformWith(NestedSource, Agg), W, false);
  // All child grids collapse into a single host-side launch.
  EXPECT_EQ(WithAgg.Stats.DeviceLaunches, 0u);
}

TEST(TransformBehaviorTest, CoarseningShrinksChildGrids) {
  Workload W = Workload::random(45, 200, 300);
  RunOutcome Base = runProgram(NestedSource, W, false);

  PipelineConfig C8{"", false, true, false, AggGranularity::None, 0, 8, false};
  RunOutcome WithC = runProgram(transformWith(NestedSource, C8), W, false);

  // Same number of launches, fewer blocks executed in children.
  EXPECT_EQ(WithC.Stats.DeviceLaunches, Base.Stats.DeviceLaunches);
  EXPECT_LT(WithC.Stats.BlocksExecuted, Base.Stats.BlocksExecuted);
}

} // namespace
