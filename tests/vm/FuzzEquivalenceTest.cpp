//===--- FuzzEquivalenceTest.cpp - Randomized-program equivalence --------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests over *generated* programs:
///  - random child-kernel bodies (arithmetic over the output slice, mixed
///    int expressions, conditionals) run through every pass combination
///    and are diffed element-wise on the VM;
///  - programs with multiple launch sites in one parent and with two
///    parents sharing one child kernel exercise the multi-site buffer and
///    wrapper codegen of the aggregation pass;
///  - printer round-trip on every generated program.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "ast/Equivalence.h"
#include "parse/Parser.h"
#include "transform/Pipeline.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <sstream>

using namespace dpo;

namespace {

/// Emits a random side-effect-free integer expression over `base`, `i`,
/// and `count`.
std::string randomIntExpr(std::mt19937 &Rng, int Depth = 0) {
  std::uniform_int_distribution<int> Pick(0, Depth > 2 ? 3 : 7);
  switch (Pick(Rng)) {
  case 0: return "i";
  case 1: return "base";
  case 2: return "count";
  case 3: return std::to_string(1 + Rng() % 97);
  case 4:
    return "(" + randomIntExpr(Rng, Depth + 1) + " + " +
           randomIntExpr(Rng, Depth + 1) + ")";
  case 5:
    return "(" + randomIntExpr(Rng, Depth + 1) + " * " +
           std::to_string(1 + Rng() % 7) + ")";
  case 6:
    return "(" + randomIntExpr(Rng, Depth + 1) + " - " +
           randomIntExpr(Rng, Depth + 1) + ")";
  default:
    return "(" + randomIntExpr(Rng, Depth + 1) + " / " +
           std::to_string(1 + Rng() % 9) + ")";
  }
}

std::string randomProgram(unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::ostringstream OS;
  // Every third seed emits a cooperative child: a __shared__ tile staged
  // from a random expression, a tree reduction with __syncthreads per
  // round, and every live lane mixing the block sum into its own slot.
  // The slices stay disjoint, so the payload is schedule-independent and
  // the barrier kernels ride the same pipeline-ordering, engine, and
  // worker axes as the plain ones.
  bool Cooperative = Seed % 3 == 2;
  if (Cooperative) {
    OS << "__global__ void child(int *out, int base, int count) {\n"
       << "  __shared__ int tile[128];\n"
       << "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
       << "  tile[threadIdx.x] = i < count ? " << randomIntExpr(Rng)
       << " : 0;\n"
       << "  __syncthreads();\n"
       << "  for (int s = blockDim.x / 2; s > 0; s = s / 2) {\n"
       << "    if (threadIdx.x < s)\n"
       << "      tile[threadIdx.x] = tile[threadIdx.x] + tile[threadIdx.x + "
          "s];\n"
       << "    __syncthreads();\n"
       << "  }\n"
       << "  if (i < count) {\n"
       << "    out[base + i] = " << randomIntExpr(Rng) << " + tile[0];\n"
       << "  }\n}\n";
  } else {
    OS << "__global__ void child(int *out, int base, int count) {\n"
       << "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
       << "  if (i < count) {\n";
    if (Rng() % 2)
      OS << "    if (i % " << (2 + Rng() % 5) << " == 0) {\n"
         << "      out[base + i] = " << randomIntExpr(Rng) << ";\n"
         << "    } else {\n"
         << "      out[base + i] = " << randomIntExpr(Rng) << ";\n"
         << "    }\n";
    else
      OS << "    out[base + i] = " << randomIntExpr(Rng) << ";\n";
    OS << "  }\n}\n";
  }

  unsigned BlockDim = 1u << (4 + Rng() % 4); // 16..128
  OS << "__global__ void parent(int *out, int *counts, int *offsets, "
        "int numV) {\n"
     << "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
     << "  if (v < numV) {\n"
     << "    int count = counts[v];\n"
     << "    if (count > 0) {\n"
     << "      child<<<(count + " << (BlockDim - 1) << ") / " << BlockDim
     << ", " << BlockDim << ">>>(out, offsets[v], count);\n"
     << "    }\n  }\n}\n";
  return OS.str();
}

struct RunResult {
  std::vector<int32_t> Out;
  VmStats Stats;
  bool Ok = false;
};

RunResult runNested(const std::string &Source,
                    const std::vector<int32_t> &Counts,
                    const VmCompileOptions &Opts = {}, unsigned Workers = 0,
                    ExecMode Engine = ExecMode::Decoded) {
  RunResult R;
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, "", PassPipelineConfig(), Opts, Diags);
  EXPECT_TRUE(Program) << Diags.str() << "\n" << Source;
  if (!Program)
    return R;
  auto Dev = std::make_unique<Device>(std::move(*Program),
                                      Device::DefaultMemoryBytes, Engine);
  if (Workers)
    Dev->setWorkers(Workers);
  int NumV = Counts.size();
  std::vector<int32_t> Offsets(NumV);
  int Total = 0;
  for (int I = 0; I < NumV; ++I) {
    Offsets[I] = Total;
    Total += Counts[I];
  }
  uint64_t Out = Dev->alloc(std::max(1, Total) * 4);
  uint64_t CountsA = Dev->allocI32(Counts);
  uint64_t OffsetsA = Dev->allocI32(Offsets);
  std::vector<int64_t> Args = {(int64_t)Out, (int64_t)CountsA,
                               (int64_t)OffsetsA, NumV};

  DiagnosticEngine PD;
  ASTContext PC;
  TranslationUnit *TU = parseSource(Source, PC, PD);
  bool Wrapper = TU && TU->findFunction("parent_agg");
  bool Ok;
  if (Wrapper) {
    std::vector<int64_t> HostArgs = {(NumV + 63) / 64, 1, 1, 64, 1, 1};
    HostArgs.insert(HostArgs.end(), Args.begin(), Args.end());
    Ok = Dev->callHost("parent_agg", HostArgs);
  } else {
    Ok = Dev->launchKernel("parent", {(uint32_t)(NumV + 63) / 64, 1, 1},
                           {64, 1, 1}, Args);
  }
  EXPECT_TRUE(Ok) << Dev->error() << "\n" << Source;
  if (!Ok)
    return R;
  R.Out = Dev->readI32Array(Out, std::max(1, Total));
  R.Stats = Dev->stats();
  R.Ok = true;
  return R;
}

/// Parameters: (random-program seed, run the bytecode peephole optimizer).
/// Every seed runs with the optimizer on and off, and the two references
/// are compared against each other — a dynamic proof that the
/// superinstruction rewrites of vm/Peephole.cpp preserve semantics.
class FuzzEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(FuzzEquivalenceTest, RandomProgramsSurviveAllPipelines) {
  unsigned Seed = std::get<0>(GetParam());
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = std::get<1>(GetParam());
  std::string Source = randomProgram(Seed);
  std::mt19937 Rng(Seed * 31 + 7);
  std::vector<int32_t> Counts(120);
  for (auto &C : Counts)
    C = Rng() % 10 < 6 ? (int)(Rng() % 12) : (int)(32 + Rng() % 300);

  RunResult Reference = runNested(Source, Counts, Opts);
  ASSERT_TRUE(Reference.Ok);

  // Peephole-on and peephole-off interpretation must agree exactly.
  // (The comparison is symmetric, so run it from the optimizer-on
  // instantiation only instead of paying for it twice per seed.)
  if (Opts.OptimizeBytecode) {
    VmCompileOptions Flipped;
    Flipped.OptimizeBytecode = false;
    RunResult Other = runNested(Source, Counts, Flipped);
    ASSERT_TRUE(Other.Ok);
    ASSERT_EQ(Reference.Out, Other.Out)
        << "peephole optimizer changed program semantics, seed " << Seed;
  }

  // Engine axis: the traced decoded engine and the bytecode reference
  // must produce the same memory *and* retire the same step counts
  // (decode-time fusions and trace regions carry the step cost of the
  // instructions they replace), so tuner pricing is engine-independent.
  {
    RunResult Dec = runNested(Source, Counts, Opts, 0, ExecMode::Decoded);
    RunResult Base = runNested(Source, Counts, Opts, 0, ExecMode::Bytecode);
    ASSERT_TRUE(Dec.Ok);
    ASSERT_TRUE(Base.Ok);
    ASSERT_EQ(Reference.Out, Dec.Out)
        << "traced decoded engine changed program semantics, seed " << Seed;
    ASSERT_EQ(Reference.Out, Base.Out)
        << "bytecode reference changed program semantics, seed " << Seed;
    ASSERT_EQ(Dec.Stats.Steps, Base.Stats.Steps)
        << "traced engine changed step accounting, seed " << Seed;
    ASSERT_EQ(Dec.Stats.DeviceLaunches, Base.Stats.DeviceLaunches);
    ASSERT_EQ(Dec.Stats.BlocksExecuted, Base.Stats.BlocksExecuted);
    ASSERT_EQ(Dec.Stats.ThreadsExecuted, Base.Stats.ThreadsExecuted);
  }

  // Worker-count axis: the fuzz children write disjoint out[] slices, so
  // the payload is schedule-independent — a multi-worker drain must
  // reproduce the sequential memory image exactly, and a device pinned to
  // one worker must also reproduce the step accounting bit-for-bit.
  {
    for (unsigned Workers : {2u, 4u}) {
      RunResult Par = runNested(Source, Counts, Opts, Workers);
      ASSERT_TRUE(Par.Ok);
      ASSERT_EQ(Reference.Out, Par.Out)
          << "workers=" << Workers << " changed program semantics, seed "
          << Seed;
    }
    RunResult Solo = runNested(Source, Counts, Opts, 1);
    ASSERT_TRUE(Solo.Ok);
    ASSERT_EQ(Reference.Out, Solo.Out);
    ASSERT_EQ(Reference.Stats.Steps, Solo.Stats.Steps)
        << "single-worker step accounting drifted, seed " << Seed;
  }

  // Printer round-trip on the original.
  {
    ASTContext C1, C2;
    DiagnosticEngine D1, D2;
    TranslationUnit *T1 = parseSource(Source, C1, D1);
    ASSERT_NE(T1, nullptr);
    TranslationUnit *T2 = parseSource(printTranslationUnit(T1), C2, D2);
    ASSERT_NE(T2, nullptr) << D2.str();
    EXPECT_TRUE(structurallyEqual(T1, T2));
  }

  for (int Mask = 1; Mask < 8; ++Mask) {
    std::string Pipeline = std::string(Mask & 1 ? "threshold," : "") +
                           (Mask & 2 ? "coarsen," : "") +
                           (Mask & 4 ? "aggregate," : "");
    Pipeline.pop_back();
    PassPipelineConfig Knobs = literalKnobConfig();
    Knobs.Threshold = 1u << (Seed % 9);
    Knobs.CoarsenFactor = 1 + Seed % 7;
    Knobs.Granularity = (AggGranularity)(1 + (Seed + Mask) % 4); // Warp..Grid
    Knobs.GroupSize = 2 + Seed % 6;

    DiagnosticEngine Diags;
    std::string Transformed =
        transformSourceWithPipeline(Source, Pipeline, Knobs, Diags);
    ASSERT_FALSE(Transformed.empty())
        << "seed " << Seed << " mask " << Mask << ": " << Diags.str();
    RunResult Result = runNested(Transformed, Counts, Opts);
    ASSERT_TRUE(Result.Ok) << "seed " << Seed << " mask " << Mask;
    ASSERT_EQ(Reference.Out, Result.Out)
        << "seed " << Seed << " mask " << Mask << "\n"
        << Transformed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzEquivalenceTest,
                         ::testing::Combine(::testing::Range(0u, 12u),
                                            ::testing::Bool()));

// Multi-site and shared-child aggregation codegen.

const char *MultiSiteSource = R"(
__global__ void childA(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    out[base + i] = base + i;
  }
}
__global__ void childB(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    out[base + i] = out[base + i] * 2 + 1;
  }
}
__global__ void parent(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      childA<<<(count + 31) / 32, 32>>>(out, offsets[v], count);
    }
    if (count > 4) {
      childB<<<(count + 63) / 64, 64>>>(out, offsets[v] + count,
                                        count / 2);
    }
  }
}
)";

TEST(MultiSiteAggregationTest, TwoSitesOnePlan) {
  // Note: childB reads what childA of the *same parent* wrote? No — the
  // slices are disjoint (offsets[v] + count), so ordering between the two
  // children does not matter and aggregation may reorder them freely.
  std::vector<int32_t> Counts = {3, 0, 40, 9, 120, 7, 64};
  // Build offsets with room for both children: 1.5 * count each.
  int NumV = Counts.size();
  std::vector<int32_t> Offsets(NumV);
  int Total = 0;
  for (int I = 0; I < NumV; ++I) {
    Offsets[I] = Total;
    Total += Counts[I] + Counts[I] / 2 + 1;
  }

  auto Run = [&](const std::string &Source) -> std::vector<int32_t> {
    DiagnosticEngine Diags;
    auto Dev = buildDevice(Source, Diags);
    EXPECT_NE(Dev, nullptr) << Diags.str() << Source;
    if (!Dev)
      return {};
    uint64_t Out = Dev->alloc(Total * 4);
    uint64_t CountsA = Dev->allocI32(Counts);
    uint64_t OffsetsA = Dev->allocI32(Offsets);
    std::vector<int64_t> Args = {(int64_t)Out, (int64_t)CountsA,
                                 (int64_t)OffsetsA, NumV};
    DiagnosticEngine PD;
    ASTContext PC;
    TranslationUnit *TU = parseSource(Source, PC, PD);
    bool Ok;
    if (TU && TU->findFunction("parent_agg")) {
      std::vector<int64_t> HostArgs = {1, 1, 1, 32, 1, 1};
      HostArgs.insert(HostArgs.end(), Args.begin(), Args.end());
      Ok = Dev->callHost("parent_agg", HostArgs);
    } else {
      Ok = Dev->launchKernel("parent", {1, 1, 1}, {32, 1, 1}, Args);
    }
    EXPECT_TRUE(Ok) << Dev->error();
    return Dev->readI32Array(Out, Total);
  };

  std::vector<int32_t> Reference = Run(MultiSiteSource);
  for (AggGranularity G : {AggGranularity::Warp, AggGranularity::Block,
                           AggGranularity::MultiBlock, AggGranularity::Grid}) {
    PassPipelineConfig Knobs = literalKnobConfig();
    Knobs.Granularity = G;
    Knobs.GroupSize = 2;
    DiagnosticEngine Diags;
    std::string Transformed =
        transformSourceWithPipeline(MultiSiteSource, "aggregate", Knobs, Diags);
    ASSERT_FALSE(Transformed.empty()) << Diags.str();
    // Both sites transformed; two aggregated kernels; one wrapper.
    EXPECT_NE(Transformed.find("childA_agg"), std::string::npos);
    EXPECT_NE(Transformed.find("childB_agg"), std::string::npos);
    EXPECT_NE(Transformed.find("_aggCnt1"), std::string::npos);
    std::vector<int32_t> Result = Run(Transformed);
    EXPECT_EQ(Reference, Result) << aggGranularityName(G) << "\n"
                                 << Transformed;
  }
}

const char *SharedChildSource = R"(
__global__ void child(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    atomicAdd(&out[base + i], 1);
  }
}
__global__ void parentA(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(out, offsets[v], count);
    }
  }
}
__global__ void parentB(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV && counts[v] > 2) {
    child<<<(counts[v] + 31) / 32, 32>>>(out, offsets[v], counts[v]);
  }
}
)";

TEST(MultiSiteAggregationTest, TwoParentsShareOneChild) {
  DiagnosticEngine Diags;
  std::string Transformed = transformSourceWithPipeline(
      SharedChildSource, "aggregate[multiblock]", literalKnobConfig(), Diags);
  ASSERT_FALSE(Transformed.empty()) << Diags.str();

  // Exactly one child_agg kernel, two wrappers.
  size_t First = Transformed.find("__global__ void child_agg");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Transformed.find("__global__ void child_agg", First + 1),
            std::string::npos);
  EXPECT_NE(Transformed.find("void parentA_agg"), std::string::npos);
  EXPECT_NE(Transformed.find("void parentB_agg"), std::string::npos);

  // Execute both parents in both versions and compare.
  std::vector<int32_t> Counts = {5, 0, 33, 2, 80};
  std::vector<int32_t> Offsets = {0, 5, 5, 38, 40};
  auto Run = [&](const std::string &Source,
                 bool Wrapped) -> std::vector<int32_t> {
    DiagnosticEngine D;
    auto Dev = buildDevice(Source, D);
    EXPECT_NE(Dev, nullptr) << D.str();
    if (!Dev)
      return {};
    uint64_t Out = Dev->alloc(120 * 4);
    uint64_t CountsA = Dev->allocI32(Counts);
    uint64_t OffsetsA = Dev->allocI32(Offsets);
    std::vector<int64_t> Args = {(int64_t)Out, (int64_t)CountsA,
                                 (int64_t)OffsetsA, 5};
    bool Ok;
    if (Wrapped) {
      std::vector<int64_t> HostArgs = {1, 1, 1, 8, 1, 1};
      HostArgs.insert(HostArgs.end(), Args.begin(), Args.end());
      Ok = Dev->callHost("parentA_agg", HostArgs) &&
           Dev->callHost("parentB_agg", HostArgs);
    } else {
      Ok = Dev->launchKernel("parentA", {1, 1, 1}, {8, 1, 1}, Args) &&
           Dev->launchKernel("parentB", {1, 1, 1}, {8, 1, 1}, Args);
    }
    EXPECT_TRUE(Ok) << Dev->error();
    return Dev->readI32Array(Out, 120);
  };
  EXPECT_EQ(Run(SharedChildSource, false), Run(Transformed, true));
}

} // namespace
