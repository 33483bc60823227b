//===--- NameCaptureTest.cpp - Generated names never capture user names -----===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VM-differential regressions for name capture: programs that declare the
/// very names the passes generate (`_aggBx` in a child, `_aggG`, `_spec0`
/// and `_threads0` in a parent, each reaching the launch). Every pipeline
/// must either leave such a site alone with a named skip reason or
/// transform it into a program that computes what the untransformed one
/// does; a generated local that captures the user's reads a wrong value
/// silently. Thresholding and speculation pick the next free name;
/// aggregation, whose code shares scopes with both kernels, refuses.
///
//===----------------------------------------------------------------------===//

#include "transform/AggregationPass.h"

#include "parse/Parser.h"
#include "transform/Pipeline.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <memory>

using namespace dpo;

namespace {

/// The child declares the local the disaggregation remap targets.
const char *ChildDeclaresAggBx = R"(
__global__ void child(int *out, int base, int count, int tag) {
  int _aggBx = 7;
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    out[base + i] = tag * 1000 + i * 3 + _aggBx;
  }
}
__global__ void parent(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    child<<<(count + 31) / 32, 32>>>(out, offsets[v], count, v);
  }
}
)";

/// The parent passes a local named like a generated one to the launch.
std::string parentPasses(const std::string &Decl, const std::string &Name) {
  return R"(
__global__ void child(int *out, int base, int count, int tag) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    out[base + i] = tag * 1000 + i * 3;
  }
}
__global__ void parent(int *out, int *counts, int *offsets, int numV) {
  )" + Decl + R"(
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    child<<<(count + 31) / 32, 32>>>(out, offsets[v], count, v + )" +
         Name + R"();
  }
}
)";
}

const std::vector<int32_t> Counts = {3, 0, 70, 7, 45, 1, 33, 96, 5, 64};

/// Runs \p Source through \p Pipeline (empty: untransformed) on the VM
/// and returns `out`.
std::vector<int32_t> run(const std::string &Source,
                         const std::string &Pipeline) {
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, Pipeline, literalKnobConfig(), VmCompileOptions(), Diags);
  EXPECT_TRUE(Program) << Diags.str();
  if (!Program)
    return {};
  bool HasWrapper = Program->FunctionIndex.count("parent_agg");
  auto Dev = std::make_unique<Device>(std::move(*Program));
  std::vector<int32_t> Offsets;
  int32_t Total = 0;
  for (int32_t C : Counts) {
    Offsets.push_back(Total);
    Total += C;
  }
  uint64_t Out = Dev->alloc(Total * 4);
  std::vector<int64_t> Args = {(int64_t)Out, (int64_t)Dev->allocI32(Counts),
                               (int64_t)Dev->allocI32(Offsets),
                               (int64_t)Counts.size()};
  // Two parent blocks of 8 threads, so block-level groups hold several
  // parents and the grid spans more than one group.
  bool Ok;
  if (HasWrapper) {
    std::vector<int64_t> HostArgs = {2, 1, 1, 8, 1, 1};
    HostArgs.insert(HostArgs.end(), Args.begin(), Args.end());
    Ok = Dev->callHost("parent_agg", HostArgs);
  } else {
    Ok = Dev->launchKernel("parent", {2, 1, 1}, {8, 1, 1}, Args);
  }
  EXPECT_TRUE(Ok) << Dev->error();
  return Dev->readI32Array(Out, Total);
}

void expectSameAsUntransformed(const std::string &Source,
                               const std::vector<std::string> &Pipelines) {
  std::vector<int32_t> Reference = run(Source, "");
  ASSERT_FALSE(Reference.empty());
  for (const std::string &Pipeline : Pipelines) {
    SCOPED_TRACE(Pipeline);
    EXPECT_EQ(run(Source, Pipeline), Reference);
  }
}

/// The skip reasons aggregation gives for \p Source.
std::vector<std::string> aggregationSkips(const std::string &Source,
                                          AggGranularity Granularity) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  if (!TU)
    return {};
  AggregationOptions Options;
  Options.Granularity = Granularity;
  AnalysisManager AM(Ctx, TU);
  AggregationResult Result = applyAggregation(Ctx, TU, Options, Diags, AM);
  EXPECT_EQ(Result.TransformedLaunches, 0u);
  return Result.SkipReasons;
}

TEST(NameCaptureTest, ChildLocalNamedLikeTheBlockRemap) {
  expectSameAsUntransformed(ChildDeclaresAggBx,
                            {"aggregate[block]", "aggregate[grid]",
                             "aggregate[warp]", "aggregate[multiblock:2]"});
  for (AggGranularity G : {AggGranularity::Block, AggGranularity::Grid,
                           AggGranularity::Warp})
    EXPECT_EQ(aggregationSkips(ChildDeclaresAggBx, G),
              std::vector<std::string>{
                  "parent -> child: 'child' uses the name '_aggBx', which "
                  "aggregation reserves for generated code"});
}

TEST(NameCaptureTest, ParentLocalNamedLikePartAsGridDim) {
  std::string Source = parentPasses("unsigned int _aggG = 5u;", "_aggG");
  expectSameAsUntransformed(Source, {"aggregate[block]", "aggregate[grid]",
                                     "aggregate[warp]",
                                     "aggregate[block:agg-threshold=2]"});
  EXPECT_EQ(aggregationSkips(Source, AggGranularity::Block),
            std::vector<std::string>{
                "parent -> child: 'parent' uses the name '_aggG', which "
                "aggregation reserves for generated code"});
}

TEST(NameCaptureTest, FunctionNamedLikeTheAggregatedKernel) {
  std::string Source = std::string(R"(
__device__ int child_agg(int x) { return x + 1; }
)") + parentPasses("int k = 5;", "child_agg(k)");
  expectSameAsUntransformed(Source, {"aggregate[block]"});
  EXPECT_EQ(aggregationSkips(Source, AggGranularity::Block),
            std::vector<std::string>{
                "parent -> child: a function named 'child_agg' already "
                "exists"});
}

TEST(NameCaptureTest, ParentLocalNamedLikeTheSpeculationCount) {
  expectSameAsUntransformed(parentPasses("int _spec0 = 5;", "_spec0"),
                            {"speculate[2]", "speculate[1000000]"});
}

TEST(NameCaptureTest, ParentLocalNamedLikeTheThresholdingCount) {
  expectSameAsUntransformed(parentPasses("int _threads0 = 5;", "_threads0"),
                            {"threshold[4]", "threshold[1000000]",
                             "threshold[16],coarsen[2]"});
}

TEST(NameCaptureTest, FreshNamesSkipOnlyTakenOnes) {
  // Today's names stay when the unit does not use them.
  DiagnosticEngine Diags;
  std::string Plain = transformSourceWithPipeline(
      parentPasses("int k = 5;", "k"), "speculate[64]", literalKnobConfig(),
      Diags);
  EXPECT_NE(Plain.find("_spec0"), std::string::npos) << Plain;
  std::string Taken = transformSourceWithPipeline(
      parentPasses("int _spec0 = 5;", "_spec0"), "speculate[64]",
      literalKnobConfig(), Diags);
  EXPECT_NE(Taken.find("unsigned long long _spec1 ="), std::string::npos)
      << Taken;
}

} // namespace
