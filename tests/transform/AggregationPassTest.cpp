//===--- AggregationPassTest.cpp - Fig. 7 transformation tests ----------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/AggregationPass.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "transform/Pipeline.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

const char *BasicSource = R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[i] = data[i] + 1;
  }
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    child<<<(count + 31) / 32, 32>>>(data, count);
  }
}
void host(int *data, int *counts, int numV) {
  parent<<<(numV + 127) / 128, 128>>>(data, counts, numV);
}
)";

struct RunResult {
  std::string Output;
  AggregationResult Report;
  std::string DiagText;
};

RunResult runAggregation(std::string_view Source,
                         AggregationOptions Options = {}) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  RunResult R;
  if (!TU)
    return R;
  AnalysisManager AM(Ctx, TU);
  R.Report = applyAggregation(Ctx, TU, Options, Diags, AM);
  R.DiagText = Diags.str();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  R.Output = printTranslationUnit(TU);
  return R;
}

TEST(AggregationPassTest, MultiBlockBasics) {
  RunResult R = runAggregation(BasicSource);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  EXPECT_EQ(R.Report.GeneratedKernels, 1u);
  EXPECT_EQ(R.Report.GeneratedWrappers, 1u);

  // Aggregated child kernel with binary-search disaggregation.
  EXPECT_NE(R.Output.find("__global__ void child_agg"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("while (_aggLo < _aggHi)"), std::string::npos);
  EXPECT_NE(R.Output.find("if (threadIdx.x < _aggBDimX)"), std::string::npos);

  // Packed 64-bit atomic scan in the parent.
  EXPECT_NE(
      R.Output.find("atomicAdd(&_aggCnt0[_aggGroupIdx], ((unsigned long "
                    "long)1 << 32) + (unsigned long long)_aggG)"),
      std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("atomicMax(&_aggMaxB0[_aggGroupIdx], _aggB)"),
            std::string::npos);

  // Group-completion epilogue: fence, barrier, finished counter, launch by
  // the last block of the group.
  EXPECT_NE(R.Output.find("__threadfence();"), std::string::npos);
  EXPECT_NE(R.Output.find("__syncthreads();"), std::string::npos);
  EXPECT_NE(R.Output.find("atomicAdd(&_aggFin0[_aggGroupIdx], 1u)"),
            std::string::npos);
  EXPECT_NE(R.Output.find("child_agg<<<_aggTotal, _aggMaxB0[_aggGroupIdx]>>>"),
            std::string::npos)
      << R.Output;

  // Group indexing uses the multi-block group size macro.
  EXPECT_NE(R.Output.find("blockIdx.x / _AGG_SIZE"), std::string::npos);
  EXPECT_NE(R.Output.find("#define _AGG_SIZE 8"), std::string::npos);
}

TEST(AggregationPassTest, ParentGainsBufferParams) {
  RunResult R = runAggregation(BasicSource);
  EXPECT_NE(
      R.Output.find(
          "__global__ void parent(int *data, int *counts, int numV, "
          "unsigned long long *_aggCnt0, unsigned int *_aggMaxB0, unsigned "
          "int *_aggFin0, unsigned int *_aggScan0, unsigned int "
          "*_aggBDimArr0, int **_aggArg0_0, int *_aggArg1_0)"),
      std::string::npos)
      << R.Output;
}

TEST(AggregationPassTest, HostWrapperGenerated) {
  RunResult R = runAggregation(BasicSource);
  EXPECT_NE(R.Output.find("void parent_agg(dim3 _aggGrid, dim3 _aggBlock, "
                          "int *data, int *counts, int numV)"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("cudaMalloc((void **)&_aggCnt0"), std::string::npos);
  EXPECT_NE(R.Output.find("cudaMemset(_aggCnt0, 0"), std::string::npos);
  EXPECT_NE(R.Output.find("cudaFree(_aggCnt0);"), std::string::npos);
  // The existing host launch is redirected to the wrapper.
  EXPECT_NE(R.Output.find(
                "parent_agg(dim3((numV + 127) / 128, 1, 1), dim3(128, 1, 1), "
                "data, counts, numV);"),
            std::string::npos)
      << R.Output;
}

TEST(AggregationPassTest, BlockGranularity) {
  AggregationOptions Options;
  Options.Granularity = AggGranularity::Block;
  RunResult R = runAggregation(BasicSource, Options);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  // Group = one block.
  EXPECT_NE(R.Output.find("unsigned int _aggGroupIdx = blockIdx.x;"),
            std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("_AGG_SIZE"), std::string::npos);
}

TEST(AggregationPassTest, WarpGranularity) {
  AggregationOptions Options;
  Options.Granularity = AggGranularity::Warp;
  RunResult R = runAggregation(BasicSource, Options);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  EXPECT_NE(R.Output.find(
                "(blockIdx.x * blockDim.x + threadIdx.x) / 32u"),
            std::string::npos)
      << R.Output;
  // Thread-counted groups: no __syncthreads in the warp epilogue.
  size_t Epi = R.Output.find("_aggGroupSize");
  ASSERT_NE(Epi, std::string::npos);
}

TEST(AggregationPassTest, GridGranularity) {
  AggregationOptions Options;
  Options.Granularity = AggGranularity::Grid;
  RunResult R = runAggregation(BasicSource, Options);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  // No device-side epilogue: the host performs the aggregated launch.
  EXPECT_EQ(R.Output.find("_aggFin0"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("cudaDeviceSynchronize();"), std::string::npos);
  EXPECT_NE(R.Output.find("cudaMemcpy(&_aggPacked, _aggCnt0"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child_agg<<<_aggTotal, _aggMaxBH>>>"),
            std::string::npos)
      << R.Output;
}

TEST(AggregationPassTest, AggregationThresholdBlockGranularity) {
  AggregationOptions Options;
  Options.Granularity = AggGranularity::Block;
  Options.UseAggregationThreshold = true;
  RunResult R = runAggregation(BasicSource, Options);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  // Per-thread slot memory at the top of the parent.
  EXPECT_NE(R.Output.find("unsigned int _aggMySlot0 = 4294967295u;"),
            std::string::npos)
      << R.Output;
  // Below-threshold path: each participant launches its own grid.
  EXPECT_NE(R.Output.find("if (_aggNumP < _AGG_THRESHOLD)"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child<<<_aggMyG0, _aggMyB0>>>(_aggArg0_0["
                          "_aggMySlot0], _aggArg1_0[_aggMySlot0]);"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("#define _AGG_THRESHOLD 4"), std::string::npos);
}

TEST(AggregationPassTest, SkipsDim3Launches) {
  RunResult R = runAggregation(R"(
__global__ void child(float *img, int w) {
  img[blockIdx.x * w + threadIdx.x] = 0.0f;
}
__global__ void parent(float *img, int w, int h) {
  dim3 grid((w + 15) / 16, (h + 15) / 16, 1);
  child<<<grid, 16>>>(img, w);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 0u);
  ASSERT_EQ(R.Report.SkipReasons.size(), 1u);
  EXPECT_NE(R.Report.SkipReasons[0].find("1-D"), std::string::npos);
}

TEST(AggregationPassTest, SkipsParentWithEarlyReturn) {
  RunResult R = runAggregation(R"(
__global__ void child(int *d) { d[threadIdx.x] = 1; }
__global__ void parent(int *d, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v >= n)
    return;
  child<<<d[v], 32>>>(d);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 0u);
  ASSERT_EQ(R.Report.SkipReasons.size(), 1u);
  EXPECT_NE(R.Report.SkipReasons[0].find("early return"), std::string::npos);
}

TEST(AggregationPassTest, GridGranularityAllowsEarlyReturn) {
  AggregationOptions Options;
  Options.Granularity = AggGranularity::Grid;
  RunResult R = runAggregation(R"(
__global__ void child(int *d) { d[threadIdx.x] = 1; }
__global__ void parent(int *d, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v >= n)
    return;
  child<<<d[v], 32>>>(d);
}
)",
                               Options);
  // Grid granularity has no device epilogue, so early returns are fine.
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
}

TEST(AggregationPassTest, SkipsLaunchInsideLoop) {
  RunResult R = runAggregation(R"(
__global__ void child(int *d) { d[threadIdx.x] = 1; }
__global__ void parent(int *d, int n) {
  for (int i = 0; i < n; ++i) {
    child<<<n, 32>>>(d);
  }
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 0u);
  ASSERT_EQ(R.Report.SkipReasons.size(), 1u);
  EXPECT_NE(R.Report.SkipReasons[0].find("loop"), std::string::npos);
}

TEST(AggregationPassTest, OutputReparses) {
  for (AggGranularity G :
       {AggGranularity::Warp, AggGranularity::Block, AggGranularity::MultiBlock,
        AggGranularity::Grid}) {
    AggregationOptions Options;
    Options.Granularity = G;
    RunResult R = runAggregation(BasicSource, Options);
    ASTContext Ctx;
    DiagnosticEngine Diags;
    EXPECT_NE(parseSource(R.Output, Ctx, Diags), nullptr)
        << "granularity " << aggGranularityName(G) << ":\n"
        << Diags.str() << "\n"
        << R.Output;
  }
}

TEST(AggregationPassTest, HostWrapperKeepsRestrictParameters) {
  // The wrapper re-declares the parent's parameters; a `__restrict__`
  // pointer keeps its qualifier and its name apart.
  const char *Source = R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[i] = i;
  }
}
__global__ void parent(int *__restrict__ data, const int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    child<<<(counts[v] + 31) / 32, 32>>>(data, counts[v]);
  }
}
)";
  DiagnosticEngine Diags;
  std::string Printed;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, "aggregate[block]", literalKnobConfig(),
                          VmCompileOptions(), Diags, &Printed);
  ASSERT_TRUE(Program) << Diags.str() << "\n" << Printed;
  EXPECT_NE(Printed.find("void parent_agg(dim3 _aggGrid, dim3 _aggBlock, "
                         "int * __restrict__ data, const int *counts"),
            std::string::npos)
      << Printed;
}

// Full pipeline composition (Fig. 8).

TEST(PipelineTest, ThresholdCoarsenAggregateCompose) {
  DiagnosticEngine Diags;
  std::string Output = transformSourceWithPipeline(
      BasicSource, "threshold,coarsen,aggregate", PassPipelineConfig(), Diags);
  ASSERT_FALSE(Output.empty()) << Diags.str();

  // All three optimizations visible in the output.
  EXPECT_NE(Output.find("child_serial"), std::string::npos) << Output;
  EXPECT_NE(Output.find("_CFACTOR"), std::string::npos);
  EXPECT_NE(Output.find("child_agg"), std::string::npos);
  // Thresholding guard wraps the coarsened+aggregated launch path.
  EXPECT_NE(Output.find("if (_threads0 >= _THRESHOLD)"), std::string::npos);
  // The coarsened original grid dimension is one of the aggregated
  // arguments (stored per parent).
  EXPECT_NE(Output.find("_aggArg2_0"), std::string::npos) << Output;

  // The composed output still parses.
  ASTContext Ctx;
  DiagnosticEngine Diags2;
  EXPECT_NE(parseSource(Output, Ctx, Diags2), nullptr)
      << Diags2.str() << "\n"
      << Output;
}

TEST(PipelineTest, PassesAreIndependent) {
  // Any single pass or pair of passes also produces parseable output.
  for (int Mask = 1; Mask < 8; ++Mask) {
    std::string Pipeline = std::string(Mask & 1 ? "threshold," : "") +
                           (Mask & 2 ? "coarsen," : "") +
                           (Mask & 4 ? "aggregate," : "");
    Pipeline.pop_back();
    DiagnosticEngine Diags;
    std::string Output = transformSourceWithPipeline(
        BasicSource, Pipeline, PassPipelineConfig(), Diags);
    ASSERT_FALSE(Output.empty()) << "mask " << Mask << ": " << Diags.str();
    ASTContext Ctx;
    DiagnosticEngine Diags2;
    EXPECT_NE(parseSource(Output, Ctx, Diags2), nullptr)
        << "mask " << Mask << ":\n"
        << Diags2.str() << "\n"
        << Output;
  }
  // Block aggregation leaves thresholding nothing to guard, so the
  // reversed ordering prints exactly what aggregation alone prints.
  DiagnosticEngine Diags;
  std::string Aggregated = transformSourceWithPipeline(
      quickstartVmSource(), "aggregate[block]", PassPipelineConfig(), Diags);
  ASSERT_FALSE(Aggregated.empty()) << Diags.str();
  EXPECT_EQ(transformSourceWithPipeline(quickstartVmSource(),
                                        "aggregate[block],threshold[16]",
                                        PassPipelineConfig(), Diags),
            Aggregated);
}

} // namespace
