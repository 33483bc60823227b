//===--- CoarseningPassTest.cpp - Fig. 6 transformation tests -----------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/CoarseningPass.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

const char *BasicSource = R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[i] = data[i] + gridDim.x;
  }
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    child<<<(count + 31) / 32, 32>>>(data, count);
  }
}
)";

struct RunResult {
  std::string Output;
  CoarseningResult Report;
};

RunResult runCoarsening(std::string_view Source,
                        CoarseningOptions Options = {}) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  RunResult R;
  if (!TU)
    return R;
  AnalysisManager AM(Ctx, TU);
  R.Report = applyCoarsening(Ctx, TU, Options, Diags, AM);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  R.Output = printTranslationUnit(TU);
  return R;
}

TEST(CoarseningPassTest, ScalarModeKernelRewrite) {
  RunResult R = runCoarsening(BasicSource);
  EXPECT_EQ(R.Report.CoarsenedKernels, 1u);
  EXPECT_EQ(R.Report.RewrittenLaunches, 1u);
  // Scalar launches produce the scalar parameter form.
  EXPECT_NE(R.Output.find(
                "__global__ void child(int *data, int n, unsigned int "
                "_gDimX)"),
            std::string::npos)
      << R.Output;
  // The block-strided coarsening loop.
  EXPECT_NE(R.Output.find("for (unsigned int _bx = blockIdx.x; _bx < _gDimX; "
                          "_bx += gridDim.x)"),
            std::string::npos)
      << R.Output;
  // Body remaps: blockIdx.x -> _bx, gridDim.x -> _gDimX.
  EXPECT_NE(R.Output.find("int i = _bx * blockDim.x + threadIdx.x;"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("data[i] = data[i] + _gDimX;"), std::string::npos)
      << R.Output;
}

TEST(CoarseningPassTest, LaunchSiteRewrite) {
  RunResult R = runCoarsening(BasicSource);
  EXPECT_NE(R.Output.find("unsigned int _gDimX0 = (count + 31) / 32;"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find(
                "unsigned int _cgDimX0 = (_gDimX0 + _CFACTOR - 1) / _CFACTOR;"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child<<<_cgDimX0, 32>>>(data, count, _gDimX0);"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("#define _CFACTOR 4"), std::string::npos);
}

TEST(CoarseningPassTest, LiteralFactor) {
  CoarseningOptions Options;
  Options.Spelling = KnobSpelling::Literal;
  Options.Factor = 16;
  RunResult R = runCoarsening(BasicSource, Options);
  EXPECT_NE(R.Output.find("(_gDimX0 + 16 - 1) / 16"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("#define"), std::string::npos);
}

TEST(CoarseningPassTest, HostLaunchPatchedWithIdentity) {
  RunResult R = runCoarsening(R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) data[i] = 1;
}
__global__ void parent(int *data, int n) {
  child<<<(n + 31) / 32, 32>>>(data, n);
}
void host(int *data, int n) {
  child<<<(n + 31) / 32, 32>>>(data, n);
}
)");
  EXPECT_EQ(R.Report.RewrittenLaunches, 2u);
  // Host launch keeps the original configuration but passes it as _gDimX.
  EXPECT_NE(R.Output.find("child<<<_gDimX1, 32>>>(data, n, _gDimX1);"),
            std::string::npos)
      << R.Output;
  // No coarsened config variable for the identity-patched site.
  EXPECT_EQ(R.Output.find("_cgDimX1"), std::string::npos) << R.Output;
}

TEST(CoarseningPassTest, Dim3ModeKernelRewrite) {
  RunResult R = runCoarsening(R"(
__global__ void child(float *img, int w) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int y = blockIdx.y * blockDim.y + threadIdx.y;
  img[y * w + x] = 0.0f;
}
__global__ void parent(float *img, int w, int h) {
  dim3 grid((w + 15) / 16, (h + 15) / 16, 1);
  dim3 block(16, 16, 1);
  child<<<grid, block>>>(img, w);
}
)");
  EXPECT_EQ(R.Report.CoarsenedKernels, 1u);
  // dim3 launches produce the Fig. 6 dim3 parameter form.
  EXPECT_NE(R.Output.find("dim3 _gDim)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("_bx < _gDim.x"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("_cgDim0.x = (_gDim0.x + _CFACTOR - 1) / _CFACTOR;"),
            std::string::npos)
      << R.Output;
  // blockIdx.y is untouched (y is not coarsened).
  EXPECT_NE(R.Output.find("blockIdx.y"), std::string::npos) << R.Output;
}

TEST(CoarseningPassTest, EarlyReturnUsesHelper) {
  RunResult R = runCoarsening(R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= n)
    return;
  data[i] = i;
}
__global__ void parent(int *data, int n) {
  child<<<(n + 127) / 128, 128>>>(data, n);
}
)");
  EXPECT_EQ(R.Report.CoarsenedKernels, 1u);
  EXPECT_NE(R.Output.find("__device__ void child_coarse_body"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child_coarse_body(data, n, _gDimX, _bx);"),
            std::string::npos)
      << R.Output;
}

TEST(CoarseningPassTest, BarrierKernelsAreCoarsened) {
  // Unlike thresholding, coarsening legally applies to kernels with
  // barriers (the loop trip count is uniform across the block).
  RunResult R = runCoarsening(R"(
__global__ void child(int *data) {
  __shared__ int tile[32];
  tile[threadIdx.x] = data[blockIdx.x * 32 + threadIdx.x];
  __syncthreads();
  data[blockIdx.x * 32 + threadIdx.x] = tile[31 - threadIdx.x];
}
__global__ void parent(int *data, int n) {
  child<<<(n + 31) / 32, 32>>>(data);
}
)");
  EXPECT_EQ(R.Report.CoarsenedKernels, 1u);
  EXPECT_NE(R.Output.find("__syncthreads();"), std::string::npos);
  EXPECT_NE(R.Output.find("tile[threadIdx.x] = data[_bx * 32 + threadIdx.x];"),
            std::string::npos)
      << R.Output;
}

TEST(CoarseningPassTest, AlreadyCoarsenedIsSkipped) {
  std::string Once;
  {
    RunResult R = runCoarsening(BasicSource);
    Once = R.Output;
  }
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Once, Ctx, Diags);
  ASSERT_NE(TU, nullptr) << Diags.str();
  CoarseningOptions Options;
  AnalysisManager AM(Ctx, TU);
  CoarseningResult Second = applyCoarsening(Ctx, TU, Options, Diags, AM);
  EXPECT_EQ(Second.CoarsenedKernels, 0u);
  EXPECT_GE(Second.SkippedLaunches, 1u);
}

TEST(CoarseningPassTest, OutputReparses) {
  RunResult R = runCoarsening(BasicSource);
  ASTContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_NE(parseSource(R.Output, Ctx, Diags), nullptr)
      << Diags.str() << "\n"
      << R.Output;
}

} // namespace
