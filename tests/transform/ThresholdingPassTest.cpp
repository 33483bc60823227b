//===--- ThresholdingPassTest.cpp - Fig. 3 transformation tests ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/ThresholdingPass.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "transform/Pipeline.h"

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
)";

struct RunResult {
  std::string Output;
  ThresholdingResult Report;
  std::string DiagText;
};

RunResult runThresholding(std::string_view Source,
                          ThresholdingOptions Options = {}) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  RunResult R;
  if (!TU)
    return R;
  AnalysisManager AM(Ctx, TU);
  R.Report = applyThresholding(Ctx, TU, Options, Diags, AM);
  R.DiagText = Diags.str();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  R.Output = printTranslationUnit(TU);
  return R;
}

TEST(ThresholdingPassTest, TransformsBasicLaunch) {
  RunResult R = runThresholding(BasicSource);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u);
  EXPECT_EQ(R.Report.SkippedLaunches, 0u);
  // Serial device function generated.
  EXPECT_NE(R.Output.find("__device__ void child_serial"), std::string::npos)
      << R.Output;
  // Threshold guard around the launch.
  EXPECT_NE(R.Output.find("if (_threads0 >= _THRESHOLD)"), std::string::npos)
      << R.Output;
  // Serial call on the else path, passing the launch configuration.
  EXPECT_NE(R.Output.find("child_serial(data, count, (_threads0 + 31) / 32, "
                          "32);"),
            std::string::npos)
      << R.Output;
  // Macro default emitted.
  EXPECT_NE(R.Output.find("#ifndef _THRESHOLD"), std::string::npos);
  EXPECT_NE(R.Output.find("#define _THRESHOLD 128"), std::string::npos);
}

TEST(ThresholdingPassTest, InlineSubstitutionAvoidsDoubleEvaluation) {
  RunResult R = runThresholding(BasicSource);
  // The recovered count is hoisted: `_threads0 = count` and the grid
  // expression now uses _threads0.
  EXPECT_NE(R.Output.find("int _threads0 = count;"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child<<<(_threads0 + 31) / 32, 32>>>(data, count)"),
            std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, SerialVersionStructure) {
  RunResult R = runThresholding(BasicSource);
  // Block loop around thread loop, with remapped builtins.
  EXPECT_NE(
      R.Output.find("for (unsigned int _bx = 0; _bx < _gDim.x; ++_bx)"),
      std::string::npos)
      << R.Output;
  EXPECT_NE(
      R.Output.find("for (unsigned int _tx = 0; _tx < _bDim.x; ++_tx)"),
      std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("int i = _bx * _bDim.x + _tx;"), std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, LiteralSpelling) {
  ThresholdingOptions Options;
  Options.Spelling = KnobSpelling::Literal;
  Options.Threshold = 64;
  RunResult R = runThresholding(BasicSource, Options);
  EXPECT_NE(R.Output.find("if (_threads0 >= 64)"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("#define"), std::string::npos);
}

TEST(ThresholdingPassTest, SerializesBarrierKernelViaSegmentation) {
  // A top-level barrier is structural: the serializer splits the body
  // at it, one thread-loop nest per barrier-free segment.
  RunResult R = runThresholding(R"(
__global__ void child(int *data) {
  data[threadIdx.x] = 1;
  __syncthreads();
  data[threadIdx.x] += data[0];
}
__global__ void parent(int *data, int n) {
  child<<<(n + 31) / 32, 32>>>(data);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 1u);
  EXPECT_EQ(R.Report.SkippedLaunches, 0u);
  EXPECT_NE(R.Output.find("child_serial"), std::string::npos) << R.Output;
  // Two segments -> two thread loops; the barrier call itself is gone.
  size_t First =
      R.Output.find("for (unsigned int _tx = 0; _tx < _bDim.x; ++_tx)");
  ASSERT_NE(First, std::string::npos) << R.Output;
  EXPECT_NE(
      R.Output.find("for (unsigned int _tx = 0; _tx < _bDim.x; ++_tx)",
                    First + 1),
      std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("__syncthreads", R.Output.find("child_serial")),
            std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, SerializesSharedMemoryKernel) {
  // __shared__ at body top lowers to a block-scope local (with an
  // explicit zero-init loop, matching the VM's zeroed-per-block
  // window) in the serial version.
  RunResult R = runThresholding(R"(
__global__ void child(int *data) {
  __shared__ int tile[64];
  tile[threadIdx.x] = data[threadIdx.x];
  data[threadIdx.x] = tile[63 - threadIdx.x];
}
__global__ void parent(int *data, int n) {
  child<<<(n + 63) / 64, 64>>>(data);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 1u);
  EXPECT_EQ(R.Report.SkippedLaunches, 0u);
  size_t Serial = R.Output.find("child_serial");
  ASSERT_NE(Serial, std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("int tile[64]", Serial), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("__shared__", Serial), std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, SkipsUnrecognizedGridExpression) {
  RunResult R = runThresholding(R"(
__global__ void child(int *data) { data[threadIdx.x] = 1; }
__global__ void parent(int *data, int n) {
  child<<<n, 32>>>(data);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 0u);
  EXPECT_EQ(R.Report.SkippedLaunches, 1u);
}

TEST(ThresholdingPassTest, TotalThreadsFallback) {
  ThresholdingOptions Options;
  Options.FallbackToTotalThreads = true;
  RunResult R = runThresholding(R"(
__global__ void child(int *data) { data[threadIdx.x] = 1; }
__global__ void parent(int *data, int n) {
  child<<<n, 32>>>(data);
}
)",
                                Options);
  EXPECT_EQ(R.Report.TransformedLaunches, 1u);
  EXPECT_NE(R.Output.find("_threads0 = (n) * (32)"), std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, HostLaunchesUntouched) {
  RunResult R = runThresholding(R"(
__global__ void child(int *data) { data[threadIdx.x] = 1; }
void host(int *data, int n) {
  child<<<(n + 31) / 32, 32>>>(data);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 0u);
  EXPECT_EQ(R.Report.SkippedLaunches, 0u);
  EXPECT_EQ(R.Output.find("child_serial"), std::string::npos);
}

TEST(ThresholdingPassTest, EarlyReturnChildUsesThreadHelper) {
  RunResult R = runThresholding(R"(
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
  EXPECT_EQ(R.Report.TransformedLaunches, 1u);
  // A per-thread helper keeps `return` scoped to one serialized thread.
  EXPECT_NE(R.Output.find("__device__ void child_serial_thread"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child_serial_thread(data, n, _gDim, _bDim, _bx, "
                          "_tx);"),
            std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, MultiDimensionalChild) {
  RunResult R = runThresholding(R"(
__global__ void child(float *img, int w, int h) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int y = blockIdx.y * blockDim.y + threadIdx.y;
  if (x < w && y < h) {
    img[y * w + x] = 0.0f;
  }
}
__global__ void parent(float *img, int w, int h) {
  dim3 grid((w + 15) / 16, (h + 15) / 16, 1);
  dim3 block(16, 16, 1);
  child<<<grid, block>>>(img, w, h);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  // All-dimension loops generated.
  EXPECT_NE(R.Output.find("_by < _gDim.y"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("_ty < _bDim.y"), std::string::npos) << R.Output;
  // Thread count is the product of the two recovered dimensions.
  EXPECT_NE(R.Output.find("int _threads0 = w * h;"), std::string::npos)
      << R.Output;
}

TEST(ThresholdingPassTest, TwoLaunchSitesShareSerialVersion) {
  RunResult R = runThresholding(R"(
__global__ void child(int *d, int n) { d[threadIdx.x] = n; }
__global__ void parentA(int *d, int n) {
  child<<<(n + 31) / 32, 32>>>(d, n);
}
__global__ void parentB(int *d, int m) {
  child<<<(m - 1) / 64 + 1, 64>>>(d, m);
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 2u);
  // Exactly one serial version.
  size_t First = R.Output.find("__device__ void child_serial");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(R.Output.find("__device__ void child_serial", First + 1),
            std::string::npos);
  // Distinct hoisted count variables.
  EXPECT_NE(R.Output.find("_threads0"), std::string::npos);
  EXPECT_NE(R.Output.find("_threads1"), std::string::npos);
}

TEST(ThresholdingPassTest, OutputReparses) {
  RunResult R = runThresholding(BasicSource);
  ASTContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_NE(parseSource(R.Output, Ctx, Diags), nullptr)
      << Diags.str() << "\n"
      << R.Output;
}

TEST(ThresholdingPassTest, ThroughVariableLaunchConfig) {
  RunResult R = runThresholding(R"(
__global__ void child(int *d, int n) { d[threadIdx.x] = n; }
__global__ void parent(int *d, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    int blocks = (count + 255) / 256;
    child<<<blocks, 256>>>(d, count);
  }
}
)");
  EXPECT_EQ(R.Report.TransformedLaunches, 1u) << R.DiagText;
  // The count re-evaluates the stable variable `count`.
  EXPECT_NE(R.Output.find("int _threads0 = count;"), std::string::npos)
      << R.Output;
}

} // namespace
