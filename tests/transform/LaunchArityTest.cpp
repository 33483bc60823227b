//===--- LaunchArityTest.cpp - Launch argument-count diagnostics ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A launch whose argument count differs from its child kernel's
/// parameter count ends in a diagnostic before any pass runs: through the
/// text pipelines, through compileWithPipeline, and inside a
/// CompileService batch whose other requests still succeed. The passes
/// index launch arguments by the child's parameters, so without the check
/// aggregation crashed on too many arguments and every text pipeline
/// accepted too few.
///
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"
#include "transform/Pipeline.h"
#include "workloads/Differential.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dpo;

namespace {

/// The nested parent/child shape of tests/cli/launch_arity.cu, launching
/// `child(int *data, int count)` with \p Args.
std::string aritySource(const std::string &Args) {
  return "__global__ void child(int *data, int count) {\n"
         "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
         "  if (i < count) {\n"
         "    data[i] = data[i] + 1;\n"
         "  }\n"
         "}\n"
         "__global__ void parent(int *data, int *counts, int numV) {\n"
         "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
         "  if (v < numV) {\n"
         "    int c = counts[v];\n"
         "    int g = (c + 31) / 32;\n"
         "    child<<<g, 32>>>(" +
         Args + ");\n"
         "  }\n"
         "}\n";
}

struct ArityCase {
  std::string Args;
  std::string Message;
};

const std::vector<ArityCase> &arityCases() {
  static const std::vector<ArityCase> Cases = {
      {"data, c, v", "kernel 'child' expects 2 arguments, got 3"},
      {"data", "kernel 'child' expects 2 arguments, got 1"},
  };
  return Cases;
}

/// The pipelines that crashed before the check, then every differential
/// pipeline.
std::vector<std::string> arityPipelines() {
  std::vector<std::string> Pipelines = {
      "aggregate[block]", "aggregate[multiblock:8]",
      "threshold,coarsen,aggregate"};
  for (const std::string &P : differentialPipelines())
    if (!P.empty())
      Pipelines.push_back(P);
  return Pipelines;
}

TEST(LaunchArityTest, TextPipelinesDiagnose) {
  for (const ArityCase &C : arityCases()) {
    for (const std::string &Pipeline : arityPipelines()) {
      DiagnosticEngine Diags;
      std::string Out = transformSourceWithPipeline(
          aritySource(C.Args), Pipeline, PassPipelineConfig(), Diags);
      EXPECT_TRUE(Out.empty()) << Pipeline << " with (" << C.Args << ")";
      EXPECT_NE(Diags.str().find(C.Message), std::string::npos)
          << Pipeline << ": " << Diags.str();
    }
  }
}

TEST(LaunchArityTest, CompileWithPipelineDiagnoses) {
  for (const ArityCase &C : arityCases()) {
    for (const std::string &Pipeline : arityPipelines()) {
      DiagnosticEngine Diags;
      std::optional<VmProgram> Program =
          compileWithPipeline(aritySource(C.Args), Pipeline,
                              literalKnobConfig(), VmCompileOptions(), Diags);
      EXPECT_FALSE(Program) << Pipeline << " with (" << C.Args << ")";
      EXPECT_NE(Diags.str().find(C.Message), std::string::npos)
          << Pipeline << ": " << Diags.str();
    }
  }
}

TEST(LaunchArityTest, BatchFailsOnlyTheBadRequest) {
  ServiceConfig Config;
  Config.CacheDir.clear();
  Config.Workers = 2;
  CompileService Service(Config);
  auto Request = [](const std::string &Args, bool WantBytecode) {
    CompileRequest R;
    R.Name = "arity.cu";
    R.Source = aritySource(Args);
    R.Pipeline = "threshold,coarsen,aggregate";
    R.WantBytecode = WantBytecode;
    R.Knobs = literalKnobConfig();
    return R;
  };
  std::vector<CompileRequest> Reqs;
  for (bool WantBytecode : {false, true}) {
    Reqs.push_back(Request("data, c", WantBytecode));
    for (const ArityCase &C : arityCases())
      Reqs.push_back(Request(C.Args, WantBytecode));
  }
  std::vector<CompileResponse> Out = Service.compileBatch(Reqs);
  ASSERT_EQ(Out.size(), Reqs.size());
  for (size_t I = 0; I < Out.size(); I += 1 + arityCases().size()) {
    EXPECT_TRUE(Out[I].Ok) << Out[I].Error;
    for (size_t J = 0; J < arityCases().size(); ++J) {
      const CompileResponse &Bad = Out[I + 1 + J];
      EXPECT_FALSE(Bad.Ok);
      EXPECT_NE(Bad.Error.find(arityCases()[J].Message), std::string::npos)
          << Bad.Error;
    }
  }
}

} // namespace
