//===--- LaunchArityTest.cpp - Launch argument-count diagnostics ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A launch whose argument count differs from its child kernel's
/// parameter count, or a launch of a function that is not a __global__
/// kernel, ends in a diagnostic before any pass runs: through the text
/// pipelines, through compileWithPipeline, and inside a CompileService
/// batch whose other requests still succeed. The passes index launch
/// arguments by the child's parameters, so without the check aggregation
/// crashed on too many arguments and every text pipeline accepted too
/// few; a launched __device__ function was coarsened in place and given a
/// __global__ aggregated twin.
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

/// The nested parent/child shape of tests/cli/launch_arity.cu: a child
/// `child(int *data, int count)` with qualifier \p ChildQualifier,
/// launched with \p Args.
std::string launchSource(const std::string &ChildQualifier,
                         const std::string &Args) {
  return ChildQualifier +
         " void child(int *data, int count) {\n"
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

struct LaunchCase {
  std::string Source;
  std::string Message;
};

const std::vector<LaunchCase> &badLaunches() {
  static const std::vector<LaunchCase> Cases = {
      {launchSource("__global__", "data, c, v"),
       "kernel 'child' expects 2 arguments, got 3"},
      {launchSource("__global__", "data"),
       "kernel 'child' expects 2 arguments, got 1"},
      {launchSource("__device__", "data, c"),
       "'child' is not a __global__ kernel and cannot be launched"},
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
  for (const LaunchCase &C : badLaunches()) {
    for (const std::string &Pipeline : arityPipelines()) {
      DiagnosticEngine Diags;
      std::string Out = transformSourceWithPipeline(
          C.Source, Pipeline, PassPipelineConfig(), Diags);
      EXPECT_TRUE(Out.empty()) << Pipeline << ": " << C.Message;
      EXPECT_NE(Diags.str().find(C.Message), std::string::npos)
          << Pipeline << ": " << Diags.str();
    }
  }
}

TEST(LaunchArityTest, CompileWithPipelineDiagnoses) {
  // The empty pipeline runs no pass: the bytecode compiler diagnoses.
  std::vector<std::string> Pipelines = arityPipelines();
  Pipelines.push_back("");
  for (const LaunchCase &C : badLaunches()) {
    for (const std::string &Pipeline : Pipelines) {
      DiagnosticEngine Diags;
      std::optional<VmProgram> Program =
          compileWithPipeline(C.Source, Pipeline, literalKnobConfig(),
                              VmCompileOptions(), Diags);
      EXPECT_FALSE(Program) << Pipeline << ": " << C.Message;
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
  auto Request = [](const std::string &Source, bool WantBytecode) {
    CompileRequest R;
    R.Name = "arity.cu";
    R.Source = Source;
    R.Pipeline = "threshold,coarsen,aggregate";
    R.WantBytecode = WantBytecode;
    R.Knobs = literalKnobConfig();
    return R;
  };
  std::vector<CompileRequest> Reqs;
  for (bool WantBytecode : {false, true}) {
    Reqs.push_back(Request(launchSource("__global__", "data, c"),
                           WantBytecode));
    for (const LaunchCase &C : badLaunches())
      Reqs.push_back(Request(C.Source, WantBytecode));
  }
  std::vector<CompileResponse> Out = Service.compileBatch(Reqs);
  ASSERT_EQ(Out.size(), Reqs.size());
  for (size_t I = 0; I < Out.size(); I += 1 + badLaunches().size()) {
    EXPECT_TRUE(Out[I].Ok) << Out[I].Error;
    for (size_t J = 0; J < badLaunches().size(); ++J) {
      const CompileResponse &Bad = Out[I + 1 + J];
      EXPECT_FALSE(Bad.Ok);
      EXPECT_NE(Bad.Error.find(badLaunches()[J].Message), std::string::npos)
          << Bad.Error;
    }
  }
}

} // namespace
