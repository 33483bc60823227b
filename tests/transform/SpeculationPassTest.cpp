//===--- SpeculationPassTest.cpp - Speculative serialization tests ------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speculation transform at the source level: guarded serial path
/// with a fallback launch, macro/literal bound spellings, profile-backed
/// per-site bounds (p90 rounded up to a power of two; unseen sites and
/// profile-less profile mode transform nothing), and the eligibility
/// skips (non-serializable children, dim3 or impure launch configs).
///
//===----------------------------------------------------------------------===//

#include "transform/SpeculationPass.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "profile/Profile.h"
#include "transform/PassManager.h"

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
  SpeculationResult Report;
  std::string DiagText;
};

RunResult runSpeculation(std::string_view Source,
                         SpeculationOptions Options = {}) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  RunResult R;
  if (!TU)
    return R;
  AnalysisManager AM(Ctx, TU);
  R.Report = applySpeculation(Ctx, TU, Options, Diags, AM);
  R.DiagText = Diags.str();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  R.Output = printTranslationUnit(TU);
  return R;
}

TEST(SpeculationPassTest, GuardedSerialPathWithFallbackLaunch) {
  RunResult R = runSpeculation(BasicSource);
  EXPECT_EQ(R.Report.SpeculatedLaunches, 1u);
  EXPECT_EQ(R.Report.SkippedLaunches, 0u);
  // The hoisted total-thread count feeding the guard.
  EXPECT_NE(R.Output.find("unsigned long long _spec0 = ((count + 31) / 32) * "
                          "(32);"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("if (__dpo_spec_guard(_spec0, _SPEC_BOUND))"),
            std::string::npos)
      << R.Output;
  // Speculated path serializes; the fallback keeps the real launch.
  EXPECT_NE(R.Output.find("child_serial(data, count, (count + 31) / 32, 32);"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("child<<<(count + 31) / 32, 32>>>(data, count);"),
            std::string::npos)
      << R.Output;
  // Both macros emitted: guard degradation for host compilers, bound
  // default for the macro spelling.
  EXPECT_NE(R.Output.find("#define __dpo_spec_guard(n, k) ((n) <= (k))"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("#define _SPEC_BOUND 64"), std::string::npos)
      << R.Output;
}

TEST(SpeculationPassTest, LiteralSpellingInlinesTheBound) {
  SpeculationOptions Options;
  Options.MaxThreads = 100;
  Options.Spelling = KnobSpelling::Literal;
  RunResult R = runSpeculation(BasicSource, Options);
  EXPECT_EQ(R.Report.SpeculatedLaunches, 1u);
  EXPECT_NE(R.Output.find("__dpo_spec_guard(_spec0, 100)"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("_SPEC_BOUND"), std::string::npos) << R.Output;
  // The guard-degradation macro is unconditional — the printed source
  // must stay valid CUDA.
  EXPECT_NE(R.Output.find("#define __dpo_spec_guard(n, k) ((n) <= (k))"),
            std::string::npos)
      << R.Output;
}

TEST(SpeculationPassTest, ProfileModePicksPerSiteBound) {
  LaunchProfile P;
  // p90 of observed total threads is 40 -> bound 64, spelled literally.
  for (int I = 0; I < 10; ++I)
    P.addRecord("parent->child#0", 2, 40, 20);
  SpeculationOptions Options;
  Options.UseProfile = true;
  Options.Profile = &P;
  RunResult R = runSpeculation(BasicSource, Options);
  EXPECT_EQ(R.Report.SpeculatedLaunches, 1u);
  EXPECT_NE(R.Output.find("__dpo_spec_guard(_spec0, 64)"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("_SPEC_BOUND"), std::string::npos)
      << "profile mode spells per-site bounds literally:\n"
      << R.Output;
}

TEST(SpeculationPassTest, ProfileModeSkipsUnseenSites) {
  LaunchProfile P;
  P.addRecord("someOther->site#0", 1, 32, 32);
  SpeculationOptions Options;
  Options.UseProfile = true;
  Options.Profile = &P;
  RunResult R = runSpeculation(BasicSource, Options);
  EXPECT_EQ(R.Report.SpeculatedLaunches, 0u);
  EXPECT_EQ(R.Report.SkippedLaunches, 1u);
  ASSERT_EQ(R.Report.SkipReasons.size(), 1u);
  EXPECT_NE(R.Report.SkipReasons[0].find("absent from profile"),
            std::string::npos)
      << R.Report.SkipReasons[0];
  EXPECT_EQ(R.Output.find("__dpo_spec_guard"), std::string::npos) << R.Output;
}

TEST(SpeculationPassTest, ProfileModeWithoutProfileTransformsNothing) {
  SpeculationOptions Options;
  Options.UseProfile = true;
  Options.Profile = nullptr;
  RunResult R = runSpeculation(BasicSource, Options);
  EXPECT_EQ(R.Report.SpeculatedLaunches, 0u);
  EXPECT_EQ(R.Report.SkippedLaunches, 1u);
  EXPECT_EQ(R.Output.find("child_serial"), std::string::npos) << R.Output;
}

TEST(SpeculationPassTest, SkipsNonSerializableChild) {
  // A barrier under divergent control flow stays non-serializable even
  // under the relaxed (segmentation-capable) transformability contract.
  RunResult R = runSpeculation(R"(
__global__ void child(int *data, int n) {
  int i = threadIdx.x;
  if (i < n) {
    data[i] = data[i] + 1;
    __syncthreads();
    data[i] = data[n - 1 - i];
  }
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    child<<<(count + 31) / 32, 32>>>(data, count);
  }
}
)");
  EXPECT_EQ(R.Report.SpeculatedLaunches, 0u);
  EXPECT_EQ(R.Report.SkippedLaunches, 1u);
  EXPECT_EQ(R.Output.find("__dpo_spec_guard"), std::string::npos) << R.Output;
}

TEST(SpeculationPassTest, SkipsImpureLaunchConfiguration) {
  // The guard re-evaluates grid and block expressions, so an impure
  // config (atomic in the grid dim) must not be speculated.
  RunResult R = runSpeculation(R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n)
    data[i] = i;
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV)
    child<<<atomicAdd(&counts[0], 1) + 1, 32>>>(data, counts[v]);
}
)");
  EXPECT_EQ(R.Report.SpeculatedLaunches, 0u);
  EXPECT_EQ(R.Report.SkippedLaunches, 1u);
  ASSERT_EQ(R.Report.SkipReasons.size(), 1u);
  EXPECT_NE(R.Report.SkipReasons[0].find("not pure"), std::string::npos)
      << R.Report.SkipReasons[0];
}

TEST(SpeculationPassTest, OutputReparses) {
  RunResult R = runSpeculation(BasicSource);
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(R.Output, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str() << "\n" << R.Output;
}

TEST(SpeculationPassTest, RegistrySpellingsRoundTrip) {
  PassPipelineConfig Config;
  std::string Error;
  for (const char *Spec :
       {"speculate", "speculate[128]", "speculate[100:literal]"}) {
    PassManager PM;
    ASSERT_TRUE(parsePassPipeline(PM, Spec, Config, Error)) << Spec << ": "
                                                            << Error;
    ASSERT_EQ(PM.size(), 1u);
  }
  PassManager PM;
  ASSERT_TRUE(parsePassPipeline(PM, "speculate[profile]", Config, Error))
      << Error;
  EXPECT_EQ(PM.passes()[0]->repr(), "speculate[profile]");
  PassManager Bad;
  EXPECT_FALSE(parsePassPipeline(Bad, "speculate[banana]", Config, Error));
  EXPECT_NE(Error.find("speculate"), std::string::npos) << Error;
}

} // namespace
