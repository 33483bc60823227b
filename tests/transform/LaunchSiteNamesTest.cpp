//===--- LaunchSiteNamesTest.cpp - Sema and bytecode name sites alike --------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Launch sites are named "<caller>-><kernel>#<n>" twice: findLaunchSites
/// names them for the passes (profile lookups), and the bytecode compiler
/// names them in emission order for the grid log profiles are recorded
/// from. A profile only applies if the two agree, so for every Table I
/// kernel, the two corpus probes, the quickstart program,
/// nestedVmSource(32) and every cooperative corpus source, through every
/// pipeline of differentialPipelines(), the names findLaunchSites gives
/// the transformed unit must be the compiled program's LaunchSiteNames.
///
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"
#include "parse/Typing.h"
#include "sema/LaunchSites.h"
#include "transform/Pipeline.h"
#include "workloads/CoopKernels.h"
#include "workloads/Differential.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

std::vector<std::pair<std::string, std::string>> namedSources() {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (BenchmarkId Bench :
       {BenchmarkId::BFS, BenchmarkId::SSSP, BenchmarkId::MSTF,
        BenchmarkId::MSTV, BenchmarkId::TC, BenchmarkId::SP, BenchmarkId::BT})
    Sources.push_back({benchmarkName(Bench), kernelSourceFor(Bench)});
  Sources.push_back({"shared-child probe", sharedChildProbeSource()});
  Sources.push_back({"spin-wait probe", spinWaitProbeSource()});
  Sources.push_back({"quickstart", quickstartVmSource()});
  Sources.push_back({"nestedVmSource(32)", nestedVmSource(32)});
  for (const CoopKernelCase &Case : coopKernelCorpus())
    Sources.push_back({Case.Name, Case.Source});
  return Sources;
}

TEST(LaunchSiteNamesTest, SemaNamesMatchCompiledProgram) {
  size_t Cases = 0, Sites = 0;
  for (const auto &[Name, Source] : namedSources()) {
    for (const std::string &Pipeline : differentialPipelines()) {
      SCOPED_TRACE(Name + " [" + Pipeline + "]");
      // compileWithPipeline's steps, keeping the unit it lowers.
      ASTContext Ctx;
      DiagnosticEngine Diags;
      TranslationUnit *TU = parseSource(Source, Ctx, Diags);
      ASSERT_NE(TU, nullptr) << Diags.str();
      if (!Pipeline.empty()) {
        PassManager PM;
        std::string Error;
        ASSERT_TRUE(
            parsePassPipeline(PM, Pipeline, literalKnobConfig(), Error))
            << Error;
        AnalysisManager AM(Ctx, TU);
        ASSERT_TRUE(PM.run(Ctx, TU, AM, Diags)) << Diags.str();
        assignTypes(TU);
      }
      VmProgram Program = compileProgram(TU, Diags, VmCompileOptions());
      ASSERT_FALSE(Diags.hasErrors()) << Diags.str();

      std::vector<std::string> Names;
      for (const LaunchSite &Site : findLaunchSites(TU))
        Names.push_back(Site.Name);
      EXPECT_EQ(Names, Program.LaunchSiteNames);
      ++Cases;
      Sites += Names.size();
    }
  }
  EXPECT_GT(Cases, 0u);
  EXPECT_GT(Sites, Cases);
}

} // namespace
