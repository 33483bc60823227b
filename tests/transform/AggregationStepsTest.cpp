//===--- AggregationStepsTest.cpp - Step cost of aggregated child kernels -----===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what aggregation costs on the VM. The quickstart program and
/// nestedVmSource(32) run on one fixed seeded input through every
/// aggregating pipeline of differentialPipelines(). Each run must
///
///  - produce the natively computed payload exactly;
///  - retire at most 3.5x the steps of the untransformed program. The
///    generated child kernels find their parent once per block; when every
///    child thread searched for it, runs took up to 11.4x;
///  - retire bit-identical steps on both engines (one worker).
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/VM.h"
#include "workloads/Differential.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

using namespace dpo;

namespace {

constexpr double MaxStepRatio = 3.5;
constexpr uint32_t ParentBlockDim = 64;

struct NestedInput {
  std::vector<int32_t> Counts, Offsets;
  int32_t Total = 0;
};

/// A skewed input: most parents launch nothing or a small child grid, a
/// few launch hundreds of threads.
NestedInput seededInput() {
  std::mt19937 Rng(2022);
  NestedInput In;
  for (unsigned V = 0; V < 300; ++V) {
    unsigned X = Rng() % 100;
    int32_t C = X < 40   ? 0
                : X < 90 ? 1 + (int32_t)(Rng() % 24)
                         : 64 + (int32_t)(Rng() % 500);
    In.Counts.push_back(C);
    In.Offsets.push_back(In.Total);
    In.Total += C;
  }
  return In;
}

struct SourceCase {
  const char *Name;
  std::string Source;
  /// What child thread I of parent V writes at `Offsets[V] + I`.
  int32_t (*Expected)(int32_t Base, int32_t I, int32_t Count);
};

std::vector<SourceCase> sourceCases() {
  return {{"quickstart", quickstartVmSource(),
           [](int32_t Base, int32_t I, int32_t) { return Base + I * 2; }},
          {"nestedVmSource(32)", nestedVmSource(32),
           [](int32_t Base, int32_t I, int32_t Count) {
             return Base * 7 + I * 3 + Count;
           }}};
}

struct VmRun {
  std::vector<int32_t> Out;
  uint64_t Steps = 0;
};

VmRun runOnVm(const std::string &Source, const std::string &Pipeline,
            const NestedInput &In, ExecMode Mode) {
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, Pipeline, literalKnobConfig(), VmCompileOptions(), Diags);
  EXPECT_TRUE(Program) << Pipeline << ": " << Diags.str();
  if (!Program)
    return {};
  Device Dev(std::move(*Program), Device::DefaultMemoryBytes, Mode);
  Dev.setWorkers(1);
  uint64_t OutA = Dev.alloc((uint64_t)In.Total * 4);
  uint64_t CountsA = Dev.allocI32(In.Counts);
  uint64_t OffsetsA = Dev.allocI32(In.Offsets);
  uint32_t NumV = (uint32_t)In.Counts.size();
  bool Ok = launchWorkloadParent(
      Dev, "parent", NumV, ParentBlockDim,
      {(int64_t)OutA, (int64_t)CountsA, (int64_t)OffsetsA, (int64_t)NumV});
  EXPECT_TRUE(Ok && Dev.error().empty()) << Pipeline << ": " << Dev.error();
  return {Dev.readI32Array(OutA, In.Total), Dev.stats().Steps};
}

TEST(AggregationStepsTest, ParentSearchRunsOncePerBlock) {
  NestedInput In = seededInput();
  for (const SourceCase &Case : sourceCases()) {
    std::vector<int32_t> Native(In.Total);
    for (size_t V = 0; V < In.Counts.size(); ++V)
      for (int32_t I = 0; I < In.Counts[V]; ++I)
        Native[In.Offsets[V] + I] =
            Case.Expected(In.Offsets[V], I, In.Counts[V]);

    VmRun Base = runOnVm(Case.Source, "", In, ExecMode::Decoded);
    ASSERT_EQ(Base.Out, Native) << Case.Name;
    ASSERT_GT(Base.Steps, 0u);

    unsigned Aggregating = 0;
    for (const std::string &Pipeline : differentialPipelines()) {
      if (Pipeline.find("aggregate") == std::string::npos)
        continue;
      ++Aggregating;
      VmRun Decoded = runOnVm(Case.Source, Pipeline, In, ExecMode::Decoded);
      VmRun Bytecode = runOnVm(Case.Source, Pipeline, In, ExecMode::Bytecode);
      EXPECT_EQ(Decoded.Out, Native) << Case.Name << " [" << Pipeline << "]";
      EXPECT_EQ(Bytecode.Out, Native) << Case.Name << " [" << Pipeline << "]";
      EXPECT_EQ(Decoded.Steps, Bytecode.Steps)
          << Case.Name << " [" << Pipeline << "]";
      double Ratio = (double)Decoded.Steps / (double)Base.Steps;
      EXPECT_LE(Ratio, MaxStepRatio)
          << Case.Name << " [" << Pipeline << "]: " << Decoded.Steps
          << " steps against " << Base.Steps << " untransformed";
    }
    EXPECT_GT(Aggregating, 0u);
  }
}

} // namespace
