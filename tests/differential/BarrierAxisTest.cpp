//===--- BarrierAxisTest.cpp - Cooperative-kernel differential axis -----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The barrier axis of the differential suite: every cooperative corpus
/// case (shared-memory tiled reduction, frontier compaction, tiled
/// stencil — see workloads/CoopKernels.h) must be payload-exact against
/// its native reference
///
///  - through every registered pass pipeline, peephole on and off;
///  - on both execution engines (the bytecode reference and the traced
///    decoded engine) at every worker count (1, 2, 4), with
///    *bit-identical* step accounting across all of them — cooperative
///    scheduling (barrier parking, round-robin resume, lenient release)
///    is deterministic by construction, and these tests pin that;
///  - twice in a row, byte-identical (repeat-run determinism).
///
//===----------------------------------------------------------------------===//

#include "workloads/CoopKernels.h"
#include "workloads/Differential.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

std::string describeMismatch(const std::vector<int32_t> &Native,
                             const std::vector<int32_t> &Vm) {
  if (Native.size() != Vm.size())
    return "payload size differs: native " + std::to_string(Native.size()) +
           " vs VM " + std::to_string(Vm.size());
  for (size_t V = 0; V < Native.size(); ++V)
    if (Native[V] != Vm[V])
      return "out[" + std::to_string(V) + "] differs: native " +
             std::to_string(Native[V]) + " vs VM " + std::to_string(Vm[V]);
  return "";
}

class BarrierAxisTest : public ::testing::TestWithParam<size_t> {};

// Every pipeline variant, peephole on and off: the cooperative payload
// survives thresholding (segmented serialization), coarsening (the
// barriers stay block-uniform), aggregation (lenient reconvergence), and
// speculation, in any registered order.
TEST_P(BarrierAxisTest, AllPipelinesPreservePayload) {
  const CoopKernelCase &Case = coopKernelCorpus()[GetParam()];
  std::vector<int32_t> Native = Case.reference();
  for (const std::string &Pipeline : differentialPipelines()) {
    for (bool Optimize : {true, false}) {
      CoopRun Run = runCoopCaseOnVm(Case, Pipeline, Optimize);
      ASSERT_TRUE(Run.Ok) << Case.Name << " [" << Pipeline << "]: "
                          << Run.Error;
      std::string Why = describeMismatch(Native, Run.Out);
      EXPECT_TRUE(Why.empty())
          << Case.Name << " [" << Pipeline << ", peephole="
          << (Optimize ? "on" : "off") << "]: " << Why << "\ntransformed:\n"
          << Run.Src;
    }
  }
}

// Engine x worker matrix: the payload is exact and the step count is one
// number — bit-identical on the bytecode reference and the traced decoded
// engine, at workers 1, 2, and 4. The workers=1 bytecode run is the pin
// every other cell must reproduce, twice (repeat-run determinism).
TEST_P(BarrierAxisTest, EnginesAndWorkersAreStepExact) {
  const CoopKernelCase &Case = coopKernelCorpus()[GetParam()];
  std::vector<int32_t> Native = Case.reference();

  CoopRun Pin = runCoopCaseOnVm(Case, "", true, /*Workers=*/1,
                                ExecMode::Bytecode);
  ASSERT_TRUE(Pin.Ok) << Case.Name << ": " << Pin.Error;
  ASSERT_TRUE(describeMismatch(Native, Pin.Out).empty())
      << describeMismatch(Native, Pin.Out);
  ASSERT_GT(Pin.Stats.Steps, 0u);
  ASSERT_GT(Pin.Stats.DeviceLaunches, 0u);

  for (ExecMode Mode : {ExecMode::Bytecode, ExecMode::Decoded}) {
    for (unsigned Workers : {1u, 2u, 4u}) {
      for (int Repeat = 0; Repeat < 2; ++Repeat) {
        CoopRun Run = runCoopCaseOnVm(Case, "", true, Workers, Mode);
        std::string Tag = Case.Name + " [mode=" + execModeName(Mode) +
                          " workers=" + std::to_string(Workers) + "]";
        ASSERT_TRUE(Run.Ok) << Tag << ": " << Run.Error;
        std::string Why = describeMismatch(Native, Run.Out);
        EXPECT_TRUE(Why.empty()) << Tag << ": " << Why;
        EXPECT_EQ(Run.Stats.Steps, Pin.Stats.Steps)
            << Tag << " repeat=" << Repeat;
        EXPECT_EQ(Run.Stats.BlocksExecuted, Pin.Stats.BlocksExecuted);
        EXPECT_EQ(Run.Stats.ThreadsExecuted, Pin.Stats.ThreadsExecuted);
        EXPECT_EQ(Run.Stats.DeviceLaunches, Pin.Stats.DeviceLaunches);
      }
    }
  }
}

// The segmented serial form is actually taken: an always-serialize
// threshold removes every dynamic launch from the barrier-bearing
// corpus children that the analysis accepts, payload intact.
TEST_P(BarrierAxisTest, ThresholdSerializationIsExercised) {
  const CoopKernelCase &Case = coopKernelCorpus()[GetParam()];
  std::vector<int32_t> Native = Case.reference();

  CoopRun Base = runCoopCaseOnVm(Case, "", true);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_GT(Base.Stats.DeviceLaunches, 0u);

  CoopRun Thresh = runCoopCaseOnVm(Case, "threshold[1000000]", true);
  ASSERT_TRUE(Thresh.Ok) << Thresh.Error;
  EXPECT_EQ(Thresh.Stats.DeviceLaunches, 0u) << Thresh.Src;
  EXPECT_NE(Thresh.Src.find("child_serial"), std::string::npos) << Thresh.Src;
  EXPECT_TRUE(describeMismatch(Native, Thresh.Out).empty())
      << describeMismatch(Native, Thresh.Out) << "\n" << Thresh.Src;
}

INSTANTIATE_TEST_SUITE_P(
    Coop, BarrierAxisTest,
    ::testing::Range<size_t>(0, coopKernelCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = coopKernelCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

} // namespace
