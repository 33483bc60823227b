//===--- KnobExtremesTest.cpp - Pass knobs at the ends of their range ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Knob values at the ends of their range either compile to a program
/// whose payload is exact or end in a diagnostic:
///
///  - `coarsen[4294967295]` spells its factor as an unsuffixed decimal
///    literal, which has type long, so the coarsened launch still covers
///    every child block (typed int, the grid came out 0);
///  - `aggregate[multiblock:N]` is refused once `N * blockDim.x` can
///    wrap 32 bits, through the pipeline text and through the knobs, and
///    runs payload-exact up to that bound, far past the parent grid.
///
//===----------------------------------------------------------------------===//

#include "transform/PassManager.h"
#include "transform/Pipeline.h"
#include "vm/VM.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dpo;

namespace {

/// Runs quickstart through \p Pipeline on both engines and checks the
/// payload against the native result.
void expectQuickstartExact(const std::string &Pipeline) {
  const std::vector<int32_t> Counts = {3, 0, 100, 7, 45, 0, 260, 1};
  std::vector<int32_t> Offsets, Native;
  for (int32_t C : Counts) {
    int32_t Base = (int32_t)Native.size();
    Offsets.push_back(Base);
    for (int32_t I = 0; I < C; ++I)
      Native.push_back(Base + I * 2);
  }
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    DiagnosticEngine Diags;
    std::optional<VmProgram> Program =
        compileWithPipeline(quickstartVmSource(), Pipeline,
                            literalKnobConfig(), VmCompileOptions(), Diags);
    ASSERT_TRUE(Program) << Diags.str();
    Device Dev(std::move(*Program), Device::DefaultMemoryBytes, Mode);
    uint64_t DataA = Dev.alloc(Native.size() * 4);
    uint64_t CountsA = Dev.allocI32(Counts);
    uint64_t OffsetsA = Dev.allocI32(Offsets);
    ASSERT_TRUE(launchWorkloadParent(
        Dev, "parent", (uint32_t)Counts.size(), 64,
        {(int64_t)DataA, (int64_t)CountsA, (int64_t)OffsetsA,
         (int64_t)Counts.size()}))
        << Pipeline << " " << execModeName(Mode) << ": " << Dev.error();
    EXPECT_EQ(Dev.readI32Array(DataA, Native.size()), Native)
        << Pipeline << " " << execModeName(Mode);
  }
}

TEST(KnobExtremesTest, CoarsenByLargestFactorIsPayloadExact) {
  expectQuickstartExact("coarsen[4294967295]");
}

TEST(KnobExtremesTest, GroupSizesPastTheGridArePayloadExact) {
  // Both exceed quickstart's one-block parent grid; the buffers are sized
  // by the grid, so neither runs out of device memory.
  expectQuickstartExact("aggregate[multiblock:65536]");
  expectQuickstartExact("aggregate[multiblock:" +
                        std::to_string(MaxAggGroupSize) + "]");
}

TEST(KnobExtremesTest, GroupSizeBoundIsAcceptedAndOneMoreRefused) {
  const std::string Bound = std::to_string(MaxAggGroupSize);
  const std::string Over = std::to_string(MaxAggGroupSize + 1);
  EXPECT_EQ(MaxAggGroupSize * 1024ull, 0xFFFFFC00ull);

  PassManager Ok;
  std::string Error;
  EXPECT_TRUE(parsePassPipeline(Ok, "aggregate[multiblock:" + Bound + "]",
                                PassPipelineConfig(), Error))
      << Error;

  PassManager Refused;
  EXPECT_FALSE(parsePassPipeline(Refused, "aggregate[multiblock:" + Over + "]",
                                 PassPipelineConfig(), Error));
  EXPECT_NE(Error.find("group size " + Over + " exceeds " + Bound),
            std::string::npos)
      << Error;

  // The same check covers a group size that arrives through the knobs.
  PassPipelineConfig Knobs;
  Knobs.GroupSize = MaxAggGroupSize + 1;
  PassManager FromKnobs;
  Error.clear();
  EXPECT_FALSE(parsePassPipeline(FromKnobs, "aggregate", Knobs, Error));
  EXPECT_NE(Error.find("exceeds " + Bound), std::string::npos) << Error;

  DiagnosticEngine Diags;
  EXPECT_FALSE(compileWithPipeline(quickstartVmSource(),
                                   "aggregate[multiblock:" + Over + "]",
                                   literalKnobConfig(), VmCompileOptions(),
                                   Diags));
  EXPECT_NE(Diags.str().find("exceeds " + Bound), std::string::npos)
      << Diags.str();
}

} // namespace
