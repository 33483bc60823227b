//===--- ServiceAxisTest.cpp - Cached artifacts vs in-memory compiles ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service axis of the differential suite: a VmProgram deserialized
/// from a disk-cached artifact must be indistinguishable from one
/// compiled in-process — bit-identical serialized image, and when driven
/// through the full Table I algorithms, bit-identical payloads, grid
/// logs, and step counts at every execution engine and worker count.
/// This is the contract that lets `dpoptcc --serve` hand out cached
/// bytecode without re-verifying it.
///
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"
#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"
#include "workloads/Differential.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace dpo;

namespace fs = std::filesystem;

namespace {

/// One pipeline per case keeps the matrix affordable; the combined
/// three-pass spelling exercises every transform layer the cache key
/// must capture.
constexpr const char *AxisPipeline =
    "threshold[128:literal],coarsen[4:literal],aggregate[warp:4:literal]";

class ServiceAxisTest : public ::testing::TestWithParam<size_t> {
protected:
  void SetUp() override {
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    Scratch = fs::temp_directory_path() /
              ("dpo_service_axis_" + std::string(Info->name()));
    fs::remove_all(Scratch);
    fs::create_directories(Scratch);
  }
  void TearDown() override {
    std::error_code Ec;
    fs::remove_all(Scratch, Ec);
  }

  ServiceConfig config() const {
    ServiceConfig SC;
    SC.CacheDir = Scratch.string();
    return SC;
  }

  static CompileRequest requestFor(const KernelCase &Case) {
    CompileRequest R;
    R.Name = Case.Name;
    R.Source = Case.source();
    R.Pipeline = AxisPipeline;
    R.Knobs = literalKnobConfig();
    R.WantBytecode = true;
    return R;
  }

  fs::path Scratch;
};

TEST_P(ServiceAxisTest, CachedArtifactsExecuteIdenticallyToInMemoryCompiles) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();

  // Cold compile in one service instance, then a disk hit in a fresh
  // instance sharing only the cache directory — the cached program has
  // round-tripped through the artifact container.
  CompileService Cold(config());
  CompileResponse Fresh = Cold.compile(requestFor(Case));
  ASSERT_TRUE(Fresh.Ok) << Case.Name << ": " << Fresh.Error;
  ASSERT_EQ(Fresh.Outcome, CacheOutcome::Miss) << Case.Name;
  ASSERT_NE(Fresh.Program, nullptr) << Case.Name;

  CompileService Warm(config());
  CompileResponse Cached = Warm.compile(requestFor(Case));
  ASSERT_TRUE(Cached.Ok) << Case.Name << ": " << Cached.Error;
  ASSERT_EQ(Cached.Outcome, CacheOutcome::DiskHit) << Case.Name;
  ASSERT_NE(Cached.Program, nullptr) << Case.Name;

  EXPECT_EQ(serializeVmProgram(*Fresh.Program),
            serializeVmProgram(*Cached.Program))
      << Case.Name << ": cached artifact image is not bit-identical";

  for (ExecMode Mode : {ExecMode::Bytecode, ExecMode::Decoded}) {
    for (unsigned Workers : {1u, 2u, 4u}) {
      DifferentialRun InMem = runKernelCaseOnVmProgram(
          Case, *Fresh.Program, 16ull << 20, Workers, Mode,
          /*CaptureGridLog=*/true);
      DifferentialRun FromDisk = runKernelCaseOnVmProgram(
          Case, *Cached.Program, 16ull << 20, Workers, Mode,
          /*CaptureGridLog=*/true);
      std::string Tag = Case.Name + " engine=" + execModeName(Mode) +
                        " workers=" + std::to_string(Workers);
      ASSERT_TRUE(InMem.Ok) << Tag << ": " << InMem.Error;
      ASSERT_TRUE(FromDisk.Ok) << Tag << ": " << FromDisk.Error;

      std::string Why;
      EXPECT_TRUE(payloadsMatch(Case.Bench, Native, InMem.Payload, Why))
          << Tag << " (in-memory): " << Why;
      EXPECT_TRUE(payloadsMatch(Case.Bench, Native, FromDisk.Payload, Why))
          << Tag << " (cached): " << Why;
      EXPECT_TRUE(
          payloadsMatch(Case.Bench, InMem.Payload, FromDisk.Payload, Why))
          << Tag << ": cached payload diverged: " << Why;

      EXPECT_EQ(InMem.Stats.Steps, FromDisk.Stats.Steps) << Tag;
      EXPECT_TRUE(InMem.Stats == FromDisk.Stats)
          << Tag << ": VM stats diverged between cached and in-memory";
      ASSERT_EQ(InMem.GridLog.size(), FromDisk.GridLog.size()) << Tag;
      for (size_t I = 0; I < InMem.GridLog.size(); ++I)
        EXPECT_TRUE(InMem.GridLog[I] == FromDisk.GridLog[I])
            << Tag << ": grid record " << I << " diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ServiceAxisTest,
    ::testing::Range<size_t>(0, differentialCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = differentialCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

} // namespace
