//===--- DeviceMemoryTest.cpp - Device memory image tests ---------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Device memory image is a demand-zero mapping: its size is a bound,
/// not a cost. These tests pin that a huge image stays unresident, that
/// alloc() hands out zeroed bytes over dirty memory, and that images
/// which cannot be mapped or cannot hold the globals end in a diagnostic.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/VM.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <unistd.h>

using namespace dpo;

namespace {

const char *StoreSource = R"(
__global__ void store(int *p, int v) {
  p[threadIdx.x] = v + threadIdx.x;
}
)";

const char *GlobalsSource = R"(
int gTable[64];
__global__ void k(int *out) {
  gTable[threadIdx.x] = threadIdx.x;
  out[threadIdx.x] = gTable[threadIdx.x];
}
)";

VmProgram compile(std::string_view Source, std::string_view Pipeline = "") {
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, Pipeline, literalKnobConfig(),
                          VmCompileOptions(), Diags);
  EXPECT_TRUE(Program.has_value()) << Diags.str();
  return Program ? std::move(*Program) : VmProgram();
}

/// Resident set size of this process, from /proc/self/statm.
uint64_t residentBytes() {
  std::ifstream Statm("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  Statm >> Size >> Resident;
  return Resident * (uint64_t)sysconf(_SC_PAGESIZE);
}

TEST(DeviceMemoryTest, HugeImageCostsWhatItTouches) {
  VmProgram Program =
      compile(quickstartVmSource(),
              "threshold[64],coarsen[4],aggregate[multiblock:8]");
  uint64_t Before = residentBytes();
  Device Dev(std::move(Program), 4ull << 30);
  std::vector<int32_t> Counts = {3, 0, 100, 7, 45, 0, 260, 1};
  std::vector<int32_t> Offsets(Counts.size()), Expected;
  int Total = 0;
  for (size_t V = 0; V < Counts.size(); ++V) {
    Offsets[V] = Total;
    Total += Counts[V];
    for (int I = 0; I < Counts[V]; ++I)
      Expected.push_back(Offsets[V] + I * 2);
  }
  uint64_t Data = Dev.alloc((uint64_t)Total * 4);
  uint64_t CountsA = Dev.allocI32(Counts);
  uint64_t OffsetsA = Dev.allocI32(Offsets);
  ASSERT_NE(Data, 0u) << Dev.error();
  ASSERT_TRUE(Dev.callHost("parent_agg", {1, 1, 1, 8, 1, 1, (int64_t)Data,
                                          (int64_t)CountsA,
                                          (int64_t)OffsetsA, 8}))
      << Dev.error();
  EXPECT_EQ(Dev.readI32Array(Data, Total), Expected);
  uint64_t After = residentBytes();
  EXPECT_LT(After - std::min(Before, After), 64ull << 20)
      << "a 4 GiB image became resident";
}

void expectZeroed(const Device &Dev, uint64_t Addr, uint64_t Bytes) {
  std::vector<int32_t> Words = Dev.readI32Array(Addr, Bytes / 4);
  size_t NonZero = 0;
  for (int32_t W : Words)
    NonZero += W != 0;
  EXPECT_EQ(NonZero, 0u) << "of " << Words.size() << " words at " << Addr;
}

TEST(DeviceMemoryTest, AllocAfterRestoreOverDirtyMemoryIsZeroed) {
  // Sizes around the page-release threshold, with unaligned edges.
  const uint64_t Small = 4096 + 12, Large = (4ull << 20) + 4096 + 20;
  Device Dev(compile(StoreSource), 32ull << 20);
  uint64_t Anchor = Dev.alloc(8);
  ASSERT_NE(Anchor, 0u);
  // Dirty everything above the bump pointer that the allocations below
  // will cover, and a little past them: a host fill, then kernel stores
  // into the pages both allocations start on.
  const uint64_t Dirty = Anchor + 8;
  Dev.fillI32(Dirty, (Small + Large + 64) / 4, -1);
  for (int64_t At : {(int64_t)Dirty, (int64_t)(Dirty + Small + 16)})
    ASSERT_TRUE(Dev.launchKernel("store", {1, 1, 1}, {32, 1, 1}, {At, 7}))
        << Dev.error();

  uint64_t A = Dev.alloc(Small), B = Dev.alloc(Large);
  ASSERT_NE(A, 0u);
  ASSERT_NE(B, 0u);
  ASSERT_GE(A, Dirty);
  ASSERT_LE(B + Large, Dirty + Small + Large + 64);
  expectZeroed(Dev, A, Small);
  expectZeroed(Dev, B, Large);
  // Bytes just past the large allocation keep their contents.
  EXPECT_EQ(Dev.readI32(B + Large), -1);
}

TEST(DeviceMemoryTest, GlobalsThatDoNotFitAreADiagnostic) {
  VmProgram Program = compile(GlobalsSource);
  ASSERT_FALSE(Program.GlobalImage.empty());
  Device Dev(std::move(Program), 64);
  EXPECT_FALSE(Dev.launchKernel("k", {1, 1, 1}, {4, 1, 1}, {64}));
  EXPECT_NE(Dev.error().find("global image"), std::string::npos)
      << Dev.error();

  // A deserialized artifact can carry any global image size.
  VmProgram Big = compile(GlobalsSource);
  Big.GlobalImage.resize(2ull << 20, 1);
  Device Small(std::move(Big), 1ull << 20);
  EXPECT_FALSE(Small.launchKernel("k", {1, 1, 1}, {4, 1, 1}, {64}));
  EXPECT_NE(Small.error().find("does not fit"), std::string::npos)
      << Small.error();
}

TEST(DeviceMemoryTest, UnmappableImageIsADiagnostic) {
  Device Dev(compile(StoreSource), 1ull << 62);
  EXPECT_EQ(Dev.alloc(16), 0u);
  EXPECT_FALSE(Dev.launchKernel("store", {1, 1, 1}, {1, 1, 1}, {64, 1}));
  EXPECT_NE(Dev.error().find("cannot map"), std::string::npos)
      << Dev.error();
}

} // namespace
