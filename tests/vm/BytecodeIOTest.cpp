//===--- BytecodeIOTest.cpp - Serialized bytecode round-trip tests -------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk bytecode format (vm/BytecodeIO.h) backs the service-layer
/// artifact cache, so its contract is load-bearing for correctness:
///  - serialize -> deserialize -> re-serialize must be byte-identical for
///    every corpus program and for fuzz-generated programs (deterministic
///    bytes are what make the content-addressed cache keys meaningful);
///  - a deserialized program must execute bit-identically to the original
///    on both engines — same payload, same retired step counts;
///  - truncated, bit-flipped, and wrong-version images must fail cleanly
///    with a diagnostic, never crash or return a half-built program.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"
#include "vm/Compiler.h"
#include "vm/VM.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace dpo;

namespace {

VmProgram compileSource(const std::string &Source, bool Optimize = true) {
  DiagnosticEngine Diags;
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = Optimize;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, "", PassPipelineConfig(), Opts, Diags);
  EXPECT_TRUE(Program) << Diags.str();
  return Program.value_or(VmProgram());
}

/// serialize -> deserialize -> re-serialize; returns the deserialized
/// program and asserts the two images are byte-identical.
VmProgram roundTrip(const VmProgram &P) {
  std::string First = serializeVmProgram(P);
  VmProgram Q;
  std::string Error;
  EXPECT_TRUE(deserializeVmProgram(First, Q, Error)) << Error;
  std::string Second = serializeVmProgram(Q);
  EXPECT_EQ(First, Second) << "re-serialization not byte-identical";
  return Q;
}

struct NestedRun {
  std::vector<int32_t> Out;
  VmStats Stats;
  bool Ok = false;
};

/// Runs the standard nested parent/child driver over \p Program.
NestedRun runNested(VmProgram Program, const std::vector<int32_t> &Counts,
                    ExecMode Mode) {
  NestedRun R;
  Device Dev(std::move(Program), 64ull << 20, Mode);
  int NumV = (int)Counts.size();
  std::vector<int32_t> Offsets(NumV);
  int Total = 0;
  for (int I = 0; I < NumV; ++I) {
    Offsets[I] = Total;
    Total += Counts[I];
  }
  uint64_t Out = Dev.alloc(std::max(1, Total) * 4);
  uint64_t CountsA = Dev.allocI32(Counts);
  uint64_t OffsetsA = Dev.allocI32(Offsets);
  bool Ok = Dev.launchKernel("parent", {(uint32_t)(NumV + 63) / 64, 1, 1},
                             {64, 1, 1},
                             {(int64_t)Out, (int64_t)CountsA,
                              (int64_t)OffsetsA, NumV});
  EXPECT_TRUE(Ok) << Dev.error();
  if (!Ok)
    return R;
  R.Out = Dev.readI32Array(Out, std::max(1, Total));
  R.Stats = Dev.stats();
  R.Ok = true;
  return R;
}

/// The full engine axis: a deserialized image must retire the same
/// payload and the same step counts as the in-memory program on every
/// engine.
void expectExecutionIdentical(const VmProgram &P, const VmProgram &Q,
                              const std::vector<int32_t> &Counts) {
  for (ExecMode Mode : {ExecMode::Bytecode, ExecMode::Decoded}) {
    NestedRun A = runNested(P, Counts, Mode);
    NestedRun B = runNested(Q, Counts, Mode);
    ASSERT_TRUE(A.Ok && B.Ok);
    EXPECT_EQ(A.Out, B.Out) << "payload diverged, " << execModeName(Mode);
    EXPECT_TRUE(A.Stats == B.Stats)
        << "stats diverged, " << execModeName(Mode) << ": " << A.Stats.Steps
        << " vs " << B.Stats.Steps << " steps";
  }
}

std::vector<int32_t> skewedCounts(unsigned Seed, size_t N = 96) {
  std::mt19937 Rng(Seed * 131 + 17);
  std::vector<int32_t> Counts(N);
  for (auto &C : Counts)
    C = Rng() % 10 < 6 ? (int)(Rng() % 12) : (int)(32 + Rng() % 200);
  return Counts;
}

//===----------------------------------------------------------------------===//
// Corpus round-trips
//===----------------------------------------------------------------------===//

class CorpusBytecodeIOTest : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(CorpusBytecodeIOTest, TableIKernelRoundTripsExactly) {
  VmProgram P = compileSource(kernelSourceFor(GetParam()));
  ASSERT_FALSE(P.Functions.empty());
  VmProgram Q = roundTrip(P);
  // Structure survives: same functions in the same order, index intact.
  ASSERT_EQ(P.Functions.size(), Q.Functions.size());
  for (size_t I = 0; I < P.Functions.size(); ++I) {
    EXPECT_EQ(P.Functions[I].Name, Q.Functions[I].Name);
    EXPECT_EQ(P.Functions[I].Code.size(), Q.Functions[I].Code.size());
    ASSERT_TRUE(Q.FunctionIndex.count(P.Functions[I].Name));
    EXPECT_EQ(Q.FunctionIndex.at(P.Functions[I].Name), (unsigned)I);
  }
  EXPECT_EQ(P.TrapMessages, Q.TrapMessages);
  EXPECT_EQ(P.GlobalImage, Q.GlobalImage);
  EXPECT_EQ(P.LaunchSiteNames, Q.LaunchSiteNames);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CorpusBytecodeIOTest,
                         ::testing::Values(BenchmarkId::BFS, BenchmarkId::BT,
                                           BenchmarkId::MSTF,
                                           BenchmarkId::MSTV, BenchmarkId::SP,
                                           BenchmarkId::SSSP,
                                           BenchmarkId::TC));

TEST(BytecodeIOTest, NestedWorkloadRoundTripExecutesIdentically) {
  for (bool Optimize : {true, false}) {
    VmProgram P = compileSource(nestedVmSource(), Optimize);
    VmProgram Q = roundTrip(P);
    expectExecutionIdentical(P, Q, skewedCounts(1));
  }
}

TEST(BytecodeIOTest, CooperativeKernelRoundTripExecutesIdentically) {
  // __shared__ tiles + __syncthreads exercise SharedBytes and the barrier
  // opcodes through the serialized image.
  std::string Source =
      "__global__ void child(int *out, int base, int count) {\n"
      "  __shared__ int tile[64];\n"
      "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
      "  tile[threadIdx.x] = i < count ? base + i : 0;\n"
      "  __syncthreads();\n"
      "  for (int s = blockDim.x / 2; s > 0; s = s / 2) {\n"
      "    if (threadIdx.x < s)\n"
      "      tile[threadIdx.x] = tile[threadIdx.x] + tile[threadIdx.x + s];\n"
      "    __syncthreads();\n"
      "  }\n"
      "  if (i < count)\n"
      "    out[base + i] = tile[0] + i;\n"
      "}\n"
      "__global__ void parent(int *out, int *counts, int *offsets, int numV) "
      "{\n"
      "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
      "  if (v < numV) {\n"
      "    int count = counts[v];\n"
      "    if (count > 0)\n"
      "      child<<<(count + 63) / 64, 64>>>(out, offsets[v], count);\n"
      "  }\n"
      "}\n";
  VmProgram P = compileSource(Source);
  VmProgram Q = roundTrip(P);
  expectExecutionIdentical(P, Q, skewedCounts(2));
}

//===----------------------------------------------------------------------===//
// Fuzz round-trips
//===----------------------------------------------------------------------===//

std::string randomIntExpr(std::mt19937 &Rng, int Depth = 0) {
  std::uniform_int_distribution<int> Pick(0, Depth > 2 ? 3 : 6);
  switch (Pick(Rng)) {
  case 0: return "i";
  case 1: return "base";
  case 2: return "count";
  case 3: return std::to_string(1 + Rng() % 97);
  case 4:
    return "(" + randomIntExpr(Rng, Depth + 1) + " + " +
           randomIntExpr(Rng, Depth + 1) + ")";
  case 5:
    return "(" + randomIntExpr(Rng, Depth + 1) + " * " +
           std::to_string(1 + Rng() % 7) + ")";
  default:
    return "(" + randomIntExpr(Rng, Depth + 1) + " - " +
           randomIntExpr(Rng, Depth + 1) + ")";
  }
}

std::string randomNestedProgram(unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::ostringstream OS;
  OS << "__global__ void child(int *out, int base, int count) {\n"
     << "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
     << "  if (i < count) {\n";
  if (Rng() % 2)
    OS << "    if (i % " << (2 + Rng() % 5) << " == 0) {\n"
       << "      out[base + i] = " << randomIntExpr(Rng) << ";\n"
       << "    } else {\n"
       << "      out[base + i] = " << randomIntExpr(Rng) << ";\n"
       << "    }\n";
  else
    OS << "    out[base + i] = " << randomIntExpr(Rng) << ";\n";
  OS << "  }\n}\n";
  unsigned BlockDim = 1u << (4 + Rng() % 4);
  OS << "__global__ void parent(int *out, int *counts, int *offsets, "
        "int numV) {\n"
     << "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
     << "  if (v < numV) {\n"
     << "    int count = counts[v];\n"
     << "    if (count > 0) {\n"
     << "      child<<<(count + " << (BlockDim - 1) << ") / " << BlockDim
     << ", " << BlockDim << ">>>(out, offsets[v], count);\n"
     << "    }\n  }\n}\n";
  return OS.str();
}

class FuzzBytecodeIOTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzBytecodeIOTest, GeneratedProgramsRoundTripExactly) {
  unsigned Seed = GetParam();
  // Both optimizer settings: fused superinstructions must serialize too.
  for (bool Optimize : {true, false}) {
    VmProgram P = compileSource(randomNestedProgram(Seed), Optimize);
    VmProgram Q = roundTrip(P);
    expectExecutionIdentical(P, Q, skewedCounts(Seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBytecodeIOTest,
                         ::testing::Range(0u, 8u));

//===----------------------------------------------------------------------===//
// Corruption safety
//===----------------------------------------------------------------------===//

TEST(BytecodeIOTest, TruncatedImagesFailCleanly) {
  VmProgram P = compileSource(nestedVmSource());
  std::string Image = serializeVmProgram(P);
  // Every truncation length, including the empty image, must fail with a
  // diagnostic — and never crash or spin.
  for (size_t Len = 0; Len < Image.size(); ++Len) {
    VmProgram Q;
    std::string Error;
    EXPECT_FALSE(
        deserializeVmProgram(std::string_view(Image.data(), Len), Q, Error))
        << "truncation to " << Len << " bytes accepted";
    EXPECT_FALSE(Error.empty());
  }
}

TEST(BytecodeIOTest, BitFlipsAreDetectedOrHarmless) {
  VmProgram P = compileSource(nestedVmSource());
  std::string Image = serializeVmProgram(P);
  // Flip one bit in every byte: the checksum (or a structural check) must
  // reject the image. A flip can never produce a crash or a quietly
  // different program that still deserializes.
  for (size_t I = 0; I < Image.size(); ++I) {
    std::string Corrupt = Image;
    Corrupt[I] ^= 0x40;
    VmProgram Q;
    std::string Error;
    EXPECT_FALSE(deserializeVmProgram(Corrupt, Q, Error))
        << "flipped bit in byte " << I << " accepted";
  }
}

TEST(BytecodeIOTest, WrongVersionIsRejectedWithDiagnostic) {
  VmProgram P = compileSource(nestedVmSource());
  std::string Image = serializeVmProgram(P);
  ASSERT_GE(Image.size(), 8u);
  std::string Stale = Image;
  Stale[4] = (char)(BytecodeFormatVersion + 1); // little-endian version word
  VmProgram Q;
  std::string Error;
  EXPECT_FALSE(deserializeVmProgram(Stale, Q, Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(BytecodeIOTest, TrailingGarbageIsRejected) {
  VmProgram P = compileSource(nestedVmSource());
  std::string Image = serializeVmProgram(P) + "extra";
  VmProgram Q;
  std::string Error;
  EXPECT_FALSE(deserializeVmProgram(Image, Q, Error));
}

TEST(BytecodeIOTest, EmptyProgramRoundTrips) {
  VmProgram P;
  VmProgram Q = roundTrip(P);
  EXPECT_TRUE(Q.Functions.empty());
  EXPECT_TRUE(Q.GlobalImage.empty());
}

} // namespace
