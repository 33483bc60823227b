//===--- PeepholeTest.cpp - Bytecode optimizer unit tests ----------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two kinds of checks on vm/Peephole.cpp:
///  - structural: specific sources must produce specific fusions/folds
///    (GlobalTidX, IncLocalI32, fused compare-and-branch, constant
///    folding, dead stack-shuffle elimination);
///  - dynamic: a battery of kernels is executed with the optimizer on and
///    off, on the decoded engine and on the bytecode reference, and the
///    resulting device memory compared bit-for-bit, proving the
///    superinstructions are semantics-preserving on both engines (the
///    fuzz suite extends this to randomized programs).
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/Compiler.h"
#include "vm/Peephole.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dpo;

namespace {

VmProgram compileSource(std::string_view Source, bool Optimize) {
  DiagnosticEngine Diags;
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = Optimize;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, "", PassPipelineConfig(), Opts, Diags);
  EXPECT_TRUE(Program) << Diags.str();
  return Program.value_or(VmProgram());
}

unsigned countOp(const FuncDef &F, Op Code) {
  return (unsigned)std::count_if(F.Code.begin(), F.Code.end(),
                                 [&](const Instr &I) { return I.Code == Code; });
}

const FuncDef *findFunc(const VmProgram &P, const std::string &Name) {
  const FuncDef *F = P.find(Name);
  EXPECT_NE(F, nullptr) << "no function '" << Name << "'";
  return F;
}

std::string disassemble(const FuncDef &F) {
  std::string S;
  for (size_t I = 0; I < F.Code.size(); ++I)
    S += std::to_string(I) + ": " + opName(F.Code[I].Code) + " " +
         std::to_string(F.Code[I].A) + " " + std::to_string(F.Code[I].B) +
         "\n";
  return S;
}

TEST(PeepholeTest, GlobalTidFusion) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = i;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  // The 7-instruction tid idiom collapses into one superinstruction with
  // the int32 wrap folded in; no raw special-register reads remain.
  EXPECT_EQ(countOp(*K, Op::GlobalTidX), 1u) << disassemble(*K);
  EXPECT_EQ(K->Code[0].Code, Op::GlobalTidX) << disassemble(*K);
  EXPECT_EQ(K->Code[0].B, 1) << "expected the signed (int) wrap";
  EXPECT_EQ(countOp(*K, Op::SReg), 0u) << disassemble(*K);
  // `i` is provably int32-normalized, so its loads carry no re-wrap; only
  // the untrusted parameter `n` keeps one TruncI.
  EXPECT_LE(countOp(*K, Op::TruncI), 1u) << disassemble(*K);
}

TEST(PeepholeTest, GlobalTidFusionCommuted) {
  const char *Source = R"(
__global__ void k(unsigned int *out) {
  out[threadIdx.x + blockIdx.x * blockDim.x] = 1u;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(countOp(*K, Op::GlobalTidX), 1u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::SReg), 0u) << disassemble(*K);
}

TEST(PeepholeTest, ConstantFolding) {
  const char *Source = R"(
__global__ void k(int *out) {
  out[0] = 2 + 3 * 4;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  // The arithmetic folds to a single constant and the zero subscript
  // disappears as an identity: LoadLocal out; PushI 14; StI32; RetVoid.
  EXPECT_EQ(countOp(*K, Op::AddI), 0u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::MulI), 0u) << disassemble(*K);
  unsigned Push14 = 0;
  for (const Instr &I : K->Code)
    if (I.Code == Op::PushI && I.A == 14)
      ++Push14;
  EXPECT_EQ(Push14, 1u) << disassemble(*K);
  EXPECT_LE(K->Code.size(), 4u) << disassemble(*K);
}

TEST(PeepholeTest, LoopFusesCounterAndBranch) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  int sum = 0;
  for (int i = 0; i < n; ++i)
    sum = sum + i;
  out[0] = sum;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  // ++i becomes IncLocalI32 and `i < n` + exit branch fuse into JmpIfGEI.
  EXPECT_GE(countOp(*K, Op::IncLocalI32), 1u) << disassemble(*K);
  EXPECT_GE(countOp(*K, Op::JmpIfGEI), 1u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::CmpLTI), 0u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::JmpIfZero), 0u) << disassemble(*K);
}

TEST(PeepholeTest, ArrayAddressFusion) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int base = i * 2;
  if (i < n) out[base + i] = 7;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  // base + i pairs into LoadLoadAddI (both locals are provably
  // normalized), and the *4 + addr scaling folds all the way into the
  // scaled store: [MulImmAddI 4; PushI 7; StI32] -> [PushI 7; StI32Sc].
  EXPECT_EQ(countOp(*K, Op::LoadLoadAddI), 1u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::StI32Sc), 1u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::MulImmAddI), 0u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::StI32), 0u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::MulI), 0u) << disassemble(*K);
}

TEST(PeepholeTest, IndexedLoadFusion) {
  // counts[v] with a provably-int32 v: the whole address formation and
  // load collapse into one LoadLocal-indexed load.
  const char *Source = R"(
__global__ void k(int *out, int *counts, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    int count = counts[v];
    out[v] = count * 2;
  }
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  EXPECT_GE(countOp(*K, Op::LdI32Idx), 1u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::LdI32), 0u) << disassemble(*K);
}

TEST(PeepholeTest, DataflowTracksStrideLoops) {
  // stride starts at blockDim.x / 2 (range [0, 512] via the
  // positive-divisor rule) and halves each round; threadIdx.x + stride
  // stays within int32, so the shared-memory indices need no re-wrap
  // and the scaled loads/stores fuse.
  const char *Source = R"(
__global__ void k(int *out, int n) {
  __shared__ int scratch[64];
  scratch[threadIdx.x] = (int)threadIdx.x;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
    if (threadIdx.x < stride)
      scratch[threadIdx.x] += scratch[threadIdx.x + stride];
    __syncthreads();
  }
  if (threadIdx.x == 0)
    out[blockIdx.x] = scratch[0];
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  // The scratch[threadIdx.x + stride] read keeps no TruncI on its index
  // and at least one scaled access formed somewhere in the kernel.
  EXPECT_GE(countOp(*K, Op::LdI32Sc) + countOp(*K, Op::LdI32Idx) +
                countOp(*K, Op::StI32Sc),
            1u)
      << disassemble(*K);
}

TEST(PeepholeTest, DeadShufflesEliminated) {
  const char *Source = R"(
__global__ void k(int *out, int a, int b) {
  a + b;
  a * 2 - b;
  out[0] = a;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  // Discarded pure expressions compile to compute-then-Pop; the Pop
  // absorption rules must dissolve them entirely.
  EXPECT_EQ(countOp(*K, Op::Pop), 0u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::AddI), 0u) << disassemble(*K);
  EXPECT_EQ(countOp(*K, Op::SubI), 0u) << disassemble(*K);
}

TEST(PeepholeTest, DisabledLeavesBaseOpcodesOnly) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = i * 2 + 1;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/false);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  for (const Instr &I : K->Code)
    EXPECT_LE((unsigned)I.Code, (unsigned)Op::Trap)
        << "unexpected superinstruction " << opName(I.Code)
        << " with the optimizer disabled";
  // And the optimizer, run directly, must strictly shrink this kernel.
  FuncDef Copy = *K;
  PeepholeStats Stats = optimizeFunction(Copy);
  EXPECT_LT(Stats.InstrsAfter, Stats.InstrsBefore);
  EXPECT_GE(Stats.Rounds, 1u);
}

TEST(PeepholeTest, ParamSlotsFollowTheEntryNormalizationContract) {
  // Integer parameter slots are wrapped to their declared widths when a
  // frame is entered (paramSlotNorm in Bytecode.h), so the peephole may
  // drop the per-use re-wraps the old store-site-local analysis had to
  // keep: a `unsigned int` parameter is a provable uint32.
  const char *Source = R"(
__global__ void k(unsigned int *out, unsigned int big) {
  out[0] = big / 2u;
}
)";
  VmProgram P = compileSource(Source, /*Optimize=*/true);
  const FuncDef *K = findFunc(P, "k");
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(countOp(*K, Op::TruncI), 0u) << disassemble(*K);

  // And the contract holds dynamically on *both* engines: a host passing
  // an out-of-range slot value sees it wrapped at entry, exactly as the
  // hardware ABI would truncate it.
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    Device Dev(compileSource(Source, /*Optimize=*/true), 16ull << 20, Mode);
    uint64_t Out = Dev.alloc(4);
    int64_t Big = (int64_t)((1ull << 32) | 10); // wraps to 10
    ASSERT_TRUE(Dev.launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                 {(int64_t)Out, Big}))
        << Dev.error();
    EXPECT_EQ(Dev.readU32(Out), 5u);
  }
}

//===----------------------------------------------------------------------===//
// Dynamic on/off equivalence
//===----------------------------------------------------------------------===//

/// The engine x optimizer matrix every dynamic check runs: the peephole
/// on and off, each on the decoded engine and on the bytecode reference.
struct EngineRun {
  ExecMode Engine;
  bool Optimize;
};
constexpr EngineRun EngineRuns[] = {{ExecMode::Decoded, false},
                                    {ExecMode::Decoded, true},
                                    {ExecMode::Bytecode, false},
                                    {ExecMode::Bytecode, true}};

std::ostream &operator<<(std::ostream &OS, const EngineRun &R) {
  return OS << execModeName(R.Engine)
            << (R.Optimize ? " peephole=on" : " peephole=off");
}

/// Runs `k(out, n)` over a grid across EngineRuns and compares the full
/// output buffer against the unoptimized decoded run.
void expectEquivalent(const char *Source, int N, Dim3V Grid, Dim3V Block) {
  std::vector<int32_t> Reference;
  for (const EngineRun &R : EngineRuns) {
    Device Dev(compileSource(Source, R.Optimize), 16ull << 20, R.Engine);
    uint64_t Out = Dev.alloc((uint64_t)N * 4);
    ASSERT_TRUE(Dev.launchKernel("k", Grid, Block, {(int64_t)Out, N}))
        << R << ": " << Dev.error();
    std::vector<int32_t> Result = Dev.readI32Array(Out, N);
    if (Reference.empty())
      Reference = Result;
    EXPECT_EQ(Reference, Result) << R << "\n" << Source;
  }
}

TEST(PeepholeEquivalenceTest, LoopsAndBranches) {
  expectEquivalent(R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int sum = 0;
    for (int j = 0; j <= i; ++j) {
      if (j % 3 == 0) continue;
      if (j > 40) break;
      sum += j * 2 - 1;
    }
    out[i] = sum;
  }
}
)",
                   100, {4, 1, 1}, {32, 1, 1});
}

TEST(PeepholeEquivalenceTest, UnsignedWraparound) {
  expectEquivalent(R"(
__global__ void k(int *out, int n) {
  unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < (unsigned int)n) {
    unsigned int x = 0u;
    x = x - (i + 1u);
    out[i] = (int)(x >> 16);
  }
}
)",
                   64, {2, 1, 1}, {32, 1, 1});
}

TEST(PeepholeEquivalenceTest, SharedMemoryReduction) {
  expectEquivalent(R"(
__global__ void k(int *out, int n) {
  __shared__ int scratch[64];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  scratch[threadIdx.x] = i < n ? i * 3 + 1 : 0;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
    if (threadIdx.x < stride)
      scratch[threadIdx.x] += scratch[threadIdx.x + stride];
    __syncthreads();
  }
  if (threadIdx.x == 0)
    out[blockIdx.x] = scratch[0];
}
)",
                   4, {4, 1, 1}, {64, 1, 1});
}

TEST(PeepholeEquivalenceTest, RecursionAndCalls) {
  expectEquivalent(R"(
__device__ int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
__global__ void k(int *out, int n) {
  if (threadIdx.x < (unsigned int)n)
    out[threadIdx.x] = fib(threadIdx.x % 12);
}
)",
                   16, {1, 1, 1}, {16, 1, 1});
}

TEST(PeepholeEquivalenceTest, FloatArithmetic) {
  expectEquivalent(R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    float x = 1.5f * i + 0.25f;
    float y = sqrtf(x) - 2.0f / (x + 1.0f);
    out[i] = (int)(y * 1000.0f);
  }
}
)",
                   80, {3, 1, 1}, {32, 1, 1});
}

TEST(PeepholeEquivalenceTest, DynamicParentChild) {
  const char *Source = R"(
__global__ void child(int *out, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) atomicAdd(&out[base + i], i + 1);
}
__global__ void k(int *out, int n) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < n) {
    child<<<(v + 7) / 8, 8>>>(out, v * 2, v);
  }
}
)";
  std::vector<int32_t> Reference;
  for (const EngineRun &R : EngineRuns) {
    Device Dev(compileSource(Source, R.Optimize), 16ull << 20, R.Engine);
    uint64_t Out = Dev.alloc(256 * 4);
    ASSERT_TRUE(Dev.launchKernel("k", {2, 1, 1}, {16, 1, 1},
                                 {(int64_t)Out, 30}))
        << R << ": " << Dev.error();
    std::vector<int32_t> Result = Dev.readI32Array(Out, 256);
    if (Reference.empty())
      Reference = Result;
    EXPECT_EQ(Reference, Result) << R;
    // The launch structure itself must be identical, not just the output
    // (all 30 parents launch; v = 0 enqueues an empty grid).
    EXPECT_EQ(Dev.stats().DeviceLaunches, 30u) << R;
  }
}

TEST(PeepholeEquivalenceTest, TrapsStillFire) {
  const char *Source = R"(
__global__ void k(int *out, int n) {
  out[0] = 10 / (n - n);
}
)";
  for (const EngineRun &R : EngineRuns) {
    Device Dev(compileSource(Source, R.Optimize), 16ull << 20, R.Engine);
    uint64_t Out = Dev.alloc(4);
    EXPECT_FALSE(
        Dev.launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 5}));
    EXPECT_NE(Dev.error().find("division by zero"), std::string::npos)
        << R << ": " << Dev.error();
  }
}

} // namespace
