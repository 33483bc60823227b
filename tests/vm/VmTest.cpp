//===--- VmTest.cpp - Bytecode VM unit tests ----------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// VM semantics, one kernel per case. Every case runs on both engines (see
/// VM_TEST): the decoded loop and the bytecode interpreter it is checked
/// against, so neither engine's coverage depends on the environment.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

using namespace dpo;

namespace {

/// Compiles \p Source and builds a device running \p Engine.
std::unique_ptr<Device> makeDevice(ExecMode Engine, std::string_view Source) {
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, "", PassPipelineConfig(), VmCompileOptions(), Diags);
  EXPECT_TRUE(Program) << Diags.str();
  if (!Program)
    return nullptr;
  return std::make_unique<Device>(std::move(*Program),
                                  Device::DefaultMemoryBytes, Engine);
}

/// Defines VmTest.Name, whose body runs once per engine: the decoded loop
/// every caller gets, then the bytecode interpreter it must agree with.
/// The body sees the engine as `Engine`.
#define VM_TEST(Name)                                                          \
  void Name##OnEngine(ExecMode Engine);                                        \
  TEST(VmTest, Name) {                                                         \
    for (ExecMode Engine : {ExecMode::Decoded, ExecMode::Bytecode}) {          \
      SCOPED_TRACE(execModeName(Engine));                                      \
      Name##OnEngine(Engine);                                                  \
    }                                                                          \
  }                                                                            \
  void Name##OnEngine(ExecMode Engine)

VM_TEST(SimpleKernelWritesIndices) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[i] = i * 2;
}
)");
  ASSERT_NE(Dev, nullptr);
  uint64_t Out = Dev->alloc(100 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {4, 1, 1}, {32, 1, 1},
                                {(int64_t)Out, 100}))
      << Dev->error();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), I * 2) << "index " << I;
}

VM_TEST(ControlFlowCollatz) {
  auto Dev = makeDevice(Engine, R"(
__device__ int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0)
      n = n / 2;
    else
      n = 3 * n + 1;
    steps++;
  }
  return steps;
}
__global__ void k(int *out) {
  out[threadIdx.x] = collatz(threadIdx.x + 1);
}
)");
  ASSERT_NE(Dev, nullptr);
  uint64_t Out = Dev->alloc(8 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {8, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  int Expected[] = {0, 1, 7, 2, 5, 8, 16, 3}; // collatz(1..8)
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), Expected[I]) << "n=" << I + 1;
}

VM_TEST(ForLoopAndBreakContinue) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out, int n) {
  int sumEven = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 2 != 0)
      continue;
    if (i > 10)
      break;
    sumEven += i;
  }
  out[0] = sumEven;
}
)");
  uint64_t Out = Dev->alloc(4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 100}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out), 0 + 2 + 4 + 6 + 8 + 10);
}

VM_TEST(DoWhileLoop) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out) {
  int i = 0;
  int sum = 0;
  do {
    sum += i;
    i++;
  } while (i < 5);
  out[0] = sum;
}
)");
  uint64_t Out = Dev->alloc(4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out}));
  EXPECT_EQ(Dev->readI32(Out), 10);
}

VM_TEST(FloatArithmetic) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(float *out, float a, float b) {
  out[0] = a + b;
  out[1] = a * b;
  out[2] = a / b;
  out[3] = sqrtf(a);
  out[4] = (float)(a > b);
}
)");
  uint64_t Out = Dev->alloc(5 * 4);
  double A = 9.0, B = 2.0;
  int64_t ABits, BBits;
  memcpy(&ABits, &A, 8);
  memcpy(&BBits, &B, 8);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, ABits, BBits}))
      << Dev->error();
  EXPECT_FLOAT_EQ(Dev->readF32(Out + 0), 11.0f);
  EXPECT_FLOAT_EQ(Dev->readF32(Out + 4), 18.0f);
  EXPECT_FLOAT_EQ(Dev->readF32(Out + 8), 4.5f);
  EXPECT_FLOAT_EQ(Dev->readF32(Out + 12), 3.0f);
  EXPECT_FLOAT_EQ(Dev->readF32(Out + 16), 1.0f);
}

VM_TEST(UnsignedSemantics) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(unsigned int *out, unsigned int big) {
  out[0] = big / 2u;
  out[1] = big >> 1;
  out[2] = (unsigned int)(big > 0u);
  unsigned int wrapped = 0u;
  wrapped = wrapped - 1u;
  out[3] = wrapped;
  out[4] = wrapped > 100u ? 1u : 0u;
}
)");
  uint64_t Out = Dev->alloc(5 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, (int64_t)0xFFFFFFFEu}))
      << Dev->error();
  EXPECT_EQ(Dev->readU32(Out + 0), 0x7FFFFFFFu);
  EXPECT_EQ(Dev->readU32(Out + 4), 0x7FFFFFFFu);
  EXPECT_EQ(Dev->readU32(Out + 8), 1u);
  EXPECT_EQ(Dev->readU32(Out + 12), 0xFFFFFFFFu);
  EXPECT_EQ(Dev->readU32(Out + 16), 1u);
}

VM_TEST(PackedCounterSplit) {
  // The exact packed 64-bit pattern aggregation uses.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(unsigned long long *cnt, unsigned int *out, unsigned int g) {
  unsigned long long packed =
      atomicAdd(cnt, ((unsigned long long)1 << 32) + (unsigned long long)g);
  unsigned int idx = (unsigned int)(packed >> 32);
  unsigned int sum = (unsigned int)(packed & 4294967295u);
  out[threadIdx.x * 2] = idx;
  out[threadIdx.x * 2 + 1] = sum;
}
)");
  uint64_t Cnt = Dev->alloc(8);
  uint64_t Out = Dev->alloc(8 * 2 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {8, 1, 1},
                                {(int64_t)Cnt, (int64_t)Out, 5}))
      << Dev->error();
  // Sequential threads: thread t sees idx = t and sum = 5 * t.
  for (int T = 0; T < 8; ++T) {
    EXPECT_EQ(Dev->readU32(Out + T * 8), (uint32_t)T);
    EXPECT_EQ(Dev->readU32(Out + T * 8 + 4), (uint32_t)(5 * T));
  }
  EXPECT_EQ((uint64_t)Dev->readI64(Cnt), ((uint64_t)8 << 32) + 40);
}

VM_TEST(AtomicsSemantics) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *acc, unsigned int *umax, int *hist) {
  int old = atomicAdd(acc, 2);
  hist[threadIdx.x] = old;
  atomicMax(umax, threadIdx.x * 7u % 64u);
}
)");
  uint64_t Acc = Dev->alloc(4);
  uint64_t UMax = Dev->alloc(4);
  uint64_t Hist = Dev->alloc(32 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {32, 1, 1},
                                {(int64_t)Acc, (int64_t)UMax, (int64_t)Hist}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Acc), 64);
  // Max of (t*7 mod 64) over t in 0..31.
  uint32_t Expected = 0;
  for (uint32_t T = 0; T < 32; ++T)
    Expected = std::max(Expected, T * 7 % 64);
  EXPECT_EQ(Dev->readU32(UMax), Expected);
  // Old values are a permutation of even numbers 0..62.
  std::vector<int32_t> Olds = Dev->readI32Array(Hist, 32);
  std::sort(Olds.begin(), Olds.end());
  for (int T = 0; T < 32; ++T)
    EXPECT_EQ(Olds[T], T * 2);
}

VM_TEST(SharedMemoryReduction) {
  auto Dev = makeDevice(Engine, R"(
__global__ void reduce(int *in, int *out, int n) {
  __shared__ int scratch[128];
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  scratch[threadIdx.x] = i < n ? in[i] : 0;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
    if (threadIdx.x < stride)
      scratch[threadIdx.x] += scratch[threadIdx.x + stride];
    __syncthreads();
  }
  if (threadIdx.x == 0)
    atomicAdd(out, scratch[0]);
}
)");
  std::vector<int32_t> In(300);
  int64_t Expected = 0;
  for (size_t I = 0; I < In.size(); ++I) {
    In[I] = (int32_t)(I * 3 + 1);
    Expected += In[I];
  }
  uint64_t InAddr = Dev->allocI32(In);
  uint64_t Out = Dev->alloc(4);
  ASSERT_TRUE(Dev->launchKernel("reduce", {3, 1, 1}, {128, 1, 1},
                                {(int64_t)InAddr, (int64_t)Out, 300}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out), Expected);
}

VM_TEST(BarrierWithEarlyExitThreads) {
  // Threads that return before the barrier must not deadlock it.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *tmp, int *out, int n) {
  if (threadIdx.x >= n)
    return;
  tmp[threadIdx.x] = threadIdx.x + 1;
  __syncthreads();
  out[threadIdx.x] = tmp[(threadIdx.x + 1) % n];
}
)");
  uint64_t Tmp = Dev->alloc(8 * 4);
  uint64_t Out = Dev->alloc(8 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {8, 1, 1},
                                {(int64_t)Tmp, (int64_t)Out, 4}))
      << Dev->error();
  // Each surviving thread sees its neighbor's pre-barrier write.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), (I + 1) % 4 + 1);
}

VM_TEST(DeviceFunctionRecursion) {
  auto Dev = makeDevice(Engine, R"(
__device__ int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
__global__ void k(int *out) {
  out[threadIdx.x] = fib(threadIdx.x);
}
)");
  uint64_t Out = Dev->alloc(10 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {10, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  int Fib[] = {0, 1, 1, 2, 3, 5, 8, 13, 21, 34};
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), Fib[I]);
}

VM_TEST(DynamicLaunchParentChild) {
  auto Dev = makeDevice(Engine, R"(
__global__ void child(int *out, int base, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) out[base + i] = base + i;
}
__global__ void parent(int *out, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(out, offsets[v], count);
    }
  }
}
)");
  std::vector<int32_t> Counts = {3, 0, 17, 40, 1};
  std::vector<int32_t> Offsets = {0, 3, 3, 20, 60};
  uint64_t Out = Dev->alloc(61 * 4);
  uint64_t CountsA = Dev->allocI32(Counts);
  uint64_t OffsetsA = Dev->allocI32(Offsets);
  ASSERT_TRUE(Dev->launchKernel(
      "parent", {1, 1, 1}, {8, 1, 1},
      {(int64_t)Out, (int64_t)CountsA, (int64_t)OffsetsA, 5}))
      << Dev->error();
  // Every position covered by a child grid must hold its own index.
  for (int V = 0; V < 5; ++V)
    for (int I = 0; I < Counts[V]; ++I)
      EXPECT_EQ(Dev->readI32(Out + (Offsets[V] + I) * 4), Offsets[V] + I);
  EXPECT_EQ(Dev->stats().DeviceLaunches, 4u); // count==0 launches nothing
}

VM_TEST(Dim3ParamsAndScalarCoercion) {
  auto Dev = makeDevice(Engine, R"(
__device__ void helper(int *out, dim3 g, dim3 b) {
  out[0] = g.x;
  out[1] = g.y;
  out[2] = b.x;
}
__global__ void k(int *out, int n) {
  helper(out, dim3(n, 2, 1), 64);
}
)");
  uint64_t Out = Dev->alloc(3 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 7}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out + 0), 7);
  EXPECT_EQ(Dev->readI32(Out + 4), 2);
  EXPECT_EQ(Dev->readI32(Out + 8), 64);
}

VM_TEST(Dim3LocalsAndMemberAssign) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(unsigned int *out, int n) {
  dim3 g((n + 3) / 4, 1, 1);
  dim3 c = g;
  c.x = (g.x + 2 - 1) / 2;
  out[0] = g.x;
  out[1] = c.x;
  out[2] = c.y;
}
)");
  uint64_t Out = Dev->alloc(3 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 10}))
      << Dev->error();
  EXPECT_EQ(Dev->readU32(Out + 0), 3u);
  EXPECT_EQ(Dev->readU32(Out + 4), 2u);
  EXPECT_EQ(Dev->readU32(Out + 8), 1u);
}

VM_TEST(MultiDimensionalGrid) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out, int w) {
  int x = blockIdx.x * blockDim.x + threadIdx.x;
  int y = blockIdx.y * blockDim.y + threadIdx.y;
  out[y * w + x] = x + y * 100;
}
)");
  uint64_t Out = Dev->alloc(8 * 8 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {2, 2, 1}, {4, 4, 1}, {(int64_t)Out, 8}))
      << Dev->error();
  for (int Y = 0; Y < 8; ++Y)
    for (int X = 0; X < 8; ++X)
      EXPECT_EQ(Dev->readI32(Out + (Y * 8 + X) * 4), X + Y * 100);
}

VM_TEST(GlobalVariables) {
  auto Dev = makeDevice(Engine, R"(
int gCounter = 5;
int gTable[4];
__global__ void k(int *out) {
  atomicAdd(&gCounter, 1);
  gTable[threadIdx.x] = threadIdx.x * 3;
  out[threadIdx.x] = gTable[threadIdx.x];
}
__global__ void readBack(int *out) {
  out[0] = gCounter;
}
)");
  uint64_t Out = Dev->alloc(4 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {4, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), I * 3);
  ASSERT_TRUE(Dev->launchKernel("readBack", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out}));
  EXPECT_EQ(Dev->readI32(Out), 9); // 5 + 4 atomic increments
}

VM_TEST(HostFunctionWithCudaApi) {
  auto Dev = makeDevice(Engine, R"(
__global__ void fill(int *buf, int n, int value) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) buf[i] = value;
}
void run(int *out, int n) {
  int *tmp = 0;
  cudaMalloc((void **)&tmp, n * sizeof(int));
  fill<<<(n + 63) / 64, 64>>>(tmp, n, 42);
  cudaDeviceSynchronize();
  cudaMemcpy(out, tmp, n * sizeof(int), cudaMemcpyDeviceToHost);
  cudaFree(tmp);
}
)");
  uint64_t Out = Dev->alloc(100 * 4);
  ASSERT_TRUE(Dev->callHost("run", {(int64_t)Out, 100})) << Dev->error();
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), 42);
}

VM_TEST(LocalArraysInFrameMemory) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out) {
  int tmp[8];
  for (int i = 0; i < 8; ++i)
    tmp[i] = i * i;
  int sum = 0;
  for (int i = 0; i < 8; ++i)
    sum += tmp[i];
  out[threadIdx.x] = sum;
}
)");
  uint64_t Out = Dev->alloc(4 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {4, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Dev->readI32(Out + I * 4), 140);
}

VM_TEST(PointerArithmetic) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *base, int off) {
  int *p = base + off;
  *p = 77;
  p[1] = 78;
  int *q = p + 2;
  *q = *p + p[1];
}
)");
  uint64_t Base = Dev->alloc(10 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Base, 3}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Base + 3 * 4), 77);
  EXPECT_EQ(Dev->readI32(Base + 4 * 4), 78);
  EXPECT_EQ(Dev->readI32(Base + 5 * 4), 155);
}

VM_TEST(TernaryAndShortCircuit) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out, int *guard) {
  out[0] = threadIdx.x == 0 ? 10 : 20;
  // Short-circuit: the right side must not execute (would trap on null).
  int ok = (guard != 0) && (guard[0] == 1);
  out[1] = ok;
  int or1 = (guard == 0) || (guard[0] == 1);
  out[2] = or1;
}
)");
  uint64_t Guard = Dev->alloc(4);
  Dev->writeI32(Guard, 1);
  uint64_t Out = Dev->alloc(3 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, (int64_t)Guard}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out + 0), 10);
  EXPECT_EQ(Dev->readI32(Out + 4), 1);
  EXPECT_EQ(Dev->readI32(Out + 8), 1);

  // Null guard: short circuit avoids the dereference.
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, 0}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out + 4), 0);
  EXPECT_EQ(Dev->readI32(Out + 8), 1);
}

VM_TEST(DivisionByZeroFails) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out, int z) {
  out[0] = 10 / z;
}
)");
  uint64_t Out = Dev->alloc(4);
  EXPECT_FALSE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out, 0}));
  EXPECT_NE(Dev->error().find("division by zero"), std::string::npos);
}

VM_TEST(OutOfBoundsFails) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out) {
  out[1000000000] = 1;
}
)");
  uint64_t Out = Dev->alloc(4);
  EXPECT_FALSE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out}));
  EXPECT_NE(Dev->error().find("out of bounds"), std::string::npos);
}

VM_TEST(InfiniteLoopHitsStepLimit) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out) {
  while (1 == 1) {
    out[0] = out[0] + 1;
  }
}
)");
  Dev->setStepLimit(100000);
  uint64_t Out = Dev->alloc(4);
  EXPECT_FALSE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out}));
  EXPECT_NE(Dev->error().find("step limit"), std::string::npos);
}

VM_TEST(EmptyGridCompletes) {
  auto Dev = makeDevice(Engine, R"(
__global__ void child(int *out) { out[0] = 1; }
__global__ void parent(int *out, int n) {
  child<<<n, 32>>>(out);
}
)");
  uint64_t Out = Dev->alloc(4);
  ASSERT_TRUE(Dev->launchKernel("parent", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, 0}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out), 0); // Zero-block child never ran.
}

VM_TEST(NestedLaunchDepth) {
  auto Dev = makeDevice(Engine, R"(
__global__ void leaf(int *out) {
  atomicAdd(out, 1);
}
__global__ void mid(int *out) {
  leaf<<<2, 2>>>(out);
}
__global__ void top(int *out) {
  mid<<<2, 1>>>(out);
}
)");
  uint64_t Out = Dev->alloc(4);
  ASSERT_TRUE(Dev->launchKernel("top", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  // top(1 thread) -> 2 mid blocks x 1 thread -> each launches leaf<<<2,2>>>.
  EXPECT_EQ(Dev->readI32(Out), 2 * 2 * 2);
  EXPECT_EQ(Dev->stats().DeviceLaunches, 3u);
}

VM_TEST(FailedLaunchLeavesNoQueuedGrids) {
  // Child 0 traps while its siblings (and, on two workers, possibly their
  // grandchildren) are still queued; none of them may run later.
  for (unsigned Workers : {1u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    auto Dev = makeDevice(Engine, R"(
__global__ void grandchild(int *data, int i) { data[8 + i] = 1; }
__global__ void child(int *data, int i) {
  data[i] = 10 / i;
  grandchild<<<1, 1>>>(data, i);
}
__global__ void parent(int *data) {
  child<<<1, 1>>>(data, threadIdx.x);
}
__global__ void good(int *data) { data[16] = 7; }
)");
    ASSERT_NE(Dev, nullptr);
    Dev->setWorkers(Workers);
    uint64_t Data = Dev->alloc(17 * 4);
    EXPECT_FALSE(
        Dev->launchKernel("parent", {1, 1, 1}, {4, 1, 1}, {(int64_t)Data}));
    EXPECT_NE(Dev->error().find("division by zero"), std::string::npos)
        << Dev->error();
    std::vector<int32_t> Before = Dev->readI32Array(Data, 17);
    uint64_t Grids = Dev->stats().GridsLaunched;

    ASSERT_TRUE(Dev->launchKernel("good", {1, 1, 1}, {1, 1, 1},
                                  {(int64_t)Data}))
        << Dev->error();
    EXPECT_EQ(Dev->stats().GridsLaunched, Grids + 1);
    std::vector<int32_t> After = Dev->readI32Array(Data, 17);
    Before[16] = 7;
    EXPECT_EQ(After, Before);
  }
}

VM_TEST(CompoundAssignAndIncDecValues) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out) {
  int a = 10;
  out[0] = a++;
  out[1] = ++a;
  out[2] = a--;
  out[3] = --a;
  a += 5;
  out[4] = a;
  a <<= 2;
  out[5] = a;
  out[6] = out[0]++;
  out[7] = ++out[1];
}
)");
  uint64_t Out = Dev->alloc(8 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out + 0 * 4), 11); // 10 then ++ by out[6]
  EXPECT_EQ(Dev->readI32(Out + 1 * 4), 13); // 12 then ++ by out[7]
  EXPECT_EQ(Dev->readI32(Out + 2 * 4), 12);
  EXPECT_EQ(Dev->readI32(Out + 3 * 4), 10);
  EXPECT_EQ(Dev->readI32(Out + 4 * 4), 15);
  EXPECT_EQ(Dev->readI32(Out + 5 * 4), 60);
  EXPECT_EQ(Dev->readI32(Out + 6 * 4), 10);
  EXPECT_EQ(Dev->readI32(Out + 7 * 4), 13);
}

VM_TEST(SpecGuardIntrinsicCountsOutcomes) {
  // __dpo_spec_guard(n, k) -> n <= k, the speculative-serialization
  // guard. Each evaluation bumps exactly one of the two stat counters.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out, int n, int bound) {
  if (__dpo_spec_guard(n, bound))
    out[0] = 1;
  else
    out[0] = 0;
}
)");
  uint64_t Out = Dev->alloc(4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, 4, 8}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out), 1);
  EXPECT_EQ(Dev->stats().SpecGuardPass, 1u);
  EXPECT_EQ(Dev->stats().SpecGuardFail, 0u);

  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, 9, 8}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out), 0);
  EXPECT_EQ(Dev->stats().SpecGuardPass, 1u);
  EXPECT_EQ(Dev->stats().SpecGuardFail, 1u);

  // Boundary: n == k passes.
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {1, 1, 1},
                                {(int64_t)Out, 8, 8}))
      << Dev->error();
  EXPECT_EQ(Dev->readI32(Out), 1);
  EXPECT_EQ(Dev->stats().SpecGuardPass, 2u);
  EXPECT_EQ(Dev->stats().SpecGuardFail, 1u);
}

//===--- Warp/block collectives (cooperative block mode) ------------------===//

VM_TEST(WarpShuffleVariants) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *idx, int *up, int *down, int *xr) {
  unsigned int t = threadIdx.x;
  int v = t * 10 + 1;
  idx[t] = __shfl_sync(0xffffffffu, v, (t + 5) % 32);
  up[t] = __shfl_up_sync(0xffffffffu, v, 3);
  down[t] = __shfl_down_sync(0xffffffffu, v, 3);
  xr[t] = __shfl_xor_sync(0xffffffffu, v, 1);
}
)");
  uint64_t Idx = Dev->alloc(32 * 4), Up = Dev->alloc(32 * 4);
  uint64_t Down = Dev->alloc(32 * 4), Xor = Dev->alloc(32 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {32, 1, 1},
                                {(int64_t)Idx, (int64_t)Up, (int64_t)Down,
                                 (int64_t)Xor}))
      << Dev->error();
  auto Val = [](int Lane) { return Lane * 10 + 1; };
  for (int L = 0; L < 32; ++L) {
    EXPECT_EQ(Dev->readI32(Idx + L * 4), Val((L + 5) % 32)) << "lane " << L;
    EXPECT_EQ(Dev->readI32(Up + L * 4), Val(L < 3 ? L : L - 3)) << "lane " << L;
    EXPECT_EQ(Dev->readI32(Down + L * 4), Val(L > 28 ? L : L + 3))
        << "lane " << L;
    EXPECT_EQ(Dev->readI32(Xor + L * 4), Val(L ^ 1)) << "lane " << L;
  }
}

VM_TEST(WarpShuffleEarlyExitAndMaskedLanes) {
  // Lanes that returned before the collective are not in the group, and
  // lanes outside the mask are never read: both cases fall back to the
  // reader's own contributed value.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *a, int *b, int n) {
  unsigned int t = threadIdx.x;
  if (t >= n) return;
  a[t] = __shfl_sync(0xffu, t + 100, (t + 1) % 8);
  b[t] = __shfl_sync(0x0fu, t + 200, (t + 1) % 8);
}
)");
  uint64_t A = Dev->alloc(8 * 4), B = Dev->alloc(8 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {8, 1, 1},
                                {(int64_t)A, (int64_t)B, 6}))
      << Dev->error();
  // Lanes 0..5 live. a: full 8-lane mask, so lane 5's source (lane 6)
  // exited early -> own value. b: mask 0x0f, so sources 4..7 are never
  // read even when live.
  int ExpA[] = {101, 102, 103, 104, 105, 105};
  int ExpB[] = {201, 202, 203, 203, 204, 205};
  for (int L = 0; L < 6; ++L) {
    EXPECT_EQ(Dev->readI32(A + L * 4), ExpA[L]) << "lane " << L;
    EXPECT_EQ(Dev->readI32(B + L * 4), ExpB[L]) << "lane " << L;
  }
}

VM_TEST(BallotSyncAcrossLiveLanes) {
  auto Dev = makeDevice(Engine, R"(
__global__ void k(unsigned int *out, int n) {
  unsigned int t = threadIdx.x;
  if (t >= n) return;
  out[t] = __ballot_sync(0xffffffffu, t % 3 == 0);
}
)");
  uint64_t Out = Dev->alloc(32 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {32, 1, 1},
                                {(int64_t)Out, 20}))
      << Dev->error();
  uint32_t Expected = 0;
  for (int L = 0; L < 20; ++L)
    if (L % 3 == 0)
      Expected |= 1u << L;
  for (int L = 0; L < 20; ++L)
    EXPECT_EQ(Dev->readU32(Out + L * 4), Expected) << "lane " << L;
}

VM_TEST(BlockReduceAddMinMax) {
  // Block-wide (cross-warp) reduction over the live threads only: the
  // tail that returned early contributes nothing.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *s, int *mn, int *mx, int n) {
  int t = threadIdx.x;
  if (t >= n) return;
  int v = t - 5;
  s[t] = __block_reduce_add(v);
  mn[t] = __block_reduce_min(v);
  mx[t] = __block_reduce_max(v);
}
)");
  uint64_t S = Dev->alloc(64 * 4), Mn = Dev->alloc(64 * 4);
  uint64_t Mx = Dev->alloc(64 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {64, 1, 1},
                                {(int64_t)S, (int64_t)Mn, (int64_t)Mx, 48}))
      << Dev->error();
  int Sum = 0;
  for (int T = 0; T < 48; ++T)
    Sum += T - 5;
  for (int T = 0; T < 48; ++T) {
    EXPECT_EQ(Dev->readI32(S + T * 4), Sum) << "thread " << T;
    EXPECT_EQ(Dev->readI32(Mn + T * 4), -5) << "thread " << T;
    EXPECT_EQ(Dev->readI32(Mx + T * 4), 42) << "thread " << T;
  }
}

VM_TEST(WarpAllReduceButterfly) {
  // The classic shfl_xor butterfly allreduce -- collectives inside a
  // loop body, which also exercises them inside superblock traces.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *out) {
  int v = threadIdx.x + 1;
  for (int off = 16; off > 0; off = off / 2)
    v += __shfl_xor_sync(0xffffffffu, v, off);
  out[threadIdx.x] = v;
}
)");
  uint64_t Out = Dev->alloc(32 * 4);
  ASSERT_TRUE(Dev->launchKernel("k", {1, 1, 1}, {32, 1, 1}, {(int64_t)Out}))
      << Dev->error();
  for (int L = 0; L < 32; ++L)
    EXPECT_EQ(Dev->readI32(Out + L * 4), 32 * 33 / 2) << "lane " << L;
}

VM_TEST(SharedMemoryBarrierReduction) {
  // The canonical tiled tree reduction: shared scratch, guarded load,
  // barrier, stride-halving loop with an in-loop barrier.
  auto Dev = makeDevice(Engine, R"(
__global__ void k(int *in, int *out, int n) {
  __shared__ int scratch[64];
  unsigned int t = threadIdx.x;
  unsigned int i = blockIdx.x * blockDim.x + t;
  scratch[t] = i < n ? in[i] : 0;
  __syncthreads();
  for (int stride = blockDim.x / 2; stride > 0; stride = stride / 2) {
    if (t < stride)
      scratch[t] = scratch[t] + scratch[t + stride];
    __syncthreads();
  }
  if (t == 0)
    out[blockIdx.x] = scratch[0];
}
)");
  int N = 150;
  uint64_t In = Dev->alloc(N * 4), Out = Dev->alloc(3 * 4);
  std::vector<int32_t> Data(N);
  for (int I = 0; I < N; ++I)
    Data[I] = (I * 7) % 23 - 11;
  Dev->writeI32Array(In, Data);
  ASSERT_TRUE(Dev->launchKernel("k", {3, 1, 1}, {64, 1, 1},
                                {(int64_t)In, (int64_t)Out, N}))
      << Dev->error();
  for (int B = 0; B < 3; ++B) {
    int Exp = 0;
    for (int I = B * 64; I < std::min(N, (B + 1) * 64); ++I)
      Exp += Data[I];
    EXPECT_EQ(Dev->readI32(Out + B * 4), Exp) << "block " << B;
  }
}

// A divergent barrier: thread 3 spins forever and never reaches the
// barrier the other three threads are parked at. The step budget must be
// retired exactly (bytecode engine; the decoded engine may stop one
// fused sub-instruction short, see vm/README.md) and the diagnostic must
// name the parked threads deterministically.
constexpr std::string_view DivergentBarrierSrc = R"(
__global__ void k(int *out) {
  if (threadIdx.x == 3) {
    while (1 == 1) out[0] = out[0] + 1;
  }
  __syncthreads();
  out[threadIdx.x] = 7;
}
)";

TEST(VmTest, StepLimitAtBarrierRetiresExactBudget) {
  auto Run = [](ExecMode Mode) {
    auto Dev = makeDevice(Mode, DivergentBarrierSrc);
    Dev->setStepLimit(5000);
    uint64_t Out = Dev->alloc(4 * 4);
    EXPECT_FALSE(Dev->launchKernel("k", {1, 1, 1}, {4, 1, 1}, {(int64_t)Out}));
    EXPECT_NE(Dev->error().find("step limit"), std::string::npos)
        << Dev->error();
    return Dev->stats().Steps;
  };
  // Bytecode checks the budget before charging: exactly the budget.
  EXPECT_EQ(Run(ExecMode::Bytecode), 5000u);
  // The decoded engine uncharges the overrunning instruction; a fused
  // pair can leave at most one sub-instruction of slack.
  uint64_t Steps = Run(ExecMode::Decoded);
  EXPECT_LE(Steps, 5000u);
  EXPECT_GE(Steps, 4999u);
  // Deterministic: a second identical run retires the identical count.
  EXPECT_EQ(Run(ExecMode::Decoded), Steps);
}

TEST(VmTest, DivergentBarrierDiagnosedDeterministically) {
  auto Run = [](ExecMode Mode) {
    auto Dev = makeDevice(Mode, DivergentBarrierSrc);
    Dev->setStepLimit(20000);
    uint64_t Out = Dev->alloc(4 * 4);
    EXPECT_FALSE(Dev->launchKernel("k", {1, 1, 1}, {4, 1, 1}, {(int64_t)Out}));
    return Dev->error();
  };
  for (ExecMode Mode : {ExecMode::Bytecode, ExecMode::Decoded}) {
    std::string Err = Run(Mode);
    EXPECT_NE(Err.find("step limit"), std::string::npos) << Err;
    EXPECT_NE(Err.find("divergent barrier"), std::string::npos) << Err;
    EXPECT_NE(Err.find("3 thread(s)"), std::string::npos) << Err;
    EXPECT_EQ(Run(Mode), Err) << "diagnostic must be deterministic";
  }
}

} // namespace
