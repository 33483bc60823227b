//===--- VmWorkload.cpp ---------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "workloads/VmWorkload.h"

#include "vm/VM.h"

#include <random>

using namespace dpo;

bool dpo::launchWorkloadParent(Device &Dev, const std::string &ParentKernel,
                               uint32_t NumParents, uint32_t ParentBlockDim,
                               const std::vector<int64_t> &Args) {
  if (NumParents == 0)
    return true;
  uint32_t PB = ParentBlockDim ? ParentBlockDim : 128;
  uint32_t GridX = (NumParents + PB - 1) / PB;
  std::string Wrapper = ParentKernel + "_agg";
  if (Dev.hasHostFunction(Wrapper)) {
    std::vector<int64_t> HostArgs = {GridX, 1, 1, PB, 1, 1};
    HostArgs.insert(HostArgs.end(), Args.begin(), Args.end());
    return Dev.callHost(Wrapper, HostArgs);
  }
  return Dev.launchKernel(ParentKernel, {GridX, 1, 1}, {PB, 1, 1}, Args);
}

std::string dpo::nestedVmSource(uint32_t ChildBlockDim) {
  std::string B = std::to_string(ChildBlockDim);
  return "__global__ void child(int *out, int base, int count) {\n"
         "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
         "  if (i < count) {\n"
         "    out[base + i] = base * 7 + i * 3 + count;\n"
         "  }\n"
         "}\n"
         "__global__ void parent(int *out, int *counts, int *offsets, "
         "int numV) {\n"
         "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
         "  if (v < numV) {\n"
         "    int count = counts[v];\n"
         "    if (count > 0) {\n"
         "      child<<<(count + " +
         std::to_string(ChildBlockDim - 1) + ") / " + B + ", " + B +
         ">>>(out, offsets[v], count);\n"
         "    }\n"
         "  }\n"
         "}\n";
}

const char *dpo::quickstartVmSource() {
  return R"(
__global__ void child(int *data, int base, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count) {
    data[base + i] = base + i * 2;
  }
}
__global__ void parent(int *data, int *counts, int *offsets, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(data, offsets[v], count);
    }
  }
}
)";
}

VmWorkload dpo::makeNestedVmWorkload(std::string Name,
                                     std::vector<NestedBatch> Batches,
                                     uint32_t ChildBlockDim) {
  VmWorkload W;
  W.Name = std::move(Name);
  W.Source = nestedVmSource(ChildBlockDim);
  W.Batches = std::move(Batches);
  return W;
}

VmWorkload dpo::canonicalTuneWorkload(unsigned Seed) {
  return makeNestedVmWorkload("canonical", makeSkewedBatches(4, 20000, Seed));
}

std::vector<NestedBatch> dpo::makeSkewedBatches(unsigned NumBatches,
                                                unsigned ParentsPerBatch,
                                                unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<double> U(0.0, 1.0);
  std::vector<NestedBatch> Batches(NumBatches);
  for (NestedBatch &B : Batches) {
    B.NumParentThreads = ParentsPerBatch;
    B.ChildUnits.resize(ParentsPerBatch);
    for (uint32_t &Units : B.ChildUnits) {
      double X = U(Rng);
      Units = X < 0.4 ? 0 : X < 0.9 ? (1 + Rng() % 24) : (64 + Rng() % 1000);
    }
  }
  return Batches;
}
