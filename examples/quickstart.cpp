//===--- quickstart.cpp - 60-second tour of the framework ----------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transforms a small CUDA program with all three optimizations
/// (thresholding + coarsening + aggregation, the Fig. 8 pipeline), prints
/// the generated source, then proves on the bytecode VM that the
/// transformed program computes exactly what the original computes.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/VM.h"

#include <cstdio>

using namespace dpo;

static const char *Source = R"(
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

int main() {
  // 1. Compile the Fig. 8(a) pipeline straight to VM bytecode, keeping the
  // generated source to show. Knobs are spelled as literals instead of
  // macros so the VM can run the result.
  DiagnosticEngine Diags;
  std::string Transformed;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, "threshold[64],coarsen[4],aggregate[multiblock:8]",
      literalKnobConfig(), VmCompileOptions(), Diags, &Transformed);
  if (!Program) {
    std::fprintf(stderr, "transformation failed:\n%s", Diags.str().c_str());
    return 1;
  }
  std::printf("=== transformed source (T=64, C=4, A=multi-block/8) ===\n%s\n",
              Transformed.c_str());

  // 2. Execute both versions on the bytecode VM and compare.
  auto RunVersion = [&Diags](std::unique_ptr<Device> Dev,
                             bool Wrapper) -> std::vector<int32_t> {
    if (!Dev) {
      std::fprintf(stderr, "VM build failed:\n%s", Diags.str().c_str());
      return {};
    }
    std::vector<int32_t> Counts = {3, 0, 100, 7, 45, 0, 260, 1};
    std::vector<int32_t> Offsets(8), Data;
    int Total = 0;
    for (int I = 0; I < 8; ++I) {
      Offsets[I] = Total;
      Total += Counts[I];
    }
    uint64_t DataA = Dev->alloc(Total * 4);
    uint64_t CountsA = Dev->allocI32(Counts);
    uint64_t OffsetsA = Dev->allocI32(Offsets);
    bool Ok;
    if (Wrapper) {
      // The aggregation pass generated `parent_agg(grid, block, args...)`.
      Ok = Dev->callHost("parent_agg", {1, 1, 1, 8, 1, 1, (int64_t)DataA,
                                        (int64_t)CountsA, (int64_t)OffsetsA,
                                        8});
    } else {
      Ok = Dev->launchKernel("parent", {1, 1, 1}, {8, 1, 1},
                             {(int64_t)DataA, (int64_t)CountsA,
                              (int64_t)OffsetsA, 8});
    }
    if (!Ok) {
      std::fprintf(stderr, "VM run failed: %s\n", Dev->error().c_str());
      return {};
    }
    std::printf("  dynamic launches performed: %llu\n",
                (unsigned long long)Dev->stats().DeviceLaunches);
    return Dev->readI32Array(DataA, Total);
  };

  std::printf("=== original on the VM ===\n");
  std::vector<int32_t> Ref = RunVersion(buildDevice(Source, Diags),
                                        /*Wrapper=*/false);
  std::printf("=== transformed on the VM ===\n");
  std::vector<int32_t> Opt =
      RunVersion(std::make_unique<Device>(std::move(*Program)),
                 /*Wrapper=*/true);

  if (Ref.empty() || Ref != Opt) {
    std::printf("MISMATCH\n");
    return 1;
  }
  std::printf("results identical across %zu output elements — the "
              "transformed program is semantically equivalent.\n",
              Ref.size());
  return 0;
}
