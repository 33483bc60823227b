//===--- Nested.cpp - Nested-launch programs and Table I kernel runs ------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The device half of a request, shared by the workloads: running a
/// nested-launch program on a skewed input (interactive, tune) and running
/// a Table I kernel case (table1, tune), each checked against a reference
/// the benchmark computes natively.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/VmWorkload.h"

using namespace dpo;
using namespace e2e;

namespace {

/// The quickstart example's program.
const char *QuickstartSource = R"(
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

constexpr uint32_t ParentBlockDim = 64;

} // namespace

const std::string &e2e::nestedSource(unsigned Index) {
  static const std::string Sources[2] = {QuickstartSource, nestedVmSource(32)};
  return Sources[Index];
}

NestedInput e2e::makeNestedInput(Rng &R, uint32_t NumV) {
  NestedInput In;
  In.Counts.resize(NumV);
  In.Offsets.resize(NumV);
  int32_t Total = 0;
  for (uint32_t V = 0; V < NumV; ++V) {
    uint64_t X = R() % 100;
    int32_t C = X < 40 ? 0
                : X < 90 ? 1 + (int32_t)(R() % 24)
                         : 64 + (int32_t)(R() % 1000);
    In.Counts[V] = C;
    In.Offsets[V] = Total;
    Total += C;
  }
  if (Total == 0) {
    In.Counts[0] = 1;
    Total = 1;
  }
  for (unsigned S = 0; S < 2; ++S) {
    std::vector<int32_t> &E = In.Expected[S];
    E.assign(Total, 0);
    for (uint32_t V = 0; V < NumV; ++V)
      for (int32_t I = 0; I < In.Counts[V]; ++I) {
        int32_t Base = In.Offsets[V];
        E[Base + I] = S == 0 ? Base + I * 2 : Base * 7 + I * 3 + In.Counts[V];
      }
  }
  return In;
}

bool e2e::runNested(Context &Ctx, VmProgram P, const NestedInput &In,
                    unsigned Src, uint64_t MemoryBytes, double *ModelUs,
                    std::string &Why) {
  std::unique_ptr<Device> Dev = buildDevice(Ctx, std::move(P), MemoryBytes);
  if (ModelUs)
    Dev->setGridLogEnabled(true);
  uint32_t NumV = (uint32_t)In.Counts.size();
  size_t Total = In.Expected[Src].size();
  uint64_t OutA, CountsA, OffsetsA;
  {
    Tracer::Scope S(Ctx.Trace, "vm.stage");
    OutA = Dev->alloc(Total * 4);
    CountsA = Dev->allocI32(In.Counts);
    OffsetsA = Dev->allocI32(In.Offsets);
  }
  Ctx.count("vm.stage.bytes", (double)(Total + 2 * NumV) * 4);
  bool Ok;
  {
    Tracer::Scope S(Ctx.Trace, "vm.exec");
    Ok = launchWorkloadParent(*Dev, "parent", NumV, ParentBlockDim,
                              {(int64_t)OutA, (int64_t)CountsA,
                               (int64_t)OffsetsA, (int64_t)NumV});
  }
  if (!Ok || !Dev->error().empty()) {
    Why = "launch failed: " + Dev->error();
    return false;
  }
  std::vector<int32_t> Out;
  {
    Tracer::Scope S(Ctx.Trace, "vm.readback");
    Out = Dev->readI32Array(OutA, Total);
  }
  countExec(Ctx, Dev->stats());
  if (ModelUs)
    *ModelUs = modelGpuUs(Dev->gridLog(), Dev->stats());
  {
    Tracer::Scope S(Ctx.Trace, "vm.device_free");
    Dev.reset();
  }
  if (Out != In.Expected[Src]) {
    Why = "output differs from the native expectation";
    return false;
  }
  return true;
}

DifferentialRun e2e::runKernelCase(Context &Ctx, const KernelCase &Case,
                                   VmProgram P, uint64_t MemoryBytes,
                                   bool GridLog) {
  DifferentialRun Run;
  {
    Tracer::Scope S(Ctx.Trace, "vm.run_case");
    Run = runKernelCaseOnVmProgram(Case, std::move(P), MemoryBytes,
                                   /*Workers=*/1, ExecMode::Auto, GridLog);
  }
  Ctx.count("vm.device_build.bytes", (double)MemoryBytes);
  countExec(Ctx, Run.Stats);
  return Run;
}

bool e2e::checkKernelRun(const KernelCase &Case, const WorkloadOutput &Ref,
                         const DifferentialRun &Run, std::string &Why) {
  if (!Run.Ok) {
    Why = Case.Name + ": " + Run.Error;
    return false;
  }
  std::string Diff;
  if (!payloadsMatch(Case.Bench, Ref, Run.Payload, Diff)) {
    Why = Case.Name + ": " + Diff;
    return false;
  }
  return true;
}
