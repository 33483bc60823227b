//===--- Differential.cpp -------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "workloads/Differential.h"

#include "transform/Pipeline.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace dpo;

namespace {

/// The parent launch shape for one program (the wrapper routing itself
/// lives in launchWorkloadParent, shared with the empirical tuner).
struct ParentEntry {
  uint32_t ParentBlockDim = 128;
};

bool launchParent(Device &Dev, const ParentEntry &E, uint32_t NumParents,
                  const std::vector<int64_t> &Args, std::string &Error) {
  if (launchWorkloadParent(Dev, "parent", NumParents, E.ParentBlockDim, Args))
    return true;
  Error = "parent launch failed: " + Dev.error();
  return false;
}

//===----------------------------------------------------------------------===//
// Per-benchmark drivers. Each mirrors its native reference's host loop
// (round structure, termination conditions, reduction order) while the
// VM kernels do the per-round work — including producing the next
// frontier/worklist, so the rounds themselves are VM-computed state.
//===----------------------------------------------------------------------===//

bool driveBfs(Device &Dev, const KernelImage &Img, const ParentEntry &E,
              WorkloadOutput &P, std::string &Error) {
  uint64_t Cur = Img.Frontier, Nxt = Img.Next;
  uint32_t NumF = 1; // staged frontier: the source vertex
  for (uint32_t Round = 0; NumF > 0; ++Round) {
    if (Round > Img.NumParents) {
      Error = "BFS did not terminate";
      return false;
    }
    Dev.writeI32(Img.NextSize, 0);
    if (!launchParent(Dev, E,
                      NumF, kernelParentArgs(Img, Cur, Nxt, NumF, Round),
                      Error))
      return false;
    NumF = (uint32_t)Dev.readI32(Img.NextSize);
    std::swap(Cur, Nxt);
  }
  std::vector<int32_t> Levels = Dev.readI32Array(Img.Levels, Img.NumParents);
  P.Levels.resize(Levels.size());
  for (size_t V = 0; V < Levels.size(); ++V)
    P.Levels[V] = Levels[V] < 0 ? UnreachedLevel : (uint32_t)Levels[V];
  return true;
}

bool driveSssp(Device &Dev, const KernelImage &Img, const ParentEntry &E,
               WorkloadOutput &P, std::string &Error) {
  uint64_t Cur = Img.Frontier, Nxt = Img.Next;
  uint32_t NumF = 1;
  unsigned Iterations = 0;
  const unsigned MaxIterations = 4000; // the native reference's cap
  while (NumF > 0 && Iterations++ < MaxIterations) {
    // The native loop clears every worklist member's in-list flag before
    // any relaxation; mirroring that here keeps re-queueing exact even
    // when thresholding interleaves serialized relaxations.
    std::vector<int32_t> Members = Dev.readI32Array(Cur, NumF);
    for (int32_t M : Members)
      Dev.writeI32(Img.InList + (uint64_t)M * 4, 0);
    Dev.writeI32(Img.NextSize, 0);
    if (!launchParent(Dev, E,
                      NumF, kernelParentArgs(Img, Cur, Nxt, NumF, 0), Error))
      return false;
    NumF = (uint32_t)Dev.readI32(Img.NextSize);
    std::swap(Cur, Nxt);
  }
  std::vector<int64_t> Dist = Dev.readI64Array(Img.Dist, Img.NumParents);
  P.Dist.resize(Dist.size());
  for (size_t V = 0; V < Dist.size(); ++V)
    P.Dist[V] = Dist[V] == kernelInf64() ? InfDist : (uint64_t)Dist[V];
  return true;
}

bool driveMstf(Device &Dev, const KernelImage &Img, const ParentEntry &E,
               WorkloadOutput &P, std::string &Error) {
  uint32_t NumV = Img.NumParents;
  std::vector<uint32_t> Comp(NumV), Active(NumV);
  for (uint32_t V = 0; V < NumV; ++V)
    Comp[V] = Active[V] = V;
  auto Find = [&](uint32_t V) {
    while (Comp[V] != V) {
      Comp[V] = Comp[Comp[V]]; // path halving, as the native reference
      V = Comp[V];
    }
    return V;
  };

  std::vector<int32_t> RowPtrHost, ColHost;
  // The still-active recomputation needs host-side adjacency; read the
  // staged CSR back once (it is the dataset, unmodified).
  RowPtrHost = Dev.readI32Array(Img.RowPtr, NumV + 1);
  ColHost = Dev.readI32Array(Img.Col, Img.NumEdges);

  for (unsigned Round = 0; Round < 64; ++Round) {
    // Stage the round: fully-compressed components, reset best keys,
    // current active list.
    std::vector<int32_t> CompC(NumV);
    for (uint32_t V = 0; V < NumV; ++V)
      CompC[V] = (int32_t)Find(V);
    Dev.writeI32Array(Img.Comp, CompC);
    Dev.fillI64(Img.Best, NumV, kernelInf64());
    std::vector<int32_t> ActiveI(Active.begin(), Active.end());
    Dev.writeI32Array(Img.Active, ActiveI);

    if (!launchParent(Dev, E, (uint32_t)Active.size(),
                      kernelParentArgs(Img, 0, 0, (uint32_t)Active.size(), 0),
                      Error))
      return false;

    std::vector<int64_t> Best = Dev.readI64Array(Img.Best, NumV);
    bool AnyCandidate = false;
    for (int64_t Key : Best)
      if (Key != kernelInf64())
        AnyCandidate = true;
    if (!AnyCandidate) // native: Cheapest.empty()
      break;

    bool Merged = false;
    for (uint32_t R = 0; R < NumV; ++R) {
      int64_t Key = Best[R];
      if (Key == kernelInf64())
        continue;
      uint32_t Mx = (uint32_t)(Key & 0xFFFFF);
      uint32_t Mn = (uint32_t)((Key >> 20) & 0xFFFFF);
      uint32_t W = (uint32_t)(Key >> 40);
      uint32_t RU = Find(Mn);
      uint32_t RV = Find(Mx);
      if (RU == RV)
        continue;
      Comp[std::max(RU, RV)] = std::min(RU, RV);
      P.MstWeight += W;
      Merged = true;
    }
    if (!Merged)
      break;

    std::vector<uint32_t> StillActive;
    for (uint32_t U : Active) {
      uint32_t CU = Find(U);
      bool HasOut = false;
      for (int32_t EIdx = RowPtrHost[U]; EIdx < RowPtrHost[U + 1] && !HasOut;
           ++EIdx)
        HasOut = Find((uint32_t)ColHost[EIdx]) != CU;
      if (HasOut)
        StillActive.push_back(U);
    }
    if (StillActive.empty())
      break;
    Active.swap(StillActive);
  }
  return true;
}

bool driveMstv(Device &Dev, const KernelImage &Img, const ParentEntry &E,
               WorkloadOutput &P, std::string &Error) {
  if (!launchParent(Dev, E, Img.NumParents,
                    kernelParentArgs(Img, 0, 0, Img.NumParents, 0), Error))
    return false;
  std::vector<int32_t> MinW = Dev.readI32Array(Img.MinW, Img.NumParents);
  double Sum = 0;
  for (int32_t W : MinW)
    if (W != std::numeric_limits<int32_t>::max())
      Sum += (uint32_t)W;
  P.CheckSum = Sum;
  return true;
}

bool driveTc(Device &Dev, const KernelImage &Img, const ParentEntry &E,
             WorkloadOutput &P, std::string &Error) {
  if (!launchParent(Dev, E, Img.NumParents,
                    kernelParentArgs(Img, 0, 0, Img.NumParents, 0), Error))
    return false;
  P.TriangleCount = (uint64_t)Dev.readI64(Img.Tri);
  return true;
}

bool driveSp(Device &Dev, const KernelImage &Img, const ParentEntry &E,
             WorkloadOutput &P, std::string &Error) {
  uint64_t Bias = Img.Bias, NextBias = Img.NextBias;
  double MaxDelta = 1.0;
  const unsigned MaxIters = 24; // runSurveyProp's default
  for (unsigned Iter = 0; Iter < MaxIters && MaxDelta > 1e-3; ++Iter) {
    if (!launchParent(Dev, E, Img.NumParents,
                      kernelParentArgs(Img, Bias, 0, Img.NumParents, 0),
                      Error))
      return false;
    if (!Dev.launchKernel(
            "update", {(Img.NumParents + 127) / 128, 1, 1}, {128, 1, 1},
            {(int64_t)Img.OccRow, (int64_t)Bias, (int64_t)NextBias,
             (int64_t)Img.Delta, (int64_t)Img.Term, (int64_t)Img.K,
             (int64_t)Img.NumParents})) {
      Error = "update launch failed: " + Dev.error();
      return false;
    }
    std::vector<double> Delta = Dev.readF64Array(Img.Delta, Img.NumParents);
    MaxDelta = 0;
    for (double D : Delta)
      MaxDelta = std::max(MaxDelta, D);
    std::swap(Bias, NextBias);
  }
  P.Converged = MaxDelta <= 1e-3;
  std::vector<double> Final = Dev.readF64Array(Bias, Img.NumParents);
  double Sum = 0;
  for (double B : Final)
    Sum += B;
  P.CheckSum = Sum;
  return true;
}

bool driveBt(Device &Dev, const KernelImage &Img, const ParentEntry &E,
             WorkloadOutput &P, std::string &Error) {
  if (!launchParent(Dev, E, Img.NumParents,
                    kernelParentArgs(Img, 0, 0, Img.NumParents, 0), Error))
    return false;
  std::vector<double> Points = Dev.readF64Array(Img.Out, Img.TotalPoints);
  double Sum = 0;
  for (double V : Points)
    Sum += V;
  P.CheckSum = Sum;
  return true;
}

bool bitIdentical(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

} // namespace

DifferentialRun dpo::runKernelCaseOnVm(const KernelCase &Case,
                                       std::string_view PipelineText,
                                       bool OptimizeBytecode,
                                       uint64_t MemoryBytes,
                                       unsigned Workers, ExecMode Mode,
                                       const LaunchProfile *ProfileIn,
                                       LaunchProfile *ProfileOut) {
  DifferentialRun R;
  DiagnosticEngine Diags;
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = OptimizeBytecode;
  std::optional<VmProgram> Program =
      compileWithPipeline(Case.source(), PipelineText,
                          literalKnobConfig(ProfileIn), Opts, Diags,
                          &R.TransformedSource);
  if (!Program) {
    R.Error = "compile of pipeline '" + std::string(PipelineText) +
              "' failed: " + Diags.str();
    return R;
  }
  DifferentialRun Run = runKernelCaseOnVmProgram(
      Case, std::move(*Program), MemoryBytes, Workers, Mode,
      /*CaptureGridLog=*/false, ProfileOut);
  Run.TransformedSource = std::move(R.TransformedSource);
  return Run;
}

DifferentialRun dpo::runKernelCaseOnVmProgram(const KernelCase &Case,
                                              VmProgram Program,
                                              uint64_t MemoryBytes,
                                              unsigned Workers, ExecMode Mode,
                                              bool CaptureGridLog,
                                              LaunchProfile *ProfileOut) {
  DifferentialRun R;
  auto Dev = std::make_unique<Device>(std::move(Program), MemoryBytes, Mode);
  if (Workers)
    Dev->setWorkers(Workers);
  if (ProfileOut || CaptureGridLog)
    Dev->setGridLogEnabled(true);

  std::string StageError;
  KernelImage Img = stageKernelCase(*Dev, Case, &StageError);
  if (!StageError.empty() || !Dev->error().empty()) {
    R.Error = "dataset staging failed: " +
              (StageError.empty() ? Dev->error() : StageError);
    return R;
  }

  ParentEntry E;
  E.ParentBlockDim = kernelParentBlockDim(Case.Bench);

  bool Ok = false;
  switch (Case.Bench) {
  case BenchmarkId::BFS: Ok = driveBfs(*Dev, Img, E, R.Payload, R.Error); break;
  case BenchmarkId::SSSP: Ok = driveSssp(*Dev, Img, E, R.Payload, R.Error); break;
  case BenchmarkId::MSTF: Ok = driveMstf(*Dev, Img, E, R.Payload, R.Error); break;
  case BenchmarkId::MSTV: Ok = driveMstv(*Dev, Img, E, R.Payload, R.Error); break;
  case BenchmarkId::TC: Ok = driveTc(*Dev, Img, E, R.Payload, R.Error); break;
  case BenchmarkId::SP: Ok = driveSp(*Dev, Img, E, R.Payload, R.Error); break;
  case BenchmarkId::BT: Ok = driveBt(*Dev, Img, E, R.Payload, R.Error); break;
  }
  if (!Ok)
    return R;

  R.Stats = Dev->stats();
  if (CaptureGridLog)
    R.GridLog = Dev->gridLog();
  if (ProfileOut)
    *ProfileOut = harvestProfile(Dev->gridLog(), Dev->program());
  R.Ok = true;
  return R;
}

bool dpo::payloadsMatch(BenchmarkId Bench, const WorkloadOutput &Native,
                        const WorkloadOutput &Vm, std::string &Why) {
  auto CheckSumMatch = [&](const char *What) {
    if (bitIdentical(Native.CheckSum, Vm.CheckSum))
      return true;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s checksum differs: native %.17g vs VM %.17g", What,
                  Native.CheckSum, Vm.CheckSum);
    Why = Buf;
    return false;
  };

  switch (Bench) {
  case BenchmarkId::BFS:
    if (Native.Levels.size() != Vm.Levels.size()) {
      Why = "level array size differs";
      return false;
    }
    for (size_t V = 0; V < Native.Levels.size(); ++V)
      if (Native.Levels[V] != Vm.Levels[V]) {
        Why = "level of vertex " + std::to_string(V) + " differs: native " +
              std::to_string(Native.Levels[V]) + " vs VM " +
              std::to_string(Vm.Levels[V]);
        return false;
      }
    return true;
  case BenchmarkId::SSSP:
    if (Native.Dist.size() != Vm.Dist.size()) {
      Why = "distance array size differs";
      return false;
    }
    for (size_t V = 0; V < Native.Dist.size(); ++V)
      if (Native.Dist[V] != Vm.Dist[V]) {
        Why = "distance of vertex " + std::to_string(V) +
              " differs: native " + std::to_string(Native.Dist[V]) +
              " vs VM " + std::to_string(Vm.Dist[V]);
        return false;
      }
    return true;
  case BenchmarkId::MSTF:
    if (Native.MstWeight != Vm.MstWeight) {
      Why = "MST weight differs: native " + std::to_string(Native.MstWeight) +
            " vs VM " + std::to_string(Vm.MstWeight);
      return false;
    }
    return true;
  case BenchmarkId::MSTV:
    return CheckSumMatch("MSTV");
  case BenchmarkId::TC:
    if (Native.TriangleCount != Vm.TriangleCount) {
      Why = "triangle count differs: native " +
            std::to_string(Native.TriangleCount) + " vs VM " +
            std::to_string(Vm.TriangleCount);
      return false;
    }
    return true;
  case BenchmarkId::SP:
    if (Native.Converged != Vm.Converged) {
      Why = "SP convergence flag differs";
      return false;
    }
    return CheckSumMatch("SP");
  case BenchmarkId::BT:
    return CheckSumMatch("BT");
  }
  Why = "unknown benchmark";
  return false;
}

const std::vector<std::string> &dpo::differentialPipelines() {
  static const std::vector<std::string> Pipelines = {
      "", // untransformed lowering
      // Thresholding across its range (never / mid / always serialize).
      "threshold[4]",
      "threshold[64]",
      "threshold[1000000]",
      // Coarsening factors.
      "coarsen[2]",
      "coarsen[8]",
      // Every aggregation granularity, plus the Section V-B
      // participation threshold.
      "aggregate[warp]",
      "aggregate[block]",
      "aggregate[multiblock:4]",
      "aggregate[grid]",
      "aggregate[block:agg-threshold=2]",
      // Paper-ordered combinations (Fig. 8(a)).
      "threshold[32],coarsen[4]",
      "threshold[32],aggregate[multiblock:8]",
      "coarsen[4],aggregate[block]",
      "threshold[32],coarsen[2],aggregate[multiblock:4]",
      "threshold[16],coarsen[4],aggregate[grid]",
      // A reversed ordering only spellable through -passes= (reversed
      // orderings caught the serializer's loop-variable capture bug).
      "coarsen[2],threshold[32]",
      // Repeated application: the second coarsening must detect the
      // already-coarsened kernel and stay semantics-preserving.
      "coarsen[2],coarsen[2]",
      // Speculative serialization: a tiny bound (guard almost always
      // fails, fallback launch path), a huge bound (guard always passes,
      // serialized path), and the composition after thresholding.
      "speculate[4]",
      "speculate[1000000]",
      "threshold[32],speculate[64]",
  };
  return Pipelines;
}
