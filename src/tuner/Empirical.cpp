//===--- Empirical.cpp ----------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tuner/Empirical.h"

#include "profile/Profile.h"
#include "support/Parallel.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <limits>
#include <random>

using namespace dpo;

const char *dpo::tuneModeName(TuneMode Mode) {
  switch (Mode) {
  case TuneMode::Analytic:
    return "analytic";
  case TuneMode::Empirical:
    return "empirical";
  case TuneMode::Hybrid:
    return "hybrid";
  }
  return "?";
}

bool dpo::parseTuneMode(std::string_view Text, TuneMode &Out) {
  if (Text == "analytic")
    Out = TuneMode::Analytic;
  else if (Text == "empirical")
    Out = TuneMode::Empirical;
  else if (Text == "hybrid")
    Out = TuneMode::Hybrid;
  else
    return false;
  return true;
}

double dpo::measuredMakespanCycles(const std::vector<GridRecord> &Grids,
                                   const VmStats &Stats, const GpuModel &Gpu) {
  auto UsToCycles = [&](double Us) { return Us * Gpu.ClockGHz * 1e3; };

  // Per-grid: measured work spread over the threads that can actually be
  // resident, floored by the measured slowest thread (divergence — where
  // thresholding's serial loops land).
  double RootCycles = 0;
  double ChildWork = 0, ChildLatency = 0, ChildCrit = 0;
  uint64_t TotalBlocks = 0;
  for (const GridRecord &G : Grids) {
    TotalBlocks += G.Blocks;
    uint32_t BlockDim = std::max(1u, G.BlockDim);
    uint64_t ResidentBlocks =
        (uint64_t)Gpu.NumSMs *
        std::min<uint64_t>(Gpu.MaxBlocksPerSM,
                           std::max(1u, Gpu.MaxThreadsPerSM / BlockDim));
    double Resident =
        (double)std::min<uint64_t>(G.Threads, ResidentBlocks * BlockDim);
    double GridCycles = std::max((double)G.Steps / std::max(1.0, Resident),
                                 (double)G.MaxThreadSteps);
    if (G.FromHost) {
      RootCycles += GridCycles;
    } else {
      ChildWork += (double)G.Steps;
      ChildLatency += GridCycles;
      ChildCrit = std::max(ChildCrit, GridCycles);
    }
  }

  // Child grids run concurrently: work-limited on the whole device,
  // dispatch-limited by the concurrent-grid slots, floored by the slowest
  // single grid (the simulator's max(...) structure, with measured terms).
  double DeviceLanes = (double)Gpu.NumSMs * Gpu.MaxThreadsPerSM;
  double ChildCycles = std::max(
      {ChildWork / DeviceLanes,
       ChildLatency / std::max(1u, Gpu.MaxConcurrentGrids), ChildCrit});

  // Launch subsystem: per-launch service (mostly hidden under the parent),
  // congestion past the queue's knee, host round trips, block dispatch.
  double DeviceLaunchCycles =
      (Gpu.LaunchIssueCycles + UsToCycles(Gpu.LaunchServiceUs)) *
      (1.0 - Gpu.LaunchOverlapFraction) * (double)Stats.DeviceLaunches;
  if (Stats.DeviceLaunches)
    DeviceLaunchCycles += UsToCycles(Gpu.LaunchBaseLatencyUs);
  double K = (double)Stats.DeviceLaunches / 1000.0;
  DeviceLaunchCycles += UsToCycles(Gpu.LaunchCongestionQuadUs) * K * K;
  double HostLaunchCycles =
      UsToCycles(Gpu.HostLaunchOverheadUs) * (double)Stats.HostLaunches;
  double DispatchCycles = UsToCycles(Gpu.BlockDispatchUs) * (double)TotalBlocks;

  return RootCycles + ChildCycles + DeviceLaunchCycles + HostLaunchCycles +
         DispatchCycles;
}

//===----------------------------------------------------------------------===//
// EmpiricalEvaluator
//===----------------------------------------------------------------------===//

EmpiricalEvaluator::EmpiricalEvaluator(const GpuModel &Gpu, VmWorkload W,
                                       EmpiricalOptions Options)
    : Gpu(Gpu), Workload(std::move(W)), Opts(Options) {
  // Sample the heaviest batches (they dominate the makespan and exhibit
  // the child-size skew the optimizations target), kept in stream order.
  std::vector<size_t> Order(Workload.Batches.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Workload.Batches[A].totalChildUnits() >
           Workload.Batches[B].totalChildUnits();
  });
  if (Order.size() > Opts.SampleBatches)
    Order.resize(std::max(1u, Opts.SampleBatches));
  std::sort(Order.begin(), Order.end());

  // Enforce the unit cap by truncating parents, spreading it evenly so the
  // sample keeps its batch count (successive halving needs real rungs).
  // Per-parent child sizes are untouched, so thresholding/aggregation
  // behavior on the sample matches the full stream's character.
  uint64_t MaxUnits = Opts.MaxSampleUnits;
  if (Workload.SampleUnitCap)
    MaxUnits = std::min(MaxUnits, Workload.SampleUnitCap);
  uint64_t PerBatchCap =
      std::max<uint64_t>(1, MaxUnits / std::max<size_t>(1, Order.size()));
  for (size_t Idx : Order) {
    NestedBatch B = Workload.Batches[Idx];
    uint64_t Units = 0;
    size_t Keep = 0;
    for (; Keep < B.ChildUnits.size(); ++Keep) {
      if (Units >= PerBatchCap && Keep > 0)
        break;
      Units += B.ChildUnits[Keep];
    }
    if (Keep == 0)
      continue;
    B.ChildUnits.resize(Keep);
    B.NumParentThreads = (uint32_t)Keep;
    Sample.push_back(std::move(B));
    SampleIndex.push_back((unsigned)Idx);
  }
}

uint64_t EmpiricalEvaluator::sampleUnits(unsigned Resource) const {
  uint64_t Units = 0;
  for (unsigned I = 0; I < Resource && I < Sample.size(); ++I)
    Units += Sample[I].totalChildUnits();
  return Units;
}

const VmProgram *EmpiricalEvaluator::programFor(const std::string &Pipeline) {
  auto It = Programs.find(Pipeline);
  if (It != Programs.end())
    return &It->second;
  if (FailedPipelines.count(Pipeline)) {
    LastError = "pipeline '" + Pipeline + "' failed earlier (cached)";
    return nullptr;
  }

  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      Workload.Source, Pipeline, literalKnobConfig(Profile), VmCompileOptions(),
      Diags);
  if (!Program) {
    LastError =
        "compile of pipeline '" + Pipeline + "' failed: " + Diags.str();
    FailedPipelines.insert(Pipeline);
    return nullptr;
  }
  ++Compiles;
  return &Programs.emplace(Pipeline, std::move(*Program)).first->second;
}

bool EmpiricalEvaluator::openDevice(const VmProgram &Program, Session &S,
                                    std::string &Err) const {
  S = Session();
  // Measurements run the decoded engine every caller runs. The scores are
  // engine-independent anyway: the bytecode reference retires identical
  // Steps, GridRecords, and launch counts (decode fusions and traces
  // carry the step cost of what they replace), so measuredMakespanCycles
  // prices the same work either way.
  auto Dev = std::make_unique<Device>(
      Program, std::max(Opts.VmMemoryBytes, Workload.MinMemoryBytes));
  // Measurement devices stay single-worker regardless of DPO_VM_WORKERS:
  // racy kernels (BFS/SSSP frontier CAS) retire worker-count-dependent
  // step totals, and tuned tables are committed against the sequential
  // counts. The tuner's parallelism is across candidates (measureAll's
  // waves), not inside one measurement. One worker is also what makes a
  // resumed session equal a fresh run.
  Dev->setWorkers(1);
  Dev->setStepLimit(Opts.VmStepLimit);
  Dev->setGridLogEnabled(true);

  if (Workload.Binding) {
    std::string SetupError;
    S.Binding = Workload.Binding->setup(*Dev, SetupError);
    if (!S.Binding) {
      Err = "workload binding setup failed: " + SetupError;
      return false;
    }
    // The staging runs outside the measurement: only the rounds below
    // count.
    Dev->resetStats();
    Dev->clearGridLog();
  }
  S.Dev = std::move(Dev);
  return true;
}

bool EmpiricalEvaluator::advance(const VmProgram &Program,
                                 const std::string &Pipeline, Session &S,
                                 unsigned Rounds, std::string &Err) const {
  if (S.resumeFrom(Rounds) == 0 && !openDevice(Program, S, Err))
    return false;
  for (; S.Rounds < Rounds; ++S.Rounds) {
    std::string RoundErr;
    if (!runSampleRound(S, S.Rounds, RoundErr)) {
      Err = "VM run of pipeline '" + Pipeline + "' failed in round " +
            std::to_string(S.Rounds) + ": " + RoundErr;
      S = Session();
      return false;
    }
  }
  return true;
}

void EmpiricalEvaluator::run(Run &R, unsigned Resource) const {
  R.FromRound = R.S.resumeFrom(Resource);
  R.Ok = advance(*R.Program, R.Pipeline, R.S, Resource, R.Error);
  if (R.Ok)
    R.M = fillMeasurement(*R.S.Dev, Resource);
  // A full-sample device has nothing left to resume.
  if (Resource == maxResource())
    R.S = Session();
}

bool EmpiricalEvaluator::runSampleRound(Session &S, unsigned I,
                                        std::string &Err) const {
  Device &Dev = *S.Dev;
  const NestedBatch &B = Sample[I];
  std::vector<int64_t> Args;
  int64_t NumV = (int64_t)B.ChildUnits.size();
  if (Workload.Binding) {
    Args = Workload.Binding->argsFor(Dev, *S.Binding, B, SampleIndex[I]);
  } else {
    std::vector<int32_t> Counts(B.ChildUnits.size());
    std::vector<int32_t> Offsets(B.ChildUnits.size());
    int64_t Total = 0;
    for (size_t V = 0; V < B.ChildUnits.size(); ++V) {
      Offsets[V] = (int32_t)Total;
      Counts[V] = (int32_t)std::min<uint32_t>(
          B.ChildUnits[V], (uint32_t)std::numeric_limits<int32_t>::max());
      Total += Counts[V];
    }
    uint64_t OutA = Dev.alloc((uint64_t)std::max<int64_t>(1, Total) * 4);
    uint64_t CountsA = Dev.allocI32(Counts);
    uint64_t OffsetsA = Dev.allocI32(Offsets);
    Args = {(int64_t)OutA, (int64_t)CountsA, (int64_t)OffsetsA, NumV};
  }
  if (!launchWorkloadParent(Dev, Workload.ParentKernel, (uint32_t)NumV,
                            B.ParentBlockDim, Args)) {
    Err = Dev.error();
    return false;
  }
  return true;
}

VmMeasurement EmpiricalEvaluator::fillMeasurement(const Device &Dev,
                                                  unsigned Rounds) const {
  const VmStats &S = Dev.stats();
  VmMeasurement Out;
  Out.Steps = S.Steps;
  Out.DeviceLaunches = S.DeviceLaunches;
  Out.HostLaunches = S.HostLaunches;
  Out.BlocksExecuted = S.BlocksExecuted;
  Out.ThreadsExecuted = S.ThreadsExecuted;
  Out.GridsLaunched = S.GridsLaunched;
  Out.BatchesRun = Rounds;
  Out.Cycles = measuredMakespanCycles(Dev.gridLog(), S, Gpu);
  Out.TracesFormed = Dev.decodeStats().TracesFormed;
  Out.TraceEntries = S.TraceEntries;
  Out.TraceIters = S.TraceIters;
  Out.TraceSideExits = S.TraceSideExits;
  Out.SpecGuardPass = S.SpecGuardPass;
  Out.SpecGuardFail = S.SpecGuardFail;
  return Out;
}

std::optional<VmMeasurement>
EmpiricalEvaluator::measurePipeline(const std::string &PipelineText,
                                    LaunchProfile *ProfileOut) {
  const VmProgram *Program = programFor(PipelineText);
  if (!Program)
    return std::nullopt;
  Session S;
  if (!advance(*Program, PipelineText, S, maxResource(), LastError))
    return std::nullopt;
  if (ProfileOut)
    *ProfileOut = harvestProfile(S.Dev->gridLog(), S.Dev->program());
  return fillMeasurement(*S.Dev, maxResource());
}

void EmpiricalEvaluator::retainSessions(
    const std::vector<ExecConfig> &Survivors) {
  std::set<std::string> Keep;
  for (const ExecConfig &C : Survivors)
    Keep.insert(passPipelineTextFor(C));
  std::erase_if(Sessions,
                [&](const auto &Entry) { return !Keep.count(Entry.first); });
}

std::optional<VmMeasurement>
EmpiricalEvaluator::measure(const ExecConfig &Config, unsigned Resource) {
  return measureWithin({Config}, Resource,
                       std::numeric_limits<unsigned>::max())
      .front();
}

std::vector<std::optional<VmMeasurement>>
EmpiricalEvaluator::measureWithin(const std::vector<ExecConfig> &Configs,
                                  unsigned Resource, unsigned Budget) {
  std::vector<std::optional<VmMeasurement>> Out;
  if (Sample.empty()) {
    LastError = "workload has no batches to measure";
    Out.resize(Configs.size());
    return Out;
  }
  Resource = std::clamp(Resource, 1u, maxResource());
  const std::string Rung = "|" + std::to_string(Resource);

  // One wave per pass. Every config up to the run that fills the budget's
  // remaining room is one the sequential loop reaches, so compiling them
  // here compiles what it would.
  constexpr size_t NoRun = std::numeric_limits<size_t>::max();
  struct Item {
    std::string Key;
    size_t RunIdx = NoRun; ///< Into Runs; NoRun for a hit or a failure.
    std::string CompileError;
  };
  while (Out.size() < Configs.size() && Evaluations < Budget) {
    std::vector<Item> Items;
    std::vector<Run> Runs;
    for (size_t I = Out.size();
         I < Configs.size() && Runs.size() < Budget - Evaluations; ++I) {
      std::string Pipeline = passPipelineTextFor(Configs[I]);
      Item &It = Items.emplace_back();
      It.Key = Pipeline + Rung;
      if (Cache.count(It.Key))
        continue;
      // A repeated pipeline shares the first one's run: a hit if it
      // succeeded, the same failure if not.
      auto Same = std::find_if(Runs.begin(), Runs.end(), [&](const Run &R) {
        return R.Pipeline == Pipeline;
      });
      if (Same != Runs.end()) {
        It.RunIdx = (size_t)(Same - Runs.begin());
      } else if (const VmProgram *Program = programFor(Pipeline)) {
        It.RunIdx = Runs.size();
        Run &R = Runs.emplace_back();
        R.Program = Program;
        R.Pipeline = std::move(Pipeline);
        if (auto Node = Sessions.extract(R.Pipeline))
          R.S = std::move(Node.mapped());
      } else {
        It.CompileError = LastError;
      }
    }

    parallelFor(Runs.size(),
                resolveWorkers(Opts.EvalWorkers, "DPO_TUNER_WORKERS",
                               hardwareWorkers()),
                [&](size_t I) { run(Runs[I], Resource); });

    // The counter accounting, in config order.
    for (Item &It : Items) {
      if (auto Hit = Cache.find(It.Key); Hit != Cache.end()) {
        ++CacheHits;
        Out.push_back(Hit->second);
        continue;
      }
      Run *R = It.RunIdx == NoRun ? nullptr : &Runs[It.RunIdx];
      if (!R || !R->Ok) {
        LastError = R ? R->Error : It.CompileError;
        Out.push_back(std::nullopt);
        continue;
      }
      ++Evaluations;
      DevicesOpened += R->FromRound == 0;
      RoundsRun += Resource - R->FromRound;
      Cache.emplace(std::move(It.Key), R->M);
      if (R->S.Dev)
        Sessions[R->Pipeline] = std::move(R->S);
      Out.push_back(R->M);
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Search drivers
//===----------------------------------------------------------------------===//

namespace {

/// Seeded Fisher-Yates (spelled out so the order is identical across
/// standard libraries, unlike std::shuffle).
void deterministicShuffle(std::vector<ExecConfig> &Configs, unsigned Seed) {
  std::mt19937 Rng(Seed);
  for (size_t I = Configs.size(); I > 1; --I)
    std::swap(Configs[I - 1], Configs[Rng() % I]);
}

/// The hill-climbing neighborhood: one knob moved one sweep step.
std::vector<ExecConfig> neighborConfigs(const ExecConfig &C,
                                        const VariantMask &Mask) {
  std::vector<ExecConfig> Out;
  auto Push = [&](ExecConfig N) {
    if (!(N == C))
      Out.push_back(N);
  };
  if (Mask.Thresholding) {
    if (C.Threshold) {
      if (*C.Threshold > 1) {
        ExecConfig N = C;
        N.Threshold = *C.Threshold / 2;
        Push(N);
      }
      if (*C.Threshold < 32768) {
        ExecConfig N = C;
        N.Threshold = *C.Threshold * 2;
        Push(N);
      }
      ExecConfig N = C;
      N.Threshold.reset();
      Push(N);
    } else {
      ExecConfig N = C;
      N.Threshold = 128u;
      Push(N);
    }
  }
  if (Mask.Coarsening) {
    if (C.CoarsenFactor > 1) {
      ExecConfig N = C;
      N.CoarsenFactor = C.CoarsenFactor / 2;
      Push(N);
    }
    if (C.CoarsenFactor < 32) {
      ExecConfig N = C;
      N.CoarsenFactor = C.CoarsenFactor * 2;
      Push(N);
    }
  }
  if (Mask.Aggregation) {
    if (C.Agg == AggGranularity::MultiBlock) {
      if (C.AggGroupBlocks > 2) {
        ExecConfig N = C;
        N.AggGroupBlocks = C.AggGroupBlocks / 2;
        Push(N);
      }
      if (C.AggGroupBlocks < 32) {
        ExecConfig N = C;
        N.AggGroupBlocks = C.AggGroupBlocks * 2;
        Push(N);
      }
    }
    for (AggGranularity G : Mask.Granularities) {
      if (G == C.Agg)
        continue;
      ExecConfig N = C;
      N.Agg = G;
      Push(N);
    }
    if (C.Agg != AggGranularity::None) {
      ExecConfig N = C;
      N.Agg = AggGranularity::None;
      Push(N);
    }
  }
  return Out;
}

/// Greedy refinement around \p Result (budget-guarded); updates it in
/// place when a neighbor measures faster at full resource.
void hillClimb(EmpiricalEvaluator &Eval, const VariantMask &Mask,
               EmpiricalTuneResult &Result) {
  unsigned Budget = Eval.options().Budget;
  unsigned MaxRes = Eval.maxResource();
  bool Improved = true;
  while (Improved && Eval.evaluations() < Budget) {
    Improved = false;
    std::vector<ExecConfig> Neighbors = neighborConfigs(Result.Config, Mask);
    std::vector<std::optional<VmMeasurement>> Ms =
        Eval.measureAll(Neighbors, MaxRes);
    for (size_t I = 0; I < Ms.size(); ++I) {
      if (Ms[I] && Ms[I]->Cycles + 1e-9 < Result.Measured.Cycles) {
        Result.Config = Neighbors[I];
        Result.Measured = *Ms[I];
        Improved = true;
      }
    }
  }
}

void finalizeMeasured(EmpiricalEvaluator &Eval, EmpiricalTuneResult &Result) {
  Result.TimeUs = Eval.gpu().cyclesToUs(Result.Measured.Cycles);
  // A budget-exhausted search may leave the winner measured on a rung
  // below the full sample; extrapolate by child units so the headline
  // time stays comparable with full-sample results from other modes.
  if (Result.Measured.BatchesRun < Eval.maxResource()) {
    uint64_t Run = Eval.sampleUnits(Result.Measured.BatchesRun);
    uint64_t All = Eval.sampleUnits(Eval.maxResource());
    if (Run > 0 && All > Run)
      Result.TimeUs *= (double)All / (double)Run;
  }
  Result.VmEvaluations = Eval.evaluations();
  Result.Pipeline = passPipelineTextFor(Result.Config);
}

/// Warm start (opt-in; the service layer's cached/tabled seed): moves the
/// known-good config to the front of \p Configs, so the search measures it
/// first and never does worse than it. Default searches leave WarmStart
/// unset and keep the recorded trajectory bit-for-bit (the bench/tuned/
/// drift gate's contract).
void warmStartFirst(const EmpiricalEvaluator &Eval,
                    std::vector<ExecConfig> &Configs) {
  if (const std::optional<ExecConfig> &W = Eval.options().WarmStart) {
    std::erase(Configs, *W);
    Configs.insert(Configs.begin(), *W);
  }
}

/// When the VM could not measure anything (empty workload, pipeline
/// failure), fall back to the analytic sweep so callers still get a valid
/// config.
EmpiricalTuneResult analyticFallback(EmpiricalEvaluator &Eval,
                                     const VariantMask &Mask, TuneMode Mode) {
  EmpiricalTuneResult Result =
      analyticTune(Eval.gpu(), Eval.workload().Batches, Mask);
  Result.Mode = Mode;
  Result.VmEvaluations = Eval.evaluations();
  return Result;
}

} // namespace

EmpiricalTuneResult dpo::analyticTune(const GpuModel &Gpu,
                                      const std::vector<NestedBatch> &Batches,
                                      const VariantMask &Mask) {
  TuneResult Sweep = exhaustiveTune(Gpu, Batches, Mask);
  EmpiricalTuneResult Result;
  Result.Config = Sweep.Config;
  Result.TimeUs = Sweep.Result.TimeUs;
  Result.SimProbes = Sweep.Probes;
  Result.Mode = TuneMode::Analytic;
  Result.Pipeline = passPipelineTextFor(Result.Config);
  return Result;
}

EmpiricalTuneResult dpo::empiricalTune(EmpiricalEvaluator &Eval,
                                       const VariantMask &Mask) {
  const unsigned Budget = Eval.options().Budget;
  const unsigned MaxRes = std::max(1u, Eval.maxResource());

  std::vector<ExecConfig> Pool = enumerateConfigs(Mask);
  deterministicShuffle(Pool, Eval.options().Seed);
  // Roughly half the budget feeds the opening rung; halving then costs
  // n/2 + n/4 + ... more, leaving a remainder for hill climbing.
  size_t Opening = std::max<size_t>(2, Budget / 2);
  if (Pool.size() > Opening)
    Pool.resize(Opening);
  warmStartFirst(Eval, Pool);

  EmpiricalTuneResult Result;
  Result.Mode = TuneMode::Empirical;
  bool HaveBest = false;

  unsigned Resource = 1;
  std::vector<std::pair<double, ExecConfig>> Ranked;
  ExecConfig RungBestC;
  VmMeasurement RungBestM;
  while (true) {
    Ranked.clear();
    bool RungHasBest = false;
    std::vector<std::optional<VmMeasurement>> Ms =
        Eval.measureAll(Pool, Resource);
    for (size_t I = 0; I < Ms.size(); ++I) {
      if (!Ms[I])
        continue;
      const ExecConfig &C = Pool[I];
      const VmMeasurement &M = *Ms[I];
      Ranked.emplace_back(M.Cycles, C);
      if (!RungHasBest || M.Cycles < RungBestM.Cycles) {
        RungBestC = C;
        RungBestM = M;
        RungHasBest = true;
      }
      if (Resource == MaxRes &&
          (!HaveBest || M.Cycles < Result.Measured.Cycles)) {
        Result.Config = C;
        Result.Measured = M;
        HaveBest = true;
      }
    }
    if (Ranked.empty())
      break;
    std::stable_sort(Ranked.begin(), Ranked.end(),
                     [](const auto &A, const auto &B) {
                       return A.first < B.first;
                     });
    if (Resource == MaxRes)
      break;
    size_t Keep = std::max<size_t>(1, (Ranked.size() + 1) / 2);
    Pool.clear();
    for (size_t I = 0; I < Keep; ++I)
      Pool.push_back(Ranked[I].second);
    // The survivors resume their devices on the next rung; the losers'
    // devices go now.
    Eval.retainSessions(Pool);
    Resource = std::min(Resource * 2, MaxRes);
    if (Eval.evaluations() >= Budget) {
      // Budget exhausted before the top rung: promote the last completed
      // rung's leader with the measurement it already has (no extra VM
      // execution — the budget is a hard bound).
      if (!HaveBest && RungHasBest) {
        Result.Config = RungBestC;
        Result.Measured = RungBestM;
        HaveBest = true;
      }
      break;
    }
  }

  // Hill climbing measures at full resource only: nothing left to resume.
  Eval.retainSessions({});
  if (!HaveBest)
    return analyticFallback(Eval, Mask, TuneMode::Empirical);

  hillClimb(Eval, Mask, Result);
  finalizeMeasured(Eval, Result);
  return Result;
}

EmpiricalTuneResult dpo::hybridTune(EmpiricalEvaluator &Eval,
                                    const VariantMask &Mask) {
  const unsigned Budget = Eval.options().Budget;
  const unsigned MaxRes = std::max(1u, Eval.maxResource());

  // Stage 1: the analytic model ranks the whole grid for free (in VM
  // budget terms). Stage 2 spends roughly half the budget confirming the
  // shortlist on the VM; the remainder hill-climbs around the winner.
  std::vector<ExecConfig> Candidates = enumerateConfigs(Mask);
  std::vector<size_t> Order =
      rankConfigs(Eval.gpu(), Eval.workload().Batches, Candidates);

  EmpiricalTuneResult Result;
  Result.Mode = TuneMode::Hybrid;
  Result.SimProbes = (unsigned)Candidates.size();
  bool HaveBest = false;

  size_t Shortlist = std::max<size_t>(1, (Budget + 1) / 2);
  std::vector<ExecConfig> ShortlistConfigs;
  for (size_t I = 0; I < Order.size() && I < Shortlist; ++I)
    ShortlistConfigs.push_back(Candidates[Order[I]]);
  warmStartFirst(Eval, ShortlistConfigs);
  std::vector<std::optional<VmMeasurement>> Ms =
      Eval.measureAll(ShortlistConfigs, MaxRes);
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (Ms[I] && (!HaveBest || Ms[I]->Cycles < Result.Measured.Cycles)) {
      Result.Config = ShortlistConfigs[I];
      Result.Measured = *Ms[I];
      HaveBest = true;
    }
  }

  if (!HaveBest)
    return analyticFallback(Eval, Mask, TuneMode::Hybrid);

  hillClimb(Eval, Mask, Result);
  finalizeMeasured(Eval, Result);
  return Result;
}

EmpiricalTuneResult dpo::tuneWorkload(TuneMode Mode, const GpuModel &Gpu,
                                      const VmWorkload &Workload,
                                      const VariantMask &Mask,
                                      const EmpiricalOptions &Opts) {
  if (Mode == TuneMode::Analytic)
    return analyticTune(Gpu, Workload.Batches, Mask);
  EmpiricalEvaluator Eval(Gpu, Workload, Opts);
  return Mode == TuneMode::Empirical ? empiricalTune(Eval, Mask)
                                     : hybridTune(Eval, Mask);
}
