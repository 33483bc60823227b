//===--- TunerTest.cpp - Section VIII-C tuning tests ---------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tuner/Empirical.h"
#include "tuner/Tuner.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

using namespace dpo;

namespace {

std::vector<NestedBatch> irregularBatches(unsigned NumBatches,
                                          unsigned ParentsPerBatch,
                                          unsigned Seed = 1) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<double> U(0.0, 1.0);
  std::vector<NestedBatch> Batches(NumBatches);
  for (auto &B : Batches) {
    B.NumParentThreads = ParentsPerBatch;
    B.ChildUnits.resize(ParentsPerBatch);
    for (auto &Units : B.ChildUnits) {
      double X = U(Rng);
      Units = X < 0.4 ? 0 : X < 0.9 ? (1 + Rng() % 24) : (64 + Rng() % 1000);
    }
  }
  return Batches;
}

VariantMask fullMask() {
  VariantMask Mask;
  Mask.Thresholding = true;
  Mask.Coarsening = true;
  Mask.Aggregation = true;
  return Mask;
}

TEST(TunerTest, ThresholdForLaunchBudget) {
  std::vector<NestedBatch> Batches = irregularBatches(4, 30000);
  uint32_t T = thresholdForLaunchBudget(Batches, 7000);
  // The chosen threshold leaves at most 7000 launches...
  uint64_t Launches = 0;
  for (const auto &B : Batches)
    for (uint32_t Units : B.ChildUnits)
      if (Units >= T)
        ++Launches;
  EXPECT_LE(Launches, 7000u);
  // ...and the next smaller power of two would exceed it.
  if (T > 1) {
    uint64_t Prev = 0;
    for (const auto &B : Batches)
      for (uint32_t Units : B.ChildUnits)
        if (Units >= T / 2)
          ++Prev;
    EXPECT_GT(Prev, 7000u);
  }
}

TEST(TunerTest, ExhaustiveBeatsOrMatchesEveryProbe) {
  GpuModel Gpu;
  std::vector<NestedBatch> Batches = irregularBatches(3, 20000);
  TuneResult Best = exhaustiveTune(Gpu, Batches, fullMask());
  // Spot-check a handful of configurations: none beats the winner.
  for (uint32_t T : {0u, 16u, 256u})
    for (AggGranularity G :
         {AggGranularity::None, AggGranularity::Block, AggGranularity::Grid}) {
      ExecConfig C;
      if (T)
        C.Threshold = T;
      C.Agg = G;
      C.CoarsenFactor = 4;
      EXPECT_GE(simulateBatches(Gpu, Batches, C).TimeUs,
                Best.Result.TimeUs - 1e-9);
    }
}

TEST(TunerTest, GuidedIsCloseToExhaustiveWithFewProbes) {
  GpuModel Gpu;
  std::vector<NestedBatch> Batches = irregularBatches(5, 25000, 3);
  TuneResult Exhaustive = exhaustiveTune(Gpu, Batches, fullMask());
  TuneResult Guided = guidedTune(Gpu, Batches, fullMask());
  // Section VIII-C: "less than ten runs" gets close to the best.
  EXPECT_LE(Guided.Probes, 10u);
  EXPECT_GT(Exhaustive.Probes, 100u);
  EXPECT_LE(Guided.Result.TimeUs, Exhaustive.Result.TimeUs * 1.8);
}

TEST(TunerTest, MaskRestrictsSearch) {
  GpuModel Gpu;
  std::vector<NestedBatch> Batches = irregularBatches(2, 10000, 5);
  VariantMask AggOnly;
  AggOnly.Aggregation = true;
  TuneResult R = exhaustiveTune(Gpu, Batches, AggOnly);
  EXPECT_FALSE(R.Config.Threshold.has_value());
  EXPECT_EQ(R.Config.CoarsenFactor, 1u);
  EXPECT_NE(R.Config.Agg, AggGranularity::None);

  VariantMask KlapLike = AggOnly;
  KlapLike.Granularities = {AggGranularity::Warp, AggGranularity::Block,
                            AggGranularity::Grid};
  TuneResult Klap = exhaustiveTune(Gpu, Batches, KlapLike);
  EXPECT_NE(Klap.Config.Agg, AggGranularity::MultiBlock);
  // Our framework's search space contains KLAP's, so it can't be slower.
  EXPECT_LE(R.Result.TimeUs, Klap.Result.TimeUs + 1e-9);
}

TEST(TunerTest, GuidedSkipsWarpGranularity) {
  GpuModel Gpu;
  std::vector<NestedBatch> Batches = irregularBatches(2, 15000, 7);
  TuneResult Guided = guidedTune(Gpu, Batches, fullMask());
  EXPECT_NE(Guided.Config.Agg, AggGranularity::Warp);
}

//===----------------------------------------------------------------------===//
// Empirical (VM-in-the-loop) tuning
//===----------------------------------------------------------------------===//

VmWorkload smallVmWorkload(unsigned Seed = 11) {
  return makeNestedVmWorkload("test", makeSkewedBatches(3, 2500, Seed));
}

EmpiricalOptions smallOptions(unsigned Budget = 12, unsigned Seed = 5) {
  EmpiricalOptions Opts;
  Opts.Budget = Budget;
  Opts.Seed = Seed;
  Opts.SampleBatches = 3;
  Opts.MaxSampleUnits = 6000;
  return Opts;
}

/// The chosen config must lie on the tuner's sweep axes.
void expectValidConfig(const ExecConfig &C) {
  if (C.Threshold) {
    const std::vector<uint32_t> Sweep = defaultThresholdSweep();
    EXPECT_NE(std::find(Sweep.begin(), Sweep.end(), *C.Threshold),
              Sweep.end())
        << "threshold " << *C.Threshold;
  }
  EXPECT_GE(C.CoarsenFactor, 1u);
  EXPECT_LE(C.CoarsenFactor, 32u);
  if (C.Agg == AggGranularity::MultiBlock) {
    EXPECT_GE(C.AggGroupBlocks, 2u);
    EXPECT_LE(C.AggGroupBlocks, 32u);
  }
}

TEST(EmpiricalTunerTest, AnalyticAndEmpiricalModesReturnValidConfigs) {
  GpuModel Gpu;
  VmWorkload W = smallVmWorkload();

  EmpiricalTuneResult Analytic = analyticTune(Gpu, W.Batches, fullMask());
  EXPECT_EQ(Analytic.Mode, TuneMode::Analytic);
  EXPECT_GT(Analytic.TimeUs, 0.0);
  EXPECT_GT(Analytic.SimProbes, 100u);
  EXPECT_EQ(Analytic.VmEvaluations, 0u);
  expectValidConfig(Analytic.Config);

  EmpiricalTuneResult Empirical =
      tuneWorkload(TuneMode::Empirical, Gpu, W, fullMask(), smallOptions());
  EXPECT_EQ(Empirical.Mode, TuneMode::Empirical);
  expectValidConfig(Empirical.Config);
  // The config was selected by actually executing bytecode: the winner's
  // measurement has real steps/threads behind it.
  EXPECT_GT(Empirical.VmEvaluations, 0u);
  EXPECT_GT(Empirical.Measured.Steps, 0u);
  EXPECT_GT(Empirical.Measured.ThreadsExecuted, 0u);
  EXPECT_GE(Empirical.Measured.BatchesRun, 1u);
  EXPECT_GT(Empirical.Measured.Cycles, 0.0);
  EXPECT_GT(Empirical.TimeUs, 0.0);
}

TEST(EmpiricalTunerTest, FixedSeedAndBudgetReproduceTheChosenConfig) {
  GpuModel Gpu;
  VmWorkload W = smallVmWorkload();
  for (TuneMode Mode : {TuneMode::Empirical, TuneMode::Hybrid}) {
    EmpiricalTuneResult A =
        tuneWorkload(Mode, Gpu, W, fullMask(), smallOptions(10, 7));
    EmpiricalTuneResult B =
        tuneWorkload(Mode, Gpu, W, fullMask(), smallOptions(10, 7));
    EXPECT_TRUE(A.Config == B.Config) << tuneModeName(Mode);
    EXPECT_EQ(A.Pipeline, B.Pipeline);
    EXPECT_EQ(A.VmEvaluations, B.VmEvaluations);
    EXPECT_DOUBLE_EQ(A.Measured.Cycles, B.Measured.Cycles);
  }
}

TEST(EmpiricalTunerTest, BudgetBoundsVmEvaluations) {
  GpuModel Gpu;
  VmWorkload W = smallVmWorkload();
  for (unsigned Budget : {1u, 4u, 9u}) {
    EmpiricalEvaluator HybridEval(Gpu, W, smallOptions(Budget));
    EmpiricalTuneResult Hybrid = hybridTune(HybridEval, fullMask());
    EXPECT_LE(HybridEval.evaluations(), Budget);
    EXPECT_LE(Hybrid.VmEvaluations, Budget);
    expectValidConfig(Hybrid.Config);

    EmpiricalEvaluator EmpEval(Gpu, W, smallOptions(Budget));
    empiricalTune(EmpEval, fullMask());
    EXPECT_LE(EmpEval.evaluations(), Budget);
  }
}

TEST(EmpiricalTunerTest, EvaluatorMeasuresTransformedPrograms) {
  GpuModel Gpu;
  VmWorkload W = smallVmWorkload();
  EmpiricalEvaluator Eval(Gpu, W, smallOptions());

  // CDP baseline: no transformation, every child grid is a device launch.
  ExecConfig Cdp;
  std::optional<VmMeasurement> Base = Eval.measure(Cdp);
  ASSERT_TRUE(Base.has_value()) << Eval.lastError();
  EXPECT_GT(Base->DeviceLaunches, 0u);

  // Serialize-everything: the same program measured with zero launches and
  // more bytecode steps concentrated in the parent.
  ExecConfig AllSerial;
  AllSerial.Threshold = 32768u;
  std::optional<VmMeasurement> Serial = Eval.measure(AllSerial);
  ASSERT_TRUE(Serial.has_value()) << Eval.lastError();
  EXPECT_EQ(Serial->DeviceLaunches, 0u);
  EXPECT_LT(Serial->GridsLaunched, Base->GridsLaunched);

  // Same config again: served from cache, no new VM execution.
  unsigned Evals = Eval.evaluations();
  unsigned Hits = Eval.cacheHits();
  std::optional<VmMeasurement> Again = Eval.measure(AllSerial);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Eval.evaluations(), Evals);
  EXPECT_EQ(Eval.cacheHits(), Hits + 1);
  EXPECT_DOUBLE_EQ(Again->Cycles, Serial->Cycles);
}

/// Every VmMeasurement field equal; Cycles bit for bit.
void expectSameMeasurement(const VmMeasurement &A, const VmMeasurement &B,
                           const std::string &What) {
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.DeviceLaunches, B.DeviceLaunches) << What;
  EXPECT_EQ(A.HostLaunches, B.HostLaunches) << What;
  EXPECT_EQ(A.BlocksExecuted, B.BlocksExecuted) << What;
  EXPECT_EQ(A.ThreadsExecuted, B.ThreadsExecuted) << What;
  EXPECT_EQ(A.GridsLaunched, B.GridsLaunched) << What;
  EXPECT_EQ(A.BatchesRun, B.BatchesRun) << What;
  EXPECT_EQ(std::bit_cast<uint64_t>(A.Cycles),
            std::bit_cast<uint64_t>(B.Cycles))
      << What << ": " << A.Cycles << " vs " << B.Cycles;
  EXPECT_EQ(A.TracesFormed, B.TracesFormed) << What;
  EXPECT_EQ(A.TraceEntries, B.TraceEntries) << What;
  EXPECT_EQ(A.TraceIters, B.TraceIters) << What;
  EXPECT_EQ(A.TraceSideExits, B.TraceSideExits) << What;
  EXPECT_EQ(A.SpecGuardPass, B.SpecGuardPass) << What;
  EXPECT_EQ(A.SpecGuardFail, B.SpecGuardFail) << What;
}

/// The canonical workload over four skewed batches, sampled whole, so
/// successive halving has the rungs 1, 2 and 4.
VmWorkload fourBatchVmWorkload() {
  return makeNestedVmWorkload("test4", makeSkewedBatches(4, 2500, 11));
}

EmpiricalOptions fourBatchOptions(unsigned Budget = 16) {
  EmpiricalOptions Opts = smallOptions(Budget);
  Opts.SampleBatches = 4;
  Opts.MaxSampleUnits = 8000;
  return Opts;
}

TEST(EmpiricalTunerTest, ResumedMeasurementEqualsFreshAtEveryRung) {
  // A measurement below the full sample keeps its device as the
  // pipeline's session, and a later measure() at a higher rung resumes it
  // and runs only the missing rounds. Whatever the history of the device,
  // the result must be what a fresh device running rounds [0, R) reports.
  BenchCase Road;
  std::string Error;
  ASSERT_TRUE(parseWorkloadSpec("bfs:road_ny", Road, Error)) << Error;
  struct Case {
    VmWorkload Workload;
    EmpiricalOptions Opts;
  };
  Case Cases[] = {{fourBatchVmWorkload(), fourBatchOptions()},
                  {kernelVmWorkload(Road), EmpiricalOptions()}};

  ExecConfig Thresh;
  Thresh.Threshold = 256u;
  ExecConfig Coarse = Thresh;
  Coarse.CoarsenFactor = 8;
  ExecConfig MultiBlock = Coarse;
  MultiBlock.Threshold = 128u;
  MultiBlock.Agg = AggGranularity::MultiBlock;
  MultiBlock.AggGroupBlocks = 8;
  ExecConfig Grid; // bfs:road_ny's committed winner
  Grid.Threshold = 512u;
  Grid.CoarsenFactor = 32;
  Grid.Agg = AggGranularity::Grid;

  GpuModel Gpu;
  for (const Case &K : Cases) {
    ASSERT_EQ(K.Opts.SampleBatches, 4u);
    for (const ExecConfig &C :
         {ExecConfig::cdp(), Thresh, Coarse, MultiBlock, Grid}) {
      std::string Pipeline = passPipelineTextFor(C);
      EmpiricalEvaluator Resumed(Gpu, K.Workload, K.Opts);
      ASSERT_EQ(Resumed.maxResource(), 4u) << K.Workload.Name;
      for (unsigned R : {1u, 2u, 4u}) {
        std::string What =
            K.Workload.Name + " '" + Pipeline + "' at " + std::to_string(R);
        std::optional<VmMeasurement> M = Resumed.measure(C, R);
        ASSERT_TRUE(M.has_value()) << What << ": " << Resumed.lastError();
        EmpiricalEvaluator Fresh(Gpu, K.Workload, K.Opts);
        std::optional<VmMeasurement> F = Fresh.measure(C, R);
        ASSERT_TRUE(F.has_value()) << What << ": " << Fresh.lastError();
        EXPECT_EQ(Fresh.roundsRun(), R) << What;
        expectSameMeasurement(*M, *F, What);
      }
      // One device, staged once, ran each round once; every rung still
      // counted as an evaluation.
      EXPECT_EQ(Resumed.devicesOpened(), 1u) << Pipeline;
      EXPECT_EQ(Resumed.roundsRun(), 4u) << Pipeline;
      EXPECT_EQ(Resumed.evaluations(), 3u) << Pipeline;

      // A full-sample measurement keeps no session: asking again for a
      // lower rung opens a new device.
      ASSERT_TRUE(Resumed.measure(C, 3).has_value()) << Resumed.lastError();
      EXPECT_EQ(Resumed.devicesOpened(), 2u) << Pipeline;
      EXPECT_EQ(Resumed.roundsRun(), 7u) << Pipeline;
    }
  }
}

TEST(EmpiricalTunerTest, SearchIsIdenticalAtEveryWorkerCount) {
  // measureAll() measures a rung's candidates on worker threads, each
  // taking its pipeline's session along, and accounts for them in config
  // order. The search, its counters and the work sessions save must not
  // depend on the worker count.
  GpuModel Gpu;
  VmWorkload W = fourBatchVmWorkload();
  for (TuneMode Mode : {TuneMode::Empirical, TuneMode::Hybrid}) {
    std::optional<EmpiricalTuneResult> Base;
    unsigned BaseEvals = 0, BaseCompiles = 0, BaseHits = 0;
    unsigned BaseDevices = 0, BaseRounds = 0;
    for (unsigned Workers : {1u, 2u, 4u}) {
      EmpiricalOptions Opts = fourBatchOptions(20);
      Opts.EvalWorkers = Workers;
      EmpiricalEvaluator Eval(Gpu, W, Opts);
      EmpiricalTuneResult R = Mode == TuneMode::Empirical
                                  ? empiricalTune(Eval, fullMask())
                                  : hybridTune(Eval, fullMask());
      std::string What = std::string(tuneModeName(Mode)) + " at " +
                         std::to_string(Workers) + " workers";
      if (!Base) {
        Base = R;
        BaseEvals = Eval.evaluations();
        BaseCompiles = Eval.programCompiles();
        BaseHits = Eval.cacheHits();
        BaseDevices = Eval.devicesOpened();
        BaseRounds = Eval.roundsRun();
        EXPECT_GT(BaseEvals, 0u) << What;
        continue;
      }
      EXPECT_TRUE(R.Config == Base->Config) << What;
      EXPECT_EQ(R.Pipeline, Base->Pipeline) << What;
      expectSameMeasurement(R.Measured, Base->Measured, What);
      EXPECT_EQ(std::bit_cast<uint64_t>(R.TimeUs),
                std::bit_cast<uint64_t>(Base->TimeUs))
          << What;
      EXPECT_EQ(R.VmEvaluations, Base->VmEvaluations) << What;
      EXPECT_EQ(Eval.evaluations(), BaseEvals) << What;
      EXPECT_EQ(Eval.programCompiles(), BaseCompiles) << What;
      EXPECT_EQ(Eval.cacheHits(), BaseHits) << What;
      EXPECT_EQ(Eval.devicesOpened(), BaseDevices) << What;
      EXPECT_EQ(Eval.roundsRun(), BaseRounds) << What;
    }
  }
}

TEST(EmpiricalTunerTest, FailedRunsLeaveTheSearchIdenticalAtEveryWorkerCount) {
  // A step limit between the cheapest and the costliest candidate's
  // one-batch step count makes the costlier candidates fail. A failed run
  // costs no budget, so measureAll() fills the room it leaves in a later
  // wave. Its results and counters must be those of a loop of measure()
  // calls that stops at the budget, and a search over such candidates
  // must not depend on the worker count.
  GpuModel Gpu;
  VmWorkload W = fourBatchVmWorkload();
  std::vector<ExecConfig> All = enumerateConfigs(fullMask());
  std::vector<ExecConfig> Configs;
  for (size_t I = 0; I < All.size(); I += 37)
    Configs.push_back(All[I]);
  ASSERT_GE(Configs.size(), 12u);
  uint64_t Cheapest = UINT64_MAX, Costliest = 0;
  EmpiricalEvaluator Probe(Gpu, W, fourBatchOptions());
  for (const ExecConfig &C : Configs) {
    std::optional<VmMeasurement> M = Probe.measure(C, 1);
    ASSERT_TRUE(M.has_value()) << Probe.lastError();
    Cheapest = std::min(Cheapest, M->Steps);
    Costliest = std::max(Costliest, M->Steps);
  }
  ASSERT_LT(Cheapest, Costliest);
  const uint64_t Limit = Cheapest + (Costliest - Cheapest) / 2;
  // Repeats: a pipeline seen earlier in the same call is a cache hit
  // after a success and the same failure after a failure.
  Configs.push_back(Configs[0]);
  Configs.push_back(Configs[3]);
  Configs.push_back(Configs[1]);

  // Without the limit every run succeeds, so the first wave alone fills
  // the budget.
  for (uint64_t StepLimit : {Limit, EmpiricalOptions().VmStepLimit}) {
    EmpiricalOptions Opts = fourBatchOptions(6);
    Opts.VmStepLimit = StepLimit;
    EmpiricalEvaluator Ref(Gpu, W, Opts);
    std::vector<std::optional<VmMeasurement>> Expected;
    for (const ExecConfig &C : Configs) {
      if (Ref.evaluations() >= Opts.Budget)
        break;
      Expected.push_back(Ref.measure(C, 1));
    }
    ASSERT_LT(Expected.size(), Configs.size()) << "the budget must bind";
    bool AnyFailed = std::any_of(Expected.begin(), Expected.end(),
                                 [](const auto &M) { return !M; });
    ASSERT_EQ(AnyFailed, StepLimit == Limit) << Ref.lastError();

    for (unsigned Workers : {1u, 2u, 4u}) {
      std::string What = "measureAll at " + std::to_string(Workers) +
                         " workers, step limit " + std::to_string(StepLimit);
      Opts.EvalWorkers = Workers;
      EmpiricalEvaluator Eval(Gpu, W, Opts);
      std::vector<std::optional<VmMeasurement>> Got =
          Eval.measureAll(Configs, 1);
      ASSERT_EQ(Got.size(), Expected.size()) << What;
      for (size_t I = 0; I < Got.size(); ++I) {
        ASSERT_EQ(Got[I].has_value(), Expected[I].has_value())
            << What << ", config " << I;
        if (Got[I])
          expectSameMeasurement(*Got[I], *Expected[I],
                                What + ", config " + std::to_string(I));
      }
      EXPECT_EQ(Eval.evaluations(), Ref.evaluations()) << What;
      EXPECT_EQ(Eval.programCompiles(), Ref.programCompiles()) << What;
      EXPECT_EQ(Eval.cacheHits(), Ref.cacheHits()) << What;
      EXPECT_EQ(Eval.devicesOpened(), Ref.devicesOpened()) << What;
      EXPECT_EQ(Eval.roundsRun(), Ref.roundsRun()) << What;
      EXPECT_EQ(Eval.lastError(), Ref.lastError()) << What;
    }
  }

  for (TuneMode Mode : {TuneMode::Empirical, TuneMode::Hybrid}) {
    std::optional<EmpiricalTuneResult> Base;
    unsigned BaseEvals = 0, BaseCompiles = 0, BaseHits = 0;
    unsigned BaseDevices = 0, BaseRounds = 0;
    std::string BaseError;
    for (unsigned Workers : {1u, 2u, 4u}) {
      EmpiricalOptions SearchOpts = fourBatchOptions(20);
      SearchOpts.VmStepLimit = Limit;
      SearchOpts.EvalWorkers = Workers;
      EmpiricalEvaluator Eval(Gpu, W, SearchOpts);
      EmpiricalTuneResult R = Mode == TuneMode::Empirical
                                  ? empiricalTune(Eval, fullMask())
                                  : hybridTune(Eval, fullMask());
      std::string What = std::string(tuneModeName(Mode)) + " at " +
                         std::to_string(Workers) + " workers";
      if (!Base) {
        Base = R;
        BaseEvals = Eval.evaluations();
        BaseCompiles = Eval.programCompiles();
        BaseHits = Eval.cacheHits();
        BaseDevices = Eval.devicesOpened();
        BaseRounds = Eval.roundsRun();
        BaseError = Eval.lastError();
        // The search measured a winner and saw runs fail.
        EXPECT_GT(R.Measured.Steps, 0u) << What;
        EXPECT_FALSE(BaseError.empty()) << What;
        continue;
      }
      EXPECT_TRUE(R.Config == Base->Config) << What;
      EXPECT_EQ(R.Pipeline, Base->Pipeline) << What;
      expectSameMeasurement(R.Measured, Base->Measured, What);
      EXPECT_EQ(std::bit_cast<uint64_t>(R.TimeUs),
                std::bit_cast<uint64_t>(Base->TimeUs))
          << What;
      EXPECT_EQ(Eval.evaluations(), BaseEvals) << What;
      EXPECT_EQ(Eval.programCompiles(), BaseCompiles) << What;
      EXPECT_EQ(Eval.cacheHits(), BaseHits) << What;
      EXPECT_EQ(Eval.devicesOpened(), BaseDevices) << What;
      EXPECT_EQ(Eval.roundsRun(), BaseRounds) << What;
      EXPECT_EQ(Eval.lastError(), BaseError) << What;
    }
  }
}

TEST(EmpiricalTunerTest, WarmStartIsDeterministicAndBudgetNeutral) {
  // EmpiricalOptions::WarmStart moves the seeded config to the front of
  // the search order. The search stays deterministic, stays within
  // budget, and evaluates the seed (so a committed tuned-table entry is
  // never silently dropped from a warm-started search).
  GpuModel Gpu;
  VmWorkload W = smallVmWorkload();
  ExecConfig Seed;
  Seed.Threshold = 256;
  Seed.CoarsenFactor = 8;

  EmpiricalOptions Opts = smallOptions(8, 3);
  Opts.WarmStart = Seed;

  EmpiricalEvaluator A(Gpu, W, Opts);
  EmpiricalTuneResult First = empiricalTune(A, fullMask());
  EXPECT_LE(A.evaluations(), Opts.Budget);

  EmpiricalEvaluator B(Gpu, W, Opts);
  EmpiricalTuneResult Second = empiricalTune(B, fullMask());
  EXPECT_EQ(First.Pipeline, Second.Pipeline);
  EXPECT_EQ(First.VmEvaluations, Second.VmEvaluations);
  EXPECT_DOUBLE_EQ(First.TimeUs, Second.TimeUs);

  // Hybrid honors the same seed.
  EmpiricalEvaluator C(Gpu, W, Opts);
  EmpiricalTuneResult H1 = hybridTune(C, fullMask());
  EmpiricalEvaluator D(Gpu, W, Opts);
  EmpiricalTuneResult H2 = hybridTune(D, fullMask());
  EXPECT_EQ(H1.Pipeline, H2.Pipeline);
  EXPECT_DOUBLE_EQ(H1.TimeUs, H2.TimeUs);
}

TEST(TunerTest, ExecConfigPipelineTextRoundTrips) {
  // execConfigFromPipelineText must invert passPipelineTextFor on the
  // whole enumerated config space — the property the tuned-table warm
  // start rests on.
  for (const ExecConfig &C : enumerateConfigs(fullMask())) {
    std::string Text = passPipelineTextFor(C);
    ExecConfig Back;
    ASSERT_TRUE(execConfigFromPipelineText(Text, Back)) << Text;
    EXPECT_TRUE(Back == C) << Text;
  }
  // The NoCdp spelling maps back to the serialize-everything config.
  ExecConfig Back;
  ASSERT_TRUE(
      execConfigFromPipelineText(passPipelineTextFor(ExecConfig::noCdp()),
                                 Back));
  EXPECT_TRUE(Back == ExecConfig::noCdp());
  // Empty pipeline = default config.
  ASSERT_TRUE(execConfigFromPipelineText("", Back));
  EXPECT_TRUE(Back == ExecConfig());
  // Knob spellings do not matter; a bare aggregate is the default shape.
  ASSERT_TRUE(execConfigFromPipelineText("threshold[32:literal]", Back));
  EXPECT_EQ(Back.Threshold, std::optional<uint32_t>(32));
  ASSERT_TRUE(execConfigFromPipelineText("aggregate", Back));
  EXPECT_EQ(passPipelineTextFor(Back), "aggregate[multiblock:8]");
  // Outside the vocabulary: profile knobs and unknown passes refuse.
  EXPECT_FALSE(execConfigFromPipelineText("threshold[profile]", Back));
  EXPECT_FALSE(execConfigFromPipelineText("speculate[64]", Back));
  EXPECT_FALSE(execConfigFromPipelineText("bogus", Back));
  // Texts that realize a different program than any ExecConfig's own
  // pipeline refuse too: a fallback on an ordinary threshold, another
  // pass order, a repeated pass.
  EXPECT_FALSE(execConfigFromPipelineText("threshold[256:fallback]", Back));
  EXPECT_FALSE(execConfigFromPipelineText("coarsen[2],threshold[32]", Back));
  EXPECT_FALSE(execConfigFromPipelineText("coarsen[2],coarsen[2]", Back));
  EXPECT_EQ(passPipelineTextFor(Back), "aggregate[multiblock:8]")
      << "a refused text must leave the config untouched";
}

TEST(EmpiricalTunerTest, RankConfigsIsStableAndComplete) {
  GpuModel Gpu;
  std::vector<NestedBatch> Batches = irregularBatches(2, 5000, 9);
  std::vector<ExecConfig> Candidates = enumerateConfigs(fullMask());
  std::vector<size_t> Order = rankConfigs(Gpu, Batches, Candidates);
  ASSERT_EQ(Order.size(), Candidates.size());
  std::vector<bool> Seen(Candidates.size());
  double Prev = -1.0;
  for (size_t Idx : Order) {
    ASSERT_LT(Idx, Candidates.size());
    EXPECT_FALSE(Seen[Idx]);
    Seen[Idx] = true;
    double T = simulateBatches(Gpu, Batches, Candidates[Idx]).TimeUs;
    EXPECT_GE(T, Prev);
    Prev = T;
  }
}

} // namespace
