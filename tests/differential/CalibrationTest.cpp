//===--- CalibrationTest.cpp - GpuModel calibration regression gate -----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression gate for `dpoptcc --calibrate`: on every committed
/// bench/tuned/ workload the fitted model must (a) never predict worse
/// than the base model on the fit set — the descent accepts only strict
/// improvements — (b) reproduce the VM-measured makespans within a
/// fixed log-ratio tolerance, (c) be bit-deterministic across repeated
/// fits, and (d) never *flip* an analytic-vs-empirical top-1 ranking:
/// wherever the base model already agreed with the measurements about
/// the best configuration, the fitted model must agree too.
///
//===----------------------------------------------------------------------===//

#include "tuner/Calibrate.h"
#include "tuner/TunedTable.h"
#include "workloads/KernelSources.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <string>
#include <vector>

using namespace dpo;

#ifndef DPO_SOURCE_DIR
#define DPO_SOURCE_DIR "."
#endif

namespace {

/// Absolute tolerance on the canonical tuning workload, where the
/// analytic model's shape matches the measured batches: mean prediction
/// error within a factor of ~2.2x (RMS of log(pred/measured)). The real
/// kernel workloads contain configurations the model mispredicts by
/// orders of magnitude — shape error a multiplicative 4-knob fit cannot
/// close — so they are gated on the relative invariants instead (never
/// worse than base, no top-1 flip).
constexpr double CanonicalFitTolerance = 0.8;

struct CommittedWorkload {
  VmWorkload Workload;
  bool Canonical = false;
};

std::vector<CommittedWorkload> committedWorkloads() {
  std::vector<CommittedWorkload> Workloads;
  std::filesystem::path Dir =
      std::filesystem::path(DPO_SOURCE_DIR) / "bench" / "tuned";
  if (!std::filesystem::exists(Dir))
    return Workloads;
  std::vector<std::string> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".json")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &Path : Paths) {
    TunedEntry Entry;
    std::string Error;
    if (!loadTunedEntryFile(Path, Entry, Error))
      continue;
    if (Entry.Workload == "canonical") {
      Workloads.push_back({canonicalTuneWorkload(Entry.Seed), true});
    } else {
      BenchCase Case;
      if (parseWorkloadSpec(Entry.Workload, Case, Error))
        Workloads.push_back({kernelVmWorkload(Case), false});
    }
  }
  return Workloads;
}

size_t argMin(const std::vector<CalibrationPoint> &Points,
              double CalibrationPoint::*Field) {
  size_t Best = 0;
  for (size_t I = 1; I < Points.size(); ++I)
    if (Points[I].*Field < Points[Best].*Field)
      Best = I;
  return Best;
}

TEST(CalibrationRegression, FitImprovesWithinToleranceOnCommittedWorkloads) {
  std::vector<CommittedWorkload> Workloads = committedWorkloads();
  ASSERT_FALSE(Workloads.empty())
      << "bench/tuned/ is missing tables (regenerate with "
         "scripts/tune_table.sh)";
  GpuModel Base;
  VariantMask Mask;
  Mask.Thresholding = Mask.Coarsening = Mask.Aggregation = true;

  for (const CommittedWorkload &CW : Workloads) {
    const VmWorkload &Workload = CW.Workload;
    CalibrationResult R = calibrateGpuModel(Base, Workload, Mask, {});
    ASSERT_TRUE(R.Ok) << Workload.Name << ": " << R.Error;
    ASSERT_GE(R.Points.size(), 2u) << Workload.Name;

    // Strict-improvement acceptance: fitting can only help the fit set.
    EXPECT_LE(R.FittedError, R.BaseError)
        << Workload.Name << ":\n"
        << calibrationReport(R);
    if (CW.Canonical)
      EXPECT_LE(R.FittedError, CanonicalFitTolerance)
          << Workload.Name
          << ": fitted model no longer reproduces the measured makespans:\n"
          << calibrationReport(R);

    // No ranking flips: where the base analytic model already picked the
    // measured-best configuration, the fitted model must keep picking it.
    size_t MeasuredTop = argMin(R.Points, &CalibrationPoint::MeasuredUs);
    size_t BaseTop = argMin(R.Points, &CalibrationPoint::BaseUs);
    size_t FittedTop = argMin(R.Points, &CalibrationPoint::FittedUs);
    if (BaseTop == MeasuredTop)
      EXPECT_EQ(FittedTop, MeasuredTop)
          << Workload.Name
          << ": calibration flipped the analytic-vs-empirical top-1:\n"
          << calibrationReport(R);
  }
}

TEST(CalibrationRegression, FitIsDeterministic) {
  GpuModel Base;
  VariantMask Mask;
  Mask.Thresholding = Mask.Coarsening = Mask.Aggregation = true;
  VmWorkload Workload = canonicalTuneWorkload(1);

  CalibrationResult A = calibrateGpuModel(Base, Workload, Mask, {});
  CalibrationResult B = calibrateGpuModel(Base, Workload, Mask, {});
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A.Scales, B.Scales);
  EXPECT_EQ(A.FittedError, B.FittedError);
  EXPECT_EQ(A.BaseError, B.BaseError);
  ASSERT_EQ(A.Points.size(), B.Points.size());
  for (size_t I = 0; I < A.Points.size(); ++I) {
    EXPECT_EQ(A.Points[I].Pipeline, B.Points[I].Pipeline);
    EXPECT_EQ(A.Points[I].MeasuredUs, B.Points[I].MeasuredUs);
    EXPECT_EQ(A.Points[I].FittedUs, B.Points[I].FittedUs);
  }
}

TEST(CalibrationRegression, CommittedPipelinesReplayExactlyFromCheckpoints) {
  // The tuner's measurement sessions, pinned on the committed tables: for
  // every bench/tuned/ entry, measuring the committed pipeline at the
  // rung below the full sample and then resuming that device to the full
  // sample must report exactly what a fresh evaluator's full measurement
  // reports, every field equal and Cycles bit for bit. A measurement
  // round is thus a pure function of the device state before it, which
  // is what lets cached and warm-started tune results stand in for cold
  // searches.
  std::filesystem::path Dir =
      std::filesystem::path(DPO_SOURCE_DIR) / "bench" / "tuned";
  ASSERT_TRUE(std::filesystem::exists(Dir));
  std::vector<std::string> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".json")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_FALSE(Paths.empty());

  GpuModel Gpu;
  for (const std::string &Path : Paths) {
    TunedEntry Entry;
    std::string Error;
    ASSERT_TRUE(loadTunedEntryFile(Path, Entry, Error)) << Path << ": "
                                                        << Error;
    VmWorkload Workload;
    if (Entry.Workload == "canonical") {
      Workload = canonicalTuneWorkload(Entry.Seed);
    } else {
      BenchCase Case;
      ASSERT_TRUE(parseWorkloadSpec(Entry.Workload, Case, Error))
          << Path << ": " << Error;
      Workload = kernelVmWorkload(Case);
    }
    ExecConfig Config;
    ASSERT_TRUE(execConfigFromPipelineText(Entry.Pipeline, Config))
        << Entry.Workload << ": " << Entry.Pipeline;

    EmpiricalOptions Opts;
    Opts.Seed = Entry.Seed;
    EmpiricalEvaluator Resumed(Gpu, Workload, Opts);
    unsigned Full = Resumed.maxResource();
    ASSERT_TRUE(Resumed.measure(Config, Full - 1).has_value())
        << Entry.Workload << ": " << Resumed.lastError();
    std::optional<VmMeasurement> A = Resumed.measure(Config, Full);
    ASSERT_TRUE(A.has_value()) << Entry.Workload << ": "
                               << Resumed.lastError();
    EmpiricalEvaluator Fresh(Gpu, Workload, Opts);
    std::optional<VmMeasurement> B = Fresh.measure(Config, Full);
    ASSERT_TRUE(B.has_value()) << Entry.Workload << ": " << Fresh.lastError();

    const std::string &W = Entry.Workload;
    EXPECT_EQ(A->Steps, B->Steps) << W;
    EXPECT_EQ(A->DeviceLaunches, B->DeviceLaunches) << W;
    EXPECT_EQ(A->HostLaunches, B->HostLaunches) << W;
    EXPECT_EQ(A->BlocksExecuted, B->BlocksExecuted) << W;
    EXPECT_EQ(A->ThreadsExecuted, B->ThreadsExecuted) << W;
    EXPECT_EQ(A->GridsLaunched, B->GridsLaunched) << W;
    EXPECT_EQ(A->BatchesRun, B->BatchesRun) << W;
    EXPECT_EQ(std::bit_cast<uint64_t>(A->Cycles),
              std::bit_cast<uint64_t>(B->Cycles))
        << W << ": " << A->Cycles << " vs " << B->Cycles;
    EXPECT_EQ(A->TracesFormed, B->TracesFormed) << W;
    EXPECT_EQ(A->TraceEntries, B->TraceEntries) << W;
    EXPECT_EQ(A->TraceIters, B->TraceIters) << W;
    EXPECT_EQ(A->TraceSideExits, B->TraceSideExits) << W;
    EXPECT_EQ(A->SpecGuardPass, B->SpecGuardPass) << W;
    EXPECT_EQ(A->SpecGuardFail, B->SpecGuardFail) << W;
  }
}

} // namespace
