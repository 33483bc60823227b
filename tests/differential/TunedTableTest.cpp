//===--- TunedTableTest.cpp - Committed tuned configs must reproduce ----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drift gate for bench/tuned/: every committed per-workload tuned-config
/// table records the (mode, budget, seed) of a deterministic search; this
/// suite re-runs each recorded search against the real kernel corpus and
/// fails when the winning pipeline no longer matches the table. A change
/// anywhere in the tuner / passes / lowering / VM cost attribution that
/// flips a tuning decision therefore needs a reviewed table refresh
/// (scripts/tune_table.sh), never a silent drift.
///
//===----------------------------------------------------------------------===//

#include "tuner/TunedTable.h"
#include "workloads/KernelSources.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace dpo;

#ifndef DPO_SOURCE_DIR
#define DPO_SOURCE_DIR "."
#endif

namespace {

std::vector<std::string> tunedTablePaths() {
  std::vector<std::string> Paths;
  std::filesystem::path Dir =
      std::filesystem::path(DPO_SOURCE_DIR) / "bench" / "tuned";
  if (!std::filesystem::exists(Dir))
    return Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".json")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

TEST(TunedTableTest, TablesExist) {
  // The committed set: at least one table per Table I benchmark.
  std::vector<std::string> Paths = tunedTablePaths();
  ASSERT_GE(Paths.size(), 7u)
      << "bench/tuned/ is missing tables (regenerate with "
         "scripts/tune_table.sh)";
}

TEST(TunedTableTest, EntriesRoundTrip) {
  for (const std::string &Path : tunedTablePaths()) {
    TunedEntry Entry;
    std::string Error;
    ASSERT_TRUE(loadTunedEntryFile(Path, Entry, Error)) << Path << ": "
                                                        << Error;
    TunedEntry Reparsed;
    ASSERT_TRUE(parseTunedEntryJson(tunedEntryJson(Entry), Reparsed, Error))
        << Error;
    EXPECT_EQ(Entry.Workload, Reparsed.Workload);
    EXPECT_EQ(Entry.Pipeline, Reparsed.Pipeline);
    EXPECT_EQ(Entry.Budget, Reparsed.Budget);
    EXPECT_EQ(Entry.Seed, Reparsed.Seed);
  }
}

TEST(TunedTableTest, RecordedSearchesReproduce) {
  std::vector<std::string> Paths = tunedTablePaths();
  ASSERT_FALSE(Paths.empty());
  for (const std::string &Path : Paths) {
    TunedEntry Entry;
    std::string Error;
    ASSERT_TRUE(loadTunedEntryFile(Path, Entry, Error)) << Path << ": "
                                                        << Error;
    // "canonical" records a dpoptcc --tune run without --workload=; it
    // is reconstructible from the recorded seed like any other spec.
    VmWorkload Workload;
    if (Entry.Workload == "canonical") {
      Workload = canonicalTuneWorkload(Entry.Seed);
    } else {
      BenchCase Case;
      ASSERT_TRUE(parseWorkloadSpec(Entry.Workload, Case, Error))
          << Path << ": " << Error;
      Workload = kernelVmWorkload(Case);
    }
    GpuModel Gpu;
    VariantMask Mask;
    Mask.Thresholding = Mask.Coarsening = Mask.Aggregation = true;
    EmpiricalOptions Opts;
    Opts.Budget = Entry.Budget;
    Opts.Seed = Entry.Seed;
    EmpiricalTuneResult R =
        tuneWorkload(Entry.Mode, Gpu, Workload, Mask, Opts);

    EXPECT_EQ(R.Pipeline, Entry.Pipeline)
        << Path << ": the recorded search no longer reproduces the "
        << "committed pipeline — if the change is intentional, refresh "
        << "with scripts/tune_table.sh and commit the diff";
    EXPECT_LE(R.VmEvaluations, Entry.Budget) << Path << ": budget overrun";
    // The winner's cost too, to the table's printed precision: measured
    // steps are deterministic, so a drift means the recorded search no
    // longer measures what it did.
    char Measured[32], Recorded[32];
    std::snprintf(Measured, sizeof(Measured), "%.3f", R.TimeUs);
    std::snprintf(Recorded, sizeof(Recorded), "%.3f", Entry.TimeUs);
    EXPECT_STREQ(Measured, Recorded)
        << Path << ": the recorded search no longer reproduces the "
        << "committed time_us — refresh with scripts/tune_table.sh";
  }
}

} // namespace
