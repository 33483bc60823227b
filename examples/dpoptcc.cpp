//===--- dpoptcc.cpp - The source-to-source compiler driver ---------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line driver mirroring the paper's artifact workflow: read a
/// .cu file, apply any combination of the three passes, write the
/// transformed .cu (with `_THRESHOLD` / `_CFACTOR` / `_AGG_SIZE` macros
/// ready for compile-time tuning, Section VII).
///
///   dpoptcc [-t] [-c] [-a] [--granularity=warp|block|multiblock|grid]
///           [--threshold=N] [--factor=N] [--group=N] [--agg-threshold=N]
///           [-passes=PIPELINE] [--tune=MODE] [--tune-budget=N]
///           [--tune-seed=N] [--workload=BENCH:DATASET]
///           [--tune-report=FILE] [--print-pass-stats] [--list-passes]
///           [input.cu] [-o output.cu]
///
/// The -t/-c/-a flags spell the paper's Fig. 8(a) pipeline as text;
/// -passes= gives an arbitrary pipeline (grammar below and in
/// src/transform/README.md); --tune= asks the autotuner (analytic
/// simulator sweep, empirical VM-in-the-loop search, or the hybrid of
/// both) to pick the pipeline. The chosen pipeline is rendered once as
/// canonical text with the knob flags filled in; that text is what gets
/// measured and emitted. --print-pass-stats shows per-pass timings.
///
//===----------------------------------------------------------------------===//

#include "profile/Profile.h"
#include "service/CompileService.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "transform/Pipeline.h"
#include "tuner/Calibrate.h"
#include "tuner/Empirical.h"
#include "tuner/TunedTable.h"
#include "workloads/KernelSources.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace dpo;

static void usage() {
  std::fprintf(
      stderr,
      "usage: dpoptcc [-t] [-c] [-a] [--granularity=G] [--threshold=N]\n"
      "               [--factor=N] [--group=N] [--agg-threshold=N]\n"
      "               [-passes=PIPELINE] [--tune=MODE] [--tune-budget=N]\n"
      "               [--tune-seed=N] [--workload=BENCH:DATASET]\n"
      "               [--tune-report=FILE] [--print-pass-stats]\n"
      "               [--profile-out=FILE] [--profile-in=FILE] [--calibrate]\n"
      "               [--list-passes] [input.cu] [-o output.cu]\n"
      "       dpoptcc --serve=REQFILE [--cache-dir=DIR] [--cache-bytes=MIB]\n"
      "               [--service-workers=N] [--tuned-dir=DIR] [--cache-stats]\n"
      "\n"
      "service mode:\n"
      "  --serve=REQFILE     drain a request-list file through one\n"
      "                      CompileService: one request per line,\n"
      "                      'compile src=FILE [passes=PIPELINE] [bytecode=1]\n"
      "                      [out=FILE]' or 'tune workload=SPEC [mode=M]\n"
      "                      [budget=N] [seed=N] [warm=1] [out=FILE]';\n"
      "                      requests run concurrently, results report in\n"
      "                      request order\n"
      "  --cache-dir=DIR     content-addressed artifact cache directory\n"
      "                      (also DPO_CACHE_DIR; empty disables disk cache)\n"
      "  --cache-bytes=MIB   cache size bound in MiB, LRU-evicted\n"
      "                      (also DPO_CACHE_MAX_BYTES, in bytes)\n"
      "  --service-workers=N concurrent drain workers (also\n"
      "                      DPO_SERVICE_WORKERS; default: hardware threads)\n"
      "  --tuned-dir=DIR     committed tuned-table directory used to seed\n"
      "                      warm-started tunes (bench/tuned/ format)\n"
      "  --cache-stats       print hit/miss/eviction/byte counters on exit\n"
      "\n"
      "pass selection (pick one):\n"
      "  -t/-c/-a            enable thresholding / coarsening / aggregation\n"
      "                      in the paper's order (default: all three,\n"
      "                      multi-block granularity); knob flags\n"
      "                      (--threshold=, --factor=, --group=,\n"
      "                      --agg-threshold=, --granularity=) set values\n"
      "  -passes=PIPELINE    run a textual pass pipeline instead\n"
      "  --tune=MODE         let the autotuner pick the pipeline; MODE is\n"
      "                      analytic  (exhaustive simulator sweep),\n"
      "                      empirical (candidates compiled through the\n"
      "                                 pass manager and *executed* on the\n"
      "                                 bytecode VM; successive halving +\n"
      "                                 hill climbing), or\n"
      "                      hybrid    (simulator-ranked shortlist,\n"
      "                                 VM-measured winners)\n"
      "  --tune-budget=N     max VM executions for empirical/hybrid\n"
      "                      (default 48)\n"
      "  --tune-seed=N       sampling seed; fixed seed + budget reproduces\n"
      "                      the chosen config exactly (default 1)\n"
      "  --workload=SPEC     tune against a real Table I kernel bound to\n"
      "                      its dataset (e.g. bfs:road_ny, tc:kron,\n"
      "                      sp:rand3, bt:t2048_c64) instead of the\n"
      "                      canonical nested workload; dataset defaults\n"
      "                      to the benchmark's Fig. 11 pairing\n"
      "  --tune-report=PATH  write the winning config as a tuned-table\n"
      "                      JSON entry (bench/tuned/ format); a PATH\n"
      "                      ending in '/' is a directory and the file\n"
      "                      name is derived from the workload spec; with\n"
      "                      this flag the input file is optional\n"
      "                      (tune-only)\n"
      "  --print-pass-stats  print each pass's wall time to stderr\n"
      "  --print-vm-stats    execute the selected pipeline on the VM's\n"
      "                      decoded engine (against --workload=, else the\n"
      "                      canonical nested workload) and report the\n"
      "                      run's event counts plus the trace-engine\n"
      "                      counters: traces formed, entries/iterations\n"
      "                      retired, side-exit rate; input file optional\n"
      "                      (stats-only)\n"
      "  --profile-out=FILE  execute the selected pipeline on the VM (same\n"
      "                      workload selection as --print-vm-stats) and\n"
      "                      write the harvested per-launch-site profile;\n"
      "                      without -t/-c/-a/-passes= the *untransformed*\n"
      "                      program is recorded (the usual record step);\n"
      "                      input file optional (record-only)\n"
      "  --profile-in=FILE   load a recorded profile; pipeline passes with\n"
      "                      the 'profile' parameter (threshold[profile],\n"
      "                      coarsen[profile], speculate[profile]) pick\n"
      "                      per-launch-site knob values from it\n"
      "  --calibrate         fit the analytic GpuModel's launch/dispatch\n"
      "                      constants to VM-measured makespans of the\n"
      "                      selected workload and print the fit; input\n"
      "                      file optional (calibrate-only)\n"
      "\n"
      "pipeline grammar (also: dpoptcc --list-passes):\n"
      "  pipeline := pass (',' pass)*\n"
      "  pass     := name ('[' param (':' param)* ']')?\n"
      "  threshold[N][:fallback][:literal|:macro]\n"
      "      N the launch threshold; 'fallback' compares\n"
      "      gridDim*blockDim when the grid-size analysis fails\n"
      "  coarsen[N][:literal|:macro]\n"
      "      N the block-coarsening factor\n"
      "  aggregate[none|warp|block|multiblock|grid][:N]\n"
      "           [:agg-threshold=N][:literal|:macro]\n"
      "      granularity, multi-block group size N, Section V-B\n"
      "      participation threshold\n"
      "  builtin-rewrite[<builtin>[.x|.y|.z]=<name>][:strict]\n"
      "      rename CUDA builtins across kernel bodies\n"
      "  'literal' inlines knob values; 'macro' (default) emits _THRESHOLD/\n"
      "  _CFACTOR/_AGG_SIZE macros with the configured values as defaults\n"
      "\n"
      "examples:\n"
      "  dpoptcc -passes=threshold[256],coarsen[8],aggregate[multiblock:8] "
      "in.cu\n"
      "  dpoptcc --tune=hybrid --tune-budget=32 in.cu -o tuned.cu\n");
}

/// Validated replacement for the old atoi calls: accepts only a non-empty
/// all-digit value that fits in unsigned and is nonzero. Anything else
/// (including "12abc", "-3", "0", and 2^32 and up) is rejected with a
/// diagnostic naming the flag. Shares parsePositiveU32 with the pipeline
/// grammar so --threshold= and threshold[...] accept identical spellings.
static bool parseCountFlag(const char *Flag, const std::string &Text,
                           unsigned &Out) {
  switch (parsePositiveU32(Text, Out)) {
  case ParseUIntStatus::Ok:
    return true;
  case ParseUIntStatus::Empty:
    std::fprintf(stderr, "error: %s requires a value\n", Flag);
    return false;
  case ParseUIntStatus::NotANumber:
    std::fprintf(stderr,
                 "error: invalid value '%s' for %s (expected a positive "
                 "integer)\n",
                 Text.c_str(), Flag);
    return false;
  case ParseUIntStatus::Zero:
    std::fprintf(stderr, "error: %s must be positive, got 0\n", Flag);
    return false;
  case ParseUIntStatus::Overflow:
    std::fprintf(stderr, "error: value '%s' for %s is out of range\n",
                 Text.c_str(), Flag);
    return false;
  }
  return false;
}

/// Resolves the VM workload the measurement flags run against: a
/// --workload= Table I case bound to its dataset, else the canonical
/// nested workload.
static bool selectVmWorkload(const std::string &WorkloadSpec,
                             const EmpiricalOptions &Opts, VmWorkload &Out) {
  if (!WorkloadSpec.empty()) {
    BenchCase Case;
    std::string SpecError;
    if (!parseWorkloadSpec(WorkloadSpec, Case, SpecError)) {
      std::fprintf(stderr, "error: bad --workload= spec '%s': %s\n",
                   WorkloadSpec.c_str(), SpecError.c_str());
      return false;
    }
    Out = kernelVmWorkload(Case);
  } else {
    Out = canonicalTuneWorkload(Opts.Seed);
  }
  return true;
}

/// Writes the tuned-table entry for search \p R over \p Workload (a
/// --workload= spec) to \p Path.
static bool writeTuneReport(const std::string &Path,
                            const std::string &Workload, unsigned Budget,
                            unsigned Seed, const EmpiricalTuneResult &R) {
  TunedEntry Entry;
  Entry.Workload = Workload;
  Entry.Mode = R.Mode;
  Entry.Budget = Budget;
  Entry.Seed = Seed;
  Entry.Pipeline = R.Pipeline;
  Entry.TimeUs = R.TimeUs;
  Entry.VmEvaluations = R.VmEvaluations;
  return writeTunedEntryFile(Path, Entry);
}

/// --print-vm-stats / --profile-out: compile \p Pipeline over the selected
/// workload, execute the measurement sample on the VM, and report the
/// event counts plus the trace-execution counters (\p PrintStats) and/or
/// record the harvested per-launch-site profile (\p ProfileOutPath).
/// \p ProfileIn backs the `profile` pass parameter in \p Pipeline.
static bool runVmPipeline(const std::string &Pipeline,
                          const std::string &WorkloadSpec,
                          const EmpiricalOptions &Opts,
                          const LaunchProfile *ProfileIn,
                          const std::string &ProfileOutPath, bool PrintStats) {
  VmWorkload Workload;
  if (!selectVmWorkload(WorkloadSpec, Opts, Workload))
    return false;
  std::string Name = Workload.Name;
  GpuModel Gpu;
  EmpiricalEvaluator Eval(Gpu, std::move(Workload), Opts);
  Eval.setProfile(ProfileIn);
  LaunchProfile Harvested;
  std::optional<VmMeasurement> M = Eval.measurePipeline(
      Pipeline, ProfileOutPath.empty() ? nullptr : &Harvested);
  if (!M) {
    std::fprintf(stderr, "error: %s\n", Eval.lastError().c_str());
    return false;
  }
  if (!ProfileOutPath.empty()) {
    std::ofstream Out(ProfileOutPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   ProfileOutPath.c_str());
      return false;
    }
    Out << serializeProfile(Harvested);
    std::fprintf(stderr, "wrote profile %s (%zu sites)\n",
                 ProfileOutPath.c_str(), Harvested.Sites.size());
  }
  if (!PrintStats)
    return true;
  uint64_t Retired = M->TraceEntries + M->TraceIters;
  std::fprintf(stderr, "vm stats: workload %s, pipeline %s\n", Name.c_str(),
               Pipeline.empty() ? "(untransformed)" : Pipeline.c_str());
  std::fprintf(stderr, "  steps            %llu\n",
               (unsigned long long)M->Steps);
  std::fprintf(stderr, "  grids launched   %llu (device %llu, host %llu)\n",
               (unsigned long long)M->GridsLaunched,
               (unsigned long long)M->DeviceLaunches,
               (unsigned long long)M->HostLaunches);
  std::fprintf(stderr, "  blocks executed  %llu\n",
               (unsigned long long)M->BlocksExecuted);
  std::fprintf(stderr, "  threads executed %llu\n",
               (unsigned long long)M->ThreadsExecuted);
  std::fprintf(stderr, "  traces formed    %llu\n",
               (unsigned long long)M->TracesFormed);
  std::fprintf(stderr, "  trace entries    %llu\n",
               (unsigned long long)M->TraceEntries);
  std::fprintf(stderr, "  trace iterations %llu\n",
               (unsigned long long)M->TraceIters);
  std::fprintf(stderr, "  trace side exits %llu (%.2f%% of %llu retirements)\n",
               (unsigned long long)M->TraceSideExits,
               100.0 * (double)M->TraceSideExits /
                   (double)std::max<uint64_t>(1, Retired),
               (unsigned long long)Retired);
  if (M->SpecGuardPass || M->SpecGuardFail)
    std::fprintf(stderr, "  spec guard       %llu pass, %llu fail\n",
                 (unsigned long long)M->SpecGuardPass,
                 (unsigned long long)M->SpecGuardFail);
  return true;
}

/// --serve=FILE: drain a request-list file through one CompileService —
/// compiles and tunes processed concurrently on the service worker pool,
/// artifacts shared through the content-addressed cache, results reported
/// in request order. Returns the process exit code.
static int runServe(const std::string &ServePath, ServiceConfig SC,
                    bool PrintCacheStats) {
  std::ifstream In(ServePath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", ServePath.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::vector<ServeRequest> Reqs;
  std::string ParseError;
  if (!parseServeRequests(Buf.str(), Reqs, ParseError)) {
    std::fprintf(stderr, "error: bad request file '%s': %s\n",
                 ServePath.c_str(), ParseError.c_str());
    return 1;
  }
  if (Reqs.empty()) {
    std::fprintf(stderr, "error: '%s' holds no requests\n", ServePath.c_str());
    return 1;
  }

  CompileService Service(SC);

  // Stage compile sources up front (sequential file IO, deterministic
  // diagnostics); workers then touch only the in-memory requests.
  std::vector<CompileRequest> CompileReqs(Reqs.size());
  std::vector<std::string> StageErrors(Reqs.size());
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const ServeRequest &R = Reqs[I];
    if (R.Kind != ServeRequest::Compile)
      continue;
    std::ifstream Src(R.SourcePath);
    if (!Src) {
      StageErrors[I] = "cannot open '" + R.SourcePath + "'";
      continue;
    }
    std::stringstream SrcBuf;
    SrcBuf << Src.rdbuf();
    CompileRequest &C = CompileReqs[I];
    C.Name = R.SourcePath;
    C.Source = SrcBuf.str();
    C.Pipeline = R.Pipeline;
    C.WantBytecode = R.WantBytecode;
    C.WantText = !R.OutputPath.empty();
    // Bytecode-bound requests need literal knob spellings (the VM has no
    // preprocessor); plain source-to-source requests keep the driver's
    // macro-spelling default.
    if (R.WantBytecode)
      C.Knobs = literalKnobConfig();
  }

  std::vector<CompileResponse> CompileResults(Reqs.size());
  std::vector<TuneResponse> TuneResults(Reqs.size());
  parallelFor(Reqs.size(), Service.workers(), [&](size_t I) {
    if (!StageErrors[I].empty())
      return;
    const ServeRequest &R = Reqs[I];
    if (R.Kind == ServeRequest::Compile) {
      CompileResults[I] = Service.compile(CompileReqs[I]);
      return;
    }
    TuneRequest T;
    T.WorkloadSpec = R.WorkloadSpec;
    T.Mode = R.Mode;
    T.Opts.Budget = R.Budget;
    T.Opts.Seed = R.Seed;
    T.WarmStart = R.WarmStart;
    TuneResults[I] = Service.tune(T);
  });

  // Report and write outputs in request order: the drain's schedule never
  // shows in what the user sees.
  unsigned Failures = 0;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    const ServeRequest &R = Reqs[I];
    if (!StageErrors[I].empty()) {
      std::fprintf(stderr, "[%zu] error: %s\n", I + 1,
                   StageErrors[I].c_str());
      ++Failures;
      continue;
    }
    if (R.Kind == ServeRequest::Compile) {
      const CompileResponse &Resp = CompileResults[I];
      if (!Resp.Ok) {
        std::fprintf(stderr, "[%zu] compile %s: error: %s\n", I + 1,
                     R.SourcePath.c_str(), Resp.Error.c_str());
        ++Failures;
        continue;
      }
      const char *How = Resp.Outcome == CacheOutcome::MemoryHit
                            ? "hit(memory)"
                            : Resp.Outcome == CacheOutcome::DiskHit
                                  ? "hit(disk)"
                                  : "miss";
      std::fprintf(stderr, "[%zu] compile %s: %s\n", I + 1,
                   R.SourcePath.c_str(), How);
      if (!R.OutputPath.empty()) {
        std::ofstream Out(R.OutputPath);
        Out << Resp.TransformedSource;
        if (!Out.good()) {
          std::fprintf(stderr, "[%zu] error: cannot write '%s'\n", I + 1,
                       R.OutputPath.c_str());
          ++Failures;
        }
      }
    } else {
      const TuneResponse &Resp = TuneResults[I];
      if (!Resp.Ok) {
        std::fprintf(stderr, "[%zu] tune %s: error: %s\n", I + 1,
                     R.WorkloadSpec.c_str(), Resp.Error.c_str());
        ++Failures;
        continue;
      }
      std::fprintf(stderr, "[%zu] tune %s: %s chose %s%s\n", I + 1,
                   R.WorkloadSpec.c_str(), tuneModeName(Resp.Result.Mode),
                   Resp.Result.Pipeline.empty() ? "(no transformation)"
                                                : Resp.Result.Pipeline.c_str(),
                   Resp.CacheHit ? " [cached]" : "");
      if (!R.TuneReportPath.empty()) {
        if (!writeTuneReport(R.TuneReportPath, R.WorkloadSpec, R.Budget,
                             R.Seed, Resp.Result)) {
          std::fprintf(stderr, "[%zu] error: cannot write '%s'\n", I + 1,
                       R.TuneReportPath.c_str());
          ++Failures;
        }
      }
    }
  }

  if (PrintCacheStats)
    std::fputs(Service.statsReport().c_str(), stdout);
  return Failures ? 1 : 0;
}

static void listPasses() {
  std::printf("pipeline grammar:  pipeline := pass (',' pass)*\n"
              "                   pass     := name ('[' param (':' param)* "
              "']')?\n"
              "e.g. -passes=threshold[256:fallback],coarsen[8],"
              "aggregate[multiblock:8:literal]\n\n"
              "registered passes:\n");
  for (const auto &[Name, Description] : PassRegistry::global().entries())
    std::printf("  %-16s %s\n", Name.c_str(), Description.c_str());
  std::printf("\nknob spellings: 'macro' (default) emits _THRESHOLD/_CFACTOR/"
              "_AGG_SIZE macros\nwith the configured values as defaults; "
              "'literal' inlines the values (required\nfor VM execution).\n");
}

int main(int argc, char **argv) {
  // The -t/-c/-a flags pick passes; the knob flags fill one config that
  // also supplies the defaults of a -passes= pipeline.
  PassPipelineConfig Knobs;
  bool Threshold = false, Coarsen = false, Aggregate = false;
  std::string Input, Output, PassText;
  bool AnyPass = false;
  bool PrintPassStats = false;
  bool PrintVmStats = false;
  bool Tune = false;
  bool Calibrate = false;
  TuneMode Mode = TuneMode::Hybrid;
  EmpiricalOptions TuneOpts;
  std::string WorkloadSpec, TuneReport, ProfileInPath, ProfileOutPath;
  std::string ServePath;
  bool PrintCacheStats = false;
  bool HaveServiceFlag = false;
  ServiceConfig ServiceCfg = serviceConfigFromEnv();

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-t") {
      Threshold = AnyPass = true;
    } else if (Arg == "-c") {
      Coarsen = AnyPass = true;
    } else if (Arg == "-a") {
      Aggregate = AnyPass = true;
    } else if (Arg.rfind("--granularity=", 0) == 0) {
      std::string G = Arg.substr(14);
      if (G == "warp")
        Knobs.Granularity = AggGranularity::Warp;
      else if (G == "block")
        Knobs.Granularity = AggGranularity::Block;
      else if (G == "multiblock")
        Knobs.Granularity = AggGranularity::MultiBlock;
      else if (G == "grid")
        Knobs.Granularity = AggGranularity::Grid;
      else {
        std::fprintf(stderr, "error: unknown granularity '%s'\n", G.c_str());
        usage();
        return 1;
      }
    } else if (Arg.rfind("--threshold=", 0) == 0) {
      if (!parseCountFlag("--threshold", Arg.substr(12), Knobs.Threshold))
        return 1;
    } else if (Arg.rfind("--factor=", 0) == 0) {
      if (!parseCountFlag("--factor", Arg.substr(9), Knobs.CoarsenFactor))
        return 1;
    } else if (Arg.rfind("--group=", 0) == 0) {
      if (!parseCountFlag("--group", Arg.substr(8), Knobs.GroupSize))
        return 1;
      if (std::string Why = checkAggGroupSize(Knobs.GroupSize);
          !Why.empty()) {
        std::fprintf(stderr, "error: --group: %s\n", Why.c_str());
        return 1;
      }
    } else if (Arg.rfind("--agg-threshold=", 0) == 0) {
      unsigned AggThreshold = 0;
      if (!parseCountFlag("--agg-threshold", Arg.substr(16), AggThreshold))
        return 1;
      Knobs.AggThreshold = AggThreshold;
    } else if (Arg.rfind("-passes=", 0) == 0) {
      PassText = Arg.substr(8);
    } else if (Arg.rfind("--passes=", 0) == 0) {
      PassText = Arg.substr(9);
    } else if (Arg.rfind("--tune=", 0) == 0) {
      if (!parseTuneMode(Arg.substr(7), Mode)) {
        std::fprintf(stderr,
                     "error: unknown tuning mode '%s' (expected analytic, "
                     "empirical, or hybrid)\n",
                     Arg.substr(7).c_str());
        return 1;
      }
      Tune = true;
    } else if (Arg.rfind("--tune-budget=", 0) == 0) {
      if (!parseCountFlag("--tune-budget", Arg.substr(14), TuneOpts.Budget))
        return 1;
    } else if (Arg.rfind("--tune-seed=", 0) == 0) {
      if (!parseCountFlag("--tune-seed", Arg.substr(12), TuneOpts.Seed))
        return 1;
    } else if (Arg.rfind("--workload=", 0) == 0) {
      WorkloadSpec = Arg.substr(11);
    } else if (Arg.rfind("--tune-report=", 0) == 0) {
      TuneReport = Arg.substr(14);
    } else if (Arg.rfind("--profile-in=", 0) == 0) {
      ProfileInPath = Arg.substr(13);
    } else if (Arg.rfind("--profile-out=", 0) == 0) {
      ProfileOutPath = Arg.substr(14);
    } else if (Arg.rfind("--serve=", 0) == 0) {
      ServePath = Arg.substr(8);
      HaveServiceFlag = true;
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      ServiceCfg.CacheDir = Arg.substr(12);
      HaveServiceFlag = true;
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      unsigned MiB = 0;
      if (!parseCountFlag("--cache-bytes", Arg.substr(14), MiB))
        return 1;
      ServiceCfg.CacheMaxBytes = (uint64_t)MiB * 1024 * 1024;
      HaveServiceFlag = true;
    } else if (Arg.rfind("--service-workers=", 0) == 0) {
      unsigned W = 0;
      if (!parseCountFlag("--service-workers", Arg.substr(18), W))
        return 1;
      ServiceCfg.Workers = W;
      HaveServiceFlag = true;
    } else if (Arg.rfind("--tuned-dir=", 0) == 0) {
      ServiceCfg.TunedTableDir = Arg.substr(12);
      HaveServiceFlag = true;
    } else if (Arg == "--cache-stats") {
      PrintCacheStats = true;
      HaveServiceFlag = true;
    } else if (Arg == "--calibrate") {
      Calibrate = true;
    } else if (Arg == "--print-pass-stats") {
      PrintPassStats = true;
    } else if (Arg == "--print-vm-stats") {
      PrintVmStats = true;
    } else if (Arg == "--list-passes") {
      listPasses();
      return 0;
    } else if (Arg == "-o" && I + 1 < argc) {
      Output = argv[++I];
    } else if (Arg == "-h" || Arg == "--help") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Input = Arg;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      usage();
      return 1;
    }
  }
  if (!ServePath.empty()) {
    if (AnyPass || !PassText.empty() || Tune || Calibrate || PrintVmStats ||
        !Input.empty()) {
      std::fprintf(stderr,
                   "error: --serve= runs a request file and cannot be "
                   "combined with per-file compile or tune flags\n");
      return 1;
    }
    return runServe(ServePath, ServiceCfg, PrintCacheStats);
  }
  if (HaveServiceFlag) {
    std::fprintf(stderr,
                 "error: --cache-dir=/--cache-bytes=/--service-workers=/"
                 "--tuned-dir=/--cache-stats require --serve=\n");
    return 1;
  }
  if (!PassText.empty() && AnyPass) {
    std::fprintf(stderr, "error: -passes= cannot be combined with -t/-c/-a\n");
    return 1;
  }
  if (Tune && (AnyPass || !PassText.empty())) {
    std::fprintf(stderr,
                 "error: --tune= cannot be combined with -t/-c/-a or "
                 "-passes=\n");
    return 1;
  }
  if (!WorkloadSpec.empty() && !Tune && !PrintVmStats && !Calibrate &&
      ProfileOutPath.empty()) {
    std::fprintf(stderr,
                 "error: --workload= requires --tune=, --print-vm-stats, "
                 "--profile-out=, or --calibrate\n");
    return 1;
  }
  if (!TuneReport.empty() && !Tune) {
    std::fprintf(stderr, "error: --tune-report= requires --tune=\n");
    return 1;
  }
  // Profile recording defaults to the *untransformed* program — the
  // record step of the profile-guided workflow; explicit -t/-c/-a or
  // -passes= still select a pipeline to record under.
  if (PassText.empty() && !AnyPass && !Tune && ProfileOutPath.empty())
    Threshold = Coarsen = Aggregate = true;
  if (Input.empty() && TuneReport.empty() && !PrintVmStats && !Calibrate &&
      ProfileOutPath.empty()) {
    usage();
    return 1;
  }

  LaunchProfile ProfileData;
  bool HaveProfile = false;
  if (!ProfileInPath.empty()) {
    std::ifstream PIn(ProfileInPath);
    if (!PIn) {
      std::fprintf(stderr, "error: cannot open profile '%s'\n",
                   ProfileInPath.c_str());
      return 1;
    }
    std::stringstream PBuf;
    PBuf << PIn.rdbuf();
    std::string PErr;
    if (!parseProfile(PBuf.str(), ProfileData, PErr)) {
      std::fprintf(stderr, "error: bad profile '%s': %s\n",
                   ProfileInPath.c_str(), PErr.c_str());
      return 1;
    }
    Knobs.Profile = &ProfileData;
    HaveProfile = true;
  }

  if (Calibrate) {
    // Fit the analytic model's launch/dispatch constants to VM-measured
    // makespans of the selected workload (src/tuner/Calibrate.h).
    GpuModel Gpu;
    VariantMask Full;
    Full.Thresholding = Full.Coarsening = Full.Aggregation = true;
    VmWorkload Workload;
    if (!selectVmWorkload(WorkloadSpec, TuneOpts, Workload))
      return 1;
    CalibrationOptions COpts;
    COpts.Empirical = TuneOpts;
    CalibrationResult CR = calibrateGpuModel(Gpu, Workload, Full, COpts);
    std::fprintf(stderr, "%s", calibrationReport(CR).c_str());
    if (!CR.Ok)
      return 1;
    if (Input.empty() && !PrintVmStats && ProfileOutPath.empty())
      return 0; // calibrate-only mode
  }

  if (Tune) {
    // Tune against the selected workload — a real Table I kernel bound to
    // its dataset (--workload=), or the canonical nested workload over a
    // deterministic skewed batch stream — then realize the winner as the
    // pipeline for the input file. Knob macros keep the tuned values as
    // their defaults, so the emitted .cu stays re-tunable at compile time.
    GpuModel Gpu;
    VariantMask Full;
    Full.Thresholding = Full.Coarsening = Full.Aggregation = true;
    VmWorkload Workload;
    if (!selectVmWorkload(WorkloadSpec, TuneOpts, Workload))
      return 1;
    if (!WorkloadSpec.empty())
      std::fprintf(stderr, "tuning against %s (%s)\n", Workload.Name.c_str(),
                   WorkloadSpec.c_str());
    EmpiricalTuneResult R = tuneWorkload(Mode, Gpu, Workload, Full, TuneOpts);
    std::fprintf(stderr, "%s tuning chose: %s\n", tuneModeName(R.Mode),
                 R.Pipeline.empty() ? "(no transformation)"
                                    : R.Pipeline.c_str());
    if (R.Mode == TuneMode::Analytic)
      std::fprintf(stderr, "  %.1f us simulated, %u simulator probes\n",
                   R.TimeUs, R.SimProbes);
    else
      std::fprintf(stderr,
                   "  %.1f us from VM-measured cycles; %u/%u VM executions"
                   "%s%u analytic probes\n",
                   R.TimeUs, R.VmEvaluations, TuneOpts.Budget,
                   R.SimProbes ? ", " : " and ", R.SimProbes);
    if (!TuneReport.empty()) {
      std::string Spec = WorkloadSpec.empty() ? "canonical" : WorkloadSpec;
      // Directory form: let tunedTableFileName pick the canonical name,
      // so the spec-to-filename mapping has a single owner.
      if (TuneReport.back() == '/')
        TuneReport += tunedTableFileName(Spec);
      if (!writeTuneReport(TuneReport, Spec, TuneOpts.Budget, TuneOpts.Seed,
                           R)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     TuneReport.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", TuneReport.c_str());
      if (Input.empty())
        return 0; // tune-only mode
    }
    PassText = R.Pipeline;
  } else if (PassText.empty()) {
    // The -t/-c/-a flags, in the Fig. 8(a) order.
    PassText = std::string(Threshold ? "threshold," : "") +
               (Coarsen ? "coarsen," : "") + (Aggregate ? "aggregate," : "");
    if (!PassText.empty())
      PassText.pop_back();
  }

  // One spelling from here on: the canonical text of the pipeline with
  // the knob flags filled in, so `-passes=threshold --threshold=256`
  // measures and emits the same threshold[256] the -t form would.
  std::string Pipeline, PipelineError;
  if (!canonicalPipelineText(PassText, Knobs, Pipeline, PipelineError)) {
    std::fprintf(stderr, "error: invalid pass pipeline: %s\n",
                 PipelineError.c_str());
    return 1;
  }

  if (PrintVmStats || !ProfileOutPath.empty()) {
    if (!runVmPipeline(Pipeline, WorkloadSpec, TuneOpts,
                       HaveProfile ? &ProfileData : nullptr, ProfileOutPath,
                       PrintVmStats))
      return 1;
    if (Input.empty())
      return 0; // stats-only / record-only mode
  }

  std::ifstream In(Input);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Input.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  // An empty pipeline (the tuner chose the untransformed program, or a
  // record-only run) copies the input through unchanged.
  std::string Result = Buffer.str();
  if (!Pipeline.empty()) {
    DiagnosticEngine Diags;
    std::string Stats;
    Result = transformSourceWithPipeline(Result, Pipeline, Knobs, Diags,
                                         PrintPassStats ? &Stats : nullptr);
    std::fputs(Stats.c_str(), stderr);
    for (const Diagnostic &D : Diags.diagnostics())
      std::fprintf(stderr, "%s:%u:%u: %s\n", Input.c_str(), D.Loc.Line,
                   D.Loc.Column, D.Message.c_str());
    if (Result.empty())
      return 1;
  }

  if (Output.empty()) {
    std::cout << Result;
  } else {
    std::ofstream Out(Output);
    Out << Result;
    std::fprintf(stderr, "wrote %s\n", Output.c_str());
  }
  return 0;
}
