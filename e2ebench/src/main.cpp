//===--- main.cpp - The end-to-end request benchmark's closed loop ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload as a closed loop with one client: each request is
/// issued when the previous one has returned, for about --seconds seconds
/// of whole request cycles (at least one). Prints a report, then
/// one JSON line with the end-to-end metrics (--trace 0) or the per-layer
/// metrics of a traced pass (--trace 1).
///
///   e2ebench --workload NAME --seed N --seconds S --trace 0|1
///            [--root DIR] [--scratch DIR]
///
/// --root is the repository checkout (for bench/tuned/), --scratch a
/// directory the run may write (service cache, trace file).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "sim/GpuModel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

using namespace e2e;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";
  std::string Scratch = ".bench_build/e2ebench";
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      O.Workload = Val;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
    } else if (Key == "--trace") {
      O.Trace = Val == "1";
    } else if (Key == "--root") {
      O.Root = Val;
    } else if (Key == "--scratch") {
      O.Scratch = Val;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "interactive")
    return makeInteractiveWorkload();
  if (O.Workload == "table1")
    return makeTable1Workload(O.Root);
  if (O.Workload == "service")
    return makeServiceWorkload(O.Scratch);
  if (O.Workload == "tune")
    return makeTuneWorkload(O.Root);
  return nullptr;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples above it (nearest-rank). Runs too short for any of them report
/// the median.
struct Tail {
  double Percentile = 50;
  double Value = 0;
  size_t Beyond = 0;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    size_t Rank = (size_t)std::ceil(P / 100.0 * (double)N);
    size_t Idx = Rank ? Rank - 1 : 0;
    size_t Beyond = N - 1 - Idx;
    if (Beyond >= 10) {
      T.Percentile = P;
      T.Value = V[Idx];
      T.Beyond = Beyond;
      return T;
    }
  }
  T.Value = median(V);
  T.Beyond = N / 2;
  return T;
}

struct PassResult {
  std::vector<double> Latency, Compile, Run; ///< ms, successful requests.
  std::map<std::string, std::vector<double>> ByKind; ///< Latency by kind.
  std::vector<double> CycleRps; ///< Requests per second of each whole cycle.
  uint64_t Attempted = 0, Failed = 0;
  double WallS = 0;
  std::vector<std::string> Failures; ///< First few reasons.
};

PassResult runPass(Workload &W, Context &Ctx, double Seconds) {
  PassResult R;
  Ctx.Counters.clear();
  W.beginPass();
  unsigned Prefix = W.prefixRequests();
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + (uint64_t)(Seconds * 1e9);
  uint64_t CycleStart = Start, End = Start;
  for (uint64_t I = 0;; ++I) {
    if (I && I % Prefix == 0) {
      End = nowNs();
      uint64_t Cycle = End - CycleStart;
      R.CycleRps.push_back((double)Prefix / ((double)Cycle / 1e9));
      CycleStart = End;
      // Stop on the cycle boundary nearest the deadline.
      if (End + Cycle / 2 >= Deadline)
        break;
    }
    Ctx.Counting = I < Prefix;
    Ctx.Trace.setRequest((uint32_t)I);
    RequestTimes T;
    std::string Why;
    uint64_t T0 = nowNs();
    bool Ok = W.request(Ctx, I, T, Why);
    uint64_t T1 = nowNs();
    ++R.Attempted;
    if (Ok) {
      R.Latency.push_back((double)(T1 - T0) / 1e6);
      R.ByKind[T.Kind].push_back(R.Latency.back());
      if (T.CompileMs >= 0)
        R.Compile.push_back(T.CompileMs);
      if (T.RunMs >= 0)
        R.Run.push_back(T.RunMs);
    } else {
      ++R.Failed;
      if (R.Failures.size() < 5)
        R.Failures.push_back("request " + std::to_string(I) + ": " + Why);
    }
    if (I + 1 == Prefix)
      W.endPrefix(Ctx);
  }
  Ctx.Counting = false;
  R.WallS = (double)(End - Start) / 1e9;
  return R;
}

/// Prints "name=value" JSON members with every digit the double holds.
struct JsonObject {
  std::string Text;
  void add(const std::string &Name, double V, const char *Unit) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  Text.empty() ? "" : ", ", Name.c_str(),
                  std::isfinite(V) ? V : 0.0, Unit);
    Text += Buf;
  }
};

double counter(const Context &Ctx, const char *Name) {
  auto It = Ctx.Counters.find(Name);
  return It == Ctx.Counters.end() ? 0 : It->second;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Layers in report order. A layer's share is its self time over the
/// traced requests' total time.
const char *const Layers[] = {
    "parse",          "transform",       "transform.print",
    "transform.reparse", "vm.compile",   "vm.peephole",
    "vm.device_build", "vm.stage",       "vm.exec",
    "vm.readback",    "vm.device_free",  "vm.run_case",
    "service.key",    "service.compile", "tuner.tune"};

/// The counts a same-seed rerun must reproduce exactly.
const char *const DeterministicCounters[] = {
    "vm.exec.steps",         "vm.exec.device_launches",
    "vm.compile.instrs",     "vm.peephole.instrs_out",
    "service.requests",      "service.memory_hits",
    "service.disk_hits",     "service.misses",
    "service.disk_stores",   "service.evictions",
    "tuner.vm_evaluations",  "tuner.sim_probes"};

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload interactive|table1|service|tune "
                 "--seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--scratch DIR]\n");
    return 2;
  }
  // Devices the library builds internally (the tuner's) take their
  // worker count and engine from the environment: one worker keeps step
  // counts exact, and the default engine is the one callers get.
  setenv("DPO_VM_WORKERS", "1", 1);
  unsetenv("DPO_VM_EXEC");
  std::filesystem::create_directories(O.Scratch);

  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  std::printf("e2ebench: workload=%s seed=%llu seconds=%g trace=%d "
              "clients=1 device_workers=1 tuner_workers=1 "
              "service_workers=1 nproc=%u\n",
              W->name(), (unsigned long long)O.Seed, O.Seconds, O.Trace ? 1 : 0,
              std::thread::hardware_concurrency());

  // Set up several times, cheap set-ups for about SetupBudgetS seconds;
  // setup_s is the median.
  constexpr size_t MinSetups = 9, MaxSetups = 101;
  constexpr double SetupBudgetS = 1.5;
  std::vector<double> SetupS;
  uint64_t SetupStart = nowNs();
  while (SetupS.size() < MinSetups ||
         (SetupS.size() < MaxSetups &&
          (double)(nowNs() - SetupStart) / 1e9 < SetupBudgetS)) {
    std::string Error;
    uint64_t T0 = nowNs();
    bool Ok = W->setup(O.Seed, Error);
    SetupS.push_back((double)(nowNs() - T0) / 1e9);
    if (!Ok) {
      std::fprintf(stderr, "e2ebench: setup failed: %s\n", Error.c_str());
      return 1;
    }
  }

  Context Ctx;
  double PassSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  PassResult Plain = runPass(*W, Ctx, PassSeconds);
  PassResult Traced;
  if (O.Trace) {
    Ctx.Trace.setEnabled(true);
    Traced = runPass(*W, Ctx, PassSeconds);
    Ctx.Trace.setEnabled(false);
  }

  Finish F;
  std::string FinishWhy;
  Context Quiet;
  bool FinishOk = W->finish(Quiet, F, FinishWhy);

  uint64_t Attempted = Plain.Attempted + Traced.Attempted;
  uint64_t Failed = Plain.Failed + Traced.Failed + (FinishOk ? 0 : 1);
  bool Correct = Failed == 0;
  for (const std::string &Why : Plain.Failures)
    std::printf("FAILED %s\n", Why.c_str());
  for (const std::string &Why : Traced.Failures)
    std::printf("FAILED (traced) %s\n", Why.c_str());
  if (!FinishOk)
    std::printf("FAILED post-run check: %s\n", FinishWhy.c_str());

  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  double PeakRssMb = (double)RU.ru_maxrss / 1024.0;
  double UserS = (double)RU.ru_utime.tv_sec + RU.ru_utime.tv_usec / 1e6;
  double SysS = (double)RU.ru_stime.tv_sec + RU.ru_stime.tv_usec / 1e6;

  Tail T = tailOf(Plain.Latency);
  double SetupMedian = median(SetupS);
  double P50 = median(Plain.Latency);
  double Rps = median(Plain.CycleRps);
  double CompileP50 = median(Plain.Compile);

  // The report: every end-to-end metric by name and unit.
  std::printf("setup_s          %.6f s (median of %zu)\n", SetupMedian,
              SetupS.size());
  std::printf("latency_p50_ms   %.6f ms over %zu requests\n", P50,
              Plain.Latency.size());
  std::printf("latency_tail_ms  %.6f ms (p%g, %zu samples beyond, n=%zu)\n",
              T.Value, T.Percentile, T.Beyond, Plain.Latency.size());
  std::printf("throughput_rps   %.6f req/s (median of %zu cycles; %.6f over "
              "the whole pass)\n",
              Rps, Plain.CycleRps.size(),
              ratio((double)Plain.Latency.size(), Plain.WallS));
  std::printf("compile_ms_p50   %.6f ms\n", CompileP50);
  if (!Plain.Run.empty())
    std::printf("run_ms_p50       %.6f ms\n", median(Plain.Run));
  else
    std::printf("run_ms_p50       n/a (no execution in this workload)\n");
  std::printf("peak_rss_mb      %.3f MiB\n", PeakRssMb);
  for (const auto &[Kind, Lat] : Plain.ByKind)
    if (!Kind.empty())
      std::printf("  kind %-28s p50 %.6f ms over %zu requests\n",
                  Kind.c_str(), median(Lat), Lat.size());
  std::printf("failed_frac      %.6f (%llu of %llu)\n",
              ratio((double)Failed, (double)Attempted),
              (unsigned long long)Failed, (unsigned long long)Attempted);
  if (F.ModelGpuUs >= 0)
    std::printf("model_gpu_us     %.6f us (geomean over %u programs)\n",
                F.ModelGpuUs, F.Programs);
  else
    std::printf("model_gpu_us     n/a (no execution in this workload)\n");
  std::printf("code_instrs      %.6f count (geomean over %u programs)\n",
              F.CodeInstrs, F.Programs);
  std::printf("proc             user %.3f s, sys %.3f s, minor faults %ld\n",
              UserS, SysS, RU.ru_minflt);

  // Counts a same-seed rerun must reproduce (the self-test compares them).
  {
    std::string Det = "{";
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "\"code_instrs\": %.17g", F.CodeInstrs);
    Det += Buf;
    std::snprintf(Buf, sizeof(Buf), ", \"model_gpu_us\": %.17g", F.ModelGpuUs);
    Det += Buf;
    for (const char *Name : DeterministicCounters) {
      std::snprintf(Buf, sizeof(Buf), ", \"%s\": %.17g", Name,
                    counter(Ctx, Name));
      Det += Buf;
    }
    std::printf("deterministic: %s}\n", Det.c_str());
  }

  JsonObject M;
  if (!O.Trace) {
    M.add("setup_s", SetupMedian, "s");
    M.add("latency_p50_ms", P50, "ms");
    M.add("throughput_rps", Rps, "req/s");
    M.add("compile_ms_p50", CompileP50, "ms");
    M.add("code_instrs", F.CodeInstrs, "count");
  } else {
    std::map<std::string, LayerTime> LT = Ctx.Trace.layerTimes();
    double TracedMs = 0;
    for (double L : Traced.Latency)
      TracedMs += L;
    double Requests = (double)Traced.Attempted;
    double Covered = 0;
    std::printf("traced pass: %zu requests, %.3f ms of request time\n",
                Traced.Latency.size(), TracedMs);
    for (const char *Name : Layers) {
      const LayerTime &L = LT[Name];
      double Pct = 100.0 * ratio(L.SelfMs, TracedMs);
      Covered += Pct;
      std::printf("  %-18s self %.6f ms/request  %6.2f%%  calls %.3f/request\n",
                  Name, ratio(L.SelfMs, Requests), Pct,
                  ratio((double)L.Calls, Requests));
      M.add(std::string(Name) + ".self_pct", Pct, "%");
      M.add(std::string(Name) + ".calls", ratio((double)L.Calls, Requests),
            "count");
    }
    M.add("bench.self_pct", 100.0 - Covered, "%");

    // Counts over the traced pass's request prefix, and rates over the
    // prefix's time (vm.run_case contains the table1 launches).
    std::map<std::string, LayerTime> Prefix =
        Ctx.Trace.layerTimes(W->prefixRequests());
    double PrefixExecMs = Prefix["vm.exec"].SelfMs + Prefix["vm.run_case"].SelfMs;
    M.add("parse.bytes", counter(Ctx, "parse.bytes"), "bytes");
    M.add("transform.out_bytes", counter(Ctx, "transform.out_bytes"),
          "bytes");
    M.add("vm.compile.instrs", counter(Ctx, "vm.compile.instrs"), "count");
    M.add("vm.peephole.instrs_out", counter(Ctx, "vm.peephole.instrs_out"),
          "count");
    M.add("vm.peephole.kept_ratio",
          ratio(counter(Ctx, "vm.peephole.instrs_out"),
                counter(Ctx, "vm.compile.instrs")),
          "ratio");
    M.add("vm.device_build.bytes", counter(Ctx, "vm.device_build.bytes"),
          "bytes");
    M.add("vm.decode.instrs_in", counter(Ctx, "vm.decode.instrs_in"), "count");
    M.add("vm.decode.instrs_out", counter(Ctx, "vm.decode.instrs_out"),
          "count");
    M.add("vm.decode.traces", counter(Ctx, "vm.decode.traces"), "count");
    M.add("vm.stage.bytes", counter(Ctx, "vm.stage.bytes"), "bytes");
    M.add("vm.exec.steps", counter(Ctx, "vm.exec.steps"), "count");
    M.add("vm.exec.device_launches", counter(Ctx, "vm.exec.device_launches"),
          "count");
    M.add("vm.exec.grids", counter(Ctx, "vm.exec.grids"), "count");
    M.add("vm.exec.blocks", counter(Ctx, "vm.exec.blocks"), "count");
    M.add("vm.exec.steps_per_s",
          ratio(counter(Ctx, "vm.exec.steps"), PrefixExecMs / 1e3), "1/s");
    double Entries = counter(Ctx, "vm.exec.trace_entries");
    M.add("vm.exec.trace_hit_ratio",
          ratio(Entries - counter(Ctx, "vm.exec.trace_side_exits"), Entries),
          "ratio");
    double Pass = counter(Ctx, "vm.exec.spec_guard_pass");
    M.add("vm.exec.spec_guard_pass_ratio",
          ratio(Pass, Pass + counter(Ctx, "vm.exec.spec_guard_fail")),
          "ratio");
    double SvcReq = counter(Ctx, "service.requests");
    M.add("service.hit_ratio", ratio(counter(Ctx, "service.memory_hits"), SvcReq),
          "ratio");
    M.add("service.disk_hit_ratio",
          ratio(counter(Ctx, "service.disk_hits"), SvcReq), "ratio");
    M.add("service.disk_stores", counter(Ctx, "service.disk_stores"), "count");
    M.add("service.evictions", counter(Ctx, "service.evictions"), "count");
    M.add("service.corrupt", counter(Ctx, "service.corrupt"), "count");
    M.add("tuner.vm_evaluations", counter(Ctx, "tuner.vm_evaluations"),
          "count");
    M.add("tuner.sim_probes", counter(Ctx, "tuner.sim_probes"), "count");
    M.add("tuner.evals_per_s",
          ratio(counter(Ctx, "tuner.vm_evaluations"),
                Prefix["tuner.tune"].SelfMs / 1e3),
          "1/s");
    M.add("model.gpu_cycles",
          F.ModelGpuUs > 0 ? F.ModelGpuUs * dpo::GpuModel().ClockGHz * 1e3 : 0,
          "cycles");
    M.add("proc.peak_rss_mb", PeakRssMb, "MiB");
    M.add("proc.user_s", UserS, "s");
    M.add("proc.sys_s", SysS, "s");
    M.add("proc.minor_faults", (double)RU.ru_minflt, "count");
    double TracedP50 = median(Traced.Latency);
    M.add("trace.overhead_pct", 100.0 * ratio(TracedP50 - P50, P50), "%");
    std::printf("tracing overhead: traced p50 %.6f ms vs untraced p50 "
                "%.6f ms\n",
                TracedP50, P50);

    std::string TracePath = O.Scratch + "/trace-" + W->name() + ".json";
    if (Ctx.Trace.writeChromeTrace(TracePath))
      std::printf("spans written to %s\n", TracePath.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed, M.Text.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
