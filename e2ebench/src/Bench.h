//===--- Bench.h - Shared pieces of the end-to-end request benchmark ----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the request context
/// (tracer plus per-layer counters), the traced compile path from source
/// text to a VmProgram through the public library calls, the traced device
/// steps of a request, and the Workload interface the closed loop in
/// main.cpp runs.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include "Trace.h"

#include "transform/PassManager.h"
#include "vm/Bytecode.h"
#include "vm/VM.h"
#include "workloads/Differential.h"

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Per-layer counts (bytes, instructions, steps, cache outcomes). They
/// accumulate only while Counting is set: main.cpp sets it for the
/// fixed-length request prefix every run executes, so the counts repeat
/// exactly for one seed however many requests fit in the time budget.
struct Context {
  Tracer Trace;
  bool Counting = false;
  std::map<std::string, double> Counters;

  void count(const std::string &Name, double V) {
    if (Counting)
      Counters[Name] += V;
  }
};

/// Where a request's time went, for compile_ms_p50 / run_ms_p50, and
/// what kind of request it was (for the per-kind report lines).
struct RequestTimes {
  double CompileMs = -1; ///< Source text to VmProgram (< 0: not part of it).
  double RunMs = -1;     ///< Device construction through readback.
  std::string Kind;
};

/// Deterministic results a workload computes after its timed loop.
struct Finish {
  double CodeInstrs = 0;  ///< Geomean bytecode instructions per program.
  double ModelGpuUs = -1; ///< Geomean modelled GPU time (< 0: none).
  unsigned Programs = 0;  ///< Distinct programs behind the two numbers.
};

class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// Builds every input of a run from \p Seed: datasets, native
  /// references, request streams, service seeding. main.cpp calls it
  /// several times and reports the median as setup_s; each call replaces
  /// the previous state.
  virtual bool setup(uint64_t Seed, std::string &Error) = 0;
  /// Starts a pass over the request stream from the post-setup state
  /// (fresh service instances and cache directories).
  virtual void beginPass() {}
  /// Requests every pass runs whatever the deadline: the deterministic
  /// prefix the per-layer counts cover. It is also the stream's cycle: a
  /// pass stops at the multiple of it nearest the deadline (at least one),
  /// so every run weighs the request kinds alike.
  virtual unsigned prefixRequests() const = 0;
  /// Runs request \p I of the stream. Returns false with \p Why when the
  /// request failed or its output did not match the reference.
  virtual bool request(Context &Ctx, uint64_t I, RequestTimes &T,
                       std::string &Why) = 0;
  /// Called once the prefix has run, with Ctx.Counting still set, so
  /// workloads can fold end-of-prefix snapshots into the counts.
  virtual void endPrefix(Context &Ctx) {}
  /// After the timed loops: the deterministic code metrics and any
  /// post-run verification. Returns false with \p Why on a failed check.
  virtual bool finish(Context &Ctx, Finish &F, std::string &Why) = 0;
};

/// \p Root is the repository checkout (for bench/tuned/), \p Scratch a
/// directory the workload may write.
std::unique_ptr<Workload> makeInteractiveWorkload();
std::unique_ptr<Workload> makeTable1Workload(const std::string &Root);
std::unique_ptr<Workload> makeServiceWorkload(const std::string &Scratch);
std::unique_ptr<Workload> makeTuneWorkload(const std::string &Root);

//===----------------------------------------------------------------------===//
// The traced request steps
//===----------------------------------------------------------------------===//

/// Source text to VmProgram the way the library's own compile paths do it
/// (CompileService, the differential harness, the tuner): parse, run the
/// textual pass pipeline, print, re-parse, lower to bytecode, peephole.
/// Each public call gets its own span. Returns false with \p Error.
bool compileSource(Context &Ctx, std::string_view Source,
                   const std::string &Pipeline,
                   const dpo::PassPipelineConfig &Knobs, dpo::VmProgram &Out,
                   std::string &Error);

/// Bytecode instructions in \p P.
uint64_t instrCount(const dpo::VmProgram &P);

/// The memory size a Device gets when its constructor is given none
/// (measured once by filling an empty program's device).
uint64_t libraryDefaultDeviceBytes();

/// Constructs a Device under a "vm.device_build" span and records its
/// memory and decode counts. \p MemoryBytes 0 keeps the library default.
/// Device workers are pinned to 1.
std::unique_ptr<dpo::Device> buildDevice(Context &Ctx, dpo::VmProgram P,
                                         uint64_t MemoryBytes);

/// Folds one execution's VmStats into the vm.exec.* counts.
void countExec(Context &Ctx, const dpo::VmStats &S);

/// Modelled GPU time of one execution, in microseconds.
double modelGpuUs(const std::vector<dpo::GridRecord> &Log,
                  const dpo::VmStats &S);

double geomean(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Device halves of a request (Nested.cpp)
//===----------------------------------------------------------------------===//

/// The seeded generator every workload draws its stream from.
using Rng = std::mt19937_64;

/// The two nested-launch sources with the canonical parent signature
/// (out, counts, offsets, numV): 0 is the quickstart example's program,
/// 1 is nestedVmSource(32).
const std::string &nestedSource(unsigned Index);

/// One input for a nested source: per-parent child counts with the skew
/// the paper's optimizations target, and the output each source must
/// produce, computed natively.
struct NestedInput {
  std::vector<int32_t> Counts, Offsets;
  std::vector<int32_t> Expected[2];
};
NestedInput makeNestedInput(Rng &R, uint32_t NumV);

/// Device construction, staging, the parent launch and readback of a
/// nested program, each under its own span; the output must equal the
/// input's expectation for source \p Src. \p MemoryBytes 0 keeps the
/// library default. With \p ModelUs the grid log is on and the run is
/// priced by the GPU model.
bool runNested(Context &Ctx, dpo::VmProgram P, const NestedInput &In,
               unsigned Src, uint64_t MemoryBytes, double *ModelUs,
               std::string &Why);

/// The differential harness's default device size.
constexpr uint64_t KernelCaseMemoryBytes = 16ull << 20;

/// runKernelCaseOnVmProgram at one device worker. Device construction,
/// staging, every round's launches and readback happen inside it, so they
/// share the "vm.run_case" span.
dpo::DifferentialRun runKernelCase(Context &Ctx, const dpo::KernelCase &Case,
                                   dpo::VmProgram P, uint64_t MemoryBytes,
                                   bool GridLog);

/// The payload of \p Run must equal the native reference exactly.
bool checkKernelRun(const dpo::KernelCase &Case,
                    const dpo::WorkloadOutput &Ref,
                    const dpo::DifferentialRun &Run, std::string &Why);

/// A seeded permutation of [0, N).
std::vector<unsigned> permutation(unsigned N, Rng &R);

} // namespace e2e

#endif // E2EBENCH_BENCH_H
