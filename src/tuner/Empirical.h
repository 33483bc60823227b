//===--- Empirical.h - VM-in-the-loop autotuning ------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Empirical, measurement-driven parameter search: instead of asking the
/// analytic timing model (sim/Simulator.h) how a candidate ExecConfig
/// would perform, compile the workload through the candidate's pipeline
/// text (passPipelineTextFor -> compileWithPipeline, which runs the
/// PassManager and lowers the transformed AST to bytecode), execute it on
/// the VM against the workload's real batch stream, and score the config
/// from the *measured* event counts (instructions retired, device/host
/// launches, blocks dispatched).
///
/// Three tuning modes, selected by dpoptcc/autotune's --tune= flag:
///
///  - analytic:  the existing exhaustive sweep over the simulator (cheap,
///               model-only — Section VIII-C's methodology);
///  - empirical: successive halving over a seeded sample of the config
///               grid — every candidate runs on the VM against one sample
///               batch, the faster half graduates to more batches, and so
///               on until one survivor is measured at full resource — then
///               hill-climbing refinement around the winner;
///  - hybrid:    the simulator ranks the full grid first (free of VM
///               budget), and only the analytically-promising shortlist is
///               measured on the VM.
///
/// Every mode is deterministic: the VM is deterministic, the candidate
/// sample order is derived from EmpiricalOptions::Seed, and ranking ties
/// break by candidate order. Fixed (seed, budget) therefore reproduces the
/// chosen ExecConfig exactly. VM executions are bounded by
/// EmpiricalOptions::Budget; cached measurements (the same config, or two
/// configs lowering to the same pipeline) cost no budget.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TUNER_EMPIRICAL_H
#define DPO_TUNER_EMPIRICAL_H

#include "tuner/Tuner.h"
#include "vm/VM.h"
#include "workloads/VmWorkload.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dpo {

class LaunchProfile;

enum class TuneMode { Analytic, Empirical, Hybrid };

const char *tuneModeName(TuneMode Mode);
/// Parses "analytic" / "empirical" / "hybrid" (the --tune= spellings).
bool parseTuneMode(std::string_view Text, TuneMode &Out);

/// Knobs of the empirical search.
struct EmpiricalOptions {
  /// Maximum VM executions (a compile+run of one candidate against the
  /// sample counts as one; cache hits are free). Bounds empirical and
  /// hybrid mode alike.
  unsigned Budget = 48;
  /// Seeds the candidate-grid sampling order. Fixed seed + fixed budget
  /// reproduces the chosen config bit-for-bit.
  unsigned Seed = 1;
  /// Batches in the measurement sample (the largest of the workload's
  /// batches, kept in stream order). Successive halving starts at one
  /// batch and doubles toward this.
  unsigned SampleBatches = 4;
  /// Cap on total child units executed per probe, enforced by truncating
  /// sample batches (per-parent child sizes are preserved, so threshold
  /// behavior is unaffected).
  uint64_t MaxSampleUnits = 50000;
  /// Device-memory size for measurement VMs.
  uint64_t VmMemoryBytes = 32ull << 20;
  /// Step limit per VM run (guards against pathological candidates).
  uint64_t VmStepLimit = 500ull * 1000 * 1000;
  /// Threads that run measureAll()'s VM runs. 0 = auto
  /// (DPO_TUNER_WORKERS env, else hardware concurrency capped at 8);
  /// every value is capped at 64 (resolveWorkers, support/Parallel.h).
  /// Any value reproduces the sequential search trajectory bit-for-bit:
  /// measureAll accounts for its runs in config order.
  unsigned EvalWorkers = 0;
  /// Optional warm-start seed for empirical/hybrid searches: the service
  /// layer sets this from committed bench/tuned/ tables or cached tune
  /// results so a repeat request starts at (and never does worse than)
  /// the known-good config — it is measured first, ahead of the sampled
  /// pool / analytic shortlist. Strictly opt-in and off by default:
  /// recorded searches (the bench/tuned/ drift gate) replay the default
  /// trajectory bit-for-bit.
  std::optional<ExecConfig> WarmStart;
};

/// What one VM execution of a candidate measured. The event counts come
/// straight from VmStats; Cycles is measuredMakespanCycles over the VM's
/// per-grid log.
struct VmMeasurement {
  uint64_t Steps = 0;
  uint64_t DeviceLaunches = 0;
  uint64_t HostLaunches = 0;
  uint64_t BlocksExecuted = 0;
  uint64_t ThreadsExecuted = 0;
  uint64_t GridsLaunched = 0;
  unsigned BatchesRun = 0;
  double Cycles = 0;
  /// Trace-engine observability (zero on the bytecode reference engine):
  /// superblocks the decoder formed, entries into them, closed-loop
  /// iterations retired inside them, and guard side exits. Purely
  /// diagnostic — Steps and the event counts above are engine-invariant.
  uint64_t TracesFormed = 0;
  uint64_t TraceEntries = 0;
  uint64_t TraceIters = 0;
  uint64_t TraceSideExits = 0;
  /// Speculative-serialization guard outcomes (zero unless the pipeline
  /// ran a `speculate` pass): how often the small-grid assumption held
  /// (serialized path) vs. fell back to the real launch.
  uint64_t SpecGuardPass = 0;
  uint64_t SpecGuardFail = 0;
};

/// Prices one VM execution from its per-grid measurements. The VM is a
/// sequential interpreter, so wall time cannot score a *parallel*
/// execution strategy; instead each grid's measured work (exclusive
/// steps), measured divergence (slowest thread), and measured shape
/// (blocks, block size) are scheduled onto the GpuModel: per-grid time is
/// max(work spread over resident threads, slowest thread); device-launched
/// grids additionally contend for concurrent-grid slots; launches and
/// block dispatch pay the model's per-event costs. Thresholding therefore
/// shows up as fewer launch events but a slower worst thread, coarsening
/// as fewer dispatched blocks, aggregation as fewer, larger grids plus its
/// measured bookkeeping steps — the paper's actual trade-offs, from
/// measured inputs.
double measuredMakespanCycles(const std::vector<GridRecord> &Grids,
                              const VmStats &Stats, const GpuModel &Gpu);

/// Compiles and runs candidate ExecConfigs for one workload. Owns the
/// compile cache (pipeline text -> bytecode program) and the measurement
/// cache ((pipeline text, resource) -> measurement); every distinct
/// program is parsed and lowered once no matter how many times the search
/// revisits it. It also keeps one measurement *session* per pipeline
/// measured below the full sample: the device that ran its first r rounds.
class EmpiricalEvaluator {
public:
  EmpiricalEvaluator(const GpuModel &Gpu, VmWorkload Workload,
                     EmpiricalOptions Opts = {});

  /// Measures \p Config against the first \p Resource sample batches
  /// (clamped to [1, maxResource()]): measureAll()'s path for one config,
  /// with no budget stop. Resumes the pipeline's session if it has run at
  /// most \p Resource rounds, running only the rounds it lacks; a
  /// single-worker device is deterministic, so the result equals a fresh
  /// device's field for field, and it counts as one evaluation. Below the
  /// full sample the device is kept as the session. Returns nullopt on
  /// pipeline/VM failure (lastError() explains).
  std::optional<VmMeasurement> measure(const ExecConfig &Config,
                                       unsigned Resource);
  /// Full-resource measurement.
  std::optional<VmMeasurement> measure(const ExecConfig &Config) {
    return measure(Config, maxResource());
  }

  /// Compiles \p PipelineText over the workload (empty = untransformed)
  /// and executes the full measurement sample on a fresh device, exactly
  /// as a full-resource measure() would. Shares the compile cache with
  /// measure() but spends no search budget; the trace counters in the
  /// result come from the run's device. Feeds dpoptcc's --print-vm-stats
  /// and the throughput bench's trace columns.
  /// \p ProfileOut, when non-null, receives the run's harvested
  /// per-launch-site profile (the grid log is always on during
  /// measurement) — dpoptcc --profile-out records through here.
  std::optional<VmMeasurement>
  measurePipeline(const std::string &PipelineText,
                  LaunchProfile *ProfileOut = nullptr);

  /// Backs the `profile` parameter of measured pipelines
  /// (`threshold[profile]`, ...). Not owned; must outlive the evaluator's
  /// compiles. Distinct profiles compile distinct programs, so set this
  /// before the first measurement of a pipeline that names it.
  void setProfile(const LaunchProfile *P) { Profile = P; }
  const LaunchProfile *profile() const { return Profile; }

  /// Measures \p Configs at \p Resource in order, as a loop of measure()
  /// calls that stops once evaluations() reaches options().Budget would:
  /// one result per config that loop reaches (nullopt where it failed),
  /// with the same counters and lastError(). Compiles run serially. VM
  /// runs go in waves of at most Budget - evaluations() uncached runs,
  /// each wave through parallelFor on options().EvalWorkers threads, and
  /// each run takes its pipeline's session along; the counter accounting
  /// happens once per wave, in config order. A failed run costs no
  /// budget, so it only makes room in the next wave. Results and counters
  /// are therefore the same at every worker count.
  std::vector<std::optional<VmMeasurement>>
  measureAll(const std::vector<ExecConfig> &Configs, unsigned Resource) {
    return measureWithin(Configs, Resource, Opts.Budget);
  }

  /// Drops every session but those of \p Survivors' pipelines.
  void retainSessions(const std::vector<ExecConfig> &Survivors);

  /// Batches in the measurement sample (successive halving's top rung).
  unsigned maxResource() const { return (unsigned)Sample.size(); }
  /// The measurement sample itself (unit-capped copies, stream order) —
  /// what a full-resource measure() executed. Calibration simulates these
  /// exact batches so analytic predictions and VM measurements price the
  /// same work.
  const std::vector<NestedBatch> &sampleBatches() const { return Sample; }
  /// Total child units in the first \p Resource sample batches (used to
  /// extrapolate partial-rung measurements to full-sample time).
  uint64_t sampleUnits(unsigned Resource) const;
  /// VM executions performed so far (what Budget bounds).
  unsigned evaluations() const { return Evaluations; }
  /// Distinct programs parsed + lowered to bytecode.
  unsigned programCompiles() const { return Compiles; }
  /// Measurements served from cache (no VM execution, no budget).
  unsigned cacheHits() const { return CacheHits; }
  /// Devices measure() built and staged, and sample rounds it ran.
  unsigned devicesOpened() const { return DevicesOpened; }
  unsigned roundsRun() const { return RoundsRun; }

  const std::string &lastError() const { return LastError; }
  const EmpiricalOptions &options() const { return Opts; }
  const GpuModel &gpu() const { return Gpu; }
  const VmWorkload &workload() const { return Workload; }

private:
  /// A measurement device that has run sample rounds [0, Rounds) of one
  /// program, and what the binding staged into it. Empty until opened.
  struct Session {
    std::unique_ptr<Device> Dev;
    std::unique_ptr<VmWorkloadBinding::DeviceState> Binding;
    unsigned Rounds = 0;
    /// The round a run to \p Target starts from (0: it opens a device).
    unsigned resumeFrom(unsigned Target) const {
      return Dev && Rounds <= Target ? Rounds : 0;
    }
  };

  /// One VM run of a measureAll() wave: the pipeline's program and the
  /// session it resumes, then what the run measured.
  struct Run {
    const VmProgram *Program = nullptr;
    std::string Pipeline;
    Session S;
    unsigned FromRound = 0;
    bool Ok = false;
    VmMeasurement M;
    std::string Error;
  };

  const VmProgram *programFor(const std::string &PipelineText);
  /// Builds \p S's device for \p Program (decoded engine, one worker,
  /// grid log on) and stages the workload's dataset into it.
  bool openDevice(const VmProgram &Program, Session &S,
                  std::string &Err) const;
  /// Brings \p S to \p Rounds completed rounds, reopening it unless it
  /// can be resumed. Counter-free and thread-safe (touches only \p S,
  /// \p Err and immutable evaluator state). A failure empties \p S.
  bool advance(const VmProgram &Program, const std::string &Pipeline,
               Session &S, unsigned Rounds, std::string &Err) const;
  /// measureAll() with \p Budget in place of options().Budget (measure()
  /// passes none).
  std::vector<std::optional<VmMeasurement>>
  measureWithin(const std::vector<ExecConfig> &Configs, unsigned Resource,
                unsigned Budget);
  /// advance() \p R's session to \p Resource rounds and measure. Keeps
  /// the session only below the full sample; counter-free and
  /// thread-safe like advance().
  void run(Run &R, unsigned Resource) const;
  /// One measurement round: stage sample batch \p I's arguments and
  /// launch the parent.
  bool runSampleRound(Session &S, unsigned I, std::string &Err) const;
  VmMeasurement fillMeasurement(const Device &Dev, unsigned Rounds) const;

  GpuModel Gpu;
  VmWorkload Workload;
  EmpiricalOptions Opts;
  const LaunchProfile *Profile = nullptr;
  std::vector<NestedBatch> Sample;
  /// Each sample batch's index in the workload's full stream (bound
  /// workloads replay the recorded round with that index).
  std::vector<unsigned> SampleIndex;
  std::map<std::string, VmProgram> Programs;
  std::set<std::string> FailedPipelines; ///< Negative compile cache.
  std::map<std::string, VmMeasurement> Cache;
  std::map<std::string, Session> Sessions; ///< By pipeline text.
  unsigned Evaluations = 0;
  unsigned Compiles = 0;
  unsigned CacheHits = 0;
  unsigned DevicesOpened = 0;
  unsigned RoundsRun = 0;
  std::string LastError;
};

struct EmpiricalTuneResult {
  ExecConfig Config;
  /// The winner's measurement (empirical/hybrid modes; zero for analytic).
  VmMeasurement Measured;
  /// Makespan estimate: cyclesToUs(Measured.Cycles) — extrapolated by
  /// child units when a budget-exhausted search left the winner measured
  /// below the full sample — or the simulated time for analytic mode.
  double TimeUs = 0;
  unsigned VmEvaluations = 0;
  /// Analytic-simulator probes spent (analytic mode's sweep, hybrid
  /// mode's first-stage ranking).
  unsigned SimProbes = 0;
  TuneMode Mode = TuneMode::Empirical;
  /// passPipelineTextFor(Config) — feed to dpoptcc -passes= to realize it.
  std::string Pipeline;
};

/// Successive halving + hill climbing, entirely VM-measured.
EmpiricalTuneResult empiricalTune(EmpiricalEvaluator &Eval,
                                  const VariantMask &Mask);

/// Simulator-ranked shortlist, VM-measured winners.
EmpiricalTuneResult hybridTune(EmpiricalEvaluator &Eval,
                               const VariantMask &Mask);

/// The existing exhaustive simulator sweep in the common result shape.
EmpiricalTuneResult analyticTune(const GpuModel &Gpu,
                                 const std::vector<NestedBatch> &Batches,
                                 const VariantMask &Mask);

/// One-call front end used by the drivers: dispatches on \p Mode
/// (constructing the evaluator for the VM-backed modes).
EmpiricalTuneResult tuneWorkload(TuneMode Mode, const GpuModel &Gpu,
                                 const VmWorkload &Workload,
                                 const VariantMask &Mask,
                                 const EmpiricalOptions &Opts = {});

} // namespace dpo

#endif // DPO_TUNER_EMPIRICAL_H
