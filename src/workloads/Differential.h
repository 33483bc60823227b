//===--- Differential.h - End-to-end VM vs. native verification ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential verification harness: run a Table I kernel case
/// (KernelSources.h) end to end on the bytecode VM — dataset staged into
/// device memory, rounds driven from the host exactly as the native
/// reference drives them, frontiers/worklists computed *by the VM
/// kernels* — and compare the correctness payload (BFS levels, SSSP
/// distances, MST weight, triangle count, SP/BT checksums) against the
/// native implementation, demanding exact equality (bit-identical for the
/// double-valued checksums; the DSL sources mirror the native operation
/// order to make that a fair demand).
///
/// The harness runs each source through an arbitrary textual pass
/// pipeline first (empty = untransformed) and through the bytecode
/// peephole optimizer on or off, so the same payload check covers every
/// layer that could silently change semantics: parser, pass pipeline (in
/// any registered order), bytecode lowering, optimizer, interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_WORKLOADS_DIFFERENTIAL_H
#define DPO_WORKLOADS_DIFFERENTIAL_H

#include "profile/Profile.h"
#include "vm/VM.h"
#include "workloads/KernelSources.h"

#include <string>
#include <string_view>
#include <vector>

namespace dpo {

/// One VM execution of a kernel case through one pipeline.
struct DifferentialRun {
  bool Ok = false;
  std::string Error; ///< Transform / compile / VM failure (when !Ok).
  /// VM-computed payload in the native WorkloadOutput shape (payload
  /// fields only; Batches stays empty).
  WorkloadOutput Payload;
  VmStats Stats;
  /// Per-grid execution records, captured when the run asked for them
  /// (runKernelCaseOnVmProgram with CaptureGridLog): the service-axis
  /// tests compare these across cached-artifact and in-memory programs.
  std::vector<GridRecord> GridLog;
  /// The source that actually executed (post-transform), for diagnosis.
  std::string TransformedSource;
};

/// Transforms Case's DSL source through \p PipelineText (empty =
/// untransformed), lowers to bytecode with the peephole optimizer on or
/// off, and executes the full algorithm on the VM. \p Workers pins the
/// device worker count (0 keeps the DPO_VM_WORKERS default); the payload
/// contract holds at every worker count — the corpus kernels claim work
/// through real atomics — which is what the worker-axis differential
/// tests assert. \p Mode picks the execution engine (the engine-axis
/// tests pass the Bytecode reference); Steps must be bit-identical across
/// engines, which is what the engine-axis differential tests assert.
///
/// \p ProfileIn (optional, not owned) backs the `profile` parameter of
/// pipeline passes (`threshold[profile]`, `speculate[profile]`, ...).
/// \p ProfileOut, when non-null, turns the device grid log on and
/// receives the harvested per-site profile of this run — the
/// profile-guided workflow's record step.
DifferentialRun runKernelCaseOnVm(const KernelCase &Case,
                                  std::string_view PipelineText,
                                  bool OptimizeBytecode,
                                  uint64_t MemoryBytes = 16ull << 20,
                                  unsigned Workers = 0,
                                  ExecMode Mode = ExecMode::Decoded,
                                  const LaunchProfile *ProfileIn = nullptr,
                                  LaunchProfile *ProfileOut = nullptr);

/// As runKernelCaseOnVm, but executes a precompiled \p Program instead of
/// transforming and compiling Case's source — the service path: a program
/// deserialized from a cached artifact must drive the full algorithm
/// exactly like one compiled in-process, which is what the service-axis
/// differential tests assert. \p CaptureGridLog turns the device grid log
/// on and copies it into DifferentialRun::GridLog for record-level
/// comparison. TransformedSource stays empty (the caller owns the source).
DifferentialRun runKernelCaseOnVmProgram(const KernelCase &Case,
                                         VmProgram Program,
                                         uint64_t MemoryBytes = 16ull << 20,
                                         unsigned Workers = 0,
                                         ExecMode Mode = ExecMode::Decoded,
                                         bool CaptureGridLog = false,
                                         LaunchProfile *ProfileOut = nullptr);

/// Exact payload comparison for \p Bench. Returns true on a match; on
/// mismatch \p Why describes the first divergence.
bool payloadsMatch(BenchmarkId Bench, const WorkloadOutput &Native,
                   const WorkloadOutput &Vm, std::string &Why);

/// The pipeline matrix of the differential suite: untransformed, each
/// pass alone across its knob range, the paper-ordered combinations, and
/// the reversed orderings only spellable through -passes=. Every entry
/// parses through the PassRegistry.
const std::vector<std::string> &differentialPipelines();

} // namespace dpo

#endif // DPO_WORKLOADS_DIFFERENTIAL_H
