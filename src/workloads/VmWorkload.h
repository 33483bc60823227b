//===--- VmWorkload.h - VM-executable nested-parallelism workloads ------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the workload layer (native algorithms producing NestedBatch
/// streams from real datasets) and the bytecode VM: a VmWorkload pairs a
/// CUDA-like translation unit whose parent kernel consumes a
/// counts/offsets encoding of a batch with the batch stream itself. The
/// empirical tuner (src/tuner/Empirical.h) compiles the source through a
/// candidate pass pipeline, materializes the batches as device arrays, and
/// measures the execution on the VM.
///
/// The canonical source is the BFS-shaped parent/child pair used across
/// the equivalence tests: parent thread v launches counts[v] child threads
/// that each write into their slice of `out`. Its per-parent child sizes
/// are exactly a NestedBatch's ChildUnits, so any workload's batch stream
/// (BFS frontiers, SSSP relaxations, Bezier tessellations, ...) can drive
/// it without writing workload-specific kernels.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_WORKLOADS_VMWORKLOAD_H
#define DPO_WORKLOADS_VMWORKLOAD_H

#include "rt/LaunchPlan.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dpo {

class Device;

/// Host-side protocol for workloads whose parent kernel does not take the
/// canonical (int *out, int *counts, int *offsets, int numV) signature:
/// the binding stages the workload's dataset into a fresh measurement
/// device and builds each batch's launch arguments (the real kernel
/// corpus binds CSR graphs, SAT formulas, and Bezier line sets this way —
/// see workloads/KernelSources.h).
///
/// A binding keeps no per-device state of its own: setup() returns what it
/// staged, the device's owner keeps that beside the device and hands it
/// back to argsFor(). One binding therefore serves any number of devices
/// at once, and a device can never see another device's staging.
class VmWorkloadBinding {
public:
  /// What setup() staged into one device (the dataset's addresses).
  struct DeviceState {
    virtual ~DeviceState() = default;
  };

  virtual ~VmWorkloadBinding() = default;

  /// Loads the dataset and initial algorithm state into \p Dev. Called
  /// once per measurement device, before any batch runs. Returns the
  /// staged state, or null (with \p Error set) on failure.
  virtual std::unique_ptr<DeviceState> setup(Device &Dev,
                                             std::string &Error) const = 0;

  /// Launch arguments for one batch on \p Dev, whose setup() returned
  /// \p State. \p Batch may be a truncated copy of the stream's batch (the
  /// evaluator caps sample units by dropping parents from the tail);
  /// \p OriginalIndex is its index in the workload's full batch stream.
  /// May also reset per-round device state (e.g. frontier-size counters).
  virtual std::vector<int64_t> argsFor(Device &Dev, const DeviceState &State,
                                       const NestedBatch &Batch,
                                       unsigned OriginalIndex) const = 0;
};

/// A workload the bytecode VM can execute: a translation unit whose parent
/// kernel is named "parent", plus the batch stream. Without a Binding the
/// parent takes the canonical (int *out, int *counts, int *offsets,
/// int numV) signature and the evaluator materializes counts/offsets from
/// each batch; with a Binding the binding supplies the arguments. After
/// aggregation the generated host wrapper is "parent_agg"
/// (granularity-independent naming from AggregationPass).
struct VmWorkload {
  std::string Name;
  std::string Source;
  std::string ParentKernel = "parent";
  /// The parent launch shape comes from each batch's ParentBlockDim.
  std::vector<NestedBatch> Batches;
  /// Non-null for non-canonical parent signatures (real kernel corpus).
  std::shared_ptr<VmWorkloadBinding> Binding;
  /// Device-memory floor for measurement VMs (0 = evaluator default);
  /// bindings that stage multi-megabyte datasets set this.
  uint64_t MinMemoryBytes = 0;
  /// Per-workload ceiling on sampled child units (0 = evaluator default).
  /// Workloads whose per-unit cost dwarfs the canonical kernel's (TC's
  /// sorted-list intersections) lower this so measurement stays inside
  /// the VM step budget.
  uint64_t SampleUnitCap = 0;
};

/// Launches a workload's parent grid over \p NumParents parent threads,
/// routing through the generated `<ParentKernel>_agg` host wrapper when
/// the program defines one (the aggregation ABI prepends six grid/block
/// dimension slots to the kernel arguments). The single place the
/// wrapper convention is encoded — the empirical tuner and the
/// differential harness both launch through here. No-op success when
/// \p NumParents is zero; on failure Dev.error() explains.
bool launchWorkloadParent(Device &Dev, const std::string &ParentKernel,
                          uint32_t NumParents, uint32_t ParentBlockDim,
                          const std::vector<int64_t> &Args);

/// The canonical nested-parallelism source with the child launch's block
/// dimension spelled as \p ChildBlockDim.
std::string nestedVmSource(uint32_t ChildBlockDim = 32);

/// examples/quickstart.cpp's program, verbatim: the canonical parent
/// signature, with child thread i of parent v writing
/// `data[offsets[v] + i] = offsets[v] + i * 2`.
const char *quickstartVmSource();

/// Wraps a batch stream (e.g. runBfs(G).Batches) in the canonical source.
VmWorkload makeNestedVmWorkload(std::string Name,
                                std::vector<NestedBatch> Batches,
                                uint32_t ChildBlockDim = 32);

/// Deterministic skewed batches — many tiny child grids, a few large ones
/// (the distribution the paper's optimizations target). Shared by the
/// tuner tests, dpoptcc's built-in --tune workload, and the convergence
/// benchmark.
std::vector<NestedBatch> makeSkewedBatches(unsigned NumBatches,
                                           unsigned ParentsPerBatch,
                                           unsigned Seed = 1);

/// The workload `dpoptcc --tune=` measures when no --workload= is given:
/// the canonical nested source over seeded skewed batches. Tuned-table
/// entries record it under the spec "canonical"; the drift gate rebuilds
/// it from the recorded seed to re-derive the committed pipeline.
VmWorkload canonicalTuneWorkload(unsigned Seed);

} // namespace dpo

#endif // DPO_WORKLOADS_VMWORKLOAD_H
