//===--- CoopKernels.h - Cooperative (barrier) kernel corpus ------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cooperative-kernel differential corpus: child kernels that use
/// `__shared__` memory and `__syncthreads` as first-class citizens of the
/// block-mode VM. Each case keeps the Table I parent shape (one dynamic
/// child launch per parent vertex, Fig. 4 ceiling division, block dim
/// 128) but the child is a barrier-bearing cooperative kernel:
///
///  - **TiledReduce** — the canonical shared-memory tree reduction: stage
///    a tile of edges, halve with a barrier per round, thread 0 publishes
///    with an atomic. The flagship case for barrier segmentation: the
///    reduction loop is block-uniform, so thresholding serializes it.
///  - **FrontierCompact** — BFS-style frontier compaction: per-thread
///    predicate flags in shared memory, a thread-0 exclusive scan between
///    two barriers, compacted ranks consumed after reconvergence.
///  - **TiledStencil** — a 1-D 3-point stencil over a shared tile with
///    halo cells, exercising rematerialized per-thread locals (the
///    lane/global indices live across the barrier).
///
/// Every payload is an integer accumulation (wraparound uint32), so it is
/// exact, order-independent across workers, and bit-comparable against
/// the native reference computed here with the same per-block window
/// structure.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_WORKLOADS_COOPKERNELS_H
#define DPO_WORKLOADS_COOPKERNELS_H

#include "datasets/Graph.h"
#include "vm/VM.h"

#include <string>
#include <string_view>
#include <vector>

namespace dpo {

/// One cooperative corpus entry: a DSL source (parent + barrier-bearing
/// child) paired with a concrete graph instance and its native reference.
struct CoopKernelCase {
  std::string Name; ///< e.g. "TiledReduce/kron-mini"
  const char *Source = nullptr;
  CsrGraph Graph;
  /// Native reference over Graph — replicates the kernel's per-block
  /// window structure exactly (wraparound uint32 arithmetic).
  std::vector<int32_t> (*Reference)(const CsrGraph &) = nullptr;

  std::vector<int32_t> reference() const { return Reference(Graph); }
};

/// The cooperative corpus: the three families above over mini instances
/// of the paper's dataset generators (Kron for skewed multi-block
/// children, Road for uniform tiny children, Web for mid-degree).
const std::vector<CoopKernelCase> &coopKernelCorpus();

/// One VM execution of a cooperative case through one pipeline.
struct CoopRun {
  bool Ok = false;
  std::string Error;
  std::vector<int32_t> Out; ///< The per-vertex payload array.
  VmStats Stats;
  std::string Src; ///< Post-transform source, for diagnosis.
};

/// Transforms the case's source through \p PipelineText (empty =
/// untransformed), lowers with the peephole optimizer on or off, and runs
/// the parent grid. \p Workers pins the device worker count (0 keeps the
/// DPO_VM_WORKERS default); \p Mode picks the execution engine. The
/// payload contract holds at every worker count and engine, and Steps is
/// bit-identical across engines and workers — the barrier-axis
/// differential tests assert both.
CoopRun runCoopCaseOnVm(const CoopKernelCase &Case,
                        std::string_view PipelineText, bool OptimizeBytecode,
                        unsigned Workers = 0,
                        ExecMode Mode = ExecMode::Decoded,
                        uint64_t MemoryBytes = 16ull << 20);

} // namespace dpo

#endif // DPO_WORKLOADS_COOPKERNELS_H
