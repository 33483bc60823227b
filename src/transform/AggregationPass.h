//===--- AggregationPass.h - Section V: kernel launch aggregation ------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's aggregation transformation (Fig. 7), including
/// the new multi-block granularity. Child grids launched by the parent
/// threads of one *group* are combined into a single aggregated launch:
///
///   granularity   group                    aggregated launch performed by
///   -----------   ----------------------   ------------------------------
///   warp          32 consecutive threads   last thread of the group
///   block         one parent block         last (only) block of the group
///   multi-block   _AGG_SIZE parent blocks  last block of the group
///   grid          the whole parent grid    the host, after the parent
///
/// The transformation follows Fig. 7: each launching parent thread
/// atomically increments a packed 64-bit {parent count, grid-dim sum}
/// counter for its group (producing its slot index and the exclusive scan
/// of grid dimensions in one atomic), stores its arguments and
/// configuration into per-group buffer segments, and atomicMax's the block
/// dimension. A group-wide finished counter replaces the impossible
/// inter-block barrier; the last arrival launches `<child>_agg`, which
/// binary-searches the scanned grid-dimension array to find its parent and
/// recover its original configuration.
///
/// Unifications/deviations (documented; semantics preserved, the
/// performance differences are modeled in the timing simulator):
///  - block granularity reuses the group-counter machinery with a group
///    size of one block (the paper's version can use an in-block barrier
///    and shared-memory scan; same observable behavior);
///  - warp granularity counts finished *threads* (32 per group) with
///    atomics instead of warp intrinsics;
///  - the aggregation threshold (Section V-B) is generated for block
///    granularity: after the in-block barrier, if fewer parents than the
///    threshold participated, each participating thread launches its own
///    child grid directly.
///
/// Requirements checked per launch site (diagnosed + skipped otherwise):
/// 1-D launch configurations (scalar, not dim3), parent kernels without
/// early returns (the epilogue must post-dominate), and at most one
/// execution of the launch site per parent thread (buffer capacity; this
/// holds for all the paper's benchmarks).
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_AGGREGATIONPASS_H
#define DPO_TRANSFORM_AGGREGATIONPASS_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "support/Diagnostics.h"
#include "transform/PassManager.h"
#include "transform/PassOptions.h"

#include <string>
#include <vector>

namespace dpo {

struct AggregationResult {
  unsigned TransformedLaunches = 0;
  unsigned SkippedLaunches = 0;
  unsigned GeneratedKernels = 0;
  unsigned GeneratedWrappers = 0;
  std::vector<std::string> SkipReasons;
};

/// Applies aggregation to every dynamic launch site in \p TU, in place,
/// querying sema through \p AM.
AggregationResult applyAggregation(ASTContext &Ctx, TranslationUnit *TU,
                                   const AggregationOptions &Options,
                                   DiagnosticEngine &Diags,
                                   AnalysisManager &AM);

/// The aggregation transformation as a pipeline pass.
class AggregationPass : public TransformPass {
public:
  explicit AggregationPass(AggregationOptions Options = {})
      : Options(std::move(Options)) {}

  std::string name() const override { return "aggregate"; }
  std::string repr() const override;
  void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags) override;

  const AggregationOptions &options() const { return Options; }
  const AggregationResult &result() const { return Result; }

private:
  AggregationOptions Options;
  AggregationResult Result;
};

} // namespace dpo

#endif // DPO_TRANSFORM_AGGREGATIONPASS_H
