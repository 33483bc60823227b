//===--- CoarseningPass.h - Section IV: thread-block coarsening --------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's coarsening transformation (Fig. 6): the child
/// kernel gains an `_gDim` parameter carrying the original grid dimension
/// and a block-strided loop
///
///   for (_bx = blockIdx.x; _bx < _gDim.x; _bx += gridDim.x) { body }
///
/// so one coarsened block executes the work of several original blocks.
/// Launch sites are rewritten to divide the x grid dimension by the
/// coarsening factor (`_CFACTOR`) and to pass the original dimension.
///
/// Coarsening is applied to the x dimension only; for multi-dimensional
/// grids the y/z dimensions are untouched (their coarsened extents equal
/// the originals, so no loops are needed). Barriers inside the body remain
/// correct: the loop's trip count is uniform across the block.
///
/// Kernels are modified in place, so *every* launch of a coarsened kernel
/// is patched: dynamic launches get the ceiling-divided configuration;
/// host-side launches of the same kernel are patched with an identity
/// configuration (original grid, factor 1) to stay semantically unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_COARSENINGPASS_H
#define DPO_TRANSFORM_COARSENINGPASS_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "support/Diagnostics.h"
#include "transform/PassManager.h"
#include "transform/PassOptions.h"

#include <string>
#include <vector>

namespace dpo {

struct CoarseningResult {
  unsigned CoarsenedKernels = 0;
  unsigned RewrittenLaunches = 0;
  unsigned SkippedLaunches = 0;
  std::vector<std::string> SkipReasons;
};

/// Applies coarsening to every child kernel of a dynamic launch in \p TU,
/// in place, querying sema through \p AM.
CoarseningResult applyCoarsening(ASTContext &Ctx, TranslationUnit *TU,
                                 const CoarseningOptions &Options,
                                 DiagnosticEngine &Diags, AnalysisManager &AM);

/// The coarsening transformation as a pipeline pass.
class CoarseningPass : public TransformPass {
public:
  explicit CoarseningPass(CoarseningOptions Options = {})
      : Options(std::move(Options)) {}

  std::string name() const override { return "coarsen"; }
  std::string repr() const override;
  void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags) override;

  const CoarseningOptions &options() const { return Options; }
  const CoarseningResult &result() const { return Result; }

private:
  CoarseningOptions Options;
  CoarseningResult Result;
};

} // namespace dpo

#endif // DPO_TRANSFORM_COARSENINGPASS_H
