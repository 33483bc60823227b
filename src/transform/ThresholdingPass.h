//===--- ThresholdingPass.h - Section III: automated thresholding ------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's thresholding transformation (Fig. 3): a dynamic
/// launch is performed only when the desired number of child threads meets
/// a threshold; otherwise the child's work is serialized in the parent
/// thread by calling a generated `<child>_serial` __device__ function.
///
/// Per Section III-C, kernels that synchronize (barriers / warp primitives)
/// or use shared memory are not transformed. Per Section III-D, the desired
/// thread count is recovered from the grid-dimension expression by the
/// Fig. 4 ceiling-division pattern matcher.
///
/// Deviation from the figure, documented here: when the child body contains
/// early `return`s, the serial version is generated as loops around a call
/// to a per-thread helper function (a `return` inside inline loops would
/// abort all remaining serialized threads instead of just one).
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_THRESHOLDINGPASS_H
#define DPO_TRANSFORM_THRESHOLDINGPASS_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "support/Diagnostics.h"
#include "transform/PassManager.h"
#include "transform/PassOptions.h"

#include <string>
#include <vector>

namespace dpo {

struct ThresholdingResult {
  unsigned TransformedLaunches = 0;
  unsigned SkippedLaunches = 0;
  std::vector<std::string> SkipReasons;
  bool ok() const { return true; } ///< Skips never make the output invalid.
};

/// Applies thresholding to every dynamic launch site in \p TU, in place,
/// querying sema through \p AM.
ThresholdingResult applyThresholding(ASTContext &Ctx, TranslationUnit *TU,
                                     const ThresholdingOptions &Options,
                                     DiagnosticEngine &Diags,
                                     AnalysisManager &AM);

/// The thresholding transformation as a pipeline pass.
class ThresholdingPass : public TransformPass {
public:
  explicit ThresholdingPass(ThresholdingOptions Options = {})
      : Options(std::move(Options)) {}

  std::string name() const override { return "threshold"; }
  std::string repr() const override;
  void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags) override;

  const ThresholdingOptions &options() const { return Options; }
  const ThresholdingResult &result() const { return Result; }

private:
  ThresholdingOptions Options;
  ThresholdingResult Result;
};

} // namespace dpo

#endif // DPO_TRANSFORM_THRESHOLDINGPASS_H
