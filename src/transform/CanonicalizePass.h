//===--- CanonicalizePass.h - Launch-dim canonicalization --------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Normalizes launch grid-dimension expressions into the spellings the
/// Fig. 4 pattern matcher (sema/GridDimAnalysis.h) recognizes, so the
/// thresholding and coarsening passes match more launch sites without
/// widening the matcher itself:
///
///  - `X >> k` with a literal k becomes `X / 2^k`. Shift-spelled divisions
///    contain no Div node, so the matcher reports "no division found";
///    grid dimensions are non-negative block counts, making the rewrite
///    exact.
///  - `a << b` / `a * b` / `a + b` / `a - b` over two integer literals
///    folds to one literal. The matcher strips literal adjustments from
///    ceil-division dividends by structural equality, so `(n + (1<<5) - 1)
///    / 32` only matches once `(1<<5)` has collapsed to `32`.
///
/// Both rewrites also apply to the initializer of an assigned-once local
/// the grid dimension refers to (the matcher follows such variables), and
/// to every component of a `dim3(...)` grid constructor.
///
/// The pass only touches expressions *feeding* launch configurations; the
/// LaunchExpr nodes themselves stay in place, so the cached launch-site
/// analysis remains exact.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_CANONICALIZEPASS_H
#define DPO_TRANSFORM_CANONICALIZEPASS_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "support/Diagnostics.h"
#include "transform/PassManager.h"

#include <string>
#include <vector>

namespace dpo {

struct CanonicalizeResult {
  /// Shift-spelled divisions rewritten to `/` form.
  unsigned NormalizedShiftDivs = 0;
  /// Literal-literal arithmetic collapsed to a single literal.
  unsigned FoldedLiterals = 0;

  unsigned total() const { return NormalizedShiftDivs + FoldedLiterals; }
  bool ok() const { return true; } ///< Normalization never fails the build.
};

/// Canonicalizes the launch-dimension expressions of every launch site
/// \p AM finds in its translation unit, in place.
CanonicalizeResult applyCanonicalize(ASTContext &Ctx, AnalysisManager &AM);

/// The canonicalizer as a pipeline pass. Run it ahead of threshold/coarsen
/// so their grid-dimension matcher sees canonical spellings.
class CanonicalizePass : public TransformPass {
public:
  CanonicalizePass() = default;

  std::string name() const override { return "canonicalize"; }
  std::string repr() const override { return "canonicalize"; }
  void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags) override;

  const CanonicalizeResult &result() const { return Result; }

private:
  CanonicalizeResult Result;
};

} // namespace dpo

#endif // DPO_TRANSFORM_CANONICALIZEPASS_H
