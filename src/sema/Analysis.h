//===--- Analysis.h - Sema analyses for the pass pipeline --------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AnalysisManager is the handle the transformation passes query sema
/// through: launch sites, serializability, grid-dimension recovery, and
/// expression purity over one translation unit. It holds no results.
/// Every query runs the analysis on the tree as it is now and returns by
/// value, so a pass that mutates the AST leaves nothing stale behind and
/// the nodes a GridDimInfo owns are fresh on every call.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_SEMA_ANALYSIS_H
#define DPO_SEMA_ANALYSIS_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "sema/GridDimAnalysis.h"
#include "sema/LaunchSites.h"
#include "sema/PurityAnalysis.h"
#include "sema/Transformability.h"

#include <vector>

namespace dpo {

/// Runs sema analyses over one translation unit on demand. Created once
/// per compilation and threaded through every pass.
class AnalysisManager {
public:
  AnalysisManager(ASTContext &Ctx, TranslationUnit *TU) : Ctx(Ctx), TU(TU) {}

  AnalysisManager(const AnalysisManager &) = delete;
  AnalysisManager &operator=(const AnalysisManager &) = delete;

  /// All launch sites in the translation unit, in declaration order.
  std::vector<LaunchSite> launchSites() const { return findLaunchSites(TU); }

  /// Whether \p Child can be serialized into its parent thread
  /// (transitive over __device__ callees in the TU).
  Transformability serializability(const FunctionDecl *Child) const {
    return analyzeSerializability(Child, TU);
  }

  /// The Fig. 4 desired-thread-count recovery for \p GridExpr inside
  /// \p Parent. The returned nodes are the caller's to splice.
  GridDimInfo gridDim(const FunctionDecl *Parent, Expr *GridExpr) const {
    return analyzeGridDim(Ctx, Parent, GridExpr);
  }

  /// Side-effect freedom of \p E.
  bool isPure(const Expr *E) const { return isPureExpr(E); }

private:
  ASTContext &Ctx;
  TranslationUnit *TU;
};

} // namespace dpo

#endif // DPO_SEMA_ANALYSIS_H
