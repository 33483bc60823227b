//===--- CanonicalizePass.cpp -------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/CanonicalizePass.h"

#include "ast/Walk.h"
#include "sema/LaunchSites.h"
#include "sema/PurityAnalysis.h"
#include "support/Casting.h"

#include <unordered_set>
#include <vector>

using namespace dpo;

namespace {

/// Grid dimensions are 32-bit block counts; folds stay within int range.
constexpr uint64_t MaxFoldValue = 0x7fffffff;

/// The integer literal behind any number of parentheses, or null. Casts are
/// deliberately not stripped: a cast can change the arithmetic ((float)a/b)
/// and folding through one would not be spelling-preserving.
IntegerLiteral *asIntLit(Expr *E) {
  while (auto *P = dyn_cast_or_null<ParenExpr>(E))
    E = P->inner();
  return dyn_cast_or_null<IntegerLiteral>(E);
}

/// The single, unreassigned declaration of \p Name in \p F, or null (the
/// same resolution rule the grid-dim matcher uses to follow intermediates).
VarDecl *assignedOnceLocal(const FunctionDecl *F, const std::string &Name) {
  if (!F || !F->body() || countAssignments(F, Name) != 0)
    return nullptr;
  VarDecl *Found = nullptr;
  bool Multiple = false;
  forEachStmt(const_cast<CompoundStmt *>(F->body()), [&](Stmt *S) {
    auto *DS = dyn_cast<DeclStmt>(S);
    if (!DS)
      return;
    for (VarDecl *D : DS->decls()) {
      if (D->name() != Name)
        continue;
      if (Found)
        Multiple = true; // Shadowing; give up.
      Found = D;
    }
  });
  return Multiple ? nullptr : Found;
}

struct Counters {
  unsigned ShiftDivs = 0;
  unsigned Folds = 0;
};

/// Bottom-up normalization of one expression slot: literal-literal
/// arithmetic folds first, then shift-spelled divisions become `/` nodes
/// (children rewrite before parents, so `(n + (1<<5) - 1) >> 5` collapses
/// the inner shift to 32 before the outer one becomes `/ 32`).
void canonicalizeSlot(ASTContext &Ctx, Expr *&Slot, Counters &C) {
  rewriteExprSlot(Slot, [&](Expr *E) -> Expr * {
    // Folds leave their enclosing parentheses behind (`(1 << 5)` becomes
    // `(32)`); collapse parens around bare literals so folded constants
    // print — and structurally compare — like hand-written ones.
    if (auto *P = dyn_cast<ParenExpr>(E)) {
      if (isa<IntegerLiteral>(P->inner())) {
        ++C.Folds;
        return P->inner();
      }
      return nullptr;
    }
    auto *Bin = dyn_cast<BinaryOperator>(E);
    if (!Bin)
      return nullptr;
    IntegerLiteral *L = asIntLit(Bin->lhs());
    IntegerLiteral *R = asIntLit(Bin->rhs());

    if (L && R) {
      uint64_t A = L->value(), B = R->value(), V = 0;
      bool Folded = true;
      switch (Bin->op()) {
      case BinaryOpKind::Shl:
        Folded = B <= 30 && A <= (MaxFoldValue >> B);
        V = Folded ? A << B : 0;
        break;
      case BinaryOpKind::Shr:
        Folded = B <= 63;
        V = Folded ? A >> B : 0;
        break;
      case BinaryOpKind::Mul:
        Folded = A <= MaxFoldValue && B <= MaxFoldValue && A * B <= MaxFoldValue;
        V = Folded ? A * B : 0;
        break;
      case BinaryOpKind::Add:
        Folded = A <= MaxFoldValue && B <= MaxFoldValue && A + B <= MaxFoldValue;
        V = Folded ? A + B : 0;
        break;
      case BinaryOpKind::Sub:
        Folded = A >= B; // A negative literal would need a unary minus.
        V = Folded ? A - B : 0;
        break;
      default:
        Folded = false;
        break;
      }
      if (Folded) {
        ++C.Folds;
        auto *Lit = Ctx.intLit(V);
        Lit->setType(E->type());
        return Lit;
      }
    }

    if (Bin->op() == BinaryOpKind::Shr && R) {
      uint64_t K = R->value();
      if (K == 0 || K > 30)
        return nullptr;
      ++C.ShiftDivs;
      Expr *Dividend = Bin->lhs();
      // `/` binds tighter than `>>`: parenthesize non-primary dividends so
      // the rewritten tree reprints (and reparses) with the same grouping.
      if (!isa<ParenExpr>(Dividend) && !isa<DeclRefExpr>(Dividend) &&
          !isa<IntegerLiteral>(Dividend))
        Dividend = Ctx.paren(Dividend);
      auto *Div = Ctx.binary(BinaryOpKind::Div, Dividend,
                             Ctx.intLit(uint64_t(1) << K));
      Div->setType(E->type());
      return Div;
    }
    return nullptr;
  });
}

/// Canonicalizes one launch's grid dimension plus the initializers of every
/// assigned-once local it (transitively) refers to — the same variable
/// chain the matcher's findCount resolution walks.
void canonicalizeSite(ASTContext &Ctx, const FunctionDecl *Caller,
                      LaunchExpr *L, Counters &C) {
  canonicalizeSlot(Ctx, L->gridDimSlot(), C);

  std::unordered_set<VarDecl *> Visited;
  std::vector<VarDecl *> Work;
  auto Collect = [&](Expr *E) {
    forEachExpr(E, [&](Expr *Node) {
      if (auto *Ref = dyn_cast<DeclRefExpr>(Node))
        if (VarDecl *D = assignedOnceLocal(Caller, Ref->name()))
          if (Visited.insert(D).second)
            Work.push_back(D);
    });
  };
  Collect(L->gridDim());
  while (!Work.empty()) {
    VarDecl *D = Work.back();
    Work.pop_back();
    if (!D->init())
      continue;
    canonicalizeSlot(Ctx, D->initSlot(), C);
    Collect(D->init());
  }
}

} // namespace

CanonicalizeResult dpo::applyCanonicalize(ASTContext &Ctx,
                                          AnalysisManager &AM) {
  CanonicalizeResult Result;
  Counters C;
  for (const LaunchSite &Site : AM.launchSites())
    canonicalizeSite(Ctx, Site.Caller, Site.Launch, C);
  Result.NormalizedShiftDivs = C.ShiftDivs;
  Result.FoldedLiterals = C.Folds;
  return Result;
}

void CanonicalizePass::run(ASTContext &Ctx, TranslationUnit *,
                           AnalysisManager &AM, DiagnosticEngine &) {
  Result = applyCanonicalize(Ctx, AM);
}
