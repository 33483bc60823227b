//===--- Walk.h - AST traversal and in-place rewriting ----------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Traversal helpers used by analyses and passes. Two families:
///
///  - forEachStmt / forEachExpr: read-only pre-order walks.
///  - rewriteExprs / rewriteStmts: bottom-up rewrites that can replace any
///    expression (or statement) slot in place.
///
/// Walks descend into DeclStmt initializers and array dimensions, and into
/// every launch-expression operand (grid/block dims, shared-mem, stream,
/// arguments).
///
/// Every walker is a template on its callable, so a walk is direct calls
/// that inline, not a type-erased call per visited node.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_AST_WALK_H
#define DPO_AST_WALK_H

#include "ast/Decl.h"
#include "ast/Stmt.h"
#include "support/Casting.h"

namespace dpo {

namespace detail {

/// Calls \p ExprSlot on every direct expression child slot of \p S and
/// \p StmtSlot on every direct statement child slot, in source order, so
/// rewriters keep the Expr/Stmt typing.
template <typename ExprSlotFn, typename StmtSlotFn>
void forEachChildSlot(Stmt *S, ExprSlotFn &&ExprSlot, StmtSlotFn &&StmtSlot) {
  switch (S->kind()) {
  case StmtKind::Compound:
    for (Stmt *&Child : cast<CompoundStmt>(S)->body())
      StmtSlot(Child);
    return;
  case StmtKind::DeclS:
    for (VarDecl *D : cast<DeclStmt>(S)->decls()) {
      if (D->initSlot())
        ExprSlot(D->initSlot());
      for (Expr *&Dim : D->arrayDims())
        ExprSlot(Dim);
    }
    return;
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    ExprSlot(If->condSlot());
    StmtSlot(If->thenSlot());
    if (If->elseSlot())
      StmtSlot(If->elseSlot());
    return;
  }
  case StmtKind::For: {
    auto *For = cast<ForStmt>(S);
    if (For->initSlot())
      StmtSlot(For->initSlot());
    if (For->condSlot())
      ExprSlot(For->condSlot());
    if (For->incSlot())
      ExprSlot(For->incSlot());
    StmtSlot(For->bodySlot());
    return;
  }
  case StmtKind::While: {
    auto *While = cast<WhileStmt>(S);
    ExprSlot(While->condSlot());
    StmtSlot(While->bodySlot());
    return;
  }
  case StmtKind::Do: {
    auto *Do = cast<DoStmt>(S);
    StmtSlot(Do->bodySlot());
    ExprSlot(Do->condSlot());
    return;
  }
  case StmtKind::Return: {
    auto *Ret = cast<ReturnStmt>(S);
    if (Ret->valueSlot())
      ExprSlot(Ret->valueSlot());
    return;
  }
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Null:
  case StmtKind::IntegerLit:
  case StmtKind::FloatLit:
  case StmtKind::BoolLit:
  case StmtKind::StringLit:
  case StmtKind::DeclRef:
  case StmtKind::SizeofE:
    return;
  case StmtKind::Member:
    ExprSlot(cast<MemberExpr>(S)->baseSlot());
    return;
  case StmtKind::ArraySubscript: {
    auto *Sub = cast<ArraySubscriptExpr>(S);
    ExprSlot(Sub->baseSlot());
    ExprSlot(Sub->indexSlot());
    return;
  }
  case StmtKind::Call: {
    auto *Call = cast<CallExpr>(S);
    ExprSlot(Call->calleeSlot());
    for (Expr *&Arg : Call->args())
      ExprSlot(Arg);
    return;
  }
  case StmtKind::Unary:
    ExprSlot(cast<UnaryOperator>(S)->operandSlot());
    return;
  case StmtKind::Binary: {
    auto *Bin = cast<BinaryOperator>(S);
    ExprSlot(Bin->lhsSlot());
    ExprSlot(Bin->rhsSlot());
    return;
  }
  case StmtKind::Conditional: {
    auto *Cond = cast<ConditionalOperator>(S);
    ExprSlot(Cond->condSlot());
    ExprSlot(Cond->trueSlot());
    ExprSlot(Cond->falseSlot());
    return;
  }
  case StmtKind::Cast:
    ExprSlot(cast<CastExpr>(S)->operandSlot());
    return;
  case StmtKind::Paren:
    ExprSlot(cast<ParenExpr>(S)->innerSlot());
    return;
  case StmtKind::Launch: {
    auto *Launch = cast<LaunchExpr>(S);
    ExprSlot(Launch->gridDimSlot());
    ExprSlot(Launch->blockDimSlot());
    if (Launch->sharedMemSlot())
      ExprSlot(Launch->sharedMemSlot());
    if (Launch->streamSlot())
      ExprSlot(Launch->streamSlot());
    for (Expr *&Arg : Launch->args())
      ExprSlot(Arg);
    return;
  }
  }
}

} // namespace detail

/// Pre-order visit of \p S and every statement/expression below it.
template <typename Fn> void forEachStmt(Stmt *S, Fn &&F) {
  if (!S)
    return;
  F(S);
  detail::forEachChildSlot(
      S, [&](Expr *&Child) { forEachStmt(Child, F); },
      [&](Stmt *&Child) { forEachStmt(Child, F); });
}

/// Pre-order visit of every expression below (and including, if applicable)
/// \p S.
template <typename Fn> void forEachExpr(Stmt *S, Fn &&F) {
  forEachStmt(S, [&](Stmt *Node) {
    if (auto *E = dyn_cast<Expr>(Node))
      F(E);
  });
}

/// Const overloads, chosen for const roots: \p F sees const nodes.
template <typename Fn> void forEachStmt(const Stmt *S, Fn &&F) {
  forEachStmt(const_cast<Stmt *>(S),
              [&](Stmt *Node) { F(static_cast<const Stmt *>(Node)); });
}
template <typename Fn> void forEachExpr(const Stmt *S, Fn &&F) {
  forEachExpr(const_cast<Stmt *>(S),
              [&](Expr *Node) { F(static_cast<const Expr *>(Node)); });
}

template <typename Fn> void rewriteExprs(Stmt *Root, Fn &&F);

/// Slot-based variant of rewriteExprs that can also replace the root
/// expression.
template <typename Fn> void rewriteExprSlot(Expr *&Slot, Fn &&F) {
  if (!Slot)
    return;
  detail::forEachChildSlot(
      Slot, [&](Expr *&Child) { rewriteExprSlot(Child, F); },
      [&](Stmt *&Child) { rewriteExprs(Child, F); });
  if (Expr *Replacement = F(Slot))
    Slot = Replacement;
}

/// Bottom-up expression rewrite. For every expression slot in the tree under
/// \p Root (children first), calls \p F; a non-null result replaces the
/// slot. Returning null keeps the existing node. When \p Root itself is an
/// expression, the caller's pointer cannot be rewritten (nor can an
/// expression in statement position); use rewriteExprSlot for that.
template <typename Fn> void rewriteExprs(Stmt *Root, Fn &&F) {
  if (!Root)
    return;
  detail::forEachChildSlot(
      Root, [&](Expr *&Child) { rewriteExprSlot(Child, F); },
      [&](Stmt *&Child) { rewriteExprs(Child, F); });
}

/// Bottom-up statement rewrite: visits every statement slot (compound-body
/// entries, if/else branches, loop bodies) under \p Root, children first.
/// A non-null result from \p F replaces the slot. Expressions used as
/// statements are visited too (they are statements); nothing inside an
/// expression is.
template <typename Fn> void rewriteStmts(Stmt *Root, Fn &&F) {
  if (!Root)
    return;
  detail::forEachChildSlot(
      Root, [](Expr *&) {},
      [&](Stmt *&Child) {
        rewriteStmts(Child, F);
        if (Stmt *Replacement = F(Child))
          Child = Replacement;
      });
}

} // namespace dpo

#endif // DPO_AST_WALK_H
