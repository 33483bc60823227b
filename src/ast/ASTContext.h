//===--- ASTContext.h - AST node ownership ----------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ASTContext owns every AST node created through it. Nodes hold raw
/// pointers to children; all of them die together when the context dies.
/// (A bump-pointer arena would also work, but our nodes own std::vectors
/// and std::strings, so a type-erased deleter list keeps things simple and
/// correct.)
///
//===----------------------------------------------------------------------===//

#ifndef DPO_AST_ASTCONTEXT_H
#define DPO_AST_ASTCONTEXT_H

#include "ast/Decl.h"
#include "ast/Stmt.h"

#include <memory>
#include <utility>
#include <vector>

namespace dpo {

class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  ~ASTContext() {
    for (auto &Entry : Nodes)
      Entry.second(Entry.first);
  }

  /// Allocates and owns a new node: `Ctx.create<BinaryOperator>(...)`.
  template <typename T, typename... Args> T *create(Args &&...A) {
    T *Node = new T(std::forward<Args>(A)...);
    Nodes.emplace_back(Node, [](void *P) { delete static_cast<T *>(P); });
    return Node;
  }

  // Shorthand factories for nodes the passes synthesize constantly.

  IntegerLiteral *intLit(uint64_t Value) {
    return create<IntegerLiteral>(Value);
  }

  DeclRefExpr *ref(std::string Name) {
    return create<DeclRefExpr>(std::move(Name));
  }

  /// `Base.Member` (Base synthesized as a DeclRefExpr).
  MemberExpr *member(std::string Base, std::string Member) {
    return create<MemberExpr>(ref(std::move(Base)), std::move(Member),
                              /*IsArrow=*/false);
  }

  BinaryOperator *binary(BinaryOpKind Op, Expr *LHS, Expr *RHS) {
    return create<BinaryOperator>(Op, LHS, RHS);
  }

  ParenExpr *paren(Expr *Inner) { return create<ParenExpr>(Inner); }

  UnaryOperator *unary(UnaryOpKind Op, Expr *Operand) {
    return create<UnaryOperator>(Op, Operand);
  }

  /// `(T)Operand`.
  CastExpr *castTo(Type T, Expr *Operand) {
    return create<CastExpr>(std::move(T), Operand);
  }

  ArraySubscriptExpr *subscript(Expr *Base, Expr *Index) {
    return create<ArraySubscriptExpr>(Base, Index);
  }

  /// `Callee(Args...)` (Callee synthesized as a DeclRefExpr).
  CallExpr *call(std::string Callee, std::vector<Expr *> Args = {}) {
    return create<CallExpr>(ref(std::move(Callee)), std::move(Args));
  }

  /// `T Name = Init;` (no initializer when \p Init is null).
  DeclStmt *declare(Type T, std::string Name, Expr *Init = nullptr) {
    return create<DeclStmt>(std::vector<VarDecl *>{
        create<VarDecl>(std::move(T), std::move(Name), Init)});
  }

  CompoundStmt *compound(std::vector<Stmt *> Body = {}) {
    return create<CompoundStmt>(std::move(Body));
  }

  size_t nodeCount() const { return Nodes.size(); }

private:
  std::vector<std::pair<void *, void (*)(void *)>> Nodes;
};

} // namespace dpo

#endif // DPO_AST_ASTCONTEXT_H
