//===--- BuiltinRewrite.cpp ---------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/BuiltinRewrite.h"

#include "ast/Walk.h"
#include "support/Casting.h"

#include <algorithm>

using namespace dpo;

bool dpo::rewriteBuiltins(
    ASTContext &Ctx, Stmt *Root,
    const std::unordered_map<std::string, BuiltinRemap> &Map,
    DiagnosticEngine &Diags) {
  bool Changed = false;
  auto Replaced = [&](Expr *E) {
    Changed = true;
    return E;
  };
  rewriteExprs(Root, [&](Expr *E) -> Expr * {
    // Component form: `<builtin>.<c>`.
    if (auto *M = dyn_cast<MemberExpr>(E)) {
      auto *Base = dyn_cast<DeclRefExpr>(M->base());
      if (!Base)
        return nullptr;
      auto It = Map.find(Base->name());
      if (It == Map.end())
        return nullptr;
      const BuiltinRemap &Remap = It->second;
      const std::string *Component = nullptr;
      if (M->member() == "x")
        Component = &Remap.X;
      else if (M->member() == "y")
        Component = &Remap.Y;
      else if (M->member() == "z")
        Component = &Remap.Z;
      if (Component && !Component->empty()) {
        auto *Ref = Ctx.ref(*Component);
        Ref->setType(Type(BuiltinKind::UInt));
        Ref->setLoc(M->loc());
        return Replaced(Ref);
      }
      if (!Remap.Whole.empty()) {
        // Rename the base, keep the member access.
        auto *NewBase = Ctx.ref(Remap.Whole);
        NewBase->setType(Base->type());
        auto *NewMember =
            Ctx.create<MemberExpr>(NewBase, M->member(), M->isArrow());
        NewMember->setType(M->type());
        NewMember->setLoc(M->loc());
        return Replaced(NewMember);
      }
      if (Component && !Remap.AllowUnmappedComponents) {
        // The builtin is being remapped but this component has no target
        // (e.g. a .y use of a kernel the caller believed was 1-D).
        Diags.error(M->loc(), "use of '" + Base->name() + "." + M->member() +
                                  "' has no remap target");
        // Substitute a sentinel to avoid a cascading bare-use diagnostic.
        auto *Ref = Ctx.ref("_unmapped_" + Base->name() + "_" + M->member());
        Ref->setType(Type(BuiltinKind::UInt));
        return Replaced(Ref);
      }
      return nullptr;
    }
    return nullptr;
  });

  // Bare uses (not under a member access we rewrote above). MemberExpr bases
  // were rewritten bottom-up first, so a remaining DeclRef to a builtin with
  // a Whole mapping is a bare use; with only component mappings it is
  // unsupported.
  rewriteExprs(Root, [&](Expr *E) -> Expr * {
    auto *Ref = dyn_cast<DeclRefExpr>(E);
    if (!Ref)
      return nullptr;
    auto It = Map.find(Ref->name());
    if (It == Map.end())
      return nullptr;
    const BuiltinRemap &Remap = It->second;
    if (!Remap.Whole.empty()) {
      auto *New = Ctx.ref(Remap.Whole);
      New->setType(Ref->type());
      New->setLoc(Ref->loc());
      return Replaced(New);
    }
    // Bases of member accesses that were deliberately left untouched (and
    // bare uses, which stay valid in that mode) are fine.
    if (Remap.AllowUnmappedComponents)
      return nullptr;
    Diags.error(Ref->loc(), "bare use of reserved variable '" + Ref->name() +
                                "' cannot be remapped to scalar loop indices");
    return nullptr;
  });
  return Changed;
}

std::string BuiltinRewritePass::repr() const {
  // Deterministic spelling: builtins sorted by name, components in x/y/z
  // order, whole-renames first.
  std::vector<std::string> Names;
  for (const auto &[Name, Remap] : Map)
    Names.push_back(Name);
  std::sort(Names.begin(), Names.end());

  std::string R = "builtin-rewrite";
  std::string Params;
  bool Strict = false;
  for (const std::string &Name : Names) {
    const BuiltinRemap &Remap = Map.at(Name);
    auto Append = [&](const std::string &Key, const std::string &Value) {
      if (Value.empty())
        return;
      if (!Params.empty())
        Params += ":";
      Params += Key + "=" + Value;
    };
    Append(Name, Remap.Whole);
    Append(Name + ".x", Remap.X);
    Append(Name + ".y", Remap.Y);
    Append(Name + ".z", Remap.Z);
    Strict |= !Remap.AllowUnmappedComponents;
  }
  // Pipeline-text passes are permissive by default; a programmatically
  // built strict map must round-trip as strict too.
  if (Strict && !Params.empty())
    Params += ":strict";
  if (!Params.empty())
    R += "[" + Params + "]";
  return R;
}

void BuiltinRewritePass::run(ASTContext &Ctx, TranslationUnit *TU,
                             AnalysisManager &, DiagnosticEngine &Diags) {
  if (Map.empty())
    return;
  for (Decl *D : TU->decls()) {
    auto *F = dyn_cast<FunctionDecl>(D);
    if (F && F->body())
      rewriteBuiltins(Ctx, F->body(), Map, Diags);
  }
}

bool dpo::usesBuiltinComponent(const Stmt *Root, const std::string &Builtin,
                               const std::string &Component) {
  bool Found = false;
  forEachExpr(Root, [&](const Expr *E) {
    if (Found)
      return;
    const auto *M = dyn_cast<MemberExpr>(E);
    if (!M || M->member() != Component)
      return;
    const auto *Base = dyn_cast<DeclRefExpr>(M->base());
    if (Base && Base->name() == Builtin)
      Found = true;
  });
  return Found;
}

std::unordered_set<std::string> dpo::declaredNames(const FunctionDecl *Fn) {
  std::unordered_set<std::string> Names;
  for (const VarDecl *P : Fn->params())
    Names.insert(P->name());
  if (Fn->body())
    forEachStmt(Fn->body(), [&](const Stmt *S) {
      if (const auto *DS = dyn_cast<DeclStmt>(S))
        for (const VarDecl *D : DS->decls())
          Names.insert(D->name());
    });
  return Names;
}

std::unordered_set<std::string> dpo::usedNames(const FunctionDecl *Fn) {
  std::unordered_set<std::string> Names = declaredNames(Fn);
  if (Fn->body())
    forEachExpr(Fn->body(), [&](const Expr *E) {
      if (const auto *Ref = dyn_cast<DeclRefExpr>(E))
        Names.insert(Ref->name());
    });
  return Names;
}

void dpo::emitMacroDefault(ASTContext &Ctx, TranslationUnit *TU,
                           const std::string &Macro, unsigned Value) {
  std::string Text = "#ifndef " + Macro + "\n#define " + Macro + " " +
                     std::to_string(Value) + "\n#endif";
  TU->decls().insert(TU->decls().begin(), Ctx.create<RawDecl>(Text));
}

void dpo::replaceStmts(
    TranslationUnit *TU,
    const std::unordered_map<const Stmt *, Stmt *> &Replacements) {
  for (Decl *D : TU->decls()) {
    auto *F = dyn_cast<FunctionDecl>(D);
    if (!F || !F->body())
      continue;
    rewriteStmts(F->body(), [&](Stmt *S) -> Stmt * {
      auto It = Replacements.find(S);
      return It != Replacements.end() ? It->second : nullptr;
    });
  }
}

std::string dpo::freshVarName(std::unordered_set<std::string> &Taken,
                              const std::string &Base) {
  std::string Name = Base;
  for (unsigned I = 0; Taken.count(Name); ++I)
    Name = Base + "_" + std::to_string(I);
  Taken.insert(Name);
  return Name;
}
