//===--- CoarseningPass.cpp ---------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Two codegen modes per kernel:
///  - scalar mode (all launches use scalar 1-D grid configurations): the
///    appended parameter is `unsigned int _gDimX`. This keeps launch
///    configurations scalar so the aggregation pass can compose after
///    coarsening (its buffers store 32-bit configurations, Fig. 8).
///  - dim3 mode (some launch uses a dim3 grid): the appended parameter is
///    `dim3 _gDim` exactly as in Fig. 6. Only the x dimension is coarsened;
///    y/z extents are unchanged, so `gridDim.y/z` stay valid in the body.
///
//===----------------------------------------------------------------------===//

#include "transform/CoarseningPass.h"

#include "ast/Clone.h"
#include "ast/Walk.h"
#include "profile/Profile.h"
#include "sema/LaunchSites.h"
#include "support/Casting.h"
#include "transform/BuiltinRewrite.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

using namespace dpo;

namespace {

/// The knob's name in macro spelling; an `#ifndef` default is emitted.
constexpr const char *FactorMacro = "_CFACTOR";

bool containsReturn(const Stmt *Root) {
  bool Found = false;
  forEachStmt(Root, [&](const Stmt *S) {
    if (isa<ReturnStmt>(S))
      Found = true;
  });
  return Found;
}

std::string freshFunctionName(const TranslationUnit *TU,
                              const std::string &Base) {
  if (!TU->findFunction(Base))
    return Base;
  for (unsigned I = 1;; ++I) {
    std::string Candidate = Base + "_" + std::to_string(I);
    if (!TU->findFunction(Candidate))
      return Candidate;
  }
}

class CoarseningTransformer {
public:
  CoarseningTransformer(ASTContext &Ctx, TranslationUnit *TU,
                        const CoarseningOptions &Options,
                        DiagnosticEngine &Diags, AnalysisManager &AM)
      : Ctx(Ctx), TU(TU), Options(Options), Diags(Diags), AM(AM) {}

  CoarseningResult run() {
    CoarseningResult Result;
    const std::vector<LaunchSite> AllSites = AM.launchSites();

    // Candidate kernels: children of dynamic launches.
    std::set<FunctionDecl *> Candidates;
    for (const LaunchSite &Site : AllSites)
      if (Site.FromKernel && Site.Child && Site.Child->isDefinition())
        Candidates.insert(Site.Child);

    // A kernel is only coarsened if every launch of it can be patched
    // (kernels are modified in place, so all callers must agree).
    std::set<FunctionDecl *> Skipped;
    for (FunctionDecl *Child : Candidates) {
      std::string Reason;
      if (!canCoarsen(Child, AllSites, Reason)) {
        Skipped.insert(Child);
        ++Result.SkippedLaunches;
        Result.SkipReasons.push_back(Child->name() + ": " + Reason);
      }
    }

    bool AnyCoarsened = false;
    for (FunctionDecl *Child : Candidates) {
      if (Skipped.count(Child))
        continue;
      ScalarMode[Child] = allLaunchesScalar(Child, AllSites);
      coarsenKernel(Child);
      ++Result.CoarsenedKernels;
      AnyCoarsened = true;
    }
    if (!AnyCoarsened)
      return Result;

    // Per-site values can't share one macro: profile mode always spells
    // its factors as literals.
    if (Options.Spelling == KnobSpelling::Macro && !Options.UseProfile)
      emitMacroDefault(Ctx, TU, FactorMacro, Options.Factor);

    const LaunchProfile *Profile =
        Options.UseProfile ? Options.Profile : nullptr;

    // Patch every launch of every coarsened kernel.
    std::unordered_map<const Stmt *, Stmt *> Replacements;
    for (const LaunchSite &Site : AllSites) {
      if (!Site.Child || Skipped.count(Site.Child) ||
          !Candidates.count(Site.Child))
        continue;
      unsigned Factor =
          Profile ? Profile->siteCoarsenFactor(Site.Name, Options.Factor)
                  : Options.Factor;
      // A per-site factor of 1 keeps the identity configuration (the
      // kernel is already coarsened in place, so the launch still passes
      // the original grid, striding exactly once per block).
      Replacements[Site.Launch] =
          buildPatchedLaunch(Site, Site.FromKernel && Factor > 1, Factor);
      ++Result.RewrittenLaunches;
    }

    replaceStmts(TU, Replacements);
    return Result;
  }

private:
  bool canCoarsen(FunctionDecl *Child, const std::vector<LaunchSite> &AllSites,
                  std::string &Reason) {
    for (const VarDecl *P : Child->params()) {
      if (P->name() == "_gDim" || P->name() == "_gDimX") {
        Reason = "kernel already has an _gDim parameter (coarsened twice?)";
        return false;
      }
    }
    for (const LaunchSite &Site : AllSites) {
      if (Site.Child != Child)
        continue;
      if (!Site.InStatementPosition) {
        Reason = "a launch of this kernel is not in statement position";
        return false;
      }
    }
    return true;
  }

  bool allLaunchesScalar(FunctionDecl *Child,
                         const std::vector<LaunchSite> &AllSites) {
    for (const LaunchSite &Site : AllSites)
      if (Site.Child == Child && Site.Launch->gridDim()->type().isDim3())
        return false;
    return true;
  }

  Expr *factorExpr(unsigned Factor) {
    if (Options.Spelling == KnobSpelling::Macro && !Options.UseProfile)
      return Ctx.ref(FactorMacro);
    return Ctx.intLit(Factor);
  }

  /// Rewrites the kernel in place per Fig. 6: appends the original-grid
  /// parameter and wraps the body in the block-strided loop.
  void coarsenKernel(FunctionDecl *Child) {
    bool Scalar = ScalarMode.at(Child);
    // Collision-free synthesized names: re-coarsening a coarsened kernel
    // (or coarsening a kernel another pass already rewrote) must not let
    // the new grid-stride variable capture the old one, nor append a
    // duplicate original-grid parameter.
    std::unordered_set<std::string> Taken = declaredNames(Child);
    std::string ParamName = freshVarName(Taken, Scalar ? "_gDimX" : "_gDim");
    std::string Bx = freshVarName(Taken, "_bx");

    std::unordered_map<std::string, BuiltinRemap> Map;
    Map["blockIdx"].X = Bx;
    // Only x is coarsened; blockIdx.y/z (and, in scalar mode, gridDim.y/z,
    // which are untouched by coarsening) remain valid.
    Map["blockIdx"].AllowUnmappedComponents = true;
    if (Scalar) {
      Map["gridDim"].X = ParamName;
      Map["gridDim"].AllowUnmappedComponents = true;
    } else {
      Map["gridDim"].Whole = ParamName;
    }

    Type ParamType =
        Scalar ? Type(BuiltinKind::UInt) : Type(BuiltinKind::Dim3);

    // A cooperative child re-runs its body in the same physical block
    // once per strided iteration, reusing the block's shared window. An
    // iteration's lagging readers (threads still consuming shared state
    // after the body's last barrier) must not race the lead thread's
    // re-staging in the next iteration, so each iteration is closed with
    // a barrier — the standard CUDA grid-stride idiom for __shared__
    // kernels.
    bool Cooperative = false;
    forEachStmt(Child->body(), [&](const Stmt *S) {
      if (const auto *Call = dyn_cast<CallExpr>(S))
        if (Call->calleeName() == "__syncthreads")
          Cooperative = true;
      if (const auto *DS = dyn_cast<DeclStmt>(S))
        for (const VarDecl *D : DS->decls())
          if (D->isShared())
            Cooperative = true;
    });

    Stmt *PerBlock = nullptr;
    if (containsReturn(Child->body())) {
      // Early returns would abort the remaining coarsening iterations, so
      // the per-block body moves into a helper function.
      std::string HelperName =
          freshFunctionName(TU, Child->name() + "_coarse_body");
      std::vector<VarDecl *> HelperParams;
      for (const VarDecl *P : Child->params())
        HelperParams.push_back(cloneVarDecl(Ctx, P));
      HelperParams.push_back(Ctx.create<VarDecl>(ParamType, ParamName));
      HelperParams.push_back(
          Ctx.create<VarDecl>(Type(BuiltinKind::UInt), Bx));
      auto *HelperBody = cast<CompoundStmt>(cloneStmt(Ctx, Child->body()));
      rewriteBuiltins(Ctx, HelperBody, Map, Diags);
      FunctionQualifiers Quals;
      Quals.Device = true;
      auto *Helper = Ctx.create<FunctionDecl>(
          Quals, Type(BuiltinKind::Void), HelperName, std::move(HelperParams),
          HelperBody);
      auto It = std::find(TU->decls().begin(), TU->decls().end(),
                          static_cast<Decl *>(Child));
      assert(It != TU->decls().end() && "kernel not in translation unit");
      TU->decls().insert(It, Helper);

      std::vector<Expr *> CallArgs;
      for (const VarDecl *P : Child->params())
        CallArgs.push_back(Ctx.ref(P->name()));
      CallArgs.push_back(Ctx.ref(ParamName));
      CallArgs.push_back(Ctx.ref(Bx));
      PerBlock = Ctx.call(HelperName, std::move(CallArgs));
    } else {
      auto *Body = cast<CompoundStmt>(cloneStmt(Ctx, Child->body()));
      rewriteBuiltins(Ctx, Body, Map, Diags);
      PerBlock = Body;
    }
    if (Cooperative)
      PerBlock = Ctx.compound({PerBlock, Ctx.call("__syncthreads")});

    // for (unsigned int _bx = blockIdx.x; _bx < <bound>; _bx += gridDim.x)
    Expr *Bound = Scalar ? static_cast<Expr *>(Ctx.ref(ParamName))
                         : static_cast<Expr *>(Ctx.member(ParamName, "x"));
    auto *Init =
        Ctx.declare(Type(BuiltinKind::UInt), Bx, Ctx.member("blockIdx", "x"));
    auto *Cond = Ctx.binary(BinaryOpKind::LT, Ctx.ref(Bx), Bound);
    auto *Inc = Ctx.binary(BinaryOpKind::AddAssign, Ctx.ref(Bx),
                           Ctx.member("gridDim", "x"));
    auto *Loop = Ctx.create<ForStmt>(Init, Cond, Inc, PerBlock);

    Child->params().push_back(Ctx.create<VarDecl>(ParamType, ParamName));
    Child->setBody(Ctx.compound({Loop}));
  }

  /// Wraps a grid expression into a dim3-typed local.
  DeclStmt *makeDim3Var(const std::string &Name, Expr *Value) {
    Expr *Init = Value;
    if (!Value->type().isDim3()) {
      auto *Ctor = Ctx.call("dim3", {Value, Ctx.intLit(1), Ctx.intLit(1)});
      Ctor->setType(Type(BuiltinKind::Dim3));
      Init = Ctor;
    }
    return Ctx.declare(Type(BuiltinKind::Dim3), Name, Init);
  }

  /// Fig. 6 lines 08-10 for dynamic launches; identity configuration for
  /// host launches of the same (now coarsened) kernel.
  Stmt *buildPatchedLaunch(const LaunchSite &Site, bool Coarsen,
                           unsigned Factor) {
    LaunchExpr *L = Site.Launch;
    unsigned K = SiteCounter++;
    bool Scalar = ScalarMode.at(Site.Child);

    std::vector<Stmt *> Stmts;
    std::string GVar =
        (Scalar ? "_gDimX" : "_gDim") + std::to_string(K);
    if (Scalar) {
      auto *GDecl = Ctx.declare(Type(BuiltinKind::UInt), GVar, L->gridDim());
      Stmts.push_back(GDecl);
    } else {
      Stmts.push_back(makeDim3Var(GVar, L->gridDim()));
    }

    std::string ConfigVar = GVar;
    if (Coarsen) {
      // coarsened = (original + _CFACTOR - 1) / _CFACTOR
      auto MakeCeilDiv = [&](Expr *Orig) {
        auto *Num = Ctx.binary(
            BinaryOpKind::Sub,
            Ctx.binary(BinaryOpKind::Add, Orig, factorExpr(Factor)),
            Ctx.intLit(1));
        return Ctx.binary(BinaryOpKind::Div, Ctx.paren(Num),
                          factorExpr(Factor));
      };
      if (Scalar) {
        std::string CVar = "_cgDimX" + std::to_string(K);
        auto *CDecl = Ctx.declare(Type(BuiltinKind::UInt), CVar,
                                  MakeCeilDiv(Ctx.ref(GVar)));
        Stmts.push_back(CDecl);
        ConfigVar = CVar;
      } else {
        std::string CVar = "_cgDim" + std::to_string(K);
        auto *CDecl =
            Ctx.declare(Type(BuiltinKind::Dim3), CVar, Ctx.ref(GVar));
        auto *Assign =
            Ctx.binary(BinaryOpKind::Assign, Ctx.member(CVar, "x"),
                       MakeCeilDiv(Ctx.member(GVar, "x")));
        Stmts.push_back(CDecl);
        Stmts.push_back(Assign);
        ConfigVar = CVar;
      }
    }

    auto *ConfigRef = Ctx.ref(ConfigVar);
    ConfigRef->setType(Scalar ? Type(BuiltinKind::UInt)
                              : Type(BuiltinKind::Dim3));
    L->gridDimSlot() = ConfigRef;
    auto *OrigRef = Ctx.ref(GVar);
    OrigRef->setType(Scalar ? Type(BuiltinKind::UInt)
                            : Type(BuiltinKind::Dim3));
    L->args().push_back(OrigRef);
    Stmts.push_back(L);
    return Ctx.compound(std::move(Stmts));
  }

  ASTContext &Ctx;
  TranslationUnit *TU;
  const CoarseningOptions &Options;
  DiagnosticEngine &Diags;
  AnalysisManager &AM;
  std::map<const FunctionDecl *, bool> ScalarMode;
  unsigned SiteCounter = 0;
};

} // namespace

CoarseningResult dpo::applyCoarsening(ASTContext &Ctx, TranslationUnit *TU,
                                      const CoarseningOptions &Options,
                                      DiagnosticEngine &Diags,
                                      AnalysisManager &AM) {
  CoarseningTransformer Transformer(Ctx, TU, Options, Diags, AM);
  return Transformer.run();
}

std::string CoarseningPass::repr() const {
  if (Options.UseProfile)
    return "coarsen[profile]";
  std::string R = "coarsen[" + std::to_string(Options.Factor);
  if (Options.Spelling == KnobSpelling::Literal)
    R += ":literal";
  return R + "]";
}

void CoarseningPass::run(ASTContext &Ctx, TranslationUnit *TU,
                         AnalysisManager &AM, DiagnosticEngine &Diags) {
  Result = applyCoarsening(Ctx, TU, Options, Diags, AM);
}
