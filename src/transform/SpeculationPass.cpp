//===--- SpeculationPass.cpp ----------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/SpeculationPass.h"

#include "ast/Clone.h"
#include "ast/Walk.h"
#include "profile/Profile.h"
#include "sema/LaunchSites.h"
#include "sema/PurityAnalysis.h"
#include "support/Casting.h"
#include "transform/BuiltinRewrite.h"
#include "transform/SerialKernel.h"

#include <unordered_map>
#include <unordered_set>

using namespace dpo;

namespace {

/// The knob's name in macro spelling; an `#ifndef` default is emitted.
constexpr const char *BoundMacro = "_SPEC_BOUND";

class SpeculationTransformer {
public:
  SpeculationTransformer(ASTContext &Ctx, TranslationUnit *TU,
                         const SpeculationOptions &Options,
                         DiagnosticEngine &Diags, AnalysisManager &AM)
      : Ctx(Ctx), TU(TU), Options(Options), Diags(Diags), AM(AM),
        Serial(Ctx, TU, Diags) {}

  SpeculationResult run() {
    SpeculationResult Result;
    const std::vector<LaunchSite> AllSites = AM.launchSites();
    const LaunchProfile *Profile =
        Options.UseProfile ? Options.Profile : nullptr;

    struct PlannedSite {
      LaunchSite Site;
      uint64_t Bound = 0; ///< Guard bound (total threads <= Bound).
    };
    std::vector<PlannedSite> Planned;
    for (const LaunchSite &Site : AllSites) {
      if (!Site.FromKernel)
        continue; // Host launches are not dynamic parallelism.
      std::string Where =
          Site.Caller->name() + " -> " + Site.Launch->kernel();
      if (std::string Why = serialCallBlocker(Site, AM); !Why.empty()) {
        skip(Result, Where + ": " + Why);
        continue;
      }
      // The guard multiplies grid by block dim, so both must be scalar —
      // and both are re-evaluated on each branch, so both must be pure.
      if (Site.Launch->gridDim()->type().isDim3() ||
          Site.Launch->blockDim()->type().isDim3()) {
        skip(Result, Where + ": dim3 launch configuration");
        continue;
      }
      if (!AM.isPure(Site.Launch->gridDim()) ||
          !AM.isPure(Site.Launch->blockDim())) {
        skip(Result, Where + ": launch configuration is not pure");
        continue;
      }
      PlannedSite P;
      P.Site = Site;
      P.Bound = Options.MaxThreads;
      if (Options.UseProfile &&
          (!Profile || !Profile->siteSpeculationBound(Site.Name, P.Bound))) {
        skip(Result, Where + ": site absent from profile");
        continue;
      }
      Planned.push_back(P);
    }

    if (Planned.empty())
      return Result;

    // Per-site values can't share one macro: profile mode always spells
    // its bounds as literals.
    if (Options.Spelling == KnobSpelling::Macro && !Options.UseProfile)
      emitMacroDefault(Ctx, TU, BoundMacro, Options.MaxThreads);
    // The guard itself: the VM compiles the call to a dedicated opcode;
    // host compilers get this macro so the printed source stays valid.
    TU->decls().insert(
        TU->decls().begin(),
        Ctx.create<RawDecl>("#ifndef __dpo_spec_guard\n"
                            "#define __dpo_spec_guard(n, k) ((n) <= (k))\n"
                            "#endif"));

    for (const PlannedSite &P : Planned)
      Serial.ensureSerialVersion(P.Site.Child, AllSites);

    std::unordered_map<const Stmt *, Stmt *> Replacements;
    for (const PlannedSite &P : Planned)
      Replacements[P.Site.Launch] = buildSpeculatedLaunch(P.Site, P.Bound);

    replaceStmts(TU, Replacements);

    Result.SpeculatedLaunches = Planned.size();
    return Result;
  }

private:
  void skip(SpeculationResult &Result, std::string Reason) {
    ++Result.SkippedLaunches;
    Result.SkipReasons.push_back(std::move(Reason));
  }

  Expr *boundExpr(uint64_t Bound) {
    if (Options.Spelling == KnobSpelling::Macro && !Options.UseProfile)
      return Ctx.ref(BoundMacro);
    return Ctx.intLit(Bound);
  }

  /// Builds the speculated replacement for one launch:
  ///   { unsigned long long _specK = (gDim) * (bDim);
  ///     if (__dpo_spec_guard(_specK, BOUND)) { <serial call>; }
  ///     else { <launch>; } }
  Stmt *buildSpeculatedLaunch(const LaunchSite &Site, uint64_t Bound) {
    LaunchExpr *L = Site.Launch;
    // A name the caller already uses would capture (or be captured by)
    // the launch's own expressions.
    std::unordered_set<std::string> Taken = usedNames(Site.Caller);
    std::string CountVar;
    do
      CountVar = "_spec" + std::to_string(SiteCounter++);
    while (Taken.count(CountVar));

    Expr *CountInit = Ctx.binary(
        BinaryOpKind::Mul, Ctx.paren(cloneExpr(Ctx, L->gridDim())),
        Ctx.paren(cloneExpr(Ctx, L->blockDim())));
    Type CountType(BuiltinKind::ULongLong);
    auto *CountDecl = Ctx.declare(CountType, CountVar, CountInit);

    Expr *SerialCall = Serial.buildSerialCall(Site);

    auto *CountRef = Ctx.ref(CountVar);
    CountRef->setType(CountType);
    Expr *Guard = Ctx.call("__dpo_spec_guard", {CountRef, boundExpr(Bound)});
    auto *If = Ctx.create<IfStmt>(Guard, Ctx.compound({SerialCall}),
                                  Ctx.compound({L}));
    return Ctx.compound({CountDecl, If});
  }

  ASTContext &Ctx;
  TranslationUnit *TU;
  const SpeculationOptions &Options;
  DiagnosticEngine &Diags;
  AnalysisManager &AM;
  SerialKernelBuilder Serial;
  unsigned SiteCounter = 0;
};

} // namespace

SpeculationResult dpo::applySpeculation(ASTContext &Ctx, TranslationUnit *TU,
                                        const SpeculationOptions &Options,
                                        DiagnosticEngine &Diags,
                                        AnalysisManager &AM) {
  SpeculationTransformer Transformer(Ctx, TU, Options, Diags, AM);
  return Transformer.run();
}

std::string SpeculationPass::repr() const {
  if (Options.UseProfile)
    return "speculate[profile]";
  std::string R = "speculate[" + std::to_string(Options.MaxThreads);
  if (Options.Spelling == KnobSpelling::Literal)
    R += ":literal";
  return R + "]";
}

void SpeculationPass::run(ASTContext &Ctx, TranslationUnit *TU,
                          AnalysisManager &AM, DiagnosticEngine &Diags) {
  Result = applySpeculation(Ctx, TU, Options, Diags, AM);
}
