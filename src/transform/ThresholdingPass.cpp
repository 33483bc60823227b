//===--- ThresholdingPass.cpp -------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/ThresholdingPass.h"

#include "ast/Clone.h"
#include "ast/Walk.h"
#include "profile/Profile.h"
#include "sema/GridDimAnalysis.h"
#include "sema/LaunchSites.h"
#include "sema/PurityAnalysis.h"
#include "support/Casting.h"
#include "transform/BuiltinRewrite.h"
#include "transform/SerialKernel.h"

#include <unordered_map>
#include <unordered_set>

using namespace dpo;

const char *dpo::aggGranularityName(AggGranularity G) {
  switch (G) {
  case AggGranularity::None: return "none";
  case AggGranularity::Warp: return "warp";
  case AggGranularity::Block: return "block";
  case AggGranularity::MultiBlock: return "multi-block";
  case AggGranularity::Grid: return "grid";
  }
  return "unknown";
}

namespace {

/// The knob's name in macro spelling; an `#ifndef` default is emitted.
constexpr const char *ThresholdMacro = "_THRESHOLD";

class ThresholdingTransformer {
public:
  ThresholdingTransformer(ASTContext &Ctx, TranslationUnit *TU,
                          const ThresholdingOptions &Options,
                          DiagnosticEngine &Diags, AnalysisManager &AM)
      : Ctx(Ctx), TU(TU), Options(Options), Diags(Diags), AM(AM),
        Serial(Ctx, TU, Diags) {}

  ThresholdingResult run() {
    ThresholdingResult Result;
    const std::vector<LaunchSite> AllSites = AM.launchSites();
    const LaunchProfile *Profile =
        Options.UseProfile ? Options.Profile : nullptr;

    // Plan the transformation of every eligible dynamic launch.
    struct PlannedSite {
      LaunchSite Site;
      GridDimInfo Info;
      unsigned Threshold = 0; ///< Effective (possibly per-site) knob.
      bool UseTotalThreadsFallback = false;
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
      PlannedSite P;
      P.Site = Site;
      P.Threshold = Profile ? Profile->siteThreshold(Site.Name,
                                                     Options.Threshold)
                            : Options.Threshold;
      P.Info = AM.gridDim(Site.Caller, Site.Launch->gridDim());
      if (!P.Info.Found || (P.Info.NeedsReevaluation && !P.Info.Safe)) {
        if (Options.FallbackToTotalThreads &&
            AM.isPure(Site.Launch->gridDim()) &&
            AM.isPure(Site.Launch->blockDim())) {
          P.UseTotalThreadsFallback = true;
        } else {
          skip(Result, Where + ": " + P.Info.FailureReason);
          continue;
        }
      }
      Planned.push_back(P);
    }

    if (Planned.empty())
      return Result;

    // Per-site values can't share one macro: profile mode always spells
    // its thresholds as literals.
    if (Options.Spelling == KnobSpelling::Macro && !Options.UseProfile)
      emitMacroDefault(Ctx, TU, ThresholdMacro, Options.Threshold);

    // Build serial versions (one per distinct child kernel).
    for (const PlannedSite &P : Planned)
      Serial.ensureSerialVersion(P.Site.Child, AllSites);

    // Rewrite each launch site.
    std::unordered_map<const Stmt *, Stmt *> Replacements;
    for (PlannedSite &P : Planned)
      Replacements[P.Site.Launch] = buildThresholdedLaunch(
          P.Site, P.Info, P.Threshold, P.UseTotalThreadsFallback);

    replaceStmts(TU, Replacements);

    Result.TransformedLaunches = Planned.size();
    return Result;
  }

private:
  void skip(ThresholdingResult &Result, std::string Reason) {
    ++Result.SkippedLaunches;
    Result.SkipReasons.push_back(std::move(Reason));
  }

  /// Emits `#ifndef M / #define M V / #endif` at the top of the file.
  Expr *thresholdExpr(unsigned Threshold) {
    if (Options.Spelling == KnobSpelling::Macro && !Options.UseProfile)
      return Ctx.ref(ThresholdMacro);
    return Ctx.intLit(Threshold);
  }

  /// Builds the Fig. 3 replacement for one launch:
  ///   { <type> _threadsK = N;
  ///     if (_threadsK >= _THRESHOLD) { <launch> }
  ///     else { <child>_serial(args, gDim, bDim); } }
  Stmt *buildThresholdedLaunch(const LaunchSite &Site, const GridDimInfo &Info,
                               unsigned Threshold, bool TotalThreadsFallback) {
    LaunchExpr *L = Site.Launch;
    // A name the caller already uses would capture (or be captured by)
    // the launch's own expressions.
    std::unordered_set<std::string> Taken = usedNames(Site.Caller);
    std::string ThreadsVar;
    do
      ThreadsVar = "_threads" + std::to_string(SiteCounter++);
    while (Taken.count(ThreadsVar));

    Expr *CountInit = nullptr;
    if (TotalThreadsFallback) {
      CountInit = Ctx.binary(
          BinaryOpKind::Mul, Ctx.paren(cloneExpr(Ctx, L->gridDim())),
          Ctx.paren(cloneExpr(Ctx, L->blockDim())));
    } else if (Info.InlineSite) {
      CountInit = Info.ThreadCount;
      // Substitute `_threadsK` for the found subexpression inside the
      // launch's grid expression so side effects are not duplicated.
      rewriteExprSlot(L->gridDimSlot(), [&](Expr *E) -> Expr * {
        if (E != Info.InlineSite)
          return nullptr;
        auto *Ref = Ctx.ref(ThreadsVar);
        Ref->setType(E->type());
        return Ref;
      });
    } else {
      CountInit = Info.ThreadCount;
    }

    Type CountType = CountInit->type();
    if (!CountType.isInteger())
      CountType = Type(BuiltinKind::Int);
    auto *CountDecl = Ctx.declare(CountType, ThreadsVar, CountInit);

    // Serial call: original args plus the (post-substitution) launch
    // configuration.
    Expr *SerialCall = Serial.buildSerialCall(Site);

    auto *CountRef = Ctx.ref(ThreadsVar);
    CountRef->setType(CountType);
    Expr *Cond =
        Ctx.binary(BinaryOpKind::GE, CountRef, thresholdExpr(Threshold));
    auto *If = Ctx.create<IfStmt>(Cond, Ctx.compound({L}),
                                  Ctx.compound({SerialCall}));
    return Ctx.compound({CountDecl, If});
  }

  ASTContext &Ctx;
  TranslationUnit *TU;
  const ThresholdingOptions &Options;
  DiagnosticEngine &Diags;
  AnalysisManager &AM;
  SerialKernelBuilder Serial;
  unsigned SiteCounter = 0;
};

} // namespace

ThresholdingResult dpo::applyThresholding(ASTContext &Ctx, TranslationUnit *TU,
                                          const ThresholdingOptions &Options,
                                          DiagnosticEngine &Diags,
                                          AnalysisManager &AM) {
  ThresholdingTransformer Transformer(Ctx, TU, Options, Diags, AM);
  return Transformer.run();
}

std::string ThresholdingPass::repr() const {
  std::string R = "threshold[";
  if (Options.UseProfile) {
    R += "profile";
    if (Options.FallbackToTotalThreads)
      R += ":fallback";
    return R + "]";
  }
  R += std::to_string(Options.Threshold);
  if (Options.FallbackToTotalThreads)
    R += ":fallback";
  if (Options.Spelling == KnobSpelling::Literal)
    R += ":literal";
  return R + "]";
}

void ThresholdingPass::run(ASTContext &Ctx, TranslationUnit *TU,
                           AnalysisManager &AM, DiagnosticEngine &Diags) {
  Result = applyThresholding(Ctx, TU, Options, Diags, AM);
}
