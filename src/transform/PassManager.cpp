//===--- PassManager.cpp --------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/PassManager.h"

#include "support/StringUtils.h"
#include "transform/AggregationPass.h"
#include "transform/BuiltinRewrite.h"
#include "transform/CanonicalizePass.h"
#include "transform/CoarseningPass.h"
#include "transform/SpeculationPass.h"
#include "transform/ThresholdingPass.h"

#include <chrono>
#include <cstdio>
#include <sstream>

using namespace dpo;

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

void PassManager::addPass(std::unique_ptr<TransformPass> Pass) {
  Passes.push_back(std::move(Pass));
}

bool PassManager::run(ASTContext &Ctx, TranslationUnit *TU,
                      AnalysisManager &AM, DiagnosticEngine &Diags) {
  Timings.clear();
  // The passes index a launch's arguments by the child's parameters and
  // rewrite the child as a kernel, so a mismatched launch or one of a
  // function that is not a kernel must stop here rather than inside a
  // pass.
  bool LaunchesOk = true;
  for (const LaunchSite &Site : AM.launchSites()) {
    const LaunchExpr *L = Site.Launch;
    if (!Site.Child || !Site.Child->isDefinition())
      continue;
    if (!Site.Child->isKernel()) {
      Diags.error(L->loc(), "'" + L->kernel() +
                                "' is not a __global__ kernel and cannot be "
                                "launched");
      LaunchesOk = false;
    } else if (L->args().size() != Site.Child->params().size()) {
      Diags.error(L->loc(), "kernel '" + L->kernel() + "' expects " +
                                std::to_string(Site.Child->params().size()) +
                                " arguments, got " +
                                std::to_string(L->args().size()));
      LaunchesOk = false;
    }
  }
  if (!LaunchesOk)
    return false;
  for (const std::unique_ptr<TransformPass> &Pass : Passes) {
    auto Start = std::chrono::steady_clock::now();
    Pass->run(Ctx, TU, AM, Diags);
    auto End = std::chrono::steady_clock::now();
    Timings.push_back(
        {Pass->name(),
         std::chrono::duration<double, std::milli>(End - Start).count()});
    if (Diags.hasErrors())
      return false;
  }
  return true;
}

std::string PassManager::pipelineText() const {
  std::string Text;
  for (const std::unique_ptr<TransformPass> &Pass : Passes) {
    if (!Text.empty())
      Text += ",";
    Text += Pass->repr();
  }
  return Text;
}

std::string PassManager::statsReport() const {
  std::ostringstream OS;
  OS << "pass timings\n";
  double Total = 0.0;
  for (const PassTiming &T : Timings) {
    char Line[96];
    std::snprintf(Line, sizeof(Line), "  %-17s %9.3f ms\n", T.Name.c_str(),
                  T.Millis);
    OS << Line;
    Total += T.Millis;
  }
  char Line[96];
  std::snprintf(Line, sizeof(Line), "  %-17s %9.3f ms\n", "total", Total);
  OS << Line;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Parameter parsing helpers
//===----------------------------------------------------------------------===//

namespace {

/// Decimal unsigned parser for pipeline parameters: rejects empty strings,
/// non-digits, zero, and values that overflow 32 bits (the same accept set
/// as the CLI's --threshold= and friends).
bool parsePassUInt(std::string_view Text, unsigned &Out) {
  return parsePositiveU32(Text, Out) == ParseUIntStatus::Ok;
}

/// Handles the parameters shared by the knob passes ("literal"/"macro").
/// Returns true if \p Param was consumed.
bool applySpellingParam(std::string_view Param, KnobSpelling &Spelling) {
  if (Param == "literal") {
    Spelling = KnobSpelling::Literal;
    return true;
  }
  if (Param == "macro") {
    Spelling = KnobSpelling::Macro;
    return true;
  }
  return false;
}

/// Parses the parameters of a knob pass (threshold, coarsen, speculate):
/// a positive \p Value, 'profile', 'literal'/'macro', and 'fallback' when
/// \p Fallback is non-null. Anything else sets \p Error, naming \p Pass.
/// The factories hand every knob pass the config's profile; a pass reads
/// it only once 'profile' has set its UseProfile.
bool parseKnobParams(const char *Pass, std::string_view Params,
                     unsigned &Value, bool &UseProfile, KnobSpelling &Spelling,
                     bool *Fallback, std::string &Error) {
  if (Params.empty())
    return true;
  for (std::string_view P : split(Params, ':')) {
    if (Fallback && P == "fallback")
      *Fallback = true;
    else if (P == "profile")
      UseProfile = true;
    else if (!applySpellingParam(P, Spelling) && !parsePassUInt(P, Value)) {
      Error = std::string(Pass) + ": invalid parameter '" + std::string(P) +
              "' (expected a positive integer, 'profile', " +
              (Fallback ? "'fallback', " : "") + "'literal', or 'macro')";
      return false;
    }
  }
  return true;
}

std::unique_ptr<TransformPass> makeThresholdPass(std::string_view Params,
                                                 const PassPipelineConfig &C,
                                                 std::string &Error) {
  ThresholdingOptions O;
  O.Threshold = C.Threshold;
  O.Spelling = C.Spelling;
  O.Profile = C.Profile;
  if (!parseKnobParams("threshold", Params, O.Threshold, O.UseProfile,
                       O.Spelling, &O.FallbackToTotalThreads, Error))
    return nullptr;
  return std::make_unique<ThresholdingPass>(O);
}

std::unique_ptr<TransformPass> makeCoarsenPass(std::string_view Params,
                                               const PassPipelineConfig &C,
                                               std::string &Error) {
  CoarseningOptions O;
  O.Factor = C.CoarsenFactor;
  O.Spelling = C.Spelling;
  O.Profile = C.Profile;
  if (!parseKnobParams("coarsen", Params, O.Factor, O.UseProfile, O.Spelling,
                       nullptr, Error))
    return nullptr;
  return std::make_unique<CoarseningPass>(O);
}

std::unique_ptr<TransformPass> makeSpeculatePass(std::string_view Params,
                                                 const PassPipelineConfig &C,
                                                 std::string &Error) {
  SpeculationOptions O;
  O.Spelling = C.Spelling;
  O.Profile = C.Profile;
  if (!parseKnobParams("speculate", Params, O.MaxThreads, O.UseProfile,
                       O.Spelling, nullptr, Error))
    return nullptr;
  return std::make_unique<SpeculationPass>(O);
}

std::unique_ptr<TransformPass> makeAggregatePass(std::string_view Params,
                                                 const PassPipelineConfig &C,
                                                 std::string &Error) {
  AggregationOptions O;
  O.Granularity = C.Granularity;
  O.GroupSize = C.GroupSize;
  O.Spelling = C.Spelling;
  if (C.AggThreshold) {
    O.UseAggregationThreshold = true;
    O.AggregationThreshold = *C.AggThreshold;
  }
  if (!Params.empty()) {
    for (std::string_view P : split(Params, ':')) {
      if (P == "none")
        O.Granularity = AggGranularity::None;
      else if (P == "warp")
        O.Granularity = AggGranularity::Warp;
      else if (P == "block")
        O.Granularity = AggGranularity::Block;
      else if (P == "multiblock")
        O.Granularity = AggGranularity::MultiBlock;
      else if (P == "grid")
        O.Granularity = AggGranularity::Grid;
      else if (startsWith(P, "agg-threshold=")) {
        O.UseAggregationThreshold = true;
        std::string_view Value = P.substr(14);
        if (!parsePassUInt(Value, O.AggregationThreshold)) {
          Error = "aggregate: invalid agg-threshold value '" +
                  std::string(Value) + "' (expected a positive integer)";
          return nullptr;
        }
      } else if (applySpellingParam(P, O.Spelling))
        ;
      else if (!parsePassUInt(P, O.GroupSize)) {
        Error = "aggregate: invalid parameter '" + std::string(P) +
                "' (expected a granularity, a positive group size, "
                "'agg-threshold=N', 'literal', or 'macro')";
        return nullptr;
      }
    }
  }
  if (std::string Why = checkAggGroupSize(O.GroupSize); !Why.empty()) {
    Error = "aggregate: " + Why;
    return nullptr;
  }
  return std::make_unique<AggregationPass>(O);
}

std::unique_ptr<TransformPass>
makeCanonicalizePass(std::string_view Params, const PassPipelineConfig &,
                     std::string &Error) {
  if (!Params.empty()) {
    Error = "canonicalize: takes no parameters";
    return nullptr;
  }
  return std::make_unique<CanonicalizePass>();
}

std::unique_ptr<TransformPass>
makeBuiltinRewritePass(std::string_view Params, const PassPipelineConfig &,
                       std::string &Error) {
  std::unordered_map<std::string, BuiltinRemap> Map;
  bool Strict = false;
  if (!Params.empty()) {
    for (std::string_view P : split(Params, ':')) {
      if (P == "strict") {
        Strict = true;
        continue;
      }
      size_t Eq = P.find('=');
      if (Eq == std::string_view::npos || Eq == 0 || Eq + 1 == P.size()) {
        Error = "builtin-rewrite: invalid parameter '" + std::string(P) +
                "' (expected <builtin>[.x|.y|.z]=<name>, or 'strict')";
        return nullptr;
      }
      std::string Key(P.substr(0, Eq));
      std::string Value(P.substr(Eq + 1));
      size_t Dot = Key.find('.');
      std::string Builtin = Dot == std::string::npos ? Key : Key.substr(0, Dot);
      BuiltinRemap &Remap = Map[Builtin];
      // Pipeline-built remaps are permissive by construction: anything the
      // user did not name stays as written.
      Remap.AllowUnmappedComponents = true;
      if (Dot == std::string::npos) {
        Remap.Whole = Value;
      } else {
        std::string Component = Key.substr(Dot + 1);
        if (Component == "x")
          Remap.X = Value;
        else if (Component == "y")
          Remap.Y = Value;
        else if (Component == "z")
          Remap.Z = Value;
        else {
          Error = "builtin-rewrite: unknown component '" + Component +
                  "' in '" + std::string(P) + "'";
          return nullptr;
        }
      }
    }
  }
  if (Strict)
    for (auto &[Name, Remap] : Map)
      Remap.AllowUnmappedComponents = false;
  return std::make_unique<BuiltinRewritePass>(std::move(Map));
}

} // namespace

//===----------------------------------------------------------------------===//
// PassRegistry
//===----------------------------------------------------------------------===//

PassRegistry::PassRegistry() {
  registerPass("canonicalize",
               "normalize launch-dimension spellings (shift-spelled "
               "divisions, literal folds) so the grid-dim matcher sees "
               "canonical forms; run ahead of threshold/coarsen",
               makeCanonicalizePass);
  registerPass("threshold",
               "serialize small child grids behind a launch threshold "
               "(params: N, 'fallback', 'literal'/'macro')",
               makeThresholdPass);
  registerPass("coarsen",
               "merge child thread blocks with a block-strided loop "
               "(params: factor, 'literal'/'macro')",
               makeCoarsenPass);
  registerPass("speculate",
               "serialize child launches under a small-grid assumption "
               "behind a runtime guard with a fallback launch (params: "
               "max threads, 'profile', 'literal'/'macro')",
               makeSpeculatePass);
  registerPass("aggregate",
               "combine child grids into one launch per group (params: "
               "none|warp|block|multiblock|grid, group size, "
               "'literal'/'macro')",
               makeAggregatePass);
  registerPass("builtin-rewrite",
               "rename CUDA builtin index variables across kernel bodies "
               "(params: <builtin>[.x|.y|.z]=<name>)",
               makeBuiltinRewritePass);
}

PassRegistry &PassRegistry::global() {
  static PassRegistry Registry;
  return Registry;
}

bool PassRegistry::registerPass(std::string Name, std::string Description,
                                Factory F) {
  if (contains(Name))
    return false;
  Entries.push_back({std::move(Name), std::move(Description), std::move(F)});
  return true;
}

bool PassRegistry::contains(std::string_view Name) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return true;
  return false;
}

std::unique_ptr<TransformPass>
PassRegistry::create(std::string_view Name, std::string_view Params,
                     const PassPipelineConfig &Config,
                     std::string &Error) const {
  for (const Entry &E : Entries)
    if (E.Name == Name)
      return E.Make(Params, Config, Error);
  Error = "unknown pass '" + std::string(Name) + "'";
  return nullptr;
}

std::vector<std::pair<std::string, std::string>>
PassRegistry::entries() const {
  std::vector<std::pair<std::string, std::string>> Result;
  for (const Entry &E : Entries)
    Result.emplace_back(E.Name, E.Description);
  return Result;
}

//===----------------------------------------------------------------------===//
// Pipeline text parsing
//===----------------------------------------------------------------------===//

bool dpo::parsePassPipeline(PassManager &PM, std::string_view Text,
                            const PassPipelineConfig &Config,
                            std::string &Error) {
  if (trim(Text).empty()) {
    Error = "empty pass pipeline";
    return false;
  }

  for (std::string_view Spec : split(Text, ',')) {
    Spec = trim(Spec);
    if (Spec.empty()) {
      Error = "empty pass name in pipeline '" + std::string(Text) + "'";
      return false;
    }
    std::string_view Name = Spec;
    std::string_view Params;
    size_t Bracket = Spec.find('[');
    if (Bracket != std::string_view::npos) {
      if (Spec.back() != ']') {
        Error = "missing ']' in pass '" + std::string(Spec) + "'";
        return false;
      }
      Name = Spec.substr(0, Bracket);
      Params = Spec.substr(Bracket + 1, Spec.size() - Bracket - 2);
    } else if (Spec.find(']') != std::string_view::npos) {
      Error = "stray ']' in pass '" + std::string(Spec) + "'";
      return false;
    }
    std::unique_ptr<TransformPass> Pass =
        PassRegistry::global().create(Name, Params, Config, Error);
    if (!Pass)
      return false;
    PM.addPass(std::move(Pass));
  }
  return true;
}
