//===--- Pipeline.cpp -----------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "parse/Typing.h"
#include "profile/Profile.h"
#include "vm/Compiler.h"

using namespace dpo;

PassPipelineConfig dpo::literalKnobConfig(const LaunchProfile *Profile) {
  PassPipelineConfig Config;
  Config.Spelling = KnobSpelling::Literal;
  Config.Profile = Profile;
  return Config;
}

namespace {

/// Parses \p Source into \p Ctx and runs \p PipelineText over it. Returns
/// the transformed unit, or null after reporting the failure to \p Diags.
TranslationUnit *parseAndTransform(std::string_view Source,
                                   std::string_view PipelineText,
                                   const PassPipelineConfig &Config,
                                   ASTContext &Ctx, DiagnosticEngine &Diags,
                                   std::string *StatsReport) {
  PassManager PM;
  std::string Error;
  if (!parsePassPipeline(PM, PipelineText, Config, Error)) {
    Diags.error(SourceLocation(), "invalid pass pipeline: " + Error);
    return nullptr;
  }
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  if (!TU)
    return nullptr;
  AnalysisManager AM(Ctx, TU);
  bool Ok = PM.run(Ctx, TU, AM, Diags);
  if (StatsReport)
    *StatsReport = PM.statsReport();
  return Ok ? TU : nullptr;
}

} // namespace

std::string dpo::transformSourceWithPipeline(std::string_view Source,
                                             std::string_view PipelineText,
                                             const PassPipelineConfig &Config,
                                             DiagnosticEngine &Diags,
                                             std::string *StatsReport) {
  ASTContext Ctx;
  TranslationUnit *TU = parseAndTransform(Source, PipelineText, Config, Ctx,
                                          Diags, StatsReport);
  return TU ? printTranslationUnit(TU) : std::string();
}

std::optional<VmProgram> dpo::compileWithPipeline(
    std::string_view Source, std::string_view PipelineText,
    const PassPipelineConfig &Config, const VmCompileOptions &Opts,
    DiagnosticEngine &Diags, std::string *Printed) {
  ASTContext Ctx;
  bool Transform = !PipelineText.empty();
  TranslationUnit *TU = Transform ? parseAndTransform(Source, PipelineText,
                                                      Config, Ctx, Diags,
                                                      /*StatsReport=*/nullptr)
                                  : parseSource(Source, Ctx, Diags);
  if (!TU)
    return std::nullopt;
  // Passes build nodes without exact types; give the unit the types
  // parsing its printed text would, so the bytecode matches.
  if (Transform)
    assignTypes(TU);
  if (Printed)
    *Printed = Transform ? printTranslationUnit(TU) : std::string(Source);
  VmProgram Program = compileProgram(TU, Diags, Opts);
  if (Diags.hasErrors())
    return std::nullopt;
  return Program;
}

bool dpo::canonicalPipelineText(std::string_view PipelineText,
                                const PassPipelineConfig &Config,
                                std::string &Canonical, std::string &Error) {
  if (PipelineText.empty()) {
    Canonical.clear();
    return true;
  }
  PassManager PM;
  if (!parsePassPipeline(PM, PipelineText, Config, Error))
    return false;
  Canonical = PM.pipelineText();
  return true;
}

std::string dpo::knobSignature(const PassPipelineConfig &Config) {
  // Signatures name on-disk artifacts, so their bytes are frozen. Fields
  // a config does not carry are fixed text: the knob macro names, the
  // always-generated host wrapper, and the fallback, profile-mode and
  // speculation-bound settings, which only pipeline-text parameters set
  // (and the canonical pipeline text is part of every key).
  std::string S;
  auto Field = [&](const char *Key, const std::string &Value) {
    S += Key;
    S += '=';
    S += Value;
    S += ';';
  };
  const std::string Spell =
      Config.Spelling == KnobSpelling::Macro ? "macro" : "literal";
  Field("thr", std::to_string(Config.Threshold));
  Field("thr.spell", Spell);
  S += "thr.macro=_THRESHOLD;thr.fallback=0;thr.profile=0;";
  Field("cf", std::to_string(Config.CoarsenFactor));
  Field("cf.spell", Spell);
  S += "cf.macro=_CFACTOR;cf.profile=0;spec=64;";
  Field("spec.spell", Spell);
  S += "spec.macro=_SPEC_BOUND;spec.profile=0;";
  Field("agg", aggGranularityName(Config.Granularity));
  Field("agg.group", std::to_string(Config.GroupSize));
  Field("agg.spell", Spell);
  S += "agg.macro=_AGG_SIZE;";
  Field("agg.thr", Config.AggThreshold ? std::to_string(*Config.AggThreshold)
                                       : std::string("off"));
  S += "agg.thrmacro=_AGG_THRESHOLD;agg.wrapper=1;";
  // A profile changes what profile-mode passes emit; hash its canonical
  // textual serialization so distinct profiles never alias.
  Field("profile",
        Config.Profile ? serializeProfile(*Config.Profile) : std::string());
  return S;
}
