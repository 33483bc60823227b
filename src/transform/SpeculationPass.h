//===--- SpeculationPass.h - Speculative serialization of child launches ----===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speculative serialization: replace a dynamic launch with a serialized
/// child run under the *assumption* that the grid is small, checked by a
/// cheap runtime guard with a fallback real launch when the assumption
/// does not hold:
///
///   { unsigned long long _specK = (gDim) * (bDim);
///     if (__dpo_spec_guard(_specK, BOUND)) { <child>_serial(args, g, b); }
///     else { <child><<<g, b>>>(args); } }
///
/// Unlike ThresholdingPass — which makes the same serialize-or-launch
/// decision but treats the knob as a tuning constant — the speculation
/// bound is an *assumption* derived from a profile
/// (LaunchProfile::siteSpeculationBound, the p90 of observed total
/// threads rounded up to a power of two), and the guard's pass/fail
/// outcome is observable: the VM compiles `__dpo_spec_guard` to a
/// dedicated opcode that counts VmStats::SpecGuardPass / SpecGuardFail,
/// so a mispredicted profile shows up in the stats instead of silently
/// costing performance. For host compilers the guard degrades to a plain
/// comparison via an emitted `#define __dpo_spec_guard(n, k) ((n) <= (k))`.
///
/// Pipeline spelling: `speculate`, `speculate[N]`, `speculate[profile]`.
/// In profile mode, sites the profile never observed are skipped — with
/// no evidence there is nothing to speculate on.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_SPECULATIONPASS_H
#define DPO_TRANSFORM_SPECULATIONPASS_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "support/Diagnostics.h"
#include "transform/PassManager.h"
#include "transform/PassOptions.h"

#include <string>
#include <vector>

namespace dpo {

struct SpeculationResult {
  unsigned SpeculatedLaunches = 0;
  unsigned SkippedLaunches = 0;
  std::vector<std::string> SkipReasons;
  bool ok() const { return true; } ///< Skips never make the output invalid.
};

/// Applies speculative serialization to every eligible dynamic launch
/// site in \p TU, in place.
SpeculationResult applySpeculation(ASTContext &Ctx, TranslationUnit *TU,
                                   const SpeculationOptions &Options,
                                   DiagnosticEngine &Diags,
                                   AnalysisManager &AM);

/// Speculative serialization as a pipeline pass ("speculate").
class SpeculationPass : public TransformPass {
public:
  explicit SpeculationPass(SpeculationOptions Options = {})
      : Options(std::move(Options)) {}

  std::string name() const override { return "speculate"; }
  std::string repr() const override;
  void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags) override;

  const SpeculationOptions &options() const { return Options; }
  const SpeculationResult &result() const { return Result; }

private:
  SpeculationOptions Options;
  SpeculationResult Result;
};

} // namespace dpo

#endif // DPO_TRANSFORM_SPECULATIONPASS_H
