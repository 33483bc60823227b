//===--- SerialKernel.h - Shared serial-kernel synthesis ------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthesis of `<child>_serial` device functions — the sequential
/// equivalent of launching a child kernel, used by every transform that
/// replaces a dynamic launch with in-parent execution:
///
///  - ThresholdingPass guards the launch behind a thread-count threshold
///    (Fig. 3 of the paper);
///  - SpeculationPass guards it behind a profile-backed runtime
///    assumption with a fallback launch.
///
/// Both passes must agree on naming, collision avoidance, builtin
/// remapping, and early-return handling, so the machinery lives here
/// once. The builder deduplicates per child kernel: two passes (or two
/// sites) serializing the same child inside one pipeline share a single
/// `<child>_serial` definition.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_SERIALKERNEL_H
#define DPO_TRANSFORM_SERIALKERNEL_H

#include "ast/ASTContext.h"
#include "sema/LaunchSites.h"

#include <map>
#include <string>
#include <vector>

namespace dpo {

class AnalysisManager;
class DiagnosticEngine;

/// Why the dynamic launch \p Site cannot become a call of its child's
/// serial version — not in statement position, no child definition, or a
/// child that cannot be serialized — or empty if it can.
std::string serialCallBlocker(const LaunchSite &Site, AnalysisManager &AM);

/// Builds (and memoizes) serial versions of child kernels inside one
/// translation unit. Create one per pass execution; the memoization is
/// per-builder, but name freshness is checked against the live TU, so
/// repeated pass runs never collide.
class SerialKernelBuilder {
public:
  SerialKernelBuilder(ASTContext &Ctx, TranslationUnit *TU,
                      DiagnosticEngine &Diags)
      : Ctx(Ctx), TU(TU), Diags(Diags) {}

  /// Generates (once per child) the `<child>_serial` device function —
  /// nested block/thread loops over the launch configuration, with index
  /// builtins remapped to loop variables, and an `_serial_thread` helper
  /// when the body contains early returns — and inserts it right after
  /// the child kernel's definition. Returns the serial function's name.
  /// \p AllSites is consulted to decide whether y/z dimension loops are
  /// needed.
  const std::string &ensureSerialVersion(FunctionDecl *Child,
                                         const std::vector<LaunchSite> &AllSites);

  /// Builds the serial call replacing one launch: `<child>_serial(args...,
  /// gridDim, blockDim)` with every expression cloned from the site.
  /// ensureSerialVersion must have run for \p Site.Child.
  Expr *buildSerialCall(const LaunchSite &Site);

  /// True when a serial version was already synthesized for \p Child.
  bool hasSerialVersion(const FunctionDecl *Child) const {
    return SerialNames.count(Child) != 0;
  }

private:
  ASTContext &Ctx;
  TranslationUnit *TU;
  DiagnosticEngine &Diags;
  std::map<const FunctionDecl *, std::string> SerialNames;
};

} // namespace dpo

#endif // DPO_TRANSFORM_SERIALKERNEL_H
