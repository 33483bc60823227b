//===--- BuiltinRewrite.h - Remapping CUDA built-in variables ----------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All three passes rewrite uses of the reserved index/dimension variables
/// inside (cloned) child bodies:
///
///   thresholding:  blockIdx.x -> _bx,   threadIdx.x -> _tx,
///                  gridDim -> _gDim,    blockDim -> _bDim
///   coarsening:    blockIdx.x -> _bx,   gridDim -> _gDim
///   aggregation:   blockIdx.x -> _bx,   gridDim.x -> _gDim,
///                  blockDim.x -> _bDim
///
/// A remap entry can substitute a whole builtin (gridDim -> _gDim, keeping
/// `.x` member accesses) or a single component (blockIdx.x -> scalar _bx).
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_BUILTINREWRITE_H
#define DPO_TRANSFORM_BUILTINREWRITE_H

#include "ast/ASTContext.h"
#include "ast/Stmt.h"
#include "support/Diagnostics.h"
#include "transform/PassManager.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace dpo {

struct BuiltinRemap {
  /// Replacement variable names for `<builtin>.x/.y/.z`; empty = leave as is.
  std::string X, Y, Z;
  /// If set, replace the builtin wholesale (member accesses preserved);
  /// takes precedence over component renames being empty.
  std::string Whole;
  /// When false (default), a component use without a replacement is an
  /// error — the builtin will not exist in the rewritten context (e.g. the
  /// serial version of a kernel). When true, unmapped components are left
  /// untouched — they remain valid (e.g. blockIdx.y under x-only
  /// coarsening).
  bool AllowUnmappedComponents = false;
};

/// Rewrites uses of reserved variables under \p Root. Keys of \p Map are
/// builtin names ("blockIdx", "gridDim", ...). Reports a diagnostic for a
/// bare (member-less) use of a builtin that only has component renames.
/// Returns true if any node was replaced.
bool rewriteBuiltins(ASTContext &Ctx, Stmt *Root,
                     const std::unordered_map<std::string, BuiltinRemap> &Map,
                     DiagnosticEngine &Diags);

/// Returns true if \p Root references `<Builtin>.<Component>` anywhere.
bool usesBuiltinComponent(const Stmt *Root, const std::string &Builtin,
                          const std::string &Component);

/// Every name declared by \p Fn: parameters plus all local declarations
/// under the body. Synthesizing passes collect these before inventing
/// loop/config variables, so a kernel that was already transformed (the
/// coarsening pass's `_bx` grid-stride variable, a serial helper's
/// `_gDim` parameter) can be transformed again without the fresh names
/// shadowing — or being captured by — what an earlier pass generated.
std::unordered_set<std::string> declaredNames(const FunctionDecl *Fn);

/// declaredNames(Fn) plus every name Fn's body references (globals and
/// callees included): the names a variable generated into Fn's body
/// could capture or shadow.
std::unordered_set<std::string> usedNames(const FunctionDecl *Fn);

/// The first of Base, Base_0, Base_1, ... not in \p Taken; the chosen
/// name is inserted into \p Taken and returned.
std::string freshVarName(std::unordered_set<std::string> &Taken,
                         const std::string &Base);

/// Inserts `#ifndef Macro / #define Macro Value / #endif` at the top of
/// \p TU: the default a knob spelled as a macro gets.
void emitMacroDefault(ASTContext &Ctx, TranslationUnit *TU,
                      const std::string &Macro, unsigned Value);

/// Replaces every statement keyed in \p Replacements, wherever it lies in
/// a function body of \p TU, with its mapped statement.
void replaceStmts(TranslationUnit *TU,
                  const std::unordered_map<const Stmt *, Stmt *> &Replacements);

/// The builtin remapping exposed as a standalone pipeline pass — a
/// building block for pipeline experiments ("builtin-rewrite[gridDim=_gd:
/// blockIdx.x=_bx]" renames builtins across every kernel body). Unmapped
/// components are left untouched, so partial maps are safe. With an empty
/// map the pass is the identity.
class BuiltinRewritePass : public TransformPass {
public:
  explicit BuiltinRewritePass(
      std::unordered_map<std::string, BuiltinRemap> Map = {})
      : Map(std::move(Map)) {}

  std::string name() const override { return "builtin-rewrite"; }
  std::string repr() const override;
  void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags) override;

  const std::unordered_map<std::string, BuiltinRemap> &map() const {
    return Map;
  }

private:
  std::unordered_map<std::string, BuiltinRemap> Map;
};

} // namespace dpo

#endif // DPO_TRANSFORM_BUILTINREWRITE_H
