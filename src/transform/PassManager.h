//===--- PassManager.h - Composable source-to-source pass pipeline -----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-style pass infrastructure for the paper's transformations. The
/// three paper passes (thresholding, coarsening, aggregation) and the
/// builtin-rewrite building block are TransformPass subclasses; a
/// PassManager runs a sequence of them over one translation unit, each
/// querying sema through the same AnalysisManager handle.
///
/// Pipelines are spelled as text and parsed by parsePassPipeline, e.g.:
///
///   threshold,coarsen,aggregate[multiblock:8]
///   threshold[256:fallback],coarsen[8:literal]
///
/// Grammar (see src/transform/README.md for the full description):
///
///   pipeline := pass (',' pass)*
///   pass     := name ('[' param (':' param)* ']')?
///
/// Pass names and parameter meanings come from the PassRegistry, which
/// also accepts externally registered passes (tests register custom ones).
/// The PassManager records per-pass wall time; statsReport() renders the
/// timings (dpoptcc --print-pass-stats).
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_PASSMANAGER_H
#define DPO_TRANSFORM_PASSMANAGER_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "sema/Analysis.h"
#include "support/Diagnostics.h"
#include "transform/PassOptions.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dpo {

/// Base class of every source-to-source transformation pass. A pass runs
/// in place over the translation unit.
class TransformPass {
public:
  virtual ~TransformPass() = default;

  /// The registry name ("threshold", "coarsen", ...).
  virtual std::string name() const = 0;

  /// Canonical pipeline-text spelling, including parameters
  /// ("threshold[128]"). parsePassPipeline(repr()) reconstructs the pass.
  virtual std::string repr() const { return name(); }

  /// Transforms \p TU in place. Errors go to \p Diags (a pass that
  /// reported an error aborts the pipeline).
  virtual void run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
                   DiagnosticEngine &Diags) = 0;
};

/// Wall time of one executed pass.
struct PassTiming {
  std::string Name;
  double Millis = 0.0;
};

/// Runs an ordered sequence of passes over one translation unit.
class PassManager {
public:
  void addPass(std::unique_ptr<TransformPass> Pass);

  bool empty() const { return Passes.empty(); }
  size_t size() const { return Passes.size(); }
  const std::vector<std::unique_ptr<TransformPass>> &passes() const {
    return Passes;
  }

  /// Checks every launch of a kernel defined in \p TU against the
  /// kernel's parameter count, then runs every pass in order. Returns
  /// false after an arity error (before any pass runs) or after the first
  /// pass that reports an error.
  bool run(ASTContext &Ctx, TranslationUnit *TU, AnalysisManager &AM,
           DiagnosticEngine &Diags);

  /// Timings of the passes executed by the last run() call.
  const std::vector<PassTiming> &timings() const { return Timings; }

  /// The canonical pipeline text ("threshold[128],coarsen[4]").
  std::string pipelineText() const;

  /// Per-pass timing table.
  std::string statsReport() const;

private:
  std::vector<std::unique_ptr<TransformPass>> Passes;
  std::vector<PassTiming> Timings;
};

/// The knob values a caller sets for a whole pipeline: the paper's
/// `_THRESHOLD`, `_CFACTOR` and `_AGG_SIZE` knobs plus how they are
/// spelled. Each pass factory starts from its pass's own defaults and
/// copies in the values that concern it; bracket parameters in the
/// pipeline text override them for that one pass.
struct PassPipelineConfig {
  /// How every knob appears in the output (macros by default).
  KnobSpelling Spelling = KnobSpelling::Macro;
  /// Profile consulted by the `profile` pass parameter
  /// (`threshold[profile]` etc.). Null means "no profile": passes fall
  /// back to their literal knobs; `speculate[profile]` transforms
  /// nothing. Not owned; must outlive the constructed passes.
  const LaunchProfile *Profile = nullptr;
  /// `threshold`: serialize child grids with fewer threads than this.
  unsigned Threshold = ThresholdingOptions().Threshold;
  /// `coarsen`: child blocks merged per coarsened block.
  unsigned CoarsenFactor = CoarseningOptions().Factor;
  /// `aggregate`: granularity and multi-block group size.
  AggGranularity Granularity = AggregationOptions().Granularity;
  unsigned GroupSize = AggregationOptions().GroupSize;
  /// `aggregate`: the Section V-B participant threshold; unset leaves
  /// it off.
  std::optional<unsigned> AggThreshold;
};

/// Name -> factory map for pipeline parsing. The four builtin passes are
/// pre-registered; registerPass accepts additional ones.
class PassRegistry {
public:
  /// Builds a pass from its bracket parameters ("multiblock:8"; empty
  /// when absent). Returns null and sets \p Error on a malformed spec.
  using Factory = std::function<std::unique_ptr<TransformPass>(
      std::string_view Params, const PassPipelineConfig &Config,
      std::string &Error)>;

  /// The process-wide registry (builtin passes pre-registered).
  static PassRegistry &global();

  /// Registers a pass; returns false if \p Name is already taken.
  bool registerPass(std::string Name, std::string Description, Factory F);

  bool contains(std::string_view Name) const;

  /// Instantiates the named pass. Null + \p Error on unknown names or
  /// malformed parameters.
  std::unique_ptr<TransformPass> create(std::string_view Name,
                                        std::string_view Params,
                                        const PassPipelineConfig &Config,
                                        std::string &Error) const;

  /// (name, description) of every registered pass, registration order.
  std::vector<std::pair<std::string, std::string>> entries() const;

private:
  PassRegistry();

  struct Entry {
    std::string Name;
    std::string Description;
    Factory Make;
  };
  std::vector<Entry> Entries;
};

/// Parses \p Text (the grammar above) and appends the passes to \p PM.
/// Returns false and sets \p Error (leaving \p PM possibly partially
/// extended) on malformed input.
bool parsePassPipeline(PassManager &PM, std::string_view Text,
                       const PassPipelineConfig &Config, std::string &Error);

} // namespace dpo

#endif // DPO_TRANSFORM_PASSMANAGER_H
