//===--- Pipeline.h - Section VI: the combined compilation flow --------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 8(a) flow: thresholding, then coarsening, then aggregation,
/// each an independent source-to-source pass. The ordering rationale from
/// the paper: thresholding before coarsening because coarsening rewrites
/// the grid dimension and would obscure the ceiling-division pattern;
/// thresholding before aggregation because small grids are easier to
/// isolate before they are combined; coarsening before aggregation so the
/// disaggregation logic lands outside the coarsening loop and is amortized.
///
/// Pipelines have one spelling: the text parsePassPipeline accepts
/// ("threshold,coarsen,aggregate[multiblock:8]"), with knob values not
/// written in the text taken from a PassPipelineConfig. The Fig. 8(a)
/// pipeline is "threshold,coarsen,aggregate". Every caller that wants
/// bytecode goes through compileWithPipeline, which parses the source
/// once, checks launch arity, runs the passes over the AST, and lowers
/// the transformed AST straight to bytecode; the transformed text is
/// printed only when a caller asks for it (artifacts, output files).
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_PIPELINE_H
#define DPO_TRANSFORM_PIPELINE_H

#include "ast/ASTContext.h"
#include "ast/Decl.h"
#include "sema/Analysis.h"
#include "support/Diagnostics.h"
#include "transform/AggregationPass.h"
#include "transform/CoarseningPass.h"
#include "transform/PassManager.h"
#include "transform/PassOptions.h"
#include "transform/ThresholdingPass.h"
#include "vm/Bytecode.h"
#include "vm/Compiler.h"

#include <optional>
#include <string>
#include <string_view>

namespace dpo {

/// A textual-pipeline configuration that spells every knob as a literal —
/// what VM execution requires (the VM has no preprocessor to give the
/// `_THRESHOLD`/`_CFACTOR`/`_AGG_SIZE` macros values). The empirical tuner
/// parses pipelines produced by passPipelineTextFor with these defaults.
/// \p Profile (optional, not owned) backs the `profile` pass parameter.
PassPipelineConfig literalKnobConfig(const LaunchProfile *Profile = nullptr);

/// Text-to-text with a textual pass pipeline ("threshold,coarsen,
/// aggregate[multiblock:8]"; see PassManager.h for the grammar). Knob
/// values not overridden in the text come from \p Config. On success,
/// optionally writes the pass-timing/analysis-cache report to
/// \p StatsReport. Returns an empty string on error: pipeline-parse
/// failures are reported as diagnostics too.
std::string transformSourceWithPipeline(std::string_view Source,
                                        std::string_view PipelineText,
                                        const PassPipelineConfig &Config,
                                        DiagnosticEngine &Diags,
                                        std::string *StatsReport = nullptr);

/// The one compile path: parses \p Source, runs \p PipelineText over it
/// (see transformSourceWithPipeline for the knob rules), and compiles the
/// transformed AST to bytecode with \p Opts. An empty pipeline compiles
/// the source as written. When \p Printed is non-null it receives the
/// transformed source text (\p Source itself for an empty pipeline).
/// Returns nullopt on error; \p Diags explains why.
std::optional<VmProgram> compileWithPipeline(std::string_view Source,
                                             std::string_view PipelineText,
                                             const PassPipelineConfig &Config,
                                             const VmCompileOptions &Opts,
                                             DiagnosticEngine &Diags,
                                             std::string *Printed = nullptr);

/// Canonicalizes \p PipelineText by parsing it against \p Config and
/// re-rendering via PassManager::pipelineText(), so differently-spelled
/// but equivalent pipelines ("threshold[128]" written with default knobs
/// vs. spelled out) hash to the same artifact-cache key. Returns false
/// with \p Error on a parse failure. An empty pipeline canonicalizes to
/// the empty string.
bool canonicalPipelineText(std::string_view PipelineText,
                           const PassPipelineConfig &Config,
                           std::string &Canonical, std::string &Error);

/// A deterministic textual rendering of every value in \p Config (the
/// threshold, factor, spelling, aggregation shape, and the attached
/// profile, content-hashed via its textual serialization). The service
/// layer folds this into artifact-cache keys so knob changes never alias.
/// Its bytes are frozen so existing keys stay valid: settings only the
/// pipeline text carries appear as the fixed text they always read.
std::string knobSignature(const PassPipelineConfig &Config);

} // namespace dpo

#endif // DPO_TRANSFORM_PIPELINE_H
