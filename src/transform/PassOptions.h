//===--- PassOptions.h - Tuning knobs for the three passes -------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every tunable the paper exposes (Section VII: launch threshold,
/// coarsening factor, aggregation granularity) is configurable here. Knobs
/// can be emitted either as compile-time macros (`_THRESHOLD`, `_CFACTOR`,
/// `_AGG_SIZE`, matching the paper's tuning workflow with off-the-shelf
/// autotuners) or inlined as integer literals (used when the output is fed
/// to the bytecode VM, which has no preprocessor).
///
/// The structs below are each pass's own options, and their member
/// initializers are the one home of every knob default. Callers do not
/// fill them: they set pipeline-wide values on PassPipelineConfig
/// (PassManager.h), whose factories copy those values in, and per-pass
/// values through pipeline-text parameters.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TRANSFORM_PASSOPTIONS_H
#define DPO_TRANSFORM_PASSOPTIONS_H

#include <string>

namespace dpo {

class LaunchProfile;

/// How the launch threshold / coarsening factor / group size appear in the
/// generated source.
enum class KnobSpelling {
  Macro,   ///< `_THRESHOLD` etc., with an #ifndef default emitted on top.
  Literal, ///< The configured value as an integer literal.
};

struct ThresholdingOptions {
  unsigned Threshold = 128;
  KnobSpelling Spelling = KnobSpelling::Macro;
  /// When the Fig. 4 analysis fails, fall back to comparing
  /// gridDim * blockDim against the threshold instead of skipping the
  /// launch. Off by default (the paper argues total threads is a poor
  /// proxy; Section III-D).
  bool FallbackToTotalThreads = false;
  /// Pipeline spelling `threshold[profile]`: pick a per-launch-site
  /// threshold from Profile (see LaunchProfile::siteThreshold) instead
  /// of the one global knob. Sites the profile never saw — and the whole
  /// pass when Profile is null — fall back to the literal Threshold.
  /// Profile mode always spells thresholds as literals.
  bool UseProfile = false;
  const LaunchProfile *Profile = nullptr;
};

struct CoarseningOptions {
  unsigned Factor = 4;
  KnobSpelling Spelling = KnobSpelling::Macro;
  /// Pipeline spelling `coarsen[profile]`: per-launch-site factors from
  /// Profile (LaunchProfile::siteCoarsenFactor), capped at Factor.
  /// Null Profile falls back to the literal Factor everywhere.
  bool UseProfile = false;
  const LaunchProfile *Profile = nullptr;
};

/// Options for SpeculationPass: serialize a child launch under a
/// profile-backed small-grid assumption behind a runtime __dpo_spec_guard
/// check, with a fallback real launch when the guard fails.
struct SpeculationOptions {
  /// Global small-grid bound: speculate "this launch runs at most
  /// MaxThreads total threads". With a profile, each site instead uses
  /// LaunchProfile::siteSpeculationBound (and unseen sites are skipped).
  unsigned MaxThreads = 64;
  KnobSpelling Spelling = KnobSpelling::Macro;
  bool UseProfile = false;
  const LaunchProfile *Profile = nullptr;
};

enum class AggGranularity {
  None,
  Warp,       ///< Generated with thread-counted groups of 32; see AggregationPass.
  Block,
  MultiBlock, ///< The paper's new granularity (Section V-A).
  Grid,
};

const char *aggGranularityName(AggGranularity G);

/// The largest multi-block group size. The generated code computes a
/// group's slot capacity, `GroupSize * blockDim.x`, in 32 bits, and a
/// block has at most 1024 threads.
constexpr unsigned MaxAggGroupSize = 0xFFFFFFFFu / 1024u;

/// Empty if \p GroupSize is a usable multi-block group size, else why it
/// is refused. The pipeline parser and dpoptcc's --group= share it.
std::string checkAggGroupSize(unsigned GroupSize);

struct AggregationOptions {
  AggGranularity Granularity = AggGranularity::MultiBlock;
  /// Blocks per group for MultiBlock granularity (Fig. 7's
  /// _AGG_GRANULARITY).
  unsigned GroupSize = 8;
  KnobSpelling Spelling = KnobSpelling::Macro;
  /// Section V-B: skip aggregation when too few parents participate
  /// (Block granularity only — requires a barrier to count participants).
  bool UseAggregationThreshold = false;
  unsigned AggregationThreshold = 4;
};

} // namespace dpo

#endif // DPO_TRANSFORM_PASSOPTIONS_H
