//===--- Tuner.h - Parameter tuning (Section VIII-C) --------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tuning of the launch threshold, coarsening factor, and aggregation
/// granularity/group size. Two modes, as in the paper:
///
///  - exhaustive: sweep the full space (what the paper uses to show the
///    maximum potential and Fig. 11's curves);
///  - guided: the paper's observations — pick the threshold that leaves
///    roughly 6,000-8,000 child grid launches, use a coarsening factor of
///    8 (performance is insensitive above that), skip warp granularity
///    (never favorable) — typically within a few percent in <= 10 probes.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_TUNER_TUNER_H
#define DPO_TUNER_TUNER_H

#include "sim/Simulator.h"
#include "transform/Pipeline.h"

#include <functional>
#include <string>
#include <vector>

namespace dpo {

/// Which optimizations a variant may use (Fig. 9's combination labels).
struct VariantMask {
  bool Thresholding = false;
  bool Coarsening = false;
  bool Aggregation = false;
  /// Restrict aggregation granularities (e.g. KLAP = {Warp, Block, Grid}).
  std::vector<AggGranularity> Granularities = {
      AggGranularity::Warp, AggGranularity::Block, AggGranularity::MultiBlock,
      AggGranularity::Grid};
};

struct TuneResult {
  ExecConfig Config;
  SimResult Result;
  unsigned Probes = 0; ///< Simulator evaluations spent.
};

/// The paper's sweep axes.
std::vector<uint32_t> defaultThresholdSweep();   // 1,2,4,...,32768
std::vector<uint32_t> defaultCoarsenSweep();     // 1,2,4,...,32
std::vector<uint32_t> defaultGroupSizeSweep();   // 2,4,8,16,32

/// The full candidate grid of a variant, in deterministic sweep order —
/// the space exhaustiveTune scans and the empirical/hybrid tuners sample.
std::vector<ExecConfig> enumerateConfigs(const VariantMask &Mask);

/// Exhaustively tunes a variant for a batch stream.
TuneResult exhaustiveTune(const GpuModel &Gpu,
                          const std::vector<NestedBatch> &Batches,
                          const VariantMask &Mask);

/// The guided heuristic described above.
TuneResult guidedTune(const GpuModel &Gpu,
                      const std::vector<NestedBatch> &Batches,
                      const VariantMask &Mask);

/// Picks the smallest power-of-two threshold that leaves at most
/// \p TargetLaunches dynamic launches (Section VIII-C's 6k-8k rule).
uint32_t thresholdForLaunchBudget(const std::vector<NestedBatch> &Batches,
                                  uint64_t TargetLaunches);

/// Maps a tuned execution strategy back onto the source-to-source
/// compiler: the textual pass pipeline realizing \p Config, in
/// parsePassPipeline's grammar ("threshold[1024],coarsen[8],
/// aggregate[multiblock:8]"). Empty when \p Config enables no
/// transformation. NoCdp configurations map to thresholding with a
/// threshold of 2^32-1 and the total-threads fallback, which serializes
/// every child grid. Knob spellings come from the parsing config, so the
/// same text emits macros (dpoptcc) or literals (VM execution).
std::string passPipelineTextFor(const ExecConfig &Config);

/// The inverse of passPipelineTextFor, for warm-starting searches from
/// committed tuned tables and reading tune results back from disk: parses
/// \p Text with parsePassPipeline, reads each pass's options() into an
/// ExecConfig, and accepts the text only when passPipelineTextFor of that
/// config renders the same canonical text, knob spellings aside. So
/// bare `aggregate` reads as `aggregate[multiblock:8]` and the NoCdp
/// spelling maps back to ExecConfig::noCdp(), while profile knobs,
/// speculate and other passes, repeated or reordered passes, and a
/// fallback on any other threshold return false, leaving \p Out
/// untouched. An empty pipeline is the default (untransformed) config.
bool execConfigFromPipelineText(std::string_view Text, ExecConfig &Out);

} // namespace dpo

#endif // DPO_TUNER_TUNER_H
