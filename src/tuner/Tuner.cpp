//===--- Tuner.cpp --------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"

#include <algorithm>
#include <limits>
#include <string_view>

using namespace dpo;

std::vector<uint32_t> dpo::defaultThresholdSweep() {
  std::vector<uint32_t> Sweep;
  for (uint32_t T = 1; T <= 32768; T *= 2)
    Sweep.push_back(T);
  return Sweep;
}

std::vector<uint32_t> dpo::defaultCoarsenSweep() {
  return {1, 2, 4, 8, 16, 32};
}

std::vector<uint32_t> dpo::defaultGroupSizeSweep() { return {2, 4, 8, 16, 32}; }

uint32_t dpo::thresholdForLaunchBudget(const std::vector<NestedBatch> &Batches,
                                       uint64_t TargetLaunches) {
  // Launches(T) = |{units >= T}| is monotone in T, so instead of rescanning
  // every unit for every sweep value (O(sweep * batches * units)), sort the
  // units once and binary-search each threshold's suffix count.
  std::vector<uint32_t> Units;
  size_t Total = 0;
  for (const NestedBatch &B : Batches)
    Total += B.ChildUnits.size();
  Units.reserve(Total);
  for (const NestedBatch &B : Batches)
    Units.insert(Units.end(), B.ChildUnits.begin(), B.ChildUnits.end());
  std::sort(Units.begin(), Units.end());

  for (uint32_t Threshold : defaultThresholdSweep()) {
    uint64_t Launches =
        Units.end() - std::lower_bound(Units.begin(), Units.end(), Threshold);
    if (Launches <= TargetLaunches)
      return Threshold;
  }
  return defaultThresholdSweep().back();
}

namespace {

/// Enumerates the configurations of a variant and keeps the fastest.
template <typename Callback>
void forEachConfig(const VariantMask &Mask, Callback &&Visit) {
  std::vector<std::optional<uint32_t>> Thresholds = {std::nullopt};
  if (Mask.Thresholding)
    for (uint32_t T : defaultThresholdSweep())
      Thresholds.push_back(T);

  std::vector<uint32_t> Factors = {1};
  if (Mask.Coarsening)
    Factors = defaultCoarsenSweep();

  std::vector<AggGranularity> Grans = {AggGranularity::None};
  if (Mask.Aggregation) {
    Grans = Mask.Granularities;
  }

  for (auto Threshold : Thresholds)
    for (uint32_t Factor : Factors)
      for (AggGranularity G : Grans) {
        if (G == AggGranularity::MultiBlock) {
          for (uint32_t Group : defaultGroupSizeSweep()) {
            ExecConfig C;
            C.Threshold = Threshold;
            C.CoarsenFactor = Factor;
            C.Agg = G;
            C.AggGroupBlocks = Group;
            Visit(C);
          }
        } else {
          ExecConfig C;
          C.Threshold = Threshold;
          C.CoarsenFactor = Factor;
          C.Agg = G;
          Visit(C);
        }
      }
}

} // namespace

std::vector<ExecConfig> dpo::enumerateConfigs(const VariantMask &Mask) {
  std::vector<ExecConfig> Configs;
  forEachConfig(Mask, [&](const ExecConfig &C) { Configs.push_back(C); });
  return Configs;
}

TuneResult dpo::exhaustiveTune(const GpuModel &Gpu,
                               const std::vector<NestedBatch> &Batches,
                               const VariantMask &Mask) {
  TuneResult Best;
  Best.Result.TimeUs = std::numeric_limits<double>::infinity();
  forEachConfig(Mask, [&](const ExecConfig &C) {
    SimResult R = simulateBatches(Gpu, Batches, C);
    ++Best.Probes;
    if (R.TimeUs < Best.Result.TimeUs) {
      Best.Result = R;
      Best.Config = C;
    }
  });
  return Best;
}

/// The no-CDP baseline serializes every child grid: thresholding with a
/// threshold no realistic grid reaches, and the total-threads fallback.
constexpr unsigned NoCdpThreshold = 0xFFFFFFFFu;

std::string dpo::passPipelineTextFor(const ExecConfig &Config) {
  ThresholdingOptions T;
  if (Config.NoCdp) {
    T.Threshold = NoCdpThreshold;
    T.FallbackToTotalThreads = true;
    return ThresholdingPass(T).repr();
  }
  PassManager PM;
  if (Config.Threshold) {
    T.Threshold = *Config.Threshold;
    PM.addPass(std::make_unique<ThresholdingPass>(T));
  }
  if (Config.CoarsenFactor > 1) {
    CoarseningOptions C;
    C.Factor = Config.CoarsenFactor;
    PM.addPass(std::make_unique<CoarseningPass>(C));
  }
  if (Config.Agg != AggGranularity::None) {
    AggregationOptions A;
    A.Granularity = Config.Agg;
    A.GroupSize = Config.AggGroupBlocks;
    A.UseAggregationThreshold = Config.AggThresholdEnabled;
    A.AggregationThreshold = Config.AggThreshold;
    PM.addPass(std::make_unique<AggregationPass>(A));
  }
  return PM.pipelineText();
}

bool dpo::execConfigFromPipelineText(std::string_view Text, ExecConfig &Out) {
  if (Text.empty()) {
    Out = ExecConfig();
    return true;
  }
  PassManager PM;
  std::string Error;
  if (!parsePassPipeline(PM, Text, PassPipelineConfig(), Error))
    return false;
  // Read each pass's knobs into C, and re-render the pass in the macro
  // spelling passPipelineTextFor uses, so the spelling is all the two
  // texts may differ in.
  ExecConfig C;
  PassManager Read;
  for (const std::unique_ptr<TransformPass> &Pass : PM.passes()) {
    if (auto *T = dynamic_cast<const ThresholdingPass *>(Pass.get())) {
      ThresholdingOptions O = T->options();
      if (O.Threshold == NoCdpThreshold && O.FallbackToTotalThreads)
        C.NoCdp = true;
      else
        C.Threshold = O.Threshold;
      O.Spelling = KnobSpelling::Macro;
      Read.addPass(std::make_unique<ThresholdingPass>(O));
    } else if (auto *Co = dynamic_cast<const CoarseningPass *>(Pass.get())) {
      CoarseningOptions O = Co->options();
      C.CoarsenFactor = O.Factor;
      O.Spelling = KnobSpelling::Macro;
      Read.addPass(std::make_unique<CoarseningPass>(O));
    } else if (auto *A = dynamic_cast<const AggregationPass *>(Pass.get())) {
      AggregationOptions O = A->options();
      C.Agg = O.Granularity;
      C.AggGroupBlocks = O.GroupSize;
      C.AggThresholdEnabled = O.UseAggregationThreshold;
      C.AggThreshold = O.AggregationThreshold;
      O.Spelling = KnobSpelling::Macro;
      Read.addPass(std::make_unique<AggregationPass>(O));
    } else {
      return false; // speculate, canonicalize, builtin-rewrite, ...
    }
  }
  // Profile knobs, repeated or reordered passes, and a fallback on any
  // threshold but NoCdp's render differently from C's own pipeline.
  if (Read.pipelineText() != passPipelineTextFor(C))
    return false;
  Out = C;
  return true;
}

TuneResult dpo::guidedTune(const GpuModel &Gpu,
                           const std::vector<NestedBatch> &Batches,
                           const VariantMask &Mask) {
  TuneResult Best;
  Best.Result.TimeUs = std::numeric_limits<double>::infinity();

  // Threshold: the 6k-8k launch budget rule picks one value directly; a
  // low fallback probe covers workloads whose serialized work is expensive
  // enough that more (cheap) launches beat divergent serialization.
  std::vector<std::optional<uint32_t>> Thresholds;
  if (Mask.Thresholding) {
    uint32_t Budget = thresholdForLaunchBudget(Batches, 8000);
    Thresholds.push_back(Budget);
    if (Budget > 32)
      Thresholds.push_back(32u);
  } else {
    Thresholds.push_back(std::nullopt);
  }

  // Coarsening: insensitive above 8, so fix a single large factor.
  uint32_t Factor = Mask.Coarsening ? 16 : 1;

  // Granularity: skip warp ("never favorable"); two multi-block group
  // sizes; keep None (some kernels are best without aggregation, e.g.
  // MSTV in Fig. 11).
  struct GranChoice {
    AggGranularity G;
    uint32_t Group;
  };
  std::vector<GranChoice> Grans = {{AggGranularity::None, 0}};
  if (Mask.Aggregation) {
    for (AggGranularity G : Mask.Granularities) {
      if (G == AggGranularity::Warp)
        continue;
      if (G == AggGranularity::MultiBlock) {
        Grans.push_back({G, 8});
        Grans.push_back({G, 32});
      } else {
        Grans.push_back({G, 0});
      }
    }
  }

  for (auto Threshold : Thresholds)
    for (const GranChoice &Choice : Grans) {
      ExecConfig C;
      C.Threshold = Threshold;
      C.CoarsenFactor = Factor;
      C.Agg = Choice.G;
      if (Choice.Group)
        C.AggGroupBlocks = Choice.Group;
      SimResult R = simulateBatches(Gpu, Batches, C);
      ++Best.Probes;
      if (R.TimeUs < Best.Result.TimeUs) {
        Best.Result = R;
        Best.Config = C;
      }
    }
  return Best;
}
