//===--- Tuner.cpp --------------------------------------------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "tuner/Tuner.h"
#include "support/StringUtils.h"

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

std::string dpo::passPipelineTextFor(const ExecConfig &Config) {
  ThresholdingOptions T;
  if (Config.NoCdp) {
    // The no-CDP baseline serializes every child grid: thresholding with a
    // threshold no realistic grid reaches.
    T.Threshold = 0xFFFFFFFFu;
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
  ExecConfig C;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find(',', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Component = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Component.empty())
      continue;

    std::string_view Name = Component;
    std::vector<std::string_view> Params;
    size_t Open = Component.find('[');
    if (Open != std::string_view::npos) {
      if (Component.back() != ']')
        return false;
      Name = Component.substr(0, Open);
      std::string_view Body =
          Component.substr(Open + 1, Component.size() - Open - 2);
      size_t P = 0;
      while (P <= Body.size()) {
        size_t Colon = Body.find(':', P);
        if (Colon == std::string_view::npos)
          Colon = Body.size();
        Params.push_back(Body.substr(P, Colon - P));
        P = Colon + 1;
        if (Colon == Body.size())
          break;
      }
    }

    auto ParseU32 = [](std::string_view S, uint32_t &V) {
      unsigned Parsed = 0;
      if (parsePositiveU32(std::string(S), Parsed) != ParseUIntStatus::Ok)
        return false;
      V = Parsed;
      return true;
    };

    if (Name == "threshold") {
      uint32_t N = 0;
      bool Fallback = false;
      bool HaveValue = false;
      for (std::string_view P : Params) {
        if (P == "fallback")
          Fallback = true;
        else if (P == "literal" || P == "macro")
          continue;
        else if (ParseU32(P, N))
          HaveValue = true;
        else
          return false; // "profile" and anything else: not representable
      }
      if (!HaveValue)
        N = ThresholdingOptions().Threshold; // bare `threshold`
      if (N == 0xFFFFFFFFu && Fallback)
        C.NoCdp = true;
      else
        C.Threshold = N;
    } else if (Name == "coarsen") {
      uint32_t N = CoarseningOptions().Factor;
      for (std::string_view P : Params) {
        if (P == "literal" || P == "macro")
          continue;
        if (!ParseU32(P, N))
          return false;
      }
      C.CoarsenFactor = N;
    } else if (Name == "aggregate") {
      if (Params.empty())
        return false;
      std::string_view G = Params[0];
      if (G == "warp")
        C.Agg = AggGranularity::Warp;
      else if (G == "block")
        C.Agg = AggGranularity::Block;
      else if (G == "multiblock")
        C.Agg = AggGranularity::MultiBlock;
      else if (G == "grid")
        C.Agg = AggGranularity::Grid;
      else
        return false;
      for (size_t I = 1; I < Params.size(); ++I) {
        std::string_view P = Params[I];
        if (P == "literal" || P == "macro")
          continue;
        const std::string_view AggThr = "agg-threshold=";
        uint32_t N = 0;
        if (P.rfind(AggThr, 0) == 0) {
          if (!ParseU32(P.substr(AggThr.size()), N))
            return false;
          C.AggThresholdEnabled = true;
          C.AggThreshold = N;
        } else if (ParseU32(P, N)) {
          C.AggGroupBlocks = N;
        } else {
          return false;
        }
      }
    } else {
      // speculate, canonicalize, builtin-rewrite, unknown passes: outside
      // ExecConfig's vocabulary.
      return false;
    }
  }
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
