//===--- PassManagerTest.cpp - Pass/analysis infrastructure tests --------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the pass infrastructure: registry lookup and external
/// registration, later passes seeing what earlier ones generated, the
/// pipeline-string grammar (parse + canonical round-trip), and byte
/// equivalence of a PassManager run against calling each pass's apply
/// function in turn on a generated fuzz corpus.
///
//===----------------------------------------------------------------------===//

#include "transform/PassManager.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "sema/Analysis.h"
#include "transform/AggregationPass.h"
#include "transform/CoarseningPass.h"
#include "transform/Pipeline.h"
#include "transform/ThresholdingPass.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

using namespace dpo;

namespace {

const char *BasicSource = R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[i] = data[i] + 1;
  }
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(data, count);
    }
  }
}
)";

/// parent -> child -> grandchild: serializing/coarsening `child` clones a
/// body that contains a launch, so a site list taken before the clone is
/// stale for the next pass.
const char *NestedSource = R"(
__global__ void grandchild(int *data, int m) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) {
    data[i] = data[i] + 1;
  }
}
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    int m = data[i];
    if (m > 0) {
      grandchild<<<(m + 31) / 32, 32>>>(data, m);
    }
  }
}
__global__ void parent(int *data, int *counts, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = counts[v];
    if (count > 0) {
      child<<<(count + 63) / 64, 64>>>(data, count);
    }
  }
}
)";

TranslationUnit *parseOrDie(std::string_view Source, ASTContext &Ctx,
                            DiagnosticEngine &Diags) {
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  return TU;
}

/// The Fig. 8(a) passes selected by \p Mask (1 threshold, 2 coarsen,
/// 4 aggregate), as pipeline text.
std::string maskPipeline(unsigned Mask) {
  std::string Text = std::string(Mask & 1 ? "threshold," : "") +
                     (Mask & 2 ? "coarsen," : "") +
                     (Mask & 4 ? "aggregate," : "");
  Text.pop_back();
  return Text;
}

/// The result of the \p I-th pass of \p PM, a \p PassT.
template <typename PassT>
const auto &passAt(const PassManager &PM, size_t I) {
  return static_cast<const PassT &>(*PM.passes()[I]).result();
}

/// maskPipeline(\p Mask) with default knobs through the passes' apply
/// functions, without a PassManager, stopping at the first error.
std::string legacyTransform(std::string_view Source, unsigned Mask,
                            DiagnosticEngine &Diags) {
  ASTContext Ctx;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  if (!TU)
    return std::string();
  AnalysisManager AM(Ctx, TU);
  if (Mask & 1) {
    applyThresholding(Ctx, TU, ThresholdingOptions(), Diags, AM);
    if (Diags.hasErrors())
      return std::string();
  }
  if (Mask & 2) {
    applyCoarsening(Ctx, TU, CoarseningOptions(), Diags, AM);
    if (Diags.hasErrors())
      return std::string();
  }
  if (Mask & 4) {
    applyAggregation(Ctx, TU, AggregationOptions(), Diags, AM);
    if (Diags.hasErrors())
      return std::string();
  }
  return printTranslationUnit(TU);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(PassRegistryTest, ContainsBuiltinPasses) {
  PassRegistry &R = PassRegistry::global();
  EXPECT_TRUE(R.contains("threshold"));
  EXPECT_TRUE(R.contains("coarsen"));
  EXPECT_TRUE(R.contains("aggregate"));
  EXPECT_TRUE(R.contains("builtin-rewrite"));
  EXPECT_FALSE(R.contains("inline"));
  EXPECT_GE(R.entries().size(), 4u);
}

TEST(PassRegistryTest, CreateUnknownPassFails) {
  std::string Error;
  auto Pass = PassRegistry::global().create("no-such-pass", "",
                                            PassPipelineConfig(), Error);
  EXPECT_EQ(Pass, nullptr);
  EXPECT_NE(Error.find("no-such-pass"), std::string::npos);
}

TEST(PassRegistryTest, CreateAppliesParameters) {
  std::string Error;
  auto Pass = PassRegistry::global().create("threshold", "256:fallback",
                                            PassPipelineConfig(), Error);
  ASSERT_NE(Pass, nullptr) << Error;
  auto *TP = dynamic_cast<ThresholdingPass *>(Pass.get());
  ASSERT_NE(TP, nullptr);
  EXPECT_EQ(TP->options().Threshold, 256u);
  EXPECT_TRUE(TP->options().FallbackToTotalThreads);
}

namespace {

/// A trivial externally registered pass: counts launch sites through the
/// AnalysisManager and changes nothing.
class CountLaunchesPass : public TransformPass {
public:
  std::string name() const override { return "count-launches"; }
  void run(ASTContext &, TranslationUnit *, AnalysisManager &AM,
           DiagnosticEngine &) override {
    LastCount = AM.launchSites().size();
  }
  static size_t LastCount;
};
size_t CountLaunchesPass::LastCount = 0;

} // namespace

TEST(PassRegistryTest, ExternalRegistrationAndDuplicateRejection) {
  PassRegistry &R = PassRegistry::global();
  // The registry is process-global: registration may already have happened
  // in an earlier test-order permutation.
  if (!R.contains("count-launches")) {
    EXPECT_TRUE(R.registerPass(
        "count-launches", "test-only launch counter",
        [](std::string_view, const PassPipelineConfig &, std::string &) {
          return std::make_unique<CountLaunchesPass>();
        }));
  }
  EXPECT_FALSE(R.registerPass(
      "threshold", "duplicate",
      [](std::string_view, const PassPipelineConfig &, std::string &)
          -> std::unique_ptr<TransformPass> { return nullptr; }));

  PassManager PM;
  std::string Error;
  ASSERT_TRUE(
      parsePassPipeline(PM, "count-launches", PassPipelineConfig(), Error))
      << Error;
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(BasicSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);
  EXPECT_TRUE(PM.run(Ctx, TU, AM, Diags));
  EXPECT_EQ(CountLaunchesPass::LastCount, 1u);
}

//===----------------------------------------------------------------------===//
// Passes in sequence
//===----------------------------------------------------------------------===//

TEST(PassPipelineTest, FullPipelineTransformsEachPass) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(BasicSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);

  PassManager PM;
  std::string Error;
  ASSERT_TRUE(parsePassPipeline(PM, "threshold,coarsen,aggregate",
                                PassPipelineConfig(), Error))
      << Error;
  ASSERT_TRUE(PM.run(Ctx, TU, AM, Diags)) << Diags.str();
  EXPECT_EQ(passAt<ThresholdingPass>(PM, 0).TransformedLaunches, 1u);
  EXPECT_EQ(passAt<CoarseningPass>(PM, 1).CoarsenedKernels, 1u);
  EXPECT_EQ(passAt<AggregationPass>(PM, 2).TransformedLaunches, 1u);
}

TEST(AnalysisManagerTest, NestedLaunchesInvalidateLaunchSites) {
  // Serializing `child` clones its grandchild launch into child_serial.
  // Coarsening runs next and must patch that clone too: a launch left
  // unpatched would miss the coarsened kernel's extra parameter.
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(NestedSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);

  PassManager PM;
  std::string Error;
  ASSERT_TRUE(
      parsePassPipeline(PM, "threshold,coarsen", PassPipelineConfig(), Error))
      << Error;
  ASSERT_TRUE(PM.run(Ctx, TU, AM, Diags)) << Diags.str();
  EXPECT_EQ(passAt<ThresholdingPass>(PM, 0).TransformedLaunches, 2u);
  // parent -> child, child -> grandchild, child_serial -> grandchild.
  EXPECT_EQ(passAt<CoarseningPass>(PM, 1).RewrittenLaunches, 3u);
  std::string Output = printTranslationUnit(TU);
  EXPECT_EQ(Output.find("grandchild<<<(m + 31) / 32, 32>>>(data, m);"),
            std::string::npos)
      << Output;
}

//===----------------------------------------------------------------------===//
// Pipeline strings
//===----------------------------------------------------------------------===//

TEST(PassPipelineTest, ParseProducesCanonicalReprs) {
  PassManager PM;
  std::string Error;
  ASSERT_TRUE(parsePassPipeline(PM, "threshold, coarsen ,aggregate",
                                PassPipelineConfig(), Error))
      << Error;
  ASSERT_EQ(PM.size(), 3u);
  // Defaults filled in: canonical text spells every knob.
  EXPECT_EQ(PM.pipelineText(),
            "threshold[128],coarsen[4],aggregate[multiblock:8]");
}

TEST(PassPipelineTest, CanonicalTextRoundTrips) {
  const char *Canonical[] = {
      "threshold[128]",
      "threshold[256:fallback]",
      "threshold[32:literal]",
      "coarsen[4]",
      "coarsen[16:literal]",
      "aggregate[multiblock:8]",
      "aggregate[block]",
      "aggregate[block:agg-threshold=4]",
      "aggregate[multiblock:16:agg-threshold=2]",
      "aggregate[warp]",
      "aggregate[grid]",
      "builtin-rewrite",
      "builtin-rewrite[blockIdx.x=_bx:gridDim=_gd]",
      "builtin-rewrite[blockIdx.x=_bx:strict]",
      "threshold[128],coarsen[4],aggregate[multiblock:8]",
      "coarsen[2],threshold[64],aggregate[grid]",
  };
  for (const char *Text : Canonical) {
    PassManager PM;
    std::string Error;
    ASSERT_TRUE(parsePassPipeline(PM, Text, PassPipelineConfig(), Error))
        << Text << ": " << Error;
    EXPECT_EQ(PM.pipelineText(), Text);
    // And the canonical text parses back to itself (fixed point).
    PassManager PM2;
    ASSERT_TRUE(
        parsePassPipeline(PM2, PM.pipelineText(), PassPipelineConfig(), Error))
        << Error;
    EXPECT_EQ(PM2.pipelineText(), PM.pipelineText());
  }
}

TEST(PassPipelineTest, RejectsMalformedSpecs) {
  const char *Bad[] = {
      "",
      "threshold,,coarsen",
      "unknown-pass",
      "threshold[abc]",
      "threshold[0]",
      "threshold[99999999999]",
      "coarsen[",
      "coarsen]",
      "aggregate[superblock]",
      "aggregate[block:agg-threshold=zz]",
      "builtin-rewrite[gridDim]",
      "builtin-rewrite[gridDim.w=_x]",
  };
  for (const char *Text : Bad) {
    PassManager PM;
    std::string Error;
    EXPECT_FALSE(parsePassPipeline(PM, Text, PassPipelineConfig(), Error))
        << "accepted: " << Text;
    EXPECT_FALSE(Error.empty());
  }
}

TEST(PassPipelineTest, TimingsRecordedPerPass) {
  PassManager PM;
  std::string Error;
  ASSERT_TRUE(parsePassPipeline(PM, "threshold,coarsen,aggregate",
                                PassPipelineConfig(), Error));
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(BasicSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);
  ASSERT_TRUE(PM.run(Ctx, TU, AM, Diags));
  ASSERT_EQ(PM.timings().size(), 3u);
  EXPECT_EQ(PM.timings()[0].Name, "threshold");
  EXPECT_EQ(PM.timings()[2].Name, "aggregate");
  std::string Report = PM.statsReport();
  EXPECT_NE(Report.find("pass timings"), std::string::npos);
  EXPECT_NE(Report.find("aggregate"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Equivalence: PassManager pipeline vs. the apply functions in turn
//===----------------------------------------------------------------------===//

std::string randomIntExpr(std::mt19937 &Rng, int Depth = 0) {
  std::uniform_int_distribution<int> Pick(0, Depth > 2 ? 3 : 6);
  switch (Pick(Rng)) {
  case 0: return "i";
  case 1: return "base";
  case 2: return "count";
  case 3: return std::to_string(1 + Rng() % 97);
  case 4:
    return "(" + randomIntExpr(Rng, Depth + 1) + " + " +
           randomIntExpr(Rng, Depth + 1) + ")";
  case 5:
    return "(" + randomIntExpr(Rng, Depth + 1) + " * " +
           std::to_string(1 + Rng() % 7) + ")";
  default:
    return "(" + randomIntExpr(Rng, Depth + 1) + " - " +
           randomIntExpr(Rng, Depth + 1) + ")";
  }
}

/// Random parent/child programs in the shape the passes target; some
/// children early-return, some grids use the (N-1)/b+1 spelling, some
/// programs have two launch sites sharing one child.
std::string randomProgram(unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::ostringstream OS;
  unsigned Pairs = 1 + Rng() % 2;
  bool SharedChild = Rng() % 3 == 0;
  for (unsigned P = 0; P < Pairs; ++P) {
    bool EarlyReturn = Rng() % 3 == 0;
    if (P == 0 || !SharedChild) {
      OS << "__global__ void child" << P << "(int *data, int base, int count) {\n"
         << "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n";
      if (EarlyReturn)
        OS << "  if (i >= count) {\n    return;\n  }\n"
           << "  data[base + i] = " << randomIntExpr(Rng) << ";\n";
      else
        OS << "  if (i < count) {\n    data[base + i] = "
           << randomIntExpr(Rng) << ";\n  }\n";
      OS << "}\n";
    }
    unsigned Child = SharedChild ? 0 : P;
    unsigned Block = 32u << (Rng() % 3);
    const char *Grid = Rng() % 2 == 0 ? "(count + %u - 1) / %u" : "(count - 1) / %u + 1";
    char GridBuf[64];
    std::snprintf(GridBuf, sizeof(GridBuf), Grid, Block, Block);
    OS << "__global__ void parent" << P
       << "(int *data, int *counts, int numV) {\n"
       << "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
       << "  if (v < numV) {\n"
       << "    int count = counts[v];\n"
       << "    if (count > 0) {\n"
       << "      child" << Child << "<<<" << GridBuf << ", " << Block
       << ">>>(data, v * 64, count);\n"
       << "    }\n"
       << "  }\n"
       << "}\n";
  }
  return OS.str();
}

TEST(PassPipelineTest, ManagedPipelineMatchesLegacyOnFuzzCorpus) {
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    std::string Source = randomProgram(Seed);
    for (unsigned Mask = 1; Mask < 8; ++Mask) {
      DiagnosticEngine LegacyDiags, ManagedDiags;
      std::string Legacy = legacyTransform(Source, Mask, LegacyDiags);
      std::string Managed = transformSourceWithPipeline(
          Source, maskPipeline(Mask), PassPipelineConfig(), ManagedDiags);
      EXPECT_EQ(Legacy, Managed) << "seed " << Seed << " pipeline "
                                 << maskPipeline(Mask) << "\nsource:\n"
                                 << Source;
      EXPECT_EQ(LegacyDiags.hasErrors(), ManagedDiags.hasErrors());
    }
  }
}

TEST(PassPipelineTest, ManagedPipelineMatchesLegacyOnNestedLaunches) {
  DiagnosticEngine LegacyDiags, ManagedDiags;
  std::string Legacy = legacyTransform(NestedSource, 7, LegacyDiags);
  std::string Managed = transformSourceWithPipeline(
      NestedSource, maskPipeline(7), PassPipelineConfig(), ManagedDiags);
  EXPECT_EQ(Legacy, Managed);
}

} // namespace
