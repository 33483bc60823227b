//===--- CanonicalizePassTest.cpp - Launch-dim canonicalization tests ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "transform/CanonicalizePass.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "sema/Analysis.h"
#include "transform/ThresholdingPass.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

TranslationUnit *parseOrDie(std::string_view Source, ASTContext &Ctx,
                            DiagnosticEngine &Diags) {
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  EXPECT_NE(TU, nullptr) << Diags.str();
  return TU;
}

/// A dynamic launch whose ceiling division is spelled with a right shift:
/// no Div node anywhere, so the Fig. 4 matcher alone reports "no division
/// found" and thresholding skips the site.
const char *ShiftSource = R"(
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
    child<<<(count + 31) >> 5, 32>>>(data, count);
  }
}
)";

/// The shift hides behind an assigned-once local, the chain the matcher's
/// variable resolution follows.
const char *ShiftViaLocalSource = R"(
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
    int blocks = (count + 63) >> 6;
    child<<<blocks, 64>>>(data, count);
  }
}
)";

/// Division is present but the dividend's block-size term is spelled
/// `(1 << 5)` while the divisor is the literal 32: the matcher strips
/// dividend adjustments by literal-ness or structural equality with the
/// divisor, both of which fail until the shift folds to 32 — the count it
/// recovers is the inexact `count + (1 << 5)` instead of `count`.
const char *LiteralShiftSource = R"(
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
    child<<<(count + (1 << 5) - 1) / 32, 32>>>(data, count);
  }
}
)";

TEST(CanonicalizePassTest, ShiftDivisionBecomesDivision) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(ShiftSource, Ctx, Diags);

  AnalysisManager AM(Ctx, TU);
  CanonicalizeResult R = applyCanonicalize(Ctx, AM);
  EXPECT_EQ(R.NormalizedShiftDivs, 1u);
  EXPECT_EQ(R.FoldedLiterals, 0u);

  std::string Output = printTranslationUnit(TU);
  EXPECT_NE(Output.find("child<<<(count + 31) / 32, 32>>>"), std::string::npos)
      << Output;
}

TEST(CanonicalizePassTest, MakesShiftSpelledLaunchThresholdable) {
  // Without canonicalization the site is skipped...
  {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    TranslationUnit *TU = parseOrDie(ShiftSource, Ctx, Diags);
    AnalysisManager AM(Ctx, TU);
    ThresholdingResult T = applyThresholding(Ctx, TU, {}, Diags, AM);
    EXPECT_EQ(T.TransformedLaunches, 0u);
    EXPECT_EQ(T.SkippedLaunches, 1u);
  }
  // ...and with it the exact count is recovered and the guard emitted.
  {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    TranslationUnit *TU = parseOrDie(ShiftSource, Ctx, Diags);
    AnalysisManager AM(Ctx, TU);
    applyCanonicalize(Ctx, AM);
    ThresholdingResult T = applyThresholding(Ctx, TU, {}, Diags, AM);
    EXPECT_EQ(T.TransformedLaunches, 1u) << Diags.str();
    std::string Output = printTranslationUnit(TU);
    EXPECT_NE(Output.find("_threads0 = count"), std::string::npos) << Output;
    EXPECT_NE(Output.find("child_serial"), std::string::npos) << Output;
  }
}

TEST(CanonicalizePassTest, FollowsAssignedOnceLocals) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(ShiftViaLocalSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);

  CanonicalizeResult R = applyCanonicalize(Ctx, AM);
  EXPECT_EQ(R.NormalizedShiftDivs, 1u);
  EXPECT_NE(printTranslationUnit(TU).find("int blocks = (count + 63) / 64;"),
            std::string::npos);

  ThresholdingResult T = applyThresholding(Ctx, TU, {}, Diags, AM);
  EXPECT_EQ(T.TransformedLaunches, 1u) << Diags.str();
}

TEST(CanonicalizePassTest, FoldsLiteralShiftsForStructuralMatching) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(LiteralShiftSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);

  CanonicalizeResult R = applyCanonicalize(Ctx, AM);
  EXPECT_GE(R.FoldedLiterals, 2u); // Both (1 << 5) occurrences.
  EXPECT_NE(printTranslationUnit(TU).find("(count + 32 - 1) / 32"),
            std::string::npos)
      << printTranslationUnit(TU);

  // The dividend's `+ 32` now structurally equals the divisor, so the
  // recovered thread count is exactly `count`.
  ThresholdingResult T = applyThresholding(Ctx, TU, {}, Diags, AM);
  EXPECT_EQ(T.TransformedLaunches, 1u) << Diags.str();
  EXPECT_NE(printTranslationUnit(TU).find("_threads0 = count"),
            std::string::npos)
      << printTranslationUnit(TU);
}

TEST(CanonicalizePassTest, Idempotent) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(ShiftSource, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);

  CanonicalizePass Pass;
  Pass.run(Ctx, TU, AM, Diags);
  EXPECT_EQ(Pass.result().total(), 1u);

  // A second run finds nothing to do and leaves the unit as it was.
  std::string After = printTranslationUnit(TU);
  CanonicalizePass Again;
  Again.run(Ctx, TU, AM, Diags);
  EXPECT_EQ(Again.result().total(), 0u);
  EXPECT_EQ(printTranslationUnit(TU), After);
}

TEST(CanonicalizePassTest, RegisteredInPipelineGrammar) {
  {
    PassManager PM;
    std::string Error;
    ASSERT_TRUE(parsePassPipeline(PM, "canonicalize,threshold",
                                  PassPipelineConfig(), Error))
        << Error;
    EXPECT_EQ(PM.pipelineText(), "canonicalize,threshold[128]");

    ASTContext Ctx;
    DiagnosticEngine Diags;
    TranslationUnit *TU = parseOrDie(ShiftSource, Ctx, Diags);
    AnalysisManager AM(Ctx, TU);
    ASSERT_TRUE(PM.run(Ctx, TU, AM, Diags)) << Diags.str();
    EXPECT_NE(printTranslationUnit(TU).find("child_serial"),
              std::string::npos);
  }
  {
    // No parameters accepted.
    PassManager PM;
    std::string Error;
    EXPECT_FALSE(
        parsePassPipeline(PM, "canonicalize[2]", PassPipelineConfig(), Error));
    EXPECT_NE(Error.find("canonicalize"), std::string::npos);
  }
}

TEST(CanonicalizePassTest, LeavesUnrelatedShiftsAlone) {
  // Shifts outside launch configurations (kernel body arithmetic) are not
  // grid dimensions and must survive untouched.
  const char *Source = R"(
__global__ void child(int *data, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    data[i] = data[i] >> 2;
  }
}
__global__ void parent(int *data, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    child<<<(numV + 31) / 32, 32>>>(data, numV);
  }
}
)";
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseOrDie(Source, Ctx, Diags);
  AnalysisManager AM(Ctx, TU);
  CanonicalizeResult R = applyCanonicalize(Ctx, AM);
  EXPECT_EQ(R.total(), 0u);
  EXPECT_NE(printTranslationUnit(TU).find("data[i] >> 2"), std::string::npos);
}

} // namespace
