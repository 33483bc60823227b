//===--- GridDimAnalysisTest.cpp - Fig. 4 pattern-matcher tests ---------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "sema/GridDimAnalysis.h"

#include "ast/ASTPrinter.h"
#include "ast/Walk.h"
#include "parse/Parser.h"
#include "sema/LaunchSites.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

/// Wraps a grid-dimension expression in a parent kernel + launch and runs
/// the analysis on it. \p Prelude statements go before the launch.
struct AnalysisHarness {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = nullptr;
  FunctionDecl *Parent = nullptr;
  LaunchExpr *Launch = nullptr;

  GridDimInfo run(const std::string &GridExpr,
                  const std::string &Prelude = "") {
    std::string Source = R"(
__global__ void child(int *d, int n) { d[threadIdx.x] = n; }
__global__ void parent(int *d, int n, int m, int b) {
)" + Prelude + "\n  child<<<" +
                         GridExpr + ", b>>>(d, n);\n}\n";
    TU = parseSource(Source, Ctx, Diags);
    EXPECT_NE(TU, nullptr) << Diags.str() << "\nsource:\n" << Source;
    if (!TU)
      return GridDimInfo();
    Parent = TU->findFunction("parent");
    auto Sites = findLaunchSites(TU, Parent);
    EXPECT_EQ(Sites.size(), 1u);
    Launch = Sites[0].Launch;
    return analyzeGridDim(Ctx, Parent, Launch->gridDim());
  }
};

std::string countText(const GridDimInfo &Info) {
  return Info.ThreadCount ? printExpr(Info.ThreadCount) : std::string();
}

// The five one-dimensional spellings of Fig. 4, plus robustness variants.
struct PatternCase {
  const char *Name;
  const char *GridExpr;
  const char *ExpectedCount;
  bool ExpectInline;
};

// Print the name: the struct's bytes hold pointers, unstable in test names.
void PrintTo(const PatternCase &Case, std::ostream *OS) { *OS << Case.Name; }

class Fig4PatternTest : public ::testing::TestWithParam<PatternCase> {};

TEST_P(Fig4PatternTest, RecoversDesiredThreadCount) {
  const PatternCase &Case = GetParam();
  AnalysisHarness H;
  GridDimInfo Info = H.run(Case.GridExpr);
  ASSERT_TRUE(Info.Found) << Case.Name << ": " << Info.FailureReason;
  EXPECT_EQ(countText(Info), Case.ExpectedCount) << Case.Name;
  EXPECT_EQ(Info.InlineSite != nullptr, Case.ExpectInline) << Case.Name;
  if (Info.InlineSite)
    EXPECT_TRUE(Info.Safe);
}

const PatternCase Fig4Cases[] = {
    // (a) (N - 1)/b + 1
    {"a", "(n - 1) / b + 1", "n", true},
    // (b) (N + b - 1)/b
    {"b", "(n + b - 1) / b", "n", true},
    // (c) N/b + (N%b == 0 ? 0 : 1)
    {"c", "n / b + ((n % b == 0) ? 0 : 1)", "n", true},
    // (d) ceil((float)N/b)
    {"d", "ceil((float)n / b)", "n", true},
    // (e) ceil(N/(float)b)
    {"e", "ceil(n / (float)b)", "n", true},
    // Variants with extra parens and mixed constants.
    {"a_parens", "((n - 1)) / b + 1", "n", true},
    {"b_comm", "(b + n - 1) / b", "n", true},
    {"b_lit", "(n + 31) / 32", "n", true},
    {"a_lit", "(n - 1) / 32 + 1", "n", true},
    // N itself a compound expression.
    {"compound_n", "(m * n + b - 1) / b", "m * n", true},
    {"offsets", "(n - m - 1) / b + 1", "n - m", true},
    // ceilf variant.
    {"d_ceilf", "ceilf((float)n / b)", "n", true},
};

INSTANTIATE_TEST_SUITE_P(Patterns, Fig4PatternTest,
                         ::testing::ValuesIn(Fig4Cases),
                         ::testing::PrintToStringParamName());

TEST(GridDimAnalysisTest, InlineSiteIsInsideGridExpr) {
  AnalysisHarness H;
  GridDimInfo Info = H.run("(n + b - 1) / b");
  ASSERT_TRUE(Info.Found);
  ASSERT_NE(Info.InlineSite, nullptr);
  // The inline site must be a node of the launch's grid expression.
  bool FoundNode = false;
  forEachExpr(H.Launch->gridDim(), [&](Expr *E) {
    if (E == Info.InlineSite)
      FoundNode = true;
  });
  EXPECT_TRUE(FoundNode);
  EXPECT_EQ(printExpr(Info.InlineSite), "n");
}

TEST(GridDimAnalysisTest, ThroughIntermediateVariable) {
  AnalysisHarness H;
  GridDimInfo Info =
      H.run("blocks", "  int blocks = (n + b - 1) / b;");
  ASSERT_TRUE(Info.Found) << Info.FailureReason;
  EXPECT_EQ(countText(Info), "n");
  EXPECT_EQ(Info.InlineSite, nullptr);
  EXPECT_TRUE(Info.NeedsReevaluation);
  EXPECT_TRUE(Info.Safe);
}

TEST(GridDimAnalysisTest, ThroughTwoVariables) {
  AnalysisHarness H;
  GridDimInfo Info = H.run(
      "blocks", "  int padded = n + b - 1;\n  int blocks = padded / b;");
  ASSERT_TRUE(Info.Found) << Info.FailureReason;
  EXPECT_EQ(countText(Info), "n");
  EXPECT_TRUE(Info.NeedsReevaluation);
  EXPECT_TRUE(Info.Safe);
}

TEST(GridDimAnalysisTest, ReassignedVariableIsRejected) {
  AnalysisHarness H;
  GridDimInfo Info = H.run(
      "blocks", "  int blocks = (n + b - 1) / b;\n  blocks = blocks + 1;");
  EXPECT_FALSE(Info.Found);
  EXPECT_FALSE(Info.FailureReason.empty());
}

TEST(GridDimAnalysisTest, ReassignedSourceVariableIsUnsafe) {
  AnalysisHarness H;
  // `n` changes between the definition of blocks and the launch, so
  // re-evaluating `n` at the launch would observe the wrong value.
  GridDimInfo Info =
      H.run("blocks", "  int blocks = (n + b - 1) / b;\n  n = 0;");
  // The pattern is recognized, but re-evaluating `n` at the launch site
  // would observe the mutated value, so the result is flagged unsafe.
  EXPECT_TRUE(Info.Found);
  EXPECT_FALSE(Info.Safe);
}

TEST(GridDimAnalysisTest, NoDivisionFails) {
  AnalysisHarness H;
  GridDimInfo Info = H.run("n");
  EXPECT_FALSE(Info.Found);
  EXPECT_NE(Info.FailureReason.find("no resolvable"), std::string::npos)
      << Info.FailureReason;
}

TEST(GridDimAnalysisTest, PlainLiteralFails) {
  AnalysisHarness H;
  GridDimInfo Info = H.run("64");
  EXPECT_FALSE(Info.Found);
}

TEST(GridDimAnalysisTest, Dim3TwoDimensional) {
  AnalysisHarness H;
  GridDimInfo Info = H.run("dim3((n + 15) / 16, (m + 15) / 16, 1)");
  ASSERT_TRUE(Info.Found) << Info.FailureReason;
  EXPECT_EQ(countText(Info), "n * m");
  EXPECT_EQ(Info.InlineSite, nullptr);
  EXPECT_TRUE(Info.NeedsReevaluation);
  EXPECT_TRUE(Info.Safe);
}

TEST(GridDimAnalysisTest, Dim3VariableGrid) {
  AnalysisHarness H;
  GridDimInfo Info =
      H.run("grid", "  dim3 grid((n + 31) / 32, 1, 1);");
  ASSERT_TRUE(Info.Found) << Info.FailureReason;
  EXPECT_EQ(countText(Info), "n");
}

TEST(GridDimAnalysisTest, Dim3AllConstantFails) {
  AnalysisHarness H;
  GridDimInfo Info = H.run("dim3(1, 1, 1)");
  EXPECT_FALSE(Info.Found);
}

TEST(GridDimAnalysisTest, Dim3NonLiteralNonDivFails) {
  AnalysisHarness H;
  GridDimInfo Info = H.run("dim3(n, 1, 1)");
  EXPECT_FALSE(Info.Found);
}

TEST(GridDimAnalysisTest, StripParensAndCasts) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  Expr *E = parseExprSource("((float)((n)))", Ctx, Diags);
  ASSERT_NE(E, nullptr);
  Expr *Stripped = stripParensAndCasts(E);
  ASSERT_TRUE(isa<DeclRefExpr>(Stripped));
  EXPECT_EQ(cast<DeclRefExpr>(Stripped)->name(), "n");
}

} // namespace
