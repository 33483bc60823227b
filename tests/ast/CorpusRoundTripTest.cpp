//===--- CorpusRoundTripTest.cpp - Printer round-trip over the kernel corpus --===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Printer-drift gate for every construct the Table I kernel corpus uses:
/// each DSL source parses, pretty-prints, reparses, and must be
/// structurally equal to the first parse — and the same must hold after
/// the sources go through a full transform pipeline. The corpus exercises
/// 64-bit atomics, shifts, casts, address-of on subscripts, conditional
/// expressions, double math, float arrays, and early-return children —
/// well beyond the canonical nested shape the older PrinterTest covers.
/// The compile path lowers the transformed AST straight to bytecode while
/// artifacts and `out=` files carry the printed text, so that text must
/// compile to the same bytecode, byte for byte (DirectCompileMatchesPrinted).
///
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "ast/Equivalence.h"
#include "ast/Walk.h"
#include "parse/Parser.h"
#include "support/Casting.h"
#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"
#include "workloads/CoopKernels.h"
#include "workloads/Differential.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

using namespace dpo;

namespace {

const BenchmarkId AllBenchmarks[] = {
    BenchmarkId::BFS, BenchmarkId::SSSP, BenchmarkId::MSTF, BenchmarkId::MSTV,
    BenchmarkId::TC,  BenchmarkId::SP,   BenchmarkId::BT};

TranslationUnit *parseOrNull(const std::string &Source, ASTContext &Ctx,
                             std::string &Error) {
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  if (!TU || Diags.hasErrors()) {
    Error = Diags.str();
    return nullptr;
  }
  return TU;
}

TEST(CorpusRoundTripTest, EveryKernelSourceRoundTrips) {
  for (BenchmarkId Bench : AllBenchmarks) {
    SCOPED_TRACE(benchmarkName(Bench));
    std::string Source = kernelSourceFor(Bench);
    ASTContext Ctx;
    std::string Error;
    TranslationUnit *TU = parseOrNull(Source, Ctx, Error);
    ASSERT_NE(TU, nullptr) << Error;

    std::string Printed = printTranslationUnit(TU);
    ASTContext Ctx2;
    TranslationUnit *Reparsed = parseOrNull(Printed, Ctx2, Error);
    ASSERT_NE(Reparsed, nullptr) << Error << "\nprinted:\n" << Printed;

    EXPECT_TRUE(structurallyEqual(TU, Reparsed))
        << "printer drift for " << benchmarkName(Bench) << ":\n"
        << Printed;
  }
}

TEST(CorpusRoundTripTest, TransformedKernelSourcesRoundTrip) {
  // Artifacts carry printed transformed sources; round-trip the full paper
  // pipeline's output for each benchmark so the generated serial helpers,
  // coarsening loops, and aggregation wrappers are covered too.
  const char *Pipeline = "threshold[32],coarsen[2],aggregate[multiblock:4]";
  for (BenchmarkId Bench : AllBenchmarks) {
    SCOPED_TRACE(benchmarkName(Bench));
    DiagnosticEngine Diags;
    std::string Transformed = transformSourceWithPipeline(
        kernelSourceFor(Bench), Pipeline, literalKnobConfig(), Diags);
    ASSERT_FALSE(Transformed.empty()) << Diags.str();

    ASTContext Ctx;
    std::string Error;
    TranslationUnit *TU = parseOrNull(Transformed, Ctx, Error);
    ASSERT_NE(TU, nullptr) << Error << "\ntransformed:\n" << Transformed;

    std::string Printed = printTranslationUnit(TU);
    ASTContext Ctx2;
    TranslationUnit *Reparsed = parseOrNull(Printed, Ctx2, Error);
    ASSERT_NE(Reparsed, nullptr) << Error << "\nprinted:\n" << Printed;

    EXPECT_TRUE(structurallyEqual(TU, Reparsed))
        << "printer drift for transformed " << benchmarkName(Bench);
  }
}

TEST(CorpusRoundTripTest, DirectCompileMatchesPrinted) {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (BenchmarkId Bench : AllBenchmarks)
    Sources.push_back({benchmarkName(Bench), kernelSourceFor(Bench)});
  Sources.push_back({"shared-child probe", sharedChildProbeSource()});
  Sources.push_back({"spin-wait probe", spinWaitProbeSource()});
  Sources.push_back({"nestedVmSource(32)", nestedVmSource(32)});
  for (const CoopKernelCase &Case : coopKernelCorpus())
    Sources.push_back({Case.Name, Case.Source});

  for (const auto &[Name, Source] : Sources)
    for (const std::string &Pipeline : differentialPipelines())
      for (bool Optimize : {false, true}) {
        SCOPED_TRACE(Name + " [" + Pipeline + "] peephole " +
                     (Optimize ? "on" : "off"));
        VmCompileOptions Opts;
        Opts.OptimizeBytecode = Optimize;
        DiagnosticEngine Diags;
        std::string Printed;
        std::optional<VmProgram> Direct = compileWithPipeline(
            Source, Pipeline, literalKnobConfig(), Opts, Diags, &Printed);
        ASSERT_TRUE(Direct) << Diags.str();

        ASTContext Ctx;
        std::string Error;
        TranslationUnit *TU = parseOrNull(Printed, Ctx, Error);
        ASSERT_NE(TU, nullptr) << Error << "\nprinted:\n" << Printed;
        VmProgram FromPrinted = compileProgram(TU, Diags, Opts);
        ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
        EXPECT_EQ(serializeVmProgram(*Direct), serializeVmProgram(FromPrinted));
      }
}

TEST(CorpusRoundTripTest, EveryParentHasExactlyOneTransformableLaunch) {
  // The corpus convention the transforms rely on: one dynamic launch per
  // unit, from `parent`, of `child`.
  for (BenchmarkId Bench : AllBenchmarks) {
    SCOPED_TRACE(benchmarkName(Bench));
    ASTContext Ctx;
    std::string Error;
    TranslationUnit *TU = parseOrNull(kernelSourceFor(Bench), Ctx, Error);
    ASSERT_NE(TU, nullptr) << Error;
    ASSERT_NE(TU->findFunction("parent"), nullptr);
    ASSERT_NE(TU->findFunction("child"), nullptr);
    unsigned Launches = 0;
    forEachExpr(TU->findFunction("parent")->body(), [&](const Expr *E) {
      if (isa<LaunchExpr>(E))
        ++Launches;
    });
    EXPECT_EQ(Launches, 1u);
  }
}

} // namespace
