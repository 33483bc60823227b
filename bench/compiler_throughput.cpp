//===--- compiler_throughput.cpp - Pass pipeline micro-benchmarks --------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the source-to-source pipeline
/// itself: parse, print, each pass, the combined flow, and VM compilation.
/// Generated inputs scale the number of parent/child kernel pairs;
/// BM_AggregationCorpus runs every aggregation shape over the Table I
/// kernels instead.
///
//===----------------------------------------------------------------------===//

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "sema/LaunchSites.h"
#include "transform/Pipeline.h"
#include "tuner/Tuner.h"
#include "vm/VM.h"
#include "workloads/KernelSources.h"

#include <benchmark/benchmark.h>

#include <sstream>

using namespace dpo;

namespace {

std::string makeSource(unsigned Pairs) {
  std::ostringstream OS;
  for (unsigned I = 0; I < Pairs; ++I) {
    OS << "__global__ void child" << I << "(int *data, int n) {\n"
       << "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
       << "  if (i < n) {\n"
       << "    data[i] = data[i] * " << (I + 2) << " + i;\n"
       << "  }\n"
       << "}\n"
       << "__global__ void parent" << I
       << "(int *data, int *counts, int numV) {\n"
       << "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
       << "  if (v < numV) {\n"
       << "    int count = counts[v];\n"
       << "    if (count > 0) {\n"
       << "      child" << I << "<<<(count + 63) / 64, 64>>>(data, count);\n"
       << "    }\n"
       << "  }\n"
       << "}\n";
  }
  return OS.str();
}

void BM_Parse(benchmark::State &State) {
  std::string Source = makeSource(State.range(0));
  for (auto _ : State) {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    benchmark::DoNotOptimize(parseSource(Source, Ctx, Diags));
  }
  State.SetBytesProcessed((int64_t)State.iterations() * Source.size());
}
BENCHMARK(BM_Parse)->Arg(1)->Arg(8)->Arg(64);

void BM_Print(benchmark::State &State) {
  std::string Source = makeSource(State.range(0));
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  for (auto _ : State)
    benchmark::DoNotOptimize(printTranslationUnit(TU));
}
BENCHMARK(BM_Print)->Arg(1)->Arg(8)->Arg(64);

void benchTransform(benchmark::State &State, const std::string &Pipeline) {
  std::string Source = makeSource(State.range(0));
  for (auto _ : State) {
    DiagnosticEngine Diags;
    std::string Out = transformSourceWithPipeline(Source, Pipeline,
                                                  PassPipelineConfig(), Diags);
    benchmark::DoNotOptimize(Out);
  }
}

void BM_Thresholding(benchmark::State &State) {
  benchTransform(State, "threshold");
}
BENCHMARK(BM_Thresholding)->Arg(1)->Arg(8)->Arg(64);

void BM_Coarsening(benchmark::State &State) {
  benchTransform(State, "coarsen");
}
BENCHMARK(BM_Coarsening)->Arg(1)->Arg(8)->Arg(64);

void BM_Aggregation(benchmark::State &State) {
  benchTransform(State, "aggregate");
}
BENCHMARK(BM_Aggregation)->Arg(1)->Arg(8)->Arg(64);

// Each aggregation shape (granularity, and the Section V-B participation
// threshold) generates different Fig. 7 code; one iteration transforms
// all seven Table I kernels with the literal knob spelling.
void BM_AggregationCorpus(benchmark::State &State, const char *Pipeline) {
  std::vector<std::string> Sources;
  for (BenchmarkId Bench :
       {BenchmarkId::BFS, BenchmarkId::SSSP, BenchmarkId::MSTF,
        BenchmarkId::MSTV, BenchmarkId::TC, BenchmarkId::SP, BenchmarkId::BT})
    Sources.push_back(kernelSourceFor(Bench));
  for (auto _ : State)
    for (const std::string &Source : Sources) {
      DiagnosticEngine Diags;
      std::string Out = transformSourceWithPipeline(
          Source, Pipeline, literalKnobConfig(), Diags);
      benchmark::DoNotOptimize(Out);
    }
}
BENCHMARK_CAPTURE(BM_AggregationCorpus, warp, "aggregate[warp]");
BENCHMARK_CAPTURE(BM_AggregationCorpus, block, "aggregate[block]");
BENCHMARK_CAPTURE(BM_AggregationCorpus, multiblock8,
                  "aggregate[multiblock:8]");
BENCHMARK_CAPTURE(BM_AggregationCorpus, grid, "aggregate[grid]");
BENCHMARK_CAPTURE(BM_AggregationCorpus, block_agg_threshold2,
                  "aggregate[block:agg-threshold=2]");

void BM_FullPipeline(benchmark::State &State) {
  benchTransform(State, "threshold,coarsen,aggregate");
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(8)->Arg(64);

// Every pass queries launch sites afresh; BM_LaunchSiteAnalysis prices
// one such walk.
void BM_LaunchSiteAnalysis(benchmark::State &State) {
  std::string Source = makeSource(State.range(0));
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(Source, Ctx, Diags);
  for (auto _ : State)
    benchmark::DoNotOptimize(findLaunchSites(TU));
}
BENCHMARK(BM_LaunchSiteAnalysis)->Arg(1)->Arg(8)->Arg(64);

// The textual pipeline front end (parse spec, registry lookup, run).
void BM_PipelineFromText(benchmark::State &State) {
  benchTransform(State, "threshold,coarsen,aggregate[multiblock:8]");
}
BENCHMARK(BM_PipelineFromText)->Arg(1)->Arg(8)->Arg(64);

// A tuner-produced configuration compiled through the manager: the path
// autotuning workflows take after picking a config.
void BM_TunedConfigTransform(benchmark::State &State) {
  ExecConfig Config;
  Config.Threshold = 1024;
  Config.CoarsenFactor = 8;
  Config.Agg = AggGranularity::MultiBlock;
  Config.AggGroupBlocks = 8;
  benchTransform(State, passPipelineTextFor(Config));
}
BENCHMARK(BM_TunedConfigTransform)->Arg(1)->Arg(8)->Arg(64);

void BM_VmCompile(benchmark::State &State) {
  std::string Source = makeSource(State.range(0));
  DiagnosticEngine Diags;
  std::string Transformed = transformSourceWithPipeline(
      Source, "threshold,coarsen,aggregate", literalKnobConfig(), Diags);
  for (auto _ : State) {
    DiagnosticEngine D2;
    ASTContext Ctx;
    TranslationUnit *TU = parseSource(Transformed, Ctx, D2);
    benchmark::DoNotOptimize(compileProgram(TU, D2));
  }
}
BENCHMARK(BM_VmCompile)->Arg(1)->Arg(8);

} // namespace

BENCHMARK_MAIN();
