//===--- GoldenPinTest.cpp - Byte-identity pin of transformed output ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the pass pipelines emit, byte for byte: for every Table I
/// kernel, the two corpus probes, the quickstart program and
/// nestedVmSource(32), through every pipeline of differentialPipelines(),
/// a hash of the printed transformed text under the macro and the literal
/// knob spelling, and a hash of the serialized bytecode under the literal
/// spelling. Tuned tables, artifact bytes and the benchmark's code_instrs
/// all derive from these bytes, so a refactor of a pass's code generation
/// must leave every row unchanged. A mismatch names the source and the
/// pipeline and prints the row as it now reads.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"
#include "workloads/Differential.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>

using namespace dpo;

namespace {

struct PinnedRow {
  const char *Source;
  const char *Pipeline;
  uint64_t MacroText;
  uint64_t LiteralText;
  uint64_t LiteralBytecode;
};

// Aggregating rows re-recorded when the generated child kernels began
// finding their parent once per block; the rest date from before
// aggregation stopped generating its code as text.
const PinnedRow Pinned[] = {
#include "GoldenPinTable.inc"
};

std::vector<std::pair<std::string, std::string>> pinnedSources() {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (BenchmarkId Bench :
       {BenchmarkId::BFS, BenchmarkId::SSSP, BenchmarkId::MSTF,
        BenchmarkId::MSTV, BenchmarkId::TC, BenchmarkId::SP, BenchmarkId::BT})
    Sources.push_back({benchmarkName(Bench), kernelSourceFor(Bench)});
  Sources.push_back({"shared-child probe", sharedChildProbeSource()});
  Sources.push_back({"spin-wait probe", spinWaitProbeSource()});
  Sources.push_back({"quickstart", quickstartVmSource()});
  Sources.push_back({"nestedVmSource(32)", nestedVmSource(32)});
  return Sources;
}

/// 0 stands for "the pipeline produced no output".
uint64_t textHash(const std::string &Source, const std::string &Pipeline,
                  const PassPipelineConfig &Config) {
  DiagnosticEngine Diags;
  std::string Text =
      transformSourceWithPipeline(Source, Pipeline, Config, Diags);
  return Text.empty() ? 0 : fnv1a64(Text);
}

uint64_t bytecodeHash(const std::string &Source, const std::string &Pipeline) {
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program = compileWithPipeline(
      Source, Pipeline, literalKnobConfig(), VmCompileOptions(), Diags);
  return Program ? fnv1a64(serializeVmProgram(*Program)) : 0;
}

TEST(GoldenPinTest, TransformedTextAndBytecodeAreByteIdentical) {
  std::map<std::pair<std::string, std::string>, const PinnedRow *> Rows;
  for (const PinnedRow &Row : Pinned)
    Rows[{Row.Source, Row.Pipeline}] = &Row;

  size_t Checked = 0;
  for (const auto &[Name, Source] : pinnedSources()) {
    for (const std::string &Pipeline : differentialPipelines()) {
      uint64_t Macro = textHash(Source, Pipeline, PassPipelineConfig());
      uint64_t Literal = textHash(Source, Pipeline, literalKnobConfig());
      uint64_t Bytecode = bytecodeHash(Source, Pipeline);
      char Now[256];
      std::snprintf(Now, sizeof(Now),
                    "{\"%s\", \"%s\", 0x%016" PRIx64 "u, 0x%016" PRIx64
                    "u, 0x%016" PRIx64 "u},",
                    Name.c_str(), Pipeline.c_str(), Macro, Literal, Bytecode);
      auto It = Rows.find({Name, Pipeline});
      if (It == Rows.end()) {
        ADD_FAILURE() << Name << " [" << Pipeline << "]: no pinned row; now "
                      << Now;
        continue;
      }
      const PinnedRow &Row = *It->second;
      EXPECT_EQ(Row.MacroText, Macro)
          << Name << " [" << Pipeline << "]: macro-spelled text; now " << Now;
      EXPECT_EQ(Row.LiteralText, Literal)
          << Name << " [" << Pipeline << "]: literal-spelled text; now "
          << Now;
      EXPECT_EQ(Row.LiteralBytecode, Bytecode)
          << Name << " [" << Pipeline << "]: bytecode; now " << Now;
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, sizeof(Pinned) / sizeof(Pinned[0]));
}

} // namespace
