//===--- Bench.cpp - The traced compile and device steps ------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ast/ASTPrinter.h"
#include "parse/Parser.h"
#include "sim/GpuModel.h"
#include "tuner/Empirical.h"
#include "vm/Compiler.h"
#include "vm/Peephole.h"

#include <cmath>

using namespace dpo;
using namespace e2e;

bool e2e::compileSource(Context &Ctx, std::string_view Source,
                        const std::string &Pipeline,
                        const PassPipelineConfig &Knobs, VmProgram &Out,
                        std::string &Error) {
  DiagnosticEngine Diags;
  auto Parsed = std::make_unique<ASTContext>();
  TranslationUnit *TU = nullptr;
  {
    Tracer::Scope S(Ctx.Trace, "parse");
    TU = parseSource(Source, *Parsed, Diags);
  }
  Ctx.count("parse.bytes", (double)Source.size());
  if (!TU) {
    Error = "parse failed: " + Diags.str();
    return false;
  }

  if (!Pipeline.empty()) {
    bool Ok = false;
    {
      Tracer::Scope S(Ctx.Trace, "transform");
      PassManager PM;
      std::string PipelineError;
      if (!parsePassPipeline(PM, Pipeline, Knobs, PipelineError)) {
        Error = "invalid pipeline '" + Pipeline + "': " + PipelineError;
        return false;
      }
      AnalysisManager AM(*Parsed, TU);
      Ok = PM.run(*Parsed, TU, AM, Diags);
    }
    if (!Ok) {
      Error = "pipeline '" + Pipeline + "' failed: " + Diags.str();
      return false;
    }
    std::string Printed;
    {
      Tracer::Scope S(Ctx.Trace, "transform.print");
      Printed = printTranslationUnit(TU);
    }
    Ctx.count("transform.out_bytes", (double)Printed.size());
    Parsed = std::make_unique<ASTContext>();
    {
      Tracer::Scope S(Ctx.Trace, "transform.reparse");
      TU = parseSource(Printed, *Parsed, Diags);
    }
    if (!TU) {
      Error = "transformed source does not re-parse: " + Diags.str();
      return false;
    }
  }

  VmCompileOptions Opts;
  Opts.OptimizeBytecode = false; // the peephole runs under its own span
  {
    Tracer::Scope S(Ctx.Trace, "vm.compile");
    Out = compileProgram(TU, Diags, Opts);
  }
  if (Diags.hasErrors()) {
    Error = "bytecode compile failed: " + Diags.str();
    return false;
  }
  PeepholeStats PS;
  {
    Tracer::Scope S(Ctx.Trace, "vm.peephole");
    PS = optimizeProgram(Out);
  }
  Ctx.count("vm.compile.instrs", PS.InstrsBefore);
  Ctx.count("vm.peephole.instrs_out", PS.InstrsAfter);
  return true;
}

uint64_t e2e::instrCount(const VmProgram &P) {
  uint64_t N = 0;
  for (const FuncDef &F : P.Functions)
    N += F.Code.size();
  return N;
}

uint64_t e2e::libraryDefaultDeviceBytes() {
  // The size is not exposed, so allocate greedily in halving chunks until
  // nothing fits: the first allocation's address plus everything
  // allocated is the image size (up to the 8-byte allocation granule).
  static const uint64_t Bytes = [] {
    Device Dev{VmProgram()};
    uint64_t Total = Dev.alloc(8) + 8;
    for (uint64_t Chunk = 1ull << 40; Chunk >= 8; Chunk /= 2)
      while (Dev.alloc(Chunk))
        Total += Chunk;
    return Total;
  }();
  return Bytes;
}

std::unique_ptr<Device> e2e::buildDevice(Context &Ctx, VmProgram P,
                                         uint64_t MemoryBytes) {
  std::unique_ptr<Device> Dev;
  {
    Tracer::Scope S(Ctx.Trace, "vm.device_build");
    Dev = MemoryBytes ? std::make_unique<Device>(std::move(P), MemoryBytes)
                      : std::make_unique<Device>(std::move(P));
    Dev->setWorkers(1);
  }
  const ExecDecodeStats &D = Dev->decodeStats();
  Ctx.count("vm.device_build.bytes",
            (double)(MemoryBytes ? MemoryBytes : libraryDefaultDeviceBytes()));
  Ctx.count("vm.decode.instrs_in", (double)D.InstrsIn);
  Ctx.count("vm.decode.instrs_out", (double)D.InstrsOut);
  Ctx.count("vm.decode.traces", (double)D.TracesFormed);
  return Dev;
}

void e2e::countExec(Context &Ctx, const VmStats &S) {
  Ctx.count("vm.exec.steps", (double)S.Steps);
  Ctx.count("vm.exec.device_launches", (double)S.DeviceLaunches);
  Ctx.count("vm.exec.grids", (double)S.GridsLaunched);
  Ctx.count("vm.exec.blocks", (double)S.BlocksExecuted);
  Ctx.count("vm.exec.trace_entries", (double)S.TraceEntries);
  Ctx.count("vm.exec.trace_side_exits", (double)S.TraceSideExits);
  Ctx.count("vm.exec.spec_guard_pass", (double)S.SpecGuardPass);
  Ctx.count("vm.exec.spec_guard_fail", (double)S.SpecGuardFail);
}

double e2e::modelGpuUs(const std::vector<GridRecord> &Log, const VmStats &S) {
  GpuModel Gpu;
  return Gpu.cyclesToUs(measuredMakespanCycles(Log, S, Gpu));
}

double e2e::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / (double)V.size());
}

std::vector<unsigned> e2e::permutation(unsigned N, Rng &R) {
  std::vector<unsigned> P(N);
  for (unsigned I = 0; I < N; ++I)
    P[I] = I;
  for (unsigned I = N; I > 1; --I)
    std::swap(P[I - 1], P[R() % I]);
  return P;
}
