//===--- ExamplesTest.cpp - examples/ programs vs. native references ----------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential verification of the `examples/` directory: the kernel
/// programs the examples showcase (quickstart's parent/child fan-out,
/// autotune's SSSP relaxation) are executed on the VM — untransformed,
/// through quickstart's exact Fig. 8 pipeline, and through every
/// registered differential pipeline — and their payloads compared
/// exactly against native references computed in plain C++. Until this
/// suite existed the examples only checked themselves against the VM
/// (transformed vs. original), never against an independent native
/// computation; a miscompile affecting both versions equally would have
/// passed silently.
///
/// The quickstart program's child writes land in disjoint output slices,
/// so its payload is also asserted across device worker counts (1, 2, 4)
/// and both exec engines. The SSSP example relaxes distances with a
/// plain conditional store (the tuner's subject, not an atomics
/// showcase), so it is pinned to the deterministic single-worker mode.
///
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "vm/VM.h"
#include "workloads/Differential.h"
#include "workloads/VmWorkload.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

using namespace dpo;

namespace {

/// examples/autotune.cpp's program, verbatim.
const char *SsspSource = R"(
__global__ void relax(int *dist, int *adj, int *wgt, int u, int count) {
  int e = blockIdx.x * blockDim.x + threadIdx.x;
  if (e < count) {
    int v = adj[e];
    int nd = dist[u] + wgt[e];
    if (nd < dist[v]) {
      dist[v] = nd;
    }
  }
}
__global__ void sssp_step(int *dist, int *offsets, int *adj, int *wgt,
                          int *frontier, int numF) {
  int f = blockIdx.x * blockDim.x + threadIdx.x;
  if (f < numF) {
    int u = frontier[f];
    int count = offsets[u + 1] - offsets[u];
    if (count > 0) {
      relax<<<(count + 127) / 128, 128>>>(dist, adj + offsets[u],
                                          wgt + offsets[u], u, count);
    }
  }
}
)";

std::unique_ptr<Device> buildOrDie(const std::string &Src, ExecMode Mode,
                                   bool Optimize, unsigned Workers) {
  VmCompileOptions Opts;
  Opts.OptimizeBytecode = Optimize;
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program =
      compileWithPipeline(Src, "", PassPipelineConfig(), Opts, Diags);
  EXPECT_TRUE(Program) << "VM build failed:\n" << Diags.str();
  if (!Program)
    return nullptr;
  auto Dev = std::make_unique<Device>(std::move(*Program),
                                      Device::DefaultMemoryBytes, Mode);
  Dev->setWorkers(Workers);
  return Dev;
}

struct QuickstartInput {
  std::vector<int32_t> Counts;
  std::vector<int32_t> Offsets;
  int32_t Total = 0;
};

QuickstartInput quickstartInput(const std::vector<int32_t> &Counts) {
  QuickstartInput In;
  In.Counts = Counts;
  In.Offsets.resize(Counts.size());
  for (size_t I = 0; I < Counts.size(); ++I) {
    In.Offsets[I] = In.Total;
    In.Total += Counts[I];
  }
  return In;
}

/// The native reference: what examples/quickstart.cpp's program computes,
/// straight from its semantics (every covered element of `data`).
std::vector<int32_t> quickstartNative(const QuickstartInput &In) {
  std::vector<int32_t> Data(In.Total, 0);
  for (size_t V = 0; V < In.Counts.size(); ++V)
    for (int32_t I = 0; I < In.Counts[V]; ++I)
      Data[In.Offsets[V] + I] = In.Offsets[V] + I * 2;
  return Data;
}

/// Runs \p Src (the quickstart program or a transformed variant of it)
/// and returns the data payload. Aggregated variants are entered through
/// the generated `parent_agg` host wrapper.
std::vector<int32_t> runQuickstart(const std::string &Src,
                                   const QuickstartInput &In, ExecMode Mode,
                                   bool Optimize, unsigned Workers) {
  auto Dev = buildOrDie(Src, Mode, Optimize, Workers);
  if (!Dev)
    return {};
  uint64_t DataA = Dev->alloc((uint64_t)In.Total * 4);
  uint64_t CountsA = Dev->allocI32(In.Counts);
  uint64_t OffsetsA = Dev->allocI32(In.Offsets);
  int64_t NumV = (int64_t)In.Counts.size();
  uint32_t Blocks = (uint32_t)((NumV + 63) / 64);
  bool Ok;
  if (Src.find("parent_agg") != std::string::npos) {
    Ok = Dev->callHost("parent_agg",
                       {Blocks, 1, 1, 64, 1, 1, (int64_t)DataA,
                        (int64_t)CountsA, (int64_t)OffsetsA, NumV});
  } else {
    Ok = Dev->launchKernel("parent", {Blocks, 1, 1}, {64, 1, 1},
                           {(int64_t)DataA, (int64_t)CountsA,
                            (int64_t)OffsetsA, NumV});
  }
  EXPECT_TRUE(Ok) << "VM run failed: " << Dev->error();
  if (!Ok)
    return {};
  return Dev->readI32Array(DataA, In.Total);
}

QuickstartInput exampleInput() {
  // The exact input examples/quickstart.cpp runs.
  return quickstartInput({3, 0, 100, 7, 45, 0, 260, 1});
}

QuickstartInput widerInput() {
  // A larger deterministic stream: many parent blocks, zero-count and
  // multi-block children mixed.
  std::vector<int32_t> Counts(200);
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] = (int32_t)((I * 37) % 150);
  return quickstartInput(Counts);
}

TEST(ExamplesDifferentialTest, QuickstartUntransformedMatchesNative) {
  for (const QuickstartInput &In : {exampleInput(), widerInput()}) {
    std::vector<int32_t> Native = quickstartNative(In);
    for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode})
      for (unsigned Workers : {1u, 2u, 4u}) {
        std::vector<int32_t> Vm =
            runQuickstart(quickstartVmSource(), In, Mode, /*Optimize=*/true,
                          Workers);
        ASSERT_EQ(Vm, Native)
            << "engine=" << execModeName(Mode) << " workers=" << Workers;
      }
  }
}

TEST(ExamplesDifferentialTest, QuickstartFig8PipelineMatchesNative) {
  // The exact pipeline examples/quickstart.cpp applies (T=64, C=4,
  // A=multi-block/8).
  DiagnosticEngine Diags;
  std::string Transformed = transformSourceWithPipeline(
      quickstartVmSource(), "threshold[64],coarsen[4],aggregate[multiblock:8]",
      literalKnobConfig(), Diags);
  ASSERT_FALSE(Transformed.empty()) << Diags.str();

  for (const QuickstartInput &In : {exampleInput(), widerInput()}) {
    std::vector<int32_t> Native = quickstartNative(In);
    for (bool Optimize : {true, false})
      for (unsigned Workers : {1u, 2u, 4u}) {
        std::vector<int32_t> Vm = runQuickstart(Transformed, In,
                                                ExecMode::Decoded, Optimize,
                                                Workers);
        ASSERT_EQ(Vm, Native) << "peephole=" << (Optimize ? "on" : "off")
                              << " workers=" << Workers << "\ntransformed:\n"
                              << Transformed;
      }
  }
}

TEST(ExamplesDifferentialTest, QuickstartAllPipelinesMatchNative) {
  QuickstartInput In = exampleInput();
  std::vector<int32_t> Native = quickstartNative(In);
  for (const std::string &Pipeline : differentialPipelines()) {
    std::string Src = quickstartVmSource();
    if (!Pipeline.empty()) {
      DiagnosticEngine Diags;
      Src = transformSourceWithPipeline(quickstartVmSource(), Pipeline,
                                        literalKnobConfig(), Diags);
      ASSERT_FALSE(Src.empty())
          << "pipeline '" << Pipeline << "' failed: " << Diags.str();
    }
    std::vector<int32_t> Vm =
        runQuickstart(Src, In, ExecMode::Decoded, /*Optimize=*/true,
                      /*Workers=*/2);
    ASSERT_EQ(Vm, Native) << "pipeline '" << Pipeline << "'";
  }
}

//===----------------------------------------------------------------------===//
// autotune's SSSP program
//===----------------------------------------------------------------------===//

struct SsspGraph {
  int32_t N = 0;
  std::vector<int32_t> Offsets, Adj, Wgt;
};

SsspGraph ssspGraph() {
  SsspGraph G;
  G.N = 64;
  std::mt19937 Rng(99);
  std::vector<std::vector<std::pair<int32_t, int32_t>>> Edges(G.N);
  for (int32_t V = 0; V < G.N; ++V) {
    int Deg = 2 + (int)(Rng() % 6);
    for (int E = 0; E < Deg; ++E)
      Edges[V].push_back({(int32_t)(Rng() % G.N), (int32_t)(1 + Rng() % 9)});
  }
  G.Offsets.resize(G.N + 1);
  for (int32_t V = 0; V < G.N; ++V) {
    G.Offsets[V] = (int32_t)G.Adj.size();
    for (auto [U, W] : Edges[V]) {
      G.Adj.push_back(U);
      G.Wgt.push_back(W);
    }
  }
  G.Offsets[G.N] = (int32_t)G.Adj.size();
  return G;
}

constexpr int32_t SsspInf = 1000000000;

/// The native mirror of one VM round over the full-frontier schedule:
/// parents in frontier order, each child's edges in ascending order,
/// every read against the current distance array — exactly the
/// single-worker VM's sequential execution order.
bool ssspNativeRound(const SsspGraph &G, std::vector<int32_t> &Dist) {
  bool Changed = false;
  for (int32_t U = 0; U < G.N; ++U)
    for (int32_t E = G.Offsets[U]; E < G.Offsets[U + 1]; ++E) {
      int32_t Nd = Dist[U] + G.Wgt[E];
      if (Nd < Dist[G.Adj[E]]) {
        Dist[G.Adj[E]] = Nd;
        Changed = true;
      }
    }
  return Changed;
}

TEST(ExamplesDifferentialTest, AutotuneSsspMatchesNative) {
  SsspGraph G = ssspGraph();

  // Native reference: rounds to fixpoint.
  std::vector<int32_t> Native(G.N, SsspInf);
  Native[0] = 0;
  int Rounds = 0;
  while (ssspNativeRound(G, Native))
    ++Rounds;
  ASSERT_GT(Rounds, 0);

  // Single-worker only: the example's relaxation is a plain conditional
  // store (no atomicMin), deterministic only on the sequential schedule.
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode})
    for (bool Optimize : {true, false}) {
      auto Dev = buildOrDie(SsspSource, Mode, Optimize, /*Workers=*/1);
      ASSERT_NE(Dev, nullptr);
      std::vector<int32_t> Frontier(G.N);
      for (int32_t V = 0; V < G.N; ++V)
        Frontier[V] = V;
      uint64_t DistA = Dev->alloc((uint64_t)G.N * 4);
      uint64_t OffsetsA = Dev->allocI32(G.Offsets);
      uint64_t AdjA = Dev->allocI32(G.Adj);
      uint64_t WgtA = Dev->allocI32(G.Wgt);
      uint64_t FrontierA = Dev->allocI32(Frontier);
      for (int32_t V = 0; V < G.N; ++V)
        Dev->writeI32(DistA + (uint64_t)V * 4, SsspInf);
      Dev->writeI32(DistA, 0);

      // Drive the same number of full-frontier rounds the native fixpoint
      // took (plus one no-op round: the fixpoint must be stable).
      for (int R = 0; R < Rounds + 1; ++R)
        ASSERT_TRUE(Dev->launchKernel(
            "sssp_step", {(uint32_t)((G.N + 63) / 64), 1, 1}, {64, 1, 1},
            {(int64_t)DistA, (int64_t)OffsetsA, (int64_t)AdjA, (int64_t)WgtA,
             (int64_t)FrontierA, G.N}))
            << Dev->error();

      std::vector<int32_t> Vm = Dev->readI32Array(DistA, G.N);
      ASSERT_EQ(Vm, Native) << "engine=" << execModeName(Mode)
                            << " peephole=" << (Optimize ? "on" : "off");
    }
}

} // namespace
