//===--- DifferentialTest.cpp - Table I kernels vs. native references ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end differential suite: every Table I benchmark, written as
/// a real DSL kernel over a real (scaled) dataset, compiled through every
/// registered pipeline variant, lowered with the peephole optimizer on
/// and off, executed on the VM with the host driving rounds — and the
/// correctness payload compared exactly against the native reference
/// implementation. A silent semantic break anywhere in the stack (parser,
/// any pass in any order, bytecode lowering, optimizer, interpreter,
/// launch machinery) shows up here as a payload diff naming the first
/// diverging element.
///
/// Registered under the `differential` ctest label: scripts/check.sh
/// skips it by default (tier1 only) and CI runs it as a separate job.
///
//===----------------------------------------------------------------------===//

#include "parse/Parser.h"
#include "profile/Profile.h"
#include "sema/Transformability.h"
#include "transform/PassManager.h"
#include "transform/Pipeline.h"
#include "vm/Compiler.h"
#include "workloads/Differential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <random>

using namespace dpo;

namespace {

class DifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DifferentialTest, AllPipelinesMatchNative) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();

  for (const std::string &Pipeline : differentialPipelines()) {
    for (bool Optimize : {true, false}) {
      DifferentialRun Run = runKernelCaseOnVm(Case, Pipeline, Optimize);
      ASSERT_TRUE(Run.Ok)
          << Case.Name << " [" << Pipeline << "] peephole="
          << (Optimize ? "on" : "off") << ": " << Run.Error;
      std::string Why;
      EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Run.Payload, Why))
          << Case.Name << " [" << Pipeline << "] peephole="
          << (Optimize ? "on" : "off") << ": " << Why << "\ntransformed:\n"
          << Run.TransformedSource;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DifferentialTest,
    ::testing::Range<size_t>(0, differentialCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = differentialCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

// The matrix above is only as strong as its pipeline list: every entry
// must actually parse through the registry (a typo would silently skip a
// variant), and the corpus must cover all seven benchmarks with at least
// two datasets each.

TEST(DifferentialSuite, PipelinesAllParse) {
  for (const std::string &Pipeline : differentialPipelines()) {
    if (Pipeline.empty())
      continue;
    PassManager PM;
    std::string Error;
    EXPECT_TRUE(parsePassPipeline(PM, Pipeline, literalKnobConfig(), Error))
        << "'" << Pipeline << "': " << Error;
  }
}

TEST(DifferentialSuite, CorpusCoversTableOne) {
  std::map<BenchmarkId, unsigned> Datasets;
  for (const KernelCase &Case : differentialCorpus())
    ++Datasets[Case.Bench];
  EXPECT_EQ(Datasets.size(), 7u) << "every Table I benchmark present";
  for (const auto &[Bench, Count] : Datasets)
    EXPECT_GE(Count, 2u) << benchmarkName(Bench) << " needs >= 2 datasets";
}

// Transform behavior sanity on a real kernel (not just the canonical
// shape): thresholding a BFS kernel must reduce dynamic launches without
// touching the payload, and grid aggregation must eliminate them.

TEST(DifferentialSuite, ThresholdingReducesLaunchesOnRealBfs) {
  const KernelCase &Case = differentialCorpus()[0]; // BFS/kron-mini
  ASSERT_EQ(Case.Bench, BenchmarkId::BFS);
  DifferentialRun Base = runKernelCaseOnVm(Case, "", true);
  DifferentialRun Thresh = runKernelCaseOnVm(Case, "threshold[1000000]", true);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_TRUE(Thresh.Ok) << Thresh.Error;
  EXPECT_GT(Base.Stats.DeviceLaunches, 0u);
  EXPECT_EQ(Thresh.Stats.DeviceLaunches, 0u);
}

TEST(DifferentialSuite, GridAggregationHoistsLaunchesOnRealBfs) {
  const KernelCase &Case = differentialCorpus()[0];
  DifferentialRun Agg = runKernelCaseOnVm(Case, "aggregate[grid]", true);
  ASSERT_TRUE(Agg.Ok) << Agg.Error;
  EXPECT_EQ(Agg.Stats.DeviceLaunches, 0u);
  EXPECT_GT(Agg.Stats.HostLaunches, 0u);
}

//===----------------------------------------------------------------------===//
// Engine axis: the traced decoded engine and the bytecode reference are
// one observable machine. Payloads must match the native reference on
// each, and the retired step count — the currency the tuner's committed
// tables are priced in — must be bit-identical across both, trace side
// exits included.
//===----------------------------------------------------------------------===//

class EngineAxisTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineAxisTest, StepsBitIdenticalAcrossEngines) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();
  const std::string Pipelines[] = {
      "", "threshold[64],coarsen[4],aggregate[multiblock:8]"};
  for (const std::string &Pipeline : Pipelines) {
    DifferentialRun Ref;
    for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
      DifferentialRun Run = runKernelCaseOnVm(Case, Pipeline, true,
                                              16ull << 20, /*Workers=*/1,
                                              Mode);
      ASSERT_TRUE(Run.Ok) << Case.Name << " [" << Pipeline
                          << "] engine=" << execModeName(Mode) << ": "
                          << Run.Error;
      std::string Why;
      EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Run.Payload, Why))
          << Case.Name << " [" << Pipeline
          << "] engine=" << execModeName(Mode) << ": " << Why;
      if (Mode == ExecMode::Decoded) {
        Ref = Run;
        continue;
      }
      EXPECT_EQ(Run.Stats.Steps, Ref.Stats.Steps)
          << Case.Name << " [" << Pipeline << "] engine=" << execModeName(Mode)
          << ": step accounting diverged from the traced engine";
      EXPECT_EQ(Run.Stats.GridsLaunched, Ref.Stats.GridsLaunched);
      EXPECT_EQ(Run.Stats.DeviceLaunches, Ref.Stats.DeviceLaunches);
      EXPECT_EQ(Run.Stats.ThreadsExecuted, Ref.Stats.ThreadsExecuted);
    }

    // Engine x worker cross: trace execution composes with the parallel
    // grid drain — same payload at 2 and 4 workers on the traced engine.
    for (unsigned Workers : {2u, 4u}) {
      DifferentialRun Par = runKernelCaseOnVm(Case, Pipeline, true,
                                              16ull << 20, Workers,
                                              ExecMode::Decoded);
      ASSERT_TRUE(Par.Ok) << Case.Name << " [" << Pipeline << "] workers="
                          << Workers << ": " << Par.Error;
      std::string Why;
      EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Par.Payload, Why))
          << Case.Name << " [" << Pipeline << "] traced workers=" << Workers
          << ": " << Why;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EngineAxisTest,
    ::testing::Range<size_t>(0, differentialCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = differentialCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Worker-count axis: the corpus kernels claim their work through real
// atomics (CAS frontier claims, atomicMin relaxations), so the payload
// contract must hold unchanged when independent grids of one batch drain
// concurrently. Single-worker execution additionally keeps the
// deterministic step accounting the tuner's committed tables are priced
// against.
//===----------------------------------------------------------------------===//

class WorkerAxisTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkerAxisTest, PayloadsIdenticalAtEveryWorkerCount) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();
  const std::string Pipelines[] = {
      "", "threshold[64],coarsen[4],aggregate[multiblock:8]"};
  for (const std::string &Pipeline : Pipelines) {
    DifferentialRun Solo =
        runKernelCaseOnVm(Case, Pipeline, true, 16ull << 20, /*Workers=*/1);
    ASSERT_TRUE(Solo.Ok) << Case.Name << " [" << Pipeline
                         << "]: " << Solo.Error;
    std::string Why;
    ASSERT_TRUE(payloadsMatch(Case.Bench, Native, Solo.Payload, Why))
        << Case.Name << " [" << Pipeline << "] workers=1: " << Why;

    // Determinism mode: a second single-worker run retires the identical
    // step count (the bit-exact contract DPO_VM_WORKERS=1 documents).
    DifferentialRun Solo2 =
        runKernelCaseOnVm(Case, Pipeline, true, 16ull << 20, /*Workers=*/1);
    ASSERT_TRUE(Solo2.Ok) << Solo2.Error;
    EXPECT_EQ(Solo.Stats.Steps, Solo2.Stats.Steps)
        << Case.Name << " [" << Pipeline << "]: single-worker step "
        << "accounting is not deterministic";

    for (unsigned Workers : {2u, 4u}) {
      DifferentialRun Par =
          runKernelCaseOnVm(Case, Pipeline, true, 16ull << 20, Workers);
      ASSERT_TRUE(Par.Ok) << Case.Name << " [" << Pipeline << "] workers="
                          << Workers << ": " << Par.Error;
      EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Par.Payload, Why))
          << Case.Name << " [" << Pipeline << "] workers=" << Workers << ": "
          << Why << "\ntransformed:\n"
          << Par.TransformedSource;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, WorkerAxisTest,
    ::testing::Range<size_t>(0, differentialCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = differentialCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Randomized pipeline-ordering fuzz: the fixed matrix above covers the
// registered variants; this samples *arbitrary* registry orderings with
// arbitrary knobs per corpus case and demands the same exact payloads.
//===----------------------------------------------------------------------===//

std::string randomPipeline(std::mt19937 &Rng) {
  const char *Thresholds[] = {"threshold[4]", "threshold[16]", "threshold[64]",
                              "threshold[256]", "threshold[1000000]"};
  const char *Coarsens[] = {"coarsen[2]", "coarsen[3]", "coarsen[4]",
                            "coarsen[8]"};
  const char *Aggregates[] = {"aggregate[warp]", "aggregate[block]",
                              "aggregate[multiblock:4]",
                              "aggregate[multiblock:8]", "aggregate[grid]"};
  std::vector<std::string> Parts;
  if (Rng() % 2)
    Parts.push_back(Thresholds[Rng() % 5]);
  if (Rng() % 2)
    Parts.push_back(Coarsens[Rng() % 4]);
  if (Rng() % 2)
    Parts.push_back(Aggregates[Rng() % 5]);
  if (Parts.empty())
    Parts.push_back(Thresholds[Rng() % 5]);
  // Fisher-Yates with the test's own Rng: std::shuffle's ordering is
  // implementation-defined, and this fuzz must replay identically.
  for (size_t I = Parts.size(); I > 1; --I)
    std::swap(Parts[I - 1], Parts[Rng() % I]);
  std::string Text;
  for (size_t I = 0; I < Parts.size(); ++I)
    Text += (I ? "," : "") + Parts[I];
  return Text;
}

class PipelineOrderFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineOrderFuzzTest, RandomOrderingsMatchNative) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();
  std::mt19937 Rng(0xD1FFu + (unsigned)GetParam() * 7919u);
  constexpr int SeedsPerCase = 3;
  for (int S = 0; S < SeedsPerCase; ++S) {
    std::string Pipeline = randomPipeline(Rng);
    DifferentialRun Run = runKernelCaseOnVm(Case, Pipeline, true);
    ASSERT_TRUE(Run.Ok) << Case.Name << " [" << Pipeline << "]: " << Run.Error;
    std::string Why;
    EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Run.Payload, Why))
        << Case.Name << " [" << Pipeline << "]: " << Why << "\ntransformed:\n"
        << Run.TransformedSource;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, PipelineOrderFuzzTest,
    ::testing::Range<size_t>(0, differentialCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = differentialCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// The cooperative-transformability path, end to end: a corpus child with
// structural __shared__ + __syncthreads is serialized in the segmented
// (barrier-preserving) form, payload-exact; a child that synchronizes
// across blocks through an atomic spin-wait is still refused.
//===----------------------------------------------------------------------===//

struct ProbeRun {
  bool Ok = false;
  std::string Error;
  std::vector<int32_t> Sums;
  VmStats Stats;
  std::string Src;
};

ProbeRun runProbeSource(const char *Source, const std::string &Pipeline) {
  ProbeRun R;
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program =
      compileWithPipeline(Source, Pipeline, literalKnobConfig(),
                          VmCompileOptions(), Diags, &R.Src);
  if (!Program) {
    R.Error = "compile failed: " + Diags.str();
    return R;
  }
  auto Dev = std::make_unique<Device>(std::move(*Program));

  // Deterministic skewed CSR: a few hub vertices with hundreds of
  // edges, many leaves, some isolated vertices.
  constexpr int NumV = 40;
  std::vector<int32_t> RowPtr(NumV + 1), Col;
  std::mt19937 Rng(4242);
  for (int V = 0; V < NumV; ++V) {
    RowPtr[V] = (int32_t)Col.size();
    int Deg = V % 7 == 0 ? 150 + (int)(Rng() % 200)
                         : (V % 3 == 0 ? (int)(Rng() % 9) : 0);
    for (int E = 0; E < Deg; ++E)
      Col.push_back((int32_t)(Rng() % 1000));
  }
  RowPtr[NumV] = (int32_t)Col.size();

  uint64_t RowPtrA = Dev->allocI32(RowPtr);
  uint64_t ColA = Dev->allocI32(Col);
  uint64_t SumsA = Dev->alloc((uint64_t)NumV * 4);
  if (!launchWorkloadParent(*Dev, "parent", NumV, 128,
                            {(int64_t)RowPtrA, (int64_t)ColA, (int64_t)SumsA,
                             NumV})) {
    R.Error = "run failed: " + Dev->error();
    return R;
  }
  R.Sums = Dev->readI32Array(SumsA, NumV);
  R.Stats = Dev->stats();
  R.Ok = true;
  return R;
}

ProbeRun runSharedChildProbe(const std::string &Pipeline) {
  return runProbeSource(sharedChildProbeSource(), Pipeline);
}

TEST(CooperativeTransformability, AnalysisAcceptsStructuralBarriers) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(sharedChildProbeSource(), Ctx, Diags);
  ASSERT_NE(TU, nullptr) << Diags.str();
  FunctionDecl *Child = TU->findFunction("child");
  ASSERT_NE(Child, nullptr);
  Transformability T = analyzeSerializability(Child, TU);
  EXPECT_TRUE(T.Serializable) << (T.Reasons.empty() ? "" : T.Reasons[0]);
  EXPECT_TRUE(T.NeedsBarrierSegmentation);
  EXPECT_TRUE(T.Reasons.empty());
}

TEST(CooperativeTransformability, ThresholdingSerializesViaSegmentation) {
  ProbeRun Base = runSharedChildProbe("");
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_GT(Base.Stats.DeviceLaunches, 0u);

  // A threshold above every observed launch serializes all of them: the
  // dynamic launches disappear, replaced by the segmented serial form,
  // and the payload is untouched.
  ProbeRun Thresh = runSharedChildProbe("threshold[1000000]");
  ASSERT_TRUE(Thresh.Ok) << Thresh.Error;
  EXPECT_EQ(Thresh.Stats.DeviceLaunches, 0u) << Thresh.Src;
  EXPECT_NE(Thresh.Src.find("child_serial"), std::string::npos) << Thresh.Src;
  EXPECT_EQ(Base.Sums, Thresh.Sums) << Thresh.Src;
}

TEST(CooperativeTransformability, AllPipelinesPreserveTheProbePayload) {
  ProbeRun Base = runSharedChildProbe("");
  ASSERT_TRUE(Base.Ok) << Base.Error;
  for (const std::string &Pipeline : differentialPipelines()) {
    if (Pipeline.empty())
      continue;
    ProbeRun Run = runSharedChildProbe(Pipeline);
    ASSERT_TRUE(Run.Ok) << "[" << Pipeline << "]: " << Run.Error;
    EXPECT_EQ(Base.Sums, Run.Sums) << "[" << Pipeline << "]\n" << Run.Src;
  }
}

TEST(TransformabilityRejection, SpinWaitProbeIsNamedAndRefused) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  TranslationUnit *TU = parseSource(spinWaitProbeSource(), Ctx, Diags);
  ASSERT_NE(TU, nullptr) << Diags.str();
  FunctionDecl *Child = TU->findFunction("child");
  ASSERT_NE(Child, nullptr);
  Transformability T = analyzeSerializability(Child, TU);
  EXPECT_FALSE(T.Serializable);
  ASSERT_GE(T.Reasons.size(), 1u);
  EXPECT_NE(T.Reasons[0].find("spin-wait"), std::string::npos) << T.Reasons[0];
}

TEST(TransformabilityRejection, ThresholdingRefusesTheSpinWaitProbe) {
  ProbeRun Base = runProbeSource(spinWaitProbeSource(), "");
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_GT(Base.Stats.DeviceLaunches, 0u);

  // The spin-wait child must keep every dynamic launch: serializing it
  // would deadlock, so thresholding leaves the site alone.
  ProbeRun Thresh = runProbeSource(spinWaitProbeSource(), "threshold[1000000]");
  ASSERT_TRUE(Thresh.Ok) << Thresh.Error;
  EXPECT_EQ(Thresh.Stats.DeviceLaunches, Base.Stats.DeviceLaunches)
      << Thresh.Src;
  EXPECT_EQ(Thresh.Src.find("child_serial"), std::string::npos) << Thresh.Src;
  EXPECT_EQ(Base.Sums, Thresh.Sums);
}

//===----------------------------------------------------------------------===//
// Profile-guided axis: record a per-site launch profile from a real run,
// replay it into the profile-parameterized passes, and hold the payload
// contract. The deliberately *wrong* profile below is the pinned
// guard-failure axis: a corrupted small-grid assumption must route every
// speculated launch through the guarded fallback and still be payload-
// and step-exact against the native references on every engine and
// worker count.
//===----------------------------------------------------------------------===//

/// The guard-failure forcing function: rewrites every site's observed
/// thread counts to 1, so siteSpeculationBound picks a bound of 1 and
/// any real launch (>= one warp) fails its guard.
LaunchProfile corruptToTinyBounds(const LaunchProfile &Real) {
  LaunchProfile Wrong = Real;
  for (auto &[Name, H] : Wrong.Sites) {
    H.Threads.clear();
    H.Threads[1] = H.Launches;
  }
  return Wrong;
}

class ProfileAxisTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ProfileAxisTest, HarvestedProfileIsRunAndWorkerDeterministic) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  LaunchProfile First;
  DifferentialRun R0 = runKernelCaseOnVm(Case, "", true, 16ull << 20,
                                         /*Workers=*/1, ExecMode::Decoded,
                                         nullptr, &First);
  ASSERT_TRUE(R0.Ok) << Case.Name << ": " << R0.Error;
  std::string Canonical = serializeProfile(First);

  // Byte-identical on a repeat run and at every worker count: the
  // histograms count only worker-deterministic quantities.
  for (unsigned Workers : {1u, 2u, 4u}) {
    LaunchProfile P;
    DifferentialRun R = runKernelCaseOnVm(Case, "", true, 16ull << 20,
                                          Workers, ExecMode::Decoded, nullptr,
                                          &P);
    ASSERT_TRUE(R.Ok) << Case.Name << " workers=" << Workers << ": "
                      << R.Error;
    EXPECT_EQ(serializeProfile(P), Canonical)
        << Case.Name << ": profile drifted at workers=" << Workers;
  }

  // And the serialized artifact round-trips exactly through the text
  // format the CLI's --profile-out/--profile-in exchange.
  LaunchProfile Parsed;
  std::string Error;
  ASSERT_TRUE(parseProfile(Canonical, Parsed, Error)) << Error;
  EXPECT_EQ(serializeProfile(Parsed), Canonical);
}

TEST_P(ProfileAxisTest, ProfileBackedPipelinesMatchNative) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();
  LaunchProfile Real;
  DifferentialRun Record = runKernelCaseOnVm(Case, "", true, 16ull << 20, 1,
                                             ExecMode::Decoded, nullptr, &Real);
  ASSERT_TRUE(Record.Ok) << Case.Name << ": " << Record.Error;

  const std::string Pipelines[] = {
      "threshold[profile]", "coarsen[profile]", "speculate[profile]",
      "threshold[profile],coarsen[profile]"};
  for (const std::string &Pipeline : Pipelines) {
    DifferentialRun Run = runKernelCaseOnVm(Case, Pipeline, true,
                                            16ull << 20, 1, ExecMode::Decoded,
                                            &Real);
    ASSERT_TRUE(Run.Ok) << Case.Name << " [" << Pipeline
                        << "]: " << Run.Error;
    std::string Why;
    EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Run.Payload, Why))
        << Case.Name << " [" << Pipeline << "]: " << Why << "\ntransformed:\n"
        << Run.TransformedSource;
  }
}

TEST_P(ProfileAxisTest, WrongProfileGuardFailureFallsBackExactly) {
  const KernelCase &Case = differentialCorpus()[GetParam()];
  WorkloadOutput Native = Case.reference();
  LaunchProfile Real;
  DifferentialRun Record = runKernelCaseOnVm(Case, "", true, 16ull << 20, 1,
                                             ExecMode::Decoded, nullptr, &Real);
  ASSERT_TRUE(Record.Ok) << Case.Name << ": " << Record.Error;
  LaunchProfile Wrong = corruptToTinyBounds(Real);

  DifferentialRun Ref;
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    DifferentialRun Run =
        runKernelCaseOnVm(Case, "speculate[profile]", true, 16ull << 20,
                          /*Workers=*/1, Mode, &Wrong);
    ASSERT_TRUE(Run.Ok) << Case.Name << " engine=" << execModeName(Mode)
                        << ": " << Run.Error;
    std::string Why;
    EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Run.Payload, Why))
        << Case.Name << " engine=" << execModeName(Mode)
        << ": guarded fallback diverged: " << Why << "\ntransformed:\n"
        << Run.TransformedSource;
    if (Run.TransformedSource.find("__dpo_spec_guard") != std::string::npos)
      EXPECT_GT(Run.Stats.SpecGuardPass + Run.Stats.SpecGuardFail, 0u)
          << Case.Name << ": speculated site never evaluated its guard";
    if (Mode == ExecMode::Decoded) {
      Ref = Run;
      continue;
    }
    // Guard evaluations are retired steps: the accounting must stay
    // bit-identical across engines, failures included.
    EXPECT_EQ(Run.Stats.Steps, Ref.Stats.Steps) << Case.Name;
    EXPECT_EQ(Run.Stats.SpecGuardPass, Ref.Stats.SpecGuardPass) << Case.Name;
    EXPECT_EQ(Run.Stats.SpecGuardFail, Ref.Stats.SpecGuardFail) << Case.Name;
    EXPECT_EQ(Run.Stats.DeviceLaunches, Ref.Stats.DeviceLaunches)
        << Case.Name;
  }

  for (unsigned Workers : {2u, 4u}) {
    DifferentialRun Par =
        runKernelCaseOnVm(Case, "speculate[profile]", true, 16ull << 20,
                          Workers, ExecMode::Decoded, &Wrong);
    ASSERT_TRUE(Par.Ok) << Case.Name << " workers=" << Workers << ": "
                        << Par.Error;
    std::string Why;
    EXPECT_TRUE(payloadsMatch(Case.Bench, Native, Par.Payload, Why))
        << Case.Name << " workers=" << Workers
        << ": guarded fallback diverged: " << Why;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ProfileAxisTest,
    ::testing::Range<size_t>(0, differentialCorpus().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = differentialCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!std::isalnum((unsigned char)C))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Speculation probe: a serializable child (pure atomics, no barriers, no
// shared memory) whose parent shape matches the corpus convention. With
// full control of the profile this pins the exact guard arithmetic: a
// tiny-bound profile fails every guard and falls back, a huge literal
// bound passes every guard and serializes every launch.
//===----------------------------------------------------------------------===//

const char *SpecProbeSource = R"(
__global__ void child(int *col, int *sums, int edgeBase, int v, int count) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < count)
    atomicAdd(&sums[v], col[edgeBase + i]);
}
__global__ void parent(int *rowptr, int *col, int *sums, int numV) {
  int v = blockIdx.x * blockDim.x + threadIdx.x;
  if (v < numV) {
    int count = rowptr[v + 1] - rowptr[v];
    if (count > 0) {
      child<<<(count + 31) / 32, 32>>>(col, sums, rowptr[v], v, count);
    }
  }
}
)";

ProbeRun runSpecProbe(const std::string &Pipeline,
                      const LaunchProfile *ProfileIn = nullptr,
                      unsigned Workers = 1, ExecMode Mode = ExecMode::Decoded,
                      LaunchProfile *ProfileOut = nullptr) {
  ProbeRun R;
  DiagnosticEngine Diags;
  std::optional<VmProgram> Program =
      compileWithPipeline(SpecProbeSource, Pipeline,
                          literalKnobConfig(ProfileIn), VmCompileOptions(),
                          Diags, &R.Src);
  if (!Program) {
    R.Error = "compile failed: " + Diags.str();
    return R;
  }
  auto Dev = std::make_unique<Device>(std::move(*Program), 16ull << 20, Mode);
  Dev->setWorkers(Workers);
  if (ProfileOut)
    Dev->setGridLogEnabled(true);

  // The shared-child probe's skewed CSR: hubs with hundreds of edges,
  // many leaves, some isolated vertices.
  constexpr int NumV = 40;
  std::vector<int32_t> RowPtr(NumV + 1), Col;
  std::mt19937 Rng(4242);
  for (int V = 0; V < NumV; ++V) {
    RowPtr[V] = (int32_t)Col.size();
    int Deg = V % 7 == 0 ? 150 + (int)(Rng() % 200)
                         : (V % 3 == 0 ? (int)(Rng() % 9) : 0);
    for (int E = 0; E < Deg; ++E)
      Col.push_back((int32_t)(Rng() % 1000));
  }
  RowPtr[NumV] = (int32_t)Col.size();

  uint64_t RowPtrA = Dev->allocI32(RowPtr);
  uint64_t ColA = Dev->allocI32(Col);
  uint64_t SumsA = Dev->alloc((uint64_t)NumV * 4);
  if (!launchWorkloadParent(*Dev, "parent", NumV, 128,
                            {(int64_t)RowPtrA, (int64_t)ColA, (int64_t)SumsA,
                             NumV})) {
    R.Error = "run failed: " + Dev->error();
    return R;
  }
  R.Sums = Dev->readI32Array(SumsA, NumV);
  R.Stats = Dev->stats();
  if (ProfileOut)
    *ProfileOut = harvestProfile(Dev->gridLog(), Dev->program());
  R.Ok = true;
  return R;
}

TEST(SpeculationGuard, WrongProfileFailsEveryGuardAndFallsBack) {
  LaunchProfile Real;
  ProbeRun Base = runSpecProbe("", nullptr, 1, ExecMode::Decoded, &Real);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_GT(Base.Stats.DeviceLaunches, 0u);
  ASSERT_FALSE(Real.Sites.empty());
  LaunchProfile Wrong = corruptToTinyBounds(Real);

  ProbeRun Ref;
  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    for (unsigned Workers : {1u, 2u, 4u}) {
      ProbeRun Run = runSpecProbe("speculate[profile]", &Wrong, Workers,
                                  Mode);
      ASSERT_TRUE(Run.Ok) << "engine=" << execModeName(Mode)
                          << " workers=" << Workers << ": " << Run.Error;
      // Every real launch is at least one 32-thread block, so a bound of
      // 1 fails every guard: the fallback path must relaunch everything
      // and reproduce the payload exactly.
      EXPECT_EQ(Run.Sums, Base.Sums)
          << "engine=" << execModeName(Mode) << " workers=" << Workers << "\n"
          << Run.Src;
      EXPECT_EQ(Run.Stats.SpecGuardFail, Base.Stats.DeviceLaunches);
      EXPECT_EQ(Run.Stats.SpecGuardPass, 0u);
      EXPECT_EQ(Run.Stats.DeviceLaunches, Base.Stats.DeviceLaunches)
          << "a failed guard must not swallow its launch";
      // Step accounting stays exact across engines at the deterministic
      // worker count.
      if (Workers != 1)
        continue;
      if (Mode == ExecMode::Decoded) {
        Ref = Run;
        continue;
      }
      EXPECT_EQ(Run.Stats.Steps, Ref.Stats.Steps)
          << "engine=" << execModeName(Mode)
          << ": guard-failure path step accounting diverged";
      EXPECT_EQ(Run.Stats.ThreadsExecuted, Ref.Stats.ThreadsExecuted);
    }
  }
}

TEST(SpeculationGuard, HugeBoundPassesEveryGuardAndSerializes) {
  ProbeRun Base = runSpecProbe("");
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_GT(Base.Stats.DeviceLaunches, 0u);

  for (ExecMode Mode : {ExecMode::Decoded, ExecMode::Bytecode}) {
    ProbeRun Run = runSpecProbe("speculate[1000000]", nullptr, 1, Mode);
    ASSERT_TRUE(Run.Ok) << Run.Error;
    EXPECT_EQ(Run.Sums, Base.Sums) << Run.Src;
    EXPECT_EQ(Run.Stats.SpecGuardPass, Base.Stats.DeviceLaunches);
    EXPECT_EQ(Run.Stats.SpecGuardFail, 0u);
    EXPECT_EQ(Run.Stats.DeviceLaunches, 0u)
        << "a passed guard serializes instead of launching";
  }
}

TEST(SpeculationGuard, RealProfileSpeculationIsExactAndAccounted) {
  LaunchProfile Real;
  ProbeRun Base = runSpecProbe("", nullptr, 1, ExecMode::Decoded, &Real);
  ASSERT_TRUE(Base.Ok) << Base.Error;

  ProbeRun Run = runSpecProbe("speculate[profile]", &Real);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.Sums, Base.Sums) << Run.Src;
  // Every original launch evaluates its guard exactly once, and every
  // failure is exactly one fallback launch.
  EXPECT_EQ(Run.Stats.SpecGuardPass + Run.Stats.SpecGuardFail,
            Base.Stats.DeviceLaunches);
  EXPECT_EQ(Run.Stats.DeviceLaunches, Run.Stats.SpecGuardFail);
  // The p90-derived bound covers the bulk of the distribution by
  // construction.
  EXPECT_GT(Run.Stats.SpecGuardPass, 0u);
}

TEST(SpeculationGuard, PerSiteThresholdMatchesTightenedGlobalLiteral) {
  // The probe's sub-threshold launches are all single 32-thread blocks
  // (leaf degrees <= 8); hubs launch >= 160 threads. Against a global
  // threshold of 128 the profile rule tightens this site to the smallest
  // power of two above 32 — so `threshold[profile]` must produce the
  // *identical* transformed source, and therefore identical bytecode, as
  // the best hand-picked literal `threshold[64:literal]`.
  LaunchProfile Real;
  ProbeRun Base = runSpecProbe("", nullptr, 1, ExecMode::Decoded, &Real);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_EQ(Real.siteThreshold("parent->child#0", 128), 64u)
      << serializeProfile(Real);

  DiagnosticEngine DiagsA, DiagsB;
  std::string Profiled = transformSourceWithPipeline(
      SpecProbeSource, "threshold[profile]", literalKnobConfig(&Real),
      DiagsA);
  std::string Literal = transformSourceWithPipeline(
      SpecProbeSource, "threshold[64:literal]", literalKnobConfig(), DiagsB);
  ASSERT_FALSE(Profiled.empty()) << DiagsA.str();
  ASSERT_FALSE(Literal.empty()) << DiagsB.str();
  EXPECT_EQ(Profiled, Literal);

  // And the equivalence holds end to end: same payload, same steps.
  ProbeRun A = runSpecProbe("threshold[profile]", &Real);
  ProbeRun B = runSpecProbe("threshold[64:literal]");
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A.Sums, Base.Sums);
  EXPECT_EQ(A.Sums, B.Sums);
  EXPECT_EQ(A.Stats.Steps, B.Stats.Steps);
  EXPECT_EQ(A.Stats.DeviceLaunches, B.Stats.DeviceLaunches);
}

} // namespace
