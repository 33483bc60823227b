//===--- Table1.cpp - The Table I benchmarks, end to end -------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `table1` workload: the seven Table I kernels on seeded, scaled
/// instances of the Table I generators (four instances of each of the
/// fourteen benchmark/dataset pairs of Fig. 9), each in three variants — the untransformed CDP
/// program, fully serialized (`threshold[1000000]`, the no-CDP stand-in)
/// and its committed bench/tuned/ pipeline (T+C+A). A request compiles the
/// kernel source through its variant and drives the whole algorithm on
/// the VM through runKernelCaseOnVmProgram; the payload must equal
/// KernelCase::reference() exactly. VM execution and the launch runtime
/// dominate here.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "datasets/Generators.h"
#include "transform/Pipeline.h"
#include "tuner/TunedTable.h"

#include <filesystem>

using namespace dpo;
using namespace e2e;

namespace {

enum class Data { Kron, Web, KronSmall, WebSmall, Rand3, Sat5, T32, T2048 };

/// One benchmark/dataset pair. Its tuned variant is the pipeline the
/// benchmark's committed table records (tuned on the first of its two
/// datasets).
struct CaseSpec {
  BenchmarkId Bench;
  Data Dataset;
  const char *Label;
  const char *TunedSpec;
};

const CaseSpec Specs[] = {
    {BenchmarkId::BFS, Data::Kron, "kron", "bfs:kron"},
    {BenchmarkId::BFS, Data::Web, "web", "bfs:kron"},
    {BenchmarkId::BT, Data::T2048, "t2048", "bt:t2048_c64"},
    {BenchmarkId::BT, Data::T32, "t32", "bt:t2048_c64"},
    {BenchmarkId::MSTF, Data::Kron, "kron", "mstf:kron"},
    {BenchmarkId::MSTF, Data::Web, "web", "mstf:kron"},
    {BenchmarkId::MSTV, Data::Kron, "kron", "mstv:kron"},
    {BenchmarkId::MSTV, Data::Web, "web", "mstv:kron"},
    {BenchmarkId::SP, Data::Sat5, "sat5", "sp:sat5"},
    {BenchmarkId::SP, Data::Rand3, "rand3", "sp:sat5"},
    {BenchmarkId::SSSP, Data::Kron, "kron", "sssp:kron"},
    {BenchmarkId::SSSP, Data::Web, "web", "sssp:kron"},
    {BenchmarkId::TC, Data::KronSmall, "kron", "tc:kron"},
    {BenchmarkId::TC, Data::WebSmall, "web", "tc:kron"},
};
constexpr unsigned NumCases = sizeof(Specs) / sizeof(Specs[0]);
constexpr unsigned NumVariants = 3;
/// Seeded instances of every dataset.
constexpr unsigned Instances = 4;
const char *const VariantNames[NumVariants] = {"cdp", "serial", "tuned"};

class Table1Workload : public Workload {
public:
  explicit Table1Workload(std::string Root) : Root(std::move(Root)) {}

  const char *name() const override { return "table1"; }

  bool setup(uint64_t Seed, std::string &Error) override {
    Knobs = literalKnobConfig();
    Pipelines.clear();
    for (const CaseSpec &C : Specs) {
      TunedEntry Entry;
      std::string Path = (std::filesystem::path(Root) / "bench" / "tuned" /
                          tunedTableFileName(C.TunedSpec))
                             .string();
      if (!loadTunedEntryFile(Path, Entry, Error)) {
        Error = Path + ": " + Error;
        return false;
      }
      Pipelines.push_back({"", "threshold[1000000]", Entry.Pipeline});
    }

    // Scaled instances: same generators and degree character as Table I,
    // sized so one request takes milliseconds to tens of milliseconds.
    // TC intersects sorted adjacency lists, so it gets smaller graphs.
    // Several instances of every dataset limit how much one seed's graph
    // structure moves the figures, and fill the latency distribution
    // around its median.
    Rng R(Seed);
    Cases.clear();
    Refs.clear();
    for (unsigned Inst = 0; Inst < Instances; ++Inst) {
      CsrGraph Kron = makeKronGraph(/*ScaleLog2=*/10, /*EdgeFactor=*/8.0, R());
      CsrGraph Web = makeWebGraph(/*NumVertices=*/1024, /*AvgDegree=*/8.0, R());
      CsrGraph KronSmall =
          makeKronGraph(/*ScaleLog2=*/8, /*EdgeFactor=*/6.0, R());
      CsrGraph WebSmall =
          makeWebGraph(/*NumVertices=*/400, /*AvgDegree=*/6.0, R());
      SatFormula Rand3 = makeRandomKSat(400, 1680, 3, R());
      SatFormula Sat5 = makeRandomKSat(300, 1400, 5, R());
      BezierDataset T32 = makeBezierLines(400, 32, 16.0, R());
      BezierDataset T2048 = makeBezierLines(120, 2048, 64.0, R());
      for (const CaseSpec &C : Specs) {
        std::string Name = std::string(benchmarkName(C.Bench)) + "/" +
                           C.Label + "." + std::to_string(Inst);
        switch (C.Dataset) {
        case Data::Kron:
          Cases.push_back(makeGraphKernelCase(C.Bench, Name, Kron));
          break;
        case Data::Web:
          Cases.push_back(makeGraphKernelCase(C.Bench, Name, Web));
          break;
        case Data::KronSmall:
          Cases.push_back(makeGraphKernelCase(C.Bench, Name, KronSmall));
          break;
        case Data::WebSmall:
          Cases.push_back(makeGraphKernelCase(C.Bench, Name, WebSmall));
          break;
        case Data::Rand3:
          Cases.push_back(makeSatKernelCase(Name, Rand3));
          break;
        case Data::Sat5:
          Cases.push_back(makeSatKernelCase(Name, Sat5));
          break;
        case Data::T32:
          Cases.push_back(makeBezierKernelCase(Name, T32));
          break;
        case Data::T2048:
          Cases.push_back(makeBezierKernelCase(Name, T2048));
          break;
        }
        Refs.push_back(Cases.back().reference());
      }
    }
    StreamSeed = R();
    return true;
  }

  void beginPass() override { Stream = Rng(StreamSeed); }

  unsigned prefixRequests() const override {
    return Instances * NumCases * NumVariants;
  }

  bool request(Context &Ctx, uint64_t I, RequestTimes &T,
               std::string &Why) override {
    // Each cycle runs every (case instance, variant) once in a seeded
    // order. Case B is instance B / NumCases of Specs[B % NumCases].
    if (I % prefixRequests() == 0)
      Order = permutation(prefixRequests(), Stream);
    unsigned Item = Order[I % prefixRequests()];
    unsigned B = Item / NumVariants, V = Item % NumVariants;
    const CaseSpec &C = Specs[B % NumCases];
    T.Kind = std::string(benchmarkName(C.Bench)) + "/" + C.Label + "/" +
             VariantNames[V];

    uint64_t T0 = nowNs();
    VmProgram P;
    if (!compileSource(Ctx, Cases[B].source(), pipeline(B, V), Knobs, P, Why))
      return false;
    uint64_t T1 = nowNs();
    DifferentialRun Run = runKernelCase(Ctx, Cases[B], std::move(P),
                                        KernelCaseMemoryBytes, false);
    uint64_t T2 = nowNs();
    T.CompileMs = (double)(T1 - T0) / 1e6;
    T.RunMs = (double)(T2 - T1) / 1e6;
    return check(B, V, Run, Why);
  }

  bool finish(Context &Ctx, Finish &F, std::string &Why) override {
    // Over the first instance of every case: the requests have checked
    // every output, and the other instances run the same programs.
    std::vector<double> Instrs, Model;
    for (unsigned B = 0; B < NumCases; ++B)
      for (unsigned V = 0; V < NumVariants; ++V) {
        VmProgram P;
        if (!compileSource(Ctx, Cases[B].source(), pipeline(B, V), Knobs, P,
                           Why))
          return false;
        Instrs.push_back((double)instrCount(P));
        DifferentialRun Run = runKernelCase(Ctx, Cases[B], std::move(P),
                                            KernelCaseMemoryBytes, true);
        if (!check(B, V, Run, Why))
          return false;
        Model.push_back(modelGpuUs(Run.GridLog, Run.Stats));
      }
    F.CodeInstrs = geomean(Instrs);
    F.ModelGpuUs = geomean(Model);
    F.Programs = (unsigned)Instrs.size();
    return true;
  }

private:
  const std::string &pipeline(unsigned B, unsigned V) const {
    return Pipelines[B % NumCases][V];
  }

  bool check(unsigned B, unsigned V, const DifferentialRun &Run,
             std::string &Why) {
    if (checkKernelRun(Cases[B], Refs[B], Run, Why))
      return true;
    Why = "'" + pipeline(B, V) + "' " + Why;
    return false;
  }

  std::string Root;
  PassPipelineConfig Knobs;
  std::vector<KernelCase> Cases;
  std::vector<WorkloadOutput> Refs;
  std::vector<std::vector<std::string>> Pipelines;
  uint64_t StreamSeed = 0;
  Rng Stream;
  std::vector<unsigned> Order;
};

} // namespace

std::unique_ptr<Workload> e2e::makeTable1Workload(const std::string &Root) {
  return std::make_unique<Table1Workload>(Root);
}
