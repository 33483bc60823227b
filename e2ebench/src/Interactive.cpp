//===--- Interactive.cpp - Quickstart-shaped nested-launch requests -------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `interactive` workload: one request compiles a small nested-launch
/// program (the quickstart source or nestedVmSource) through a pipeline of
/// the differential matrix, builds a Device at the library's default
/// memory size, stages a seeded skewed input, launches the parent and
/// reads the output back. The output is checked against an array the
/// benchmark computes natively. Per-request fixed costs dominate here.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "transform/Pipeline.h"
#include "workloads/Differential.h"

using namespace dpo;
using namespace e2e;

namespace {

class InteractiveWorkload : public Workload {
public:
  const char *name() const override { return "interactive"; }

  bool setup(uint64_t Seed, std::string &) override {
    Pipelines = differentialPipelines();
    Knobs = literalKnobConfig();
    libraryDefaultDeviceBytes();
    Rng R(Seed);
    Inputs.clear();
    for (unsigned I = 0; I < NumInputs; ++I)
      Inputs.push_back(makeNestedInput(R, 32 + (uint32_t)(R() % 225)));
    ModelInput = makeNestedInput(R, 1024);
    StreamSeed = R();
    return true;
  }

  void beginPass() override { Stream = Rng(StreamSeed); }

  unsigned prefixRequests() const override { return numPrograms(); }

  bool request(Context &Ctx, uint64_t I, RequestTimes &T,
               std::string &Why) override {
    // Every cycle of numPrograms() requests visits each (source, pipeline)
    // once, in a seeded order, so the mix is the same for every seed.
    if (I % numPrograms() == 0)
      Order = permutation(numPrograms(), Stream);
    unsigned Prog = Order[I % numPrograms()];
    const NestedInput &In = Inputs[Stream() % NumInputs];
    T.Kind = Prog % 2 ? "nested" : "quickstart";

    uint64_t T0 = nowNs();
    VmProgram P;
    if (!compileSource(Ctx, nestedSource(Prog % 2), Pipelines[Prog / 2],
                       Knobs, P, Why))
      return false;
    uint64_t T1 = nowNs();
    bool Ok = runNested(Ctx, std::move(P), In, Prog % 2, /*MemoryBytes=*/0,
                        nullptr, Why);
    T.CompileMs = (double)(T1 - T0) / 1e6;
    T.RunMs = (double)(nowNs() - T1) / 1e6;
    if (!Ok)
      Why = "pipeline '" + Pipelines[Prog / 2] + "': " + Why;
    return Ok;
  }

  bool finish(Context &Ctx, Finish &F, std::string &Why) override {
    std::vector<double> Instrs, Model;
    for (unsigned Prog = 0; Prog < numPrograms(); ++Prog) {
      VmProgram P;
      if (!compileSource(Ctx, nestedSource(Prog % 2), Pipelines[Prog / 2],
                         Knobs, P, Why))
        return false;
      Instrs.push_back((double)instrCount(P));
      double Us = 0;
      if (!runNested(Ctx, std::move(P), ModelInput, Prog % 2, 16ull << 20,
                     &Us, Why))
        return false;
      Model.push_back(Us);
    }
    F.CodeInstrs = geomean(Instrs);
    F.ModelGpuUs = geomean(Model);
    F.Programs = numPrograms();
    return true;
  }

private:
  unsigned numPrograms() const { return 2 * (unsigned)Pipelines.size(); }

  static constexpr unsigned NumInputs = 1024;
  std::vector<std::string> Pipelines;
  PassPipelineConfig Knobs;
  std::vector<NestedInput> Inputs;
  NestedInput ModelInput;
  uint64_t StreamSeed = 0;
  Rng Stream;
  std::vector<unsigned> Order;
};

} // namespace

std::unique_ptr<Workload> e2e::makeInteractiveWorkload() {
  return std::make_unique<InteractiveWorkload>();
}
