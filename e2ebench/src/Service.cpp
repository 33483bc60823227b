//===--- Service.cpp - Compile requests through CompileService ------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `service` workload: CompileService::compile requests for bytecode,
/// drawn Zipf-style over the Table I sources and the two corpus probe
/// sources, each through every pipeline of the differential matrix. The
/// on-disk cache lives under the run's scratch directory and is bounded
/// below the total size of the unique artifacts, so misses store and
/// evict; the service instance restarts at fixed points of the stream, so
/// disk hits decode artifacts. No program executes. A seeded sample of
/// responses must serialize byte-identically to a fresh compile of the
/// same request made outside the service.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/CompileService.h"
#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"
#include "workloads/Differential.h"
#include "workloads/KernelSources.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

using namespace dpo;
using namespace e2e;

namespace {

/// Requests between service restarts.
constexpr unsigned RestartEvery = 256;
/// One response in SampleEvery (on average) is checked byte for byte.
constexpr unsigned SampleEvery = 16;
/// Zipf exponent of the key popularity.
constexpr double ZipfS = 1.0;

class ServiceWorkload : public Workload {
public:
  explicit ServiceWorkload(std::string Scratch)
      : Scratch(std::move(Scratch)) {}

  ~ServiceWorkload() override {
    Service.reset();
    std::error_code EC;
    std::filesystem::remove_all(cacheDir(), EC);
  }

  const char *name() const override { return "service"; }

  bool setup(uint64_t Seed, std::string &Error) override {
    std::vector<std::string> Sources;
    for (BenchmarkId B : {BenchmarkId::BFS, BenchmarkId::SSSP,
                          BenchmarkId::MSTF, BenchmarkId::MSTV,
                          BenchmarkId::TC, BenchmarkId::SP, BenchmarkId::BT})
      Sources.push_back(kernelSourceFor(B));
    Sources.push_back(sharedChildProbeSource());
    Sources.push_back(spinWaitProbeSource());

    // Service seeding: the request universe and, for every request, the
    // reference bytes of a compile made outside the service.
    Requests.clear();
    RefImages.clear();
    RefInstrs.clear();
    uint64_t UniqueBytes = 0;
    Context Quiet;
    for (size_t S = 0; S < Sources.size(); ++S)
      for (const std::string &Pipeline : differentialPipelines()) {
        CompileRequest Req;
        Req.Name = "source" + std::to_string(S);
        Req.Source = Sources[S];
        Req.Pipeline = Pipeline;
        Req.Knobs = literalKnobConfig();
        Req.WantBytecode = true;
        VmProgram P;
        if (!compileSource(Quiet, Req.Source, Pipeline, Req.Knobs, P, Error))
          return false;
        RefImages.push_back(serializeVmProgram(P));
        RefInstrs.push_back((double)instrCount(P));
        UniqueBytes += RefImages.back().size() + Req.Source.size();
        Requests.push_back(std::move(Req));
      }
    // Below the unique total, so the disk layer must evict.
    CacheMaxBytes = UniqueBytes / 2;

    // Zipf popularity. Rank r is pipeline r / #sources of source
    // r % #sources, so every source is as popular as the others and the
    // hit/miss mix does not depend on the seed; the seed draws the stream.
    size_t NumPipelines = differentialPipelines().size();
    Rank.clear();
    for (size_t K = 0; K < Requests.size(); ++K)
      Rank.push_back(
          (unsigned)((K % Sources.size()) * NumPipelines + K / Sources.size()));
    Cdf.assign(Requests.size(), 0);
    double Sum = 0;
    for (size_t K = 0; K < Requests.size(); ++K)
      Cdf[K] = Sum += 1.0 / std::pow((double)(K + 1), ZipfS);
    for (double &C : Cdf)
      C /= Sum;
    StreamSeed = Rng(Seed)();
    return true;
  }

  void beginPass() override {
    Service.reset();
    std::error_code EC;
    std::filesystem::remove_all(cacheDir(), EC);
    std::filesystem::create_directories(cacheDir(), EC);
    Totals = ServiceStats();
    Stream = Rng(StreamSeed);
    restart();
  }

  unsigned prefixRequests() const override { return 4 * RestartEvery; }

  bool request(Context &Ctx, uint64_t I, RequestTimes &T,
               std::string &Why) override {
    if (I && I % RestartEvery == 0)
      restart();
    double U = (double)(Stream() >> 11) * 0x1.0p-53;
    size_t K = Rank[std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin()];
    bool Sample = Stream() % SampleEvery == 0;
    const CompileRequest &Req = Requests[K];

    std::string Key, KeyError;
    {
      Tracer::Scope S(Ctx.Trace, "service.key");
      Key = CompileService::cacheKeyFor(Req, KeyError);
    }
    uint64_t T0 = nowNs();
    CompileResponse Resp;
    {
      Tracer::Scope S(Ctx.Trace, "service.compile");
      Resp = Service->compile(Req);
    }
    T.CompileMs = (double)(nowNs() - T0) / 1e6;
    Ctx.count("service.requests", 1);
    T.Kind = Resp.Outcome == CacheOutcome::MemoryHit ? "memory_hit"
             : Resp.Outcome == CacheOutcome::DiskHit ? "disk_hit"
                                                     : "miss";
    if (!Resp.Ok || !Resp.Program || Resp.Key != Key || Key.empty()) {
      Why = "request " + std::to_string(K) + " failed: " + Resp.Error +
            KeyError;
      return false;
    }
    if (Sample && serializeVmProgram(*Resp.Program) != RefImages[K]) {
      Why = "response for pipeline '" + Req.Pipeline + "' on " + Req.Name +
            " differs from a fresh compile";
      return false;
    }
    return true;
  }

  void endPrefix(Context &Ctx) override {
    ServiceStats S = totals();
    Ctx.count("service.memory_hits", (double)S.MemoryHits);
    Ctx.count("service.disk_hits", (double)S.DiskHits);
    Ctx.count("service.misses", (double)S.Misses);
    Ctx.count("service.disk_stores", (double)S.DiskStores);
    Ctx.count("service.evictions", (double)S.Evictions);
    Ctx.count("service.corrupt", (double)S.CorruptArtifacts);
  }

  bool finish(Context &, Finish &F, std::string &) override {
    F.CodeInstrs = geomean(RefInstrs);
    F.Programs = (unsigned)RefInstrs.size();
    Service.reset();
    std::error_code EC;
    std::filesystem::remove_all(cacheDir(), EC);
    return true;
  }

private:
  std::string cacheDir() const { return Scratch + "/service-cache"; }

  /// Counts of the instances this pass retired plus the live one.
  ServiceStats totals() const {
    ServiceStats T = Totals;
    if (Service) {
      ServiceStats S = Service->stats();
      T.MemoryHits += S.MemoryHits;
      T.DiskHits += S.DiskHits;
      T.Misses += S.Misses;
      T.DiskStores += S.DiskStores;
      T.Evictions += S.Evictions;
      T.CorruptArtifacts += S.CorruptArtifacts;
    }
    return T;
  }

  /// Replaces the service instance, keeping its disk cache: the next
  /// requests start with an empty memory map.
  void restart() {
    Totals = totals();
    ServiceConfig Config;
    Config.CacheDir = cacheDir();
    Config.CacheMaxBytes = CacheMaxBytes;
    Config.Workers = 1;
    Service.reset();
    Service = std::make_unique<CompileService>(Config);
  }

  std::string Scratch;
  std::vector<CompileRequest> Requests;
  std::vector<std::string> RefImages;
  std::vector<double> RefInstrs;
  uint64_t CacheMaxBytes = 0;
  std::vector<unsigned> Rank;
  std::vector<double> Cdf;
  uint64_t StreamSeed = 0;
  Rng Stream;
  std::unique_ptr<CompileService> Service;
  ServiceStats Totals;
};

} // namespace

std::unique_ptr<Workload> e2e::makeServiceWorkload(const std::string &Scratch) {
  return std::make_unique<ServiceWorkload>(Scratch);
}
