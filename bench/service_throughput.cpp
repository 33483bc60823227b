//===--- service_throughput.cpp - Compile-service micro-benchmarks -------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark harness for the compilation-as-a-service layer: cold
/// compiles of the Table I kernel corpus, warm memory-cache hits, the
/// duplicate-request mix the service exists to accelerate (the acceptance
/// bar is >=10x warm over cold there), disk-cache warm starts across
/// service instances, the BM_ServeBatch/N worker-scaling series for
/// the concurrent batch drain, and the service's own bookkeeping: cache
/// key hashing (BM_CacheKey) and stores into a full disk cache
/// (BM_DiskStoreFull). Entries report requests/sec via
/// items_per_second; BM_ServeBatch entries above one worker are exempt
/// from the regression gate (host-core dependent), mirroring
/// BM_GridDrain.
///
//===----------------------------------------------------------------------===//

#include "service/ArtifactCache.h"
#include "service/CompileService.h"
#include "transform/Pipeline.h"
#include "workloads/Catalog.h"
#include "workloads/Differential.h"
#include "workloads/KernelSources.h"

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

using namespace dpo;

namespace {

constexpr const char *BenchPipeline =
    "threshold[128:literal],coarsen[4:literal],aggregate[warp:4:literal]";

/// The Table I kernel corpus as compile requests: one per benchmark
/// source, transformed through the combined three-pass pipeline with
/// bytecode wanted — the shape a tuner-driven client submits.
std::vector<CompileRequest> corpusRequests() {
  std::vector<CompileRequest> Reqs;
  for (BenchmarkId Bench :
       {BenchmarkId::BFS, BenchmarkId::SSSP, BenchmarkId::MSTF,
        BenchmarkId::MSTV, BenchmarkId::TC, BenchmarkId::SP,
        BenchmarkId::BT}) {
    CompileRequest R;
    R.Name = benchmarkName(Bench);
    R.Source = kernelSourceFor(Bench);
    R.Pipeline = BenchPipeline;
    R.Knobs = literalKnobConfig();
    R.WantBytecode = true;
    Reqs.push_back(std::move(R));
  }
  return Reqs;
}

/// The duplicate-request mix: every corpus source requested Repeat
/// times, interleaved so no two equal keys are adjacent — the batch
/// shape where the cache and single-flight dedup pay off.
std::vector<CompileRequest> duplicateMix(unsigned Repeat) {
  std::vector<CompileRequest> Corpus = corpusRequests();
  std::vector<CompileRequest> Mix;
  for (unsigned I = 0; I < Repeat; ++I)
    for (const CompileRequest &R : Corpus)
      Mix.push_back(R);
  return Mix;
}

ServiceConfig memoryOnlyConfig(unsigned Workers = 1) {
  ServiceConfig SC;
  SC.Workers = Workers;
  return SC;
}

/// Cold compile of the full corpus: a fresh service per iteration, so
/// every request runs the parser, pass pipeline, and bytecode compiler.
void BM_CorpusColdCompile(benchmark::State &State) {
  std::vector<CompileRequest> Reqs = corpusRequests();
  for (auto _ : State) {
    CompileService Service(memoryOnlyConfig());
    for (const CompileRequest &R : Reqs)
      benchmark::DoNotOptimize(Service.compile(R));
  }
  State.SetItemsProcessed((int64_t)State.iterations() * Reqs.size());
}
BENCHMARK(BM_CorpusColdCompile)->Unit(benchmark::kMillisecond);

/// Warm memory-cache hits: the corpus is resident after one cold pass,
/// and every iteration re-requests it — pure key hash + map lookup.
void BM_CorpusWarmCompile(benchmark::State &State) {
  std::vector<CompileRequest> Reqs = corpusRequests();
  CompileService Service(memoryOnlyConfig());
  for (const CompileRequest &R : Reqs)
    Service.compile(R);
  for (auto _ : State)
    for (const CompileRequest &R : Reqs)
      benchmark::DoNotOptimize(Service.compile(R));
  ServiceStats S = Service.stats();
  State.counters["hit_rate"] =
      S.MemoryHits ? (double)S.MemoryHits /
                         (double)(S.MemoryHits + S.DiskHits + S.Misses)
                   : 0.0;
  State.SetItemsProcessed((int64_t)State.iterations() * Reqs.size());
}
BENCHMARK(BM_CorpusWarmCompile)->Unit(benchmark::kMicrosecond);

/// The duplicate-request mix, cold: every iteration starts an empty
/// cache, so each unique source compiles once and its duplicates hit the
/// warming cache. This is the denominator of the >=10x acceptance ratio.
void BM_DuplicateMixCold(benchmark::State &State) {
  std::vector<CompileRequest> Mix = duplicateMix(4);
  for (auto _ : State) {
    CompileService Service(memoryOnlyConfig());
    benchmark::DoNotOptimize(Service.compileBatch(Mix));
  }
  State.SetItemsProcessed((int64_t)State.iterations() * Mix.size());
}
BENCHMARK(BM_DuplicateMixCold)->Unit(benchmark::kMillisecond);

/// The duplicate-request mix against a warmed cache — the steady-state
/// service workload. The >=10x acceptance bar compares this against
/// BM_DuplicateMixCold.
void BM_DuplicateMixWarm(benchmark::State &State) {
  std::vector<CompileRequest> Mix = duplicateMix(4);
  CompileService Service(memoryOnlyConfig());
  Service.compileBatch(Mix);
  for (auto _ : State)
    benchmark::DoNotOptimize(Service.compileBatch(Mix));
  State.SetItemsProcessed((int64_t)State.iterations() * Mix.size());
}
BENCHMARK(BM_DuplicateMixWarm)->Unit(benchmark::kMicrosecond);

/// Disk-cache warm start: artifacts staged on disk once, then each
/// iteration boots a fresh service instance (empty memory cache) that
/// deserializes the corpus from the artifact files — the cross-process
/// warm path a restarted daemon takes.
void BM_DiskWarmStart(benchmark::State &State) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "dpo_bench_service_disk";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  ServiceConfig SC;
  SC.CacheDir = Dir.string();
  SC.Workers = 1;
  std::vector<CompileRequest> Reqs = corpusRequests();
  {
    CompileService Seeder(SC);
    for (const CompileRequest &R : Reqs)
      Seeder.compile(R);
  }
  for (auto _ : State) {
    CompileService Service(SC);
    for (const CompileRequest &R : Reqs)
      benchmark::DoNotOptimize(Service.compile(R));
  }
  State.SetItemsProcessed((int64_t)State.iterations() * Reqs.size());
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}
BENCHMARK(BM_DiskWarmStart)->Unit(benchmark::kMillisecond);

/// Concurrent batch drain at N workers over the cold duplicate mix: the
/// worker-scaling series. N = 1 is the deterministic single-lane drain
/// and stays inside the regression gate; higher worker counts are
/// informational (host-core dependent), like BM_GridDrain.
void BM_ServeBatch(benchmark::State &State) {
  unsigned Workers = (unsigned)State.range(0);
  std::vector<CompileRequest> Mix = duplicateMix(4);
  for (auto _ : State) {
    CompileService Service(memoryOnlyConfig(Workers));
    benchmark::DoNotOptimize(Service.compileBatch(Mix));
  }
  State.SetItemsProcessed((int64_t)State.iterations() * Mix.size());
}
// Real time, not CPU time: the drain's work happens on service worker
// threads, so the driver thread's CPU clock under-reports at N > 1.
BENCHMARK(BM_ServeBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(
    benchmark::kMillisecond);

/// cacheKeyFor over the Table I sources and the two corpus probe sources,
/// each through every pipeline of the differential matrix: the key every
/// compile() derives before it can probe a cache.
void BM_CacheKey(benchmark::State &State) {
  std::vector<std::string> Sources;
  for (const CompileRequest &R : corpusRequests())
    Sources.push_back(R.Source);
  Sources.push_back(sharedChildProbeSource());
  Sources.push_back(spinWaitProbeSource());
  std::vector<CompileRequest> Reqs;
  for (const std::string &Source : Sources)
    for (const std::string &Pipeline : differentialPipelines()) {
      CompileRequest R;
      R.Source = Source;
      R.Pipeline = Pipeline;
      R.Knobs = literalKnobConfig();
      R.WantBytecode = true;
      Reqs.push_back(std::move(R));
    }
  std::string Error;
  for (auto _ : State)
    for (const CompileRequest &R : Reqs)
      benchmark::DoNotOptimize(CompileService::cacheKeyFor(R, Error));
  State.SetItemsProcessed((int64_t)State.iterations() * Reqs.size());
}
BENCHMARK(BM_CacheKey)->Unit(benchmark::kMicrosecond);

/// Stores into a disk cache held at its bound with 100 artifacts
/// resident, so every store also evicts the oldest: the bookkeeping a
/// service miss pays on top of its compile.
void BM_DiskStoreFull(benchmark::State &State) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "dpo_bench_service_store";
  fs::remove_all(Dir);
  constexpr unsigned Resident = 100;
  const std::string Blob(4096, 'a');
  ArtifactCache Cache(Dir.string(), Resident * Blob.size());
  unsigned Next = 0;
  auto StoreNext = [&]() {
    return Cache.store("artifact" + std::to_string(Next++), Blob);
  };
  for (unsigned I = 0; I < Resident; ++I)
    StoreNext();
  for (auto _ : State)
    benchmark::DoNotOptimize(StoreNext());
  State.counters["evictions"] = (double)Cache.stats().Evictions;
  State.SetItemsProcessed((int64_t)State.iterations());
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}
BENCHMARK(BM_DiskStoreFull)->Unit(benchmark::kMicrosecond);

} // namespace
