//===--- CompileService.h - Persistent compile+tune session layer ---------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compilation-as-a-service: the reusable session layer behind
/// `dpoptcc --serve` and the service-throughput bench. One CompileService
/// owns the pass registry view, an in-memory artifact map, and a
/// content-addressed on-disk ArtifactCache, and serves compile and tune
/// requests from them:
///
///  - compile(): source + textual pipeline + knob config -> transformed
///    source and/or a compiled VmProgram, each only when requested
///    (CompileRequest::WantText, WantBytecode), keyed by a stable
///    content hash of (source, canonical pipeline text, knob signature,
///    format versions, artifact shape, peephole flag). Repeat requests
///    cost one cache probe; on-disk artifacts survive the process and
///    warm the next one. Corrupt/truncated/stale-version artifacts
///    degrade to a clean recompile with a diagnostic, never an abort.
///  - compileBatch(): many requests drained concurrently through
///    parallelFor; responses come back in request order, and the stat
///    totals are sums, so both are deterministic at every worker count.
///  - tune(): autotune requests with result caching and optional
///    warm-starting from committed bench/tuned/ tables and previously
///    cached tune results (EmpiricalOptions::WarmStart; strictly opt-in,
///    so recorded searches stay reproducible).
///
/// Concurrency: every entry point is thread-safe. Concurrent requests for
/// the same key are single-flighted — one compiles, the rest wait and
/// share the artifact.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_SERVICE_COMPILESERVICE_H
#define DPO_SERVICE_COMPILESERVICE_H

#include "service/ArtifactCache.h"
#include "transform/PassManager.h"
#include "tuner/Empirical.h"
#include "vm/Bytecode.h"

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dpo {

/// Version of the *artifact container* (the blob wrapping optional
/// transformed source + optional program image). Independent of
/// BytecodeFormatVersion, which versions the embedded program image; both
/// fold into cache keys. Version 2: text is optional, and the container
/// checksum skips the image payload, which the image's own checksum
/// covers.
constexpr uint32_t ArtifactFormatVersion = 2;

struct ServiceConfig {
  /// Artifact-cache directory; empty disables the disk layer (the
  /// in-memory map still works). serviceConfigFromEnv() reads
  /// DPO_CACHE_DIR.
  std::string CacheDir;
  /// Disk-cache size bound (LRU eviction). DPO_CACHE_MAX_BYTES.
  uint64_t CacheMaxBytes = 256ull << 20;
  /// Workers for compileBatch(). 0 = auto: DPO_SERVICE_WORKERS env, else
  /// hardware concurrency capped at 8. Every value is capped at 64
  /// (resolveWorkers, support/Parallel.h).
  unsigned Workers = 0;
  /// Directory of committed tuned tables used to warm-start tune
  /// requests (bench/tuned/ in the repo). Empty disables table seeding.
  std::string TunedTableDir;
};

/// ServiceConfig with CacheDir/CacheMaxBytes taken from the DPO_CACHE_DIR /
/// DPO_CACHE_MAX_BYTES environment. A cache bound that is not a positive
/// decimal byte count keeps the default. Workers stays 0 (auto), which
/// CompileService resolves through DPO_SERVICE_WORKERS.
ServiceConfig serviceConfigFromEnv();

struct CompileRequest {
  /// Label for reports and batch output (e.g. the input path).
  std::string Name;
  std::string Source;
  /// Textual pass pipeline ("" = emit the source untransformed).
  std::string Pipeline;
  /// Knob defaults backing the pipeline text (spellings, profile, ...).
  PassPipelineConfig Knobs;
  /// Also lower to VM bytecode and embed the image in the artifact.
  /// Requires knobs the VM can execute (literal spellings — the VM has
  /// no preprocessor for knob macros).
  bool WantBytecode = false;
  /// Also return the transformed source text. Text is printed, stored and
  /// returned when this is set or when no bytecode is wanted; a bytecode
  /// request without it never prints. Text and bytecode demand make the
  /// artifact's shape, which is part of the cache key.
  bool WantText = false;
  /// Peephole-optimize the bytecode (part of the cache key).
  bool OptimizeBytecode = true;
};

enum class CacheOutcome : uint8_t {
  Miss,      ///< Fully compiled in this call.
  MemoryHit, ///< Served from this service's in-memory map.
  DiskHit,   ///< Loaded (and validated) from the on-disk cache.
};

struct CompileResponse {
  bool Ok = false;
  std::string Error;
  std::string Key; ///< Content-address of the artifact.
  CacheOutcome Outcome = CacheOutcome::Miss;
  /// The transformed source; empty unless the request wanted text.
  std::string TransformedSource;
  /// Compiled program when the request asked for bytecode. Shared:
  /// concurrent requests for one key get the same immutable image.
  std::shared_ptr<const VmProgram> Program;
};

struct TuneRequest {
  /// Workload spec: "canonical" (or empty) for the canonical nested
  /// workload, else a Table I spec like "bfs:road_ny" (parseWorkloadSpec).
  std::string WorkloadSpec;
  TuneMode Mode = TuneMode::Hybrid;
  EmpiricalOptions Opts;
  /// Seed the search from committed tuned tables (ServiceConfig::
  /// TunedTableDir) via EmpiricalOptions::WarmStart. Opt-in.
  bool WarmStart = false;
};

struct TuneResponse {
  bool Ok = false;
  std::string Error;
  std::string Key;
  bool CacheHit = false; ///< Served from the tune-result cache.
  EmpiricalTuneResult Result;
};

/// Aggregate counters across the service's lifetime. They are sums, so
/// they are deterministic for a given request sequence at any worker
/// count (eviction aside: evictions depend on store order once the disk
/// bound is hit).
struct ServiceStats {
  uint64_t Requests = 0;
  uint64_t MemoryHits = 0;
  uint64_t DiskHits = 0;
  uint64_t Misses = 0;        ///< Requests that ran the full compile.
  uint64_t CorruptArtifacts = 0; ///< Disk blobs rejected by validation.
  uint64_t TuneRequests = 0;
  uint64_t TuneCacheHits = 0;
  uint64_t TuneWarmStarts = 0; ///< Searches seeded from a tuned table.
  /// Disk-layer counters (ArtifactCache).
  uint64_t DiskStores = 0;
  uint64_t Evictions = 0;
  uint64_t ResidentBytes = 0;
};

class CompileService {
public:
  explicit CompileService(ServiceConfig Config = {});
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  const ServiceConfig &config() const { return Config; }

  /// The content-address of \p Req (contentKey, service/ContentKey.h)
  /// over the source, the *canonical* pipeline text (parse + re-render,
  /// so equivalent spellings alias), the knob signature, the bytecode
  /// format + artifact container versions, and the artifact's shape
  /// (text, program or both) with, for a program, the peephole flag.
  /// Returns "" (with \p Error) when the pipeline fails to parse.
  static std::string cacheKeyFor(const CompileRequest &Req,
                                 std::string &Error);

  /// The tune-result key of \p Req: "tune-" plus the content address of
  /// the search's determinism envelope (workload spec, mode, budget,
  /// seed, sampling knobs, warm-start flag).
  static std::string tuneKeyFor(const TuneRequest &Req);

  CompileResponse compile(const CompileRequest &Req);

  /// Drains \p Reqs through parallelFor on workers() threads, the caller
  /// included. Responses are positionally aligned with \p Reqs.
  std::vector<CompileResponse> compileBatch(
      const std::vector<CompileRequest> &Reqs);

  TuneResponse tune(const TuneRequest &Req);

  /// Effective batch worker count (resolves the 0 = auto rule).
  unsigned workers() const;

  ServiceStats stats() const;
  /// The --cache-stats text: one aligned line per counter.
  std::string statsReport() const;

private:
  /// A compile artifact: the sections its key's shape names, text and/or
  /// program.
  struct MemEntry {
    std::string TransformedSource;
    std::shared_ptr<const VmProgram> Program;
  };
  /// A memory-tier entry's use since the disk tier last heard of it: the
  /// disk tier's LRU must see memory hits, or it evicts the hottest
  /// artifacts first.
  struct UseMark {
    uint64_t LastUse = 0;     ///< UseClock at the latest memory hit.
    bool UsePending = false;  ///< In PendingUses, not yet handed over.
  };
  template <class T> struct Slot : UseMark {
    T Value;
  };
  template <class T> using MemoryTier = std::map<std::string, Slot<T>>;
  /// A queued memory hit: the entry's key and its mark.
  using PendingUse = std::pair<const std::string *, UseMark *>;
  /// The ServiceStats counters a memoize() caller bumps.
  struct Counters {
    uint64_t ServiceStats::*Requests;
    uint64_t ServiceStats::*MemoryHits;
    uint64_t ServiceStats::*DiskHits;
    uint64_t ServiceStats::*Misses; ///< Null: misses are not counted.
  };

  /// The one memoize body of compile() and tune(): memory probe,
  /// single-flight wait, disk probe (a blob \p Decode rejects is
  /// discarded and counted corrupt), \p Compute, disk store of
  /// \p Encode's bytes, publish. Returns where \p Out came from, or
  /// nullopt with \p Error when \p Compute failed; failures are not
  /// memoized.
  template <class T, class DecodeFn, class ComputeFn, class EncodeFn>
  std::optional<CacheOutcome> memoize(const std::string &Key,
                                      MemoryTier<T> &Tier, const Counters &C,
                                      T &Out, std::string &Error,
                                      DecodeFn Decode, ComputeFn Compute,
                                      EncodeFn Encode);
  /// Artifact container encode/decode (wraps BytecodeIO for the image).
  /// \p Shape is the key's section flags; decoding rejects a blob whose
  /// sections differ.
  static std::string encodeArtifact(const MemEntry &E, uint32_t Shape);
  static bool decodeArtifact(std::string_view Blob, uint32_t Shape,
                             MemEntry &Out, std::string &Error);
  /// Under Lock: records a memory hit on the entry \p Key. No allocation
  /// (see PendingUses) and no system call.
  void noteMemoryUse(const std::string &Key, UseMark &Use);
  /// Under Lock, after adding a memory-tier entry: keeps PendingUses'
  /// capacity at least the number of entries.
  void reservePendingUses();
  /// Under Lock: the keys of the memory hits not yet handed to the disk
  /// tier, in use order; clears them.
  std::vector<std::string> takeMemoryUses();

  ServiceConfig Config;
  ArtifactCache Disk;

  mutable std::mutex Lock;
  std::condition_variable KeyDone;
  MemoryTier<MemEntry> Memory;
  MemoryTier<EmpiricalTuneResult> TuneMemory;
  /// Compile and tune slots hit since the last hand-over, each once. Its
  /// capacity is kept at least Memory.size() + TuneMemory.size(), so
  /// recording a hit never allocates.
  std::vector<PendingUse> PendingUses;
  uint64_t UseClock = 0;
  std::set<std::string> InFlight;
  ServiceStats Stats;
};

//===----------------------------------------------------------------------===//
// Request-list files (`dpoptcc --serve=FILE`)
//===----------------------------------------------------------------------===//

/// One parsed line of a --serve request file.
struct ServeRequest {
  enum Kind { Compile, Tune } Kind = Compile;
  // Compile fields.
  std::string SourcePath;
  std::string Pipeline;
  std::string OutputPath; ///< Empty = don't write the transformed source.
  bool WantBytecode = false;
  // Tune fields.
  std::string WorkloadSpec;
  TuneMode Mode = TuneMode::Hybrid;
  unsigned Budget = 48;
  unsigned Seed = 1;
  bool WarmStart = false;
  std::string TuneReportPath;
  unsigned Line = 0; ///< 1-based source line, for diagnostics.
};

/// Parses the line-based --serve request format:
///
///   # comment / blank lines ignored
///   compile src=FILE [passes=PIPELINE] [bytecode=1] [out=FILE]
///   tune workload=SPEC [mode=analytic|empirical|hybrid] [budget=N]
///        [seed=N] [warm=1] [out=FILE]
///
/// Returns false with \p Error naming the offending line.
bool parseServeRequests(std::string_view Text,
                        std::vector<ServeRequest> &Out, std::string &Error);

} // namespace dpo

#endif // DPO_SERVICE_COMPILESERVICE_H
