//===--- CompileService.cpp - Persistent compile+tune session layer -------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "service/ContentKey.h"
#include "support/StringUtils.h"
#include "transform/Pipeline.h"
#include "tuner/TunedTable.h"
#include "vm/BytecodeIO.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

using namespace dpo;

//===----------------------------------------------------------------------===//
// Configuration
//===----------------------------------------------------------------------===//

ServiceConfig dpo::serviceConfigFromEnv() {
  ServiceConfig C;
  if (const char *Dir = std::getenv("DPO_CACHE_DIR"))
    C.CacheDir = Dir;
  uint64_t Max = 0;
  if (const char *E = std::getenv("DPO_CACHE_MAX_BYTES");
      E && parseU64(E, Max) && Max > 0)
    C.CacheMaxBytes = Max;
  return C;
}

unsigned CompileService::workers() const {
  if (Config.Workers)
    return Config.Workers;
  unsigned Parsed = 0;
  if (const char *W = std::getenv("DPO_SERVICE_WORKERS");
      W && parsePositiveU32(W, Parsed) == ParseUIntStatus::Ok)
    return Parsed;
  unsigned HW = std::thread::hardware_concurrency();
  return std::max(1u, std::min(HW, 8u));
}

CompileService::CompileService(ServiceConfig ConfigIn)
    : Config(std::move(ConfigIn)),
      Disk(Config.CacheDir, Config.CacheMaxBytes) {}

CompileService::~CompileService() {
  // Persist the memory tier's recency, so the next instance over this
  // directory evicts what this one used least.
  std::vector<std::string> Uses;
  {
    std::lock_guard<std::mutex> G(Lock);
    Uses = takeMemoryUses();
  }
  Disk.touch(Uses);
}

void CompileService::noteMemoryUse(const std::string &Key, UseMark &Use) {
  Use.LastUse = ++UseClock;
  if (Use.UsePending)
    return;
  Use.UsePending = true;
  PendingUses.emplace_back(&Key, &Use);
}

void CompileService::reservePendingUses() {
  size_t Entries = Memory.size() + TuneMemory.size();
  if (PendingUses.capacity() < Entries)
    PendingUses.reserve(2 * Entries);
}

std::vector<std::string> CompileService::takeMemoryUses() {
  std::sort(PendingUses.begin(), PendingUses.end(),
            [](const PendingUse &A, const PendingUse &B) {
              return A.second->LastUse < B.second->LastUse;
            });
  std::vector<std::string> Keys;
  Keys.reserve(PendingUses.size());
  for (const auto &[Key, Use] : PendingUses) {
    Use->UsePending = false;
    Keys.push_back(*Key);
  }
  PendingUses.clear();
  return Keys;
}

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

namespace {

std::string workloadSpecOf(const TuneRequest &Req) {
  return Req.WorkloadSpec.empty() ? std::string("canonical")
                                  : Req.WorkloadSpec;
}

} // namespace

std::string CompileService::cacheKeyFor(const CompileRequest &Req,
                                        std::string &Error) {
  std::string Canonical;
  if (!canonicalPipelineText(Req.Pipeline, Req.Knobs, Canonical, Error))
    return std::string();

  // Keyed material: everything that can change the artifact's bytes.
  // Versions are included so a format bump is a clean cache miss, not a
  // poisoned load.
  static const std::string Versions =
      "artifact-v" + std::to_string(ArtifactFormatVersion) + "|bytecode-v" +
      std::to_string(BytecodeFormatVersion);
  return contentKey({Versions, Req.OptimizeBytecode ? "opt=1" : "opt=0",
                     Canonical, knobSignature(Req.Knobs), Req.Source});
}

std::string CompileService::tuneKeyFor(const TuneRequest &Req) {
  // The full determinism envelope of a search.
  std::string Params = "mode=" + std::string(tuneModeName(Req.Mode));
  Params += "|budget=" + std::to_string(Req.Opts.Budget);
  Params += "|seed=" + std::to_string(Req.Opts.Seed);
  Params += "|batches=" + std::to_string(Req.Opts.SampleBatches);
  Params += "|units=" + std::to_string(Req.Opts.MaxSampleUnits);
  Params += "|warm=";
  Params += Req.WarmStart ? '1' : '0';
  return contentKey({workloadSpecOf(Req), Params}, "tune-");
}

//===----------------------------------------------------------------------===//
// Artifact container: "DPOA" + versions + optional transformed source +
// optional bytecode image (BytecodeIO's own framed format) + trailing
// checksum.
//===----------------------------------------------------------------------===//

namespace {

const char ArtifactMagic[4] = {'D', 'P', 'O', 'A'};
/// Artifact flags.
constexpr uint32_t HasImage = 1u, HasText = 2u;

/// Appends the \p N low bytes of \p V, little-endian, in one append.
template <int N> void putLE(std::string &S, uint64_t V) {
  char Bytes[N];
  for (int I = 0; I < N; ++I)
    Bytes[I] = (char)((V >> (8 * I)) & 0xff);
  S.append(Bytes, N);
}

void putU32(std::string &S, uint32_t V) { putLE<4>(S, V); }
void putU64(std::string &S, uint64_t V) { putLE<8>(S, V); }

bool getU32(std::string_view S, size_t &Pos, uint32_t &V) {
  if (Pos + 4 > S.size())
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= (uint32_t)(uint8_t)S[Pos + I] << (8 * I);
  Pos += 4;
  return true;
}

bool getU64(std::string_view S, size_t &Pos, uint64_t &V) {
  if (Pos + 8 > S.size())
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= (uint64_t)(uint8_t)S[Pos + I] << (8 * I);
  Pos += 8;
  return true;
}

} // namespace

std::string CompileService::encodeArtifact(const MemEntry &E) {
  std::string Image = E.Program ? serializeVmProgram(*E.Program) : "";
  const std::string *Text =
      E.TransformedSource ? &*E.TransformedSource : nullptr;
  std::string Blob;
  Blob.reserve(sizeof(ArtifactMagic) + 4 + 4 + 8 + (Text ? Text->size() : 0) +
               8 + Image.size() + 8);
  Blob.append(ArtifactMagic, sizeof(ArtifactMagic));
  putU32(Blob, ArtifactFormatVersion);
  putU32(Blob, (E.Program ? HasImage : 0u) | (Text ? HasText : 0u));
  if (Text) {
    putU64(Blob, Text->size());
    Blob += *Text;
  }
  if (E.Program)
    putU64(Blob, Image.size());
  // One checksum pass per byte: the trailer covers everything but the
  // image payload, which the image header's own checksum covers.
  uint64_t Checksum = fnv1a64(Blob);
  if (E.Program) {
    Checksum = fnv1a64(std::string_view(Image).substr(0, VmImageHeaderBytes),
                       Checksum);
    Blob += Image;
  }
  putU64(Blob, Checksum);
  return Blob;
}

bool CompileService::decodeArtifact(std::string_view Blob, MemEntry &Out,
                                    std::string &Error) {
  if (Blob.size() < sizeof(ArtifactMagic) + 8 ||
      std::memcmp(Blob.data(), ArtifactMagic, sizeof(ArtifactMagic)) != 0) {
    Error = "not a dpopt artifact (bad magic)";
    return false;
  }
  size_t Body = Blob.size() - 8;
  std::string_view Head = Blob.substr(0, Body);
  size_t Pos = sizeof(ArtifactMagic);
  uint32_t Version = 0, Flags = 0;
  if (!getU32(Head, Pos, Version) || !getU32(Head, Pos, Flags)) {
    Error = "truncated artifact header";
    return false;
  }
  if (Version != ArtifactFormatVersion) {
    Error = "artifact format version " + std::to_string(Version) +
            " (expected " + std::to_string(ArtifactFormatVersion) + ")";
    return false;
  }
  if (Flags & ~(HasImage | HasText)) {
    Error = "unknown artifact flags";
    return false;
  }
  std::string_view Text, Image;
  uint64_t Len = 0;
  if (Flags & HasText) {
    if (!getU64(Head, Pos, Len) || Len > Body - Pos) {
      Error = "truncated artifact source";
      return false;
    }
    Text = Head.substr(Pos, Len);
    Pos += Len;
  }
  if (Flags & HasImage) {
    if (!getU64(Head, Pos, Len) || Len > Body - Pos) {
      Error = "truncated artifact image";
      return false;
    }
    Image = Head.substr(Pos, Len);
    Pos += Len;
  }
  if (Pos != Body) {
    Error = "trailing bytes in artifact";
    return false;
  }
  // The trailer covers every byte before it except the image payload,
  // which deserializeVmProgram checks against the image's own checksum.
  size_t Covered = Body - Image.size() +
                   std::min<size_t>(Image.size(), VmImageHeaderBytes);
  uint64_t Checksum = 0;
  Pos = Body;
  getU64(Blob, Pos, Checksum);
  if (fnv1a64(Blob.substr(0, Covered)) != Checksum) {
    Error = "artifact checksum mismatch (corrupt or truncated)";
    return false;
  }
  MemEntry E;
  if (Flags & HasText)
    E.TransformedSource = std::string(Text);
  if (Flags & HasImage) {
    VmProgram Program;
    if (!deserializeVmProgram(Image, Program, Error))
      return false;
    E.Program = std::make_shared<const VmProgram>(std::move(Program));
  }
  Out = std::move(E);
  return true;
}

//===----------------------------------------------------------------------===//
// Compile path
//===----------------------------------------------------------------------===//

namespace {

/// Whether \p Req gets text: when it asks, or when it wants no bytecode.
bool wantsText(const CompileRequest &Req) {
  return Req.WantText || !Req.WantBytecode;
}

} // namespace

bool CompileService::completeEntry(const CompileRequest &Req, MemEntry &E,
                                   bool &Changed, std::string &Error) const {
  bool NeedText = wantsText(Req) && !E.TransformedSource;
  bool NeedProgram = Req.WantBytecode && !E.Program;
  Changed = NeedText || NeedProgram;
  DiagnosticEngine Diags;
  if (NeedProgram) {
    VmCompileOptions Opts;
    Opts.OptimizeBytecode = Req.OptimizeBytecode;
    std::string Printed;
    // An entry with text skips the transform: its text lowers with no
    // passes left to run.
    std::optional<VmProgram> Program =
        E.TransformedSource
            ? compileWithPipeline(*E.TransformedSource, "", Req.Knobs, Opts,
                                  Diags)
            : compileWithPipeline(Req.Source, Req.Pipeline, Req.Knobs, Opts,
                                  Diags, NeedText ? &Printed : nullptr);
    if (!Program) {
      Error = "compile of pipeline '" + Req.Pipeline + "' failed: " +
              Diags.str();
      return false;
    }
    E.Program = std::make_shared<const VmProgram>(std::move(*Program));
    if (NeedText)
      E.TransformedSource = std::move(Printed);
    return true;
  }
  if (!NeedText)
    return true;
  if (Req.Pipeline.empty()) {
    E.TransformedSource = Req.Source;
    return true;
  }
  std::string Text =
      transformSourceWithPipeline(Req.Source, Req.Pipeline, Req.Knobs, Diags);
  if (Text.empty()) {
    Error = "pipeline '" + Req.Pipeline + "' failed: " + Diags.str();
    return false;
  }
  E.TransformedSource = std::move(Text);
  return true;
}

CompileResponse CompileService::compile(const CompileRequest &Req) {
  CompileResponse Resp;
  std::string KeyError;
  Resp.Key = cacheKeyFor(Req, KeyError);
  if (Resp.Key.empty()) {
    Resp.Error = "invalid pass pipeline: " + KeyError;
    std::lock_guard<std::mutex> G(Lock);
    ++Stats.Requests;
    return Resp;
  }

  bool WantText = wantsText(Req);
  auto Serves = [&](const MemEntry &E) {
    return (!WantText || E.TransformedSource) &&
           (!Req.WantBytecode || E.Program);
  };
  auto Respond = [&](const MemEntry &E, CacheOutcome Outcome) {
    Resp.Ok = true;
    Resp.Outcome = Outcome;
    if (WantText)
      Resp.TransformedSource = *E.TransformedSource;
    Resp.Program = E.Program;
  };

  // Fast path + single flight: under the lock, either serve the memory
  // entry, or wait for the in-flight compile of this key, or claim it.
  std::vector<std::string> MemoryUses;
  {
    std::unique_lock<std::mutex> G(Lock);
    ++Stats.Requests;
    while (true) {
      auto It = Memory.find(Resp.Key);
      if (It != Memory.end() && Serves(It->second.Entry)) {
        ++Stats.MemoryHits;
        if (Disk.enabled())
          noteMemoryUse(It->first, It->second);
        Respond(It->second.Entry, CacheOutcome::MemoryHit);
        return Resp;
      }
      // An entry lacking the text or program this request wants falls
      // through and is completed below, reusing what it has.
      if (!InFlight.count(Resp.Key))
        break;
      KeyDone.wait(G);
    }
    InFlight.insert(Resp.Key);
    MemoryUses = takeMemoryUses();
  }

  // Slow path, no locks: hand the memory hits so far to the disk tier
  // (before its next eviction decision), disk probe, then compile what
  // the request wants and no layer has.
  Disk.touch(MemoryUses);
  MemEntry Entry;
  bool FromDisk = false;
  bool Corrupt = false;
  std::string DiskBlob;
  if (Disk.load(Resp.Key, DiskBlob)) {
    std::string DecodeError;
    if (decodeArtifact(DiskBlob, Entry, DecodeError)) {
      FromDisk = true;
    } else {
      // Corruption-safe load: diagnose, drop the poisoned blob, and
      // recompile from source. Never abort, never serve bad bytes.
      std::fprintf(stderr,
                   "dpopt-service: discarding cached artifact %s: %s\n",
                   Resp.Key.c_str(), DecodeError.c_str());
      Disk.remove(Resp.Key);
      Corrupt = true;
    }
  }

  // A memory entry may hold the half the disk artifact lacks (or the disk
  // none at all): the text of a text request, or the program of a
  // bytecode request. Reuse it.
  bool FromMemory = false;
  if (!Serves(Entry)) {
    std::lock_guard<std::mutex> G(Lock);
    auto It = Memory.find(Resp.Key);
    if (It != Memory.end()) {
      const MemEntry &Held = It->second.Entry;
      if (!Entry.TransformedSource && Held.TransformedSource) {
        Entry.TransformedSource = Held.TransformedSource;
        FromMemory = true;
      }
      if (!Entry.Program && Held.Program) {
        Entry.Program = Held.Program;
        FromMemory = true;
      }
    }
  }

  bool Changed = false;
  std::string CompileError;
  bool Ok = completeEntry(Req, Entry, Changed, CompileError);

  // Persist anything the disk artifact lacks, so the next process starts
  // warm.
  if (Ok && (!FromDisk || FromMemory || Changed))
    Disk.store(Resp.Key, encodeArtifact(Entry));

  CacheOutcome Outcome = FromDisk     ? CacheOutcome::DiskHit
                         : FromMemory ? CacheOutcome::MemoryHit
                                      : CacheOutcome::Miss;
  {
    std::lock_guard<std::mutex> G(Lock);
    if (Ok) {
      Memory[Resp.Key].Entry = Entry;
      reservePendingUses();
    }
    if (!Ok || Outcome == CacheOutcome::Miss)
      ++Stats.Misses;
    else if (Outcome == CacheOutcome::DiskHit)
      ++Stats.DiskHits;
    else
      ++Stats.MemoryHits; // half the entry reused; only the rest ran
    if (Corrupt)
      ++Stats.CorruptArtifacts;
    InFlight.erase(Resp.Key);
    KeyDone.notify_all();
  }

  if (!Ok) {
    Resp.Error = CompileError;
    return Resp;
  }
  Respond(Entry, Outcome);
  return Resp;
}

std::vector<CompileResponse>
CompileService::compileBatch(const std::vector<CompileRequest> &Reqs) {
  std::vector<CompileResponse> Out(Reqs.size());
  unsigned N = std::min<unsigned>(workers(), (unsigned)Reqs.size());
  if (N <= 1) {
    for (size_t I = 0; I < Reqs.size(); ++I)
      Out[I] = compile(Reqs[I]);
    return Out;
  }
  // Atomic work-claiming drain: responses land positionally, so the
  // result order — and every per-key artifact, via the single-flight
  // compile path — is deterministic at any worker count.
  std::atomic<size_t> Next{0};
  auto Work = [&]() {
    while (true) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Reqs.size())
        return;
      Out[I] = compile(Reqs[I]);
    }
  };
  std::vector<std::thread> Pool;
  Pool.reserve(N);
  for (unsigned T = 0; T < N; ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

//===----------------------------------------------------------------------===//
// Tune path
//===----------------------------------------------------------------------===//

namespace {

/// Tune results cache as a small key=value text blob (stored through the
/// same ArtifactCache, under a "tune-" prefixed key).
std::string encodeTuneResult(const EmpiricalTuneResult &R) {
  std::ostringstream S;
  S << "dpo-tune-result v1\n";
  S << "mode " << tuneModeName(R.Mode) << '\n';
  S << "pipeline " << R.Pipeline << '\n';
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", R.TimeUs);
  S << "timeus " << Buf << '\n';
  S << "evals " << R.VmEvaluations << '\n';
  S << "simprobes " << R.SimProbes << '\n';
  return S.str();
}

bool decodeTuneResult(std::string_view Text, EmpiricalTuneResult &R,
                      std::string &Error) {
  std::istringstream S{std::string(Text)};
  std::string Line;
  if (!std::getline(S, Line) || Line != "dpo-tune-result v1") {
    Error = "bad tune-result header";
    return false;
  }
  EmpiricalTuneResult Out;
  bool SawMode = false, SawPipeline = false;
  while (std::getline(S, Line)) {
    if (Line.empty())
      continue;
    size_t Space = Line.find(' ');
    std::string Key = Line.substr(0, Space);
    std::string Value =
        Space == std::string::npos ? std::string() : Line.substr(Space + 1);
    if (Key == "mode") {
      if (!parseTuneMode(Value, Out.Mode)) {
        Error = "bad tune mode '" + Value + "'";
        return false;
      }
      SawMode = true;
    } else if (Key == "pipeline") {
      Out.Pipeline = Value;
      SawPipeline = true;
    } else if (Key == "timeus") {
      Out.TimeUs = std::strtod(Value.c_str(), nullptr);
    } else if (Key == "evals") {
      Out.VmEvaluations = (unsigned)std::strtoul(Value.c_str(), nullptr, 10);
    } else if (Key == "simprobes") {
      Out.SimProbes = (unsigned)std::strtoul(Value.c_str(), nullptr, 10);
    } // unknown keys: forward compatibility
  }
  if (!SawMode || !SawPipeline) {
    Error = "tune result missing mode/pipeline";
    return false;
  }
  if (!execConfigFromPipelineText(Out.Pipeline, Out.Config)) {
    Error = "tune result pipeline outside ExecConfig vocabulary";
    return false;
  }
  R = std::move(Out);
  return true;
}

} // namespace

TuneResponse CompileService::tune(const TuneRequest &Req) {
  TuneResponse Resp;
  std::string Spec = workloadSpecOf(Req);
  Resp.Key = tuneKeyFor(Req);

  std::vector<std::string> MemoryUses;
  {
    // Single-flight, sharing the compile path's machinery (the "tune-"
    // key prefix keeps the namespaces disjoint): concurrent identical
    // tune requests run the search once; the rest wait and reuse it.
    std::unique_lock<std::mutex> G(Lock);
    ++Stats.TuneRequests;
    while (true) {
      auto It = TuneMemory.find(Resp.Key);
      if (It != TuneMemory.end()) {
        ++Stats.TuneCacheHits;
        if (Disk.enabled())
          noteMemoryUse(It->first, It->second);
        TuneResponse Cached = It->second.Response;
        Cached.Key = Resp.Key;
        Cached.CacheHit = true;
        return Cached;
      }
      if (!InFlight.count(Resp.Key)) {
        InFlight.insert(Resp.Key);
        MemoryUses = takeMemoryUses();
        break;
      }
      KeyDone.wait(G);
    }
  }
  Disk.touch(MemoryUses);
  // From here on every exit must release the in-flight claim.
  auto Release = [&]() {
    std::lock_guard<std::mutex> G(Lock);
    InFlight.erase(Resp.Key);
    KeyDone.notify_all();
  };
  std::string DiskBlob;
  if (Disk.load(Resp.Key, DiskBlob)) {
    std::string DecodeError;
    EmpiricalTuneResult Cached;
    if (decodeTuneResult(DiskBlob, Cached, DecodeError)) {
      Resp.Ok = true;
      Resp.CacheHit = true;
      Resp.Result = std::move(Cached);
      std::lock_guard<std::mutex> G(Lock);
      ++Stats.TuneCacheHits;
      TuneResponse Memo = Resp;
      Memo.CacheHit = false; // memory hits re-mark on the way out
      TuneMemory[Resp.Key].Response = Memo;
      reservePendingUses();
      InFlight.erase(Resp.Key);
      KeyDone.notify_all();
      return Resp;
    }
    std::fprintf(stderr,
                 "dpopt-service: discarding cached tune result %s: %s\n",
                 Resp.Key.c_str(), DecodeError.c_str());
    Disk.remove(Resp.Key);
    std::lock_guard<std::mutex> G(Lock);
    ++Stats.CorruptArtifacts;
  }

  // Cold search. Resolve the workload.
  VmWorkload Workload;
  if (Spec == "canonical") {
    Workload = canonicalTuneWorkload(Req.Opts.Seed);
  } else {
    BenchCase Case;
    std::string SpecError;
    if (!parseWorkloadSpec(Spec, Case, SpecError)) {
      Resp.Error = "bad workload spec '" + Spec + "': " + SpecError;
      Release(); // errors are not memoized: a retry gets a fresh attempt
      return Resp;
    }
    Workload = kernelVmWorkload(Case);
  }

  EmpiricalOptions Opts = Req.Opts;
  if (Req.WarmStart && !Config.TunedTableDir.empty() &&
      Req.Mode != TuneMode::Analytic) {
    // Seed the search from the committed tuned table for this workload,
    // when one exists and its pipeline is ExecConfig-representable.
    std::string TablePath =
        (std::filesystem::path(Config.TunedTableDir) / tunedTableFileName(Spec))
            .string();
    TunedEntry Entry;
    std::string LoadError;
    ExecConfig Seed;
    if (loadTunedEntryFile(TablePath, Entry, LoadError) &&
        execConfigFromPipelineText(Entry.Pipeline, Seed)) {
      Opts.WarmStart = Seed;
      std::lock_guard<std::mutex> G(Lock);
      ++Stats.TuneWarmStarts;
    }
  }

  GpuModel Gpu;
  VariantMask Full;
  Full.Thresholding = Full.Coarsening = Full.Aggregation = true;
  Resp.Result = tuneWorkload(Req.Mode, Gpu, Workload, Full, Opts);
  Resp.Ok = true;

  Disk.store(Resp.Key, encodeTuneResult(Resp.Result));
  {
    std::lock_guard<std::mutex> G(Lock);
    TuneMemory[Resp.Key].Response = Resp;
    reservePendingUses();
    InFlight.erase(Resp.Key);
    KeyDone.notify_all();
  }
  return Resp;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServiceStats CompileService::stats() const {
  ServiceStats S;
  {
    std::lock_guard<std::mutex> G(Lock);
    S = Stats;
  }
  ArtifactCacheStats D = Disk.stats();
  S.DiskStores = D.Stores;
  S.Evictions = D.Evictions;
  S.ResidentBytes = D.ResidentBytes;
  return S;
}

std::string CompileService::statsReport() const {
  ServiceStats S = stats();
  std::ostringstream Out;
  Out << "cache stats:\n";
  Out << "  requests          " << S.Requests << '\n';
  Out << "  memory hits       " << S.MemoryHits << '\n';
  Out << "  disk hits         " << S.DiskHits << '\n';
  Out << "  misses            " << S.Misses << '\n';
  Out << "  corrupt artifacts " << S.CorruptArtifacts << '\n';
  Out << "  disk stores       " << S.DiskStores << '\n';
  Out << "  evictions         " << S.Evictions << '\n';
  Out << "  resident bytes    " << S.ResidentBytes << '\n';
  Out << "  tune requests     " << S.TuneRequests << '\n';
  Out << "  tune cache hits   " << S.TuneCacheHits << '\n';
  Out << "  tune warm starts  " << S.TuneWarmStarts << '\n';
  return Out.str();
}

//===----------------------------------------------------------------------===//
// --serve request files
//===----------------------------------------------------------------------===//

bool dpo::parseServeRequests(std::string_view Text,
                             std::vector<ServeRequest> &Out,
                             std::string &Error) {
  std::istringstream In{std::string(Text)};
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    // Trim + skip comments/blanks.
    size_t Begin = Line.find_first_not_of(" \t\r");
    if (Begin == std::string::npos || Line[Begin] == '#')
      continue;
    size_t Last = Line.find_last_not_of(" \t\r");
    std::string Body = Line.substr(Begin, Last - Begin + 1);

    std::istringstream Fields(Body);
    std::string Verb;
    Fields >> Verb;
    ServeRequest R;
    R.Line = LineNo;

    auto Fail = [&](const std::string &Why) {
      Error = "line " + std::to_string(LineNo) + ": " + Why;
      return false;
    };

    if (Verb == "compile")
      R.Kind = ServeRequest::Compile;
    else if (Verb == "tune")
      R.Kind = ServeRequest::Tune;
    else
      return Fail("unknown verb '" + Verb + "' (expected compile or tune)");

    std::string Field;
    while (Fields >> Field) {
      size_t Eq = Field.find('=');
      if (Eq == std::string::npos)
        return Fail("malformed field '" + Field + "' (expected key=value)");
      std::string Key = Field.substr(0, Eq);
      std::string Value = Field.substr(Eq + 1);
      if (R.Kind == ServeRequest::Compile) {
        if (Key == "src")
          R.SourcePath = Value;
        else if (Key == "passes")
          R.Pipeline = Value;
        else if (Key == "out")
          R.OutputPath = Value;
        else if (Key == "bytecode")
          R.WantBytecode = Value == "1" || Value == "true";
        else
          return Fail("unknown compile field '" + Key + "'");
      } else {
        if (Key == "workload")
          R.WorkloadSpec = Value;
        else if (Key == "mode") {
          if (!parseTuneMode(Value, R.Mode))
            return Fail("unknown tune mode '" + Value + "'");
        } else if (Key == "budget") {
          if (parsePositiveU32(Value, R.Budget) != ParseUIntStatus::Ok)
            return Fail("bad budget '" + Value + "'");
        } else if (Key == "seed") {
          if (parsePositiveU32(Value, R.Seed) != ParseUIntStatus::Ok)
            return Fail("bad seed '" + Value + "'");
        } else if (Key == "warm")
          R.WarmStart = Value == "1" || Value == "true";
        else if (Key == "out")
          R.TuneReportPath = Value;
        else
          return Fail("unknown tune field '" + Key + "'");
      }
    }
    if (R.Kind == ServeRequest::Compile && R.SourcePath.empty())
      return Fail("compile requires src=FILE");
    if (R.Kind == ServeRequest::Tune && R.WorkloadSpec.empty())
      return Fail("tune requires workload=SPEC");
    Out.push_back(std::move(R));
  }
  return true;
}
