//===--- CompileService.cpp - Persistent compile+tune session layer -------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "service/ContentKey.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "transform/Pipeline.h"
#include "tuner/TunedTable.h"
#include "vm/BytecodeIO.h"
#include "workloads/KernelSources.h"
#include "workloads/VmWorkload.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>

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
  return resolveWorkers(Config.Workers, "DPO_SERVICE_WORKERS",
                        hardwareWorkers());
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

/// Artifact sections, as the container's flags word spells them. A
/// request's shape is the set it gets.
constexpr uint32_t HasImage = 1u, HasText = 2u;

/// The sections \p Req gets: text when it asks or wants no bytecode, the
/// image when it wants bytecode.
uint32_t shapeOf(const CompileRequest &Req) {
  return (Req.WantBytecode ? HasImage : 0u) |
         (Req.WantText || !Req.WantBytecode ? HasText : 0u);
}

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
  // poisoned load. The flag field names the artifact's shape and, when
  // it holds an image, the peephole flag; text alone does not depend on
  // the peephole.
  static const std::string Versions =
      "artifact-v" + std::to_string(ArtifactFormatVersion) + "|bytecode-v" +
      std::to_string(BytecodeFormatVersion);
  static constexpr std::string_view Flags[2][4] = {
      {"", "opt=0|image", "text", "opt=0|image+text"},
      {"", "opt=1|image", "text", "opt=1|image+text"}};
  return contentKey({Versions, Flags[Req.OptimizeBytecode][shapeOf(Req)],
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
// Artifact container: "DPOA" + versions + the key's sections (transformed
// source, bytecode image in BytecodeIO's own framed format) + trailing
// checksum.
//===----------------------------------------------------------------------===//

namespace {

const char ArtifactMagic[4] = {'D', 'P', 'O', 'A'};

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

std::string CompileService::encodeArtifact(const MemEntry &E, uint32_t Shape) {
  std::string Image = Shape & HasImage ? serializeVmProgram(*E.Program) : "";
  size_t TextBytes = Shape & HasText ? E.TransformedSource.size() : 0;
  std::string Blob;
  Blob.reserve(sizeof(ArtifactMagic) + 4 + 4 + 8 + TextBytes + 8 +
               Image.size() + 8);
  Blob.append(ArtifactMagic, sizeof(ArtifactMagic));
  putU32(Blob, ArtifactFormatVersion);
  putU32(Blob, Shape);
  if (Shape & HasText) {
    putU64(Blob, TextBytes);
    Blob += E.TransformedSource;
  }
  if (Shape & HasImage)
    putU64(Blob, Image.size());
  // One checksum pass per byte: the trailer covers everything but the
  // image payload, which the image header's own checksum covers.
  uint64_t Checksum = fnv1a64(Blob);
  if (Shape & HasImage) {
    Checksum = fnv1a64(std::string_view(Image).substr(0, VmImageHeaderBytes),
                       Checksum);
    Blob += Image;
  }
  putU64(Blob, Checksum);
  return Blob;
}

bool CompileService::decodeArtifact(std::string_view Blob, uint32_t Shape,
                                    MemEntry &Out, std::string &Error) {
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
  if (Flags != Shape) {
    Error = "artifact sections do not match its key";
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
  E.TransformedSource = Text;
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
// The memoize body
//===----------------------------------------------------------------------===//

template <class T, class DecodeFn, class ComputeFn, class EncodeFn>
std::optional<CacheOutcome>
CompileService::memoize(const std::string &Key, MemoryTier<T> &Tier,
                        const Counters &C, T &Out, std::string &Error,
                        DecodeFn Decode, ComputeFn Compute, EncodeFn Encode) {
  // Fast path + single flight: under the lock, either serve the memory
  // entry, or wait for the in-flight computation of this key, or claim it.
  std::vector<std::string> MemoryUses;
  {
    std::unique_lock<std::mutex> G(Lock);
    ++(Stats.*C.Requests);
    while (true) {
      auto It = Tier.find(Key);
      if (It != Tier.end()) {
        ++(Stats.*C.MemoryHits);
        if (Disk.enabled())
          noteMemoryUse(It->first, It->second);
        Out = It->second.Value;
        return CacheOutcome::MemoryHit;
      }
      if (InFlight.insert(Key).second)
        break;
      KeyDone.wait(G);
    }
    MemoryUses = takeMemoryUses();
  }

  // Slow path, no locks: hand the memory hits so far to the disk tier
  // (before its next eviction decision), disk probe, then compute.
  Disk.touch(MemoryUses);
  CacheOutcome Outcome = CacheOutcome::Miss;
  bool Corrupt = false;
  std::string Blob;
  if (Disk.load(Key, Blob)) {
    std::string DecodeError;
    if (Decode(std::string_view(Blob), Out, DecodeError)) {
      Outcome = CacheOutcome::DiskHit;
    } else {
      // Corruption-safe load: diagnose, drop the poisoned blob, and
      // compute afresh. Never abort, never serve bad bytes.
      std::fprintf(stderr,
                   "dpopt-service: discarding cached artifact %s: %s\n",
                   Key.c_str(), DecodeError.c_str());
      Disk.remove(Key);
      Corrupt = true;
    }
  }
  bool Ok = Outcome == CacheOutcome::DiskHit || Compute(Out, Error);
  // Persist a fresh result, so the next process starts warm.
  if (Ok && Outcome == CacheOutcome::Miss)
    Disk.store(Key, Encode(Out));

  {
    std::lock_guard<std::mutex> G(Lock);
    if (Ok) {
      Tier[Key].Value = Out;
      reservePendingUses();
    }
    if (Outcome == CacheOutcome::DiskHit)
      ++(Stats.*C.DiskHits);
    else if (C.Misses)
      ++(Stats.*C.Misses);
    if (Corrupt)
      ++Stats.CorruptArtifacts;
    InFlight.erase(Key);
    KeyDone.notify_all();
  }
  if (!Ok)
    return std::nullopt;
  return Outcome;
}

//===----------------------------------------------------------------------===//
// Compile path
//===----------------------------------------------------------------------===//

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

  const uint32_t Shape = shapeOf(Req);
  auto Decode = [&](std::string_view Blob, MemEntry &E, std::string &Why) {
    return decodeArtifact(Blob, Shape, E, Why);
  };
  // A miss builds the key's sections in one pass: a text-only request
  // transforms and prints, any other compiles, printing only when it
  // wants the text.
  auto Compute = [&](MemEntry &E, std::string &Error) {
    DiagnosticEngine Diags;
    if (!(Shape & HasImage)) {
      if (Req.Pipeline.empty()) {
        E.TransformedSource = Req.Source;
        return true;
      }
      E.TransformedSource = transformSourceWithPipeline(
          Req.Source, Req.Pipeline, Req.Knobs, Diags);
      if (E.TransformedSource.empty())
        Error = "pipeline '" + Req.Pipeline + "' failed: " + Diags.str();
      return !E.TransformedSource.empty();
    }
    VmCompileOptions Opts;
    Opts.OptimizeBytecode = Req.OptimizeBytecode;
    std::optional<VmProgram> Program = compileWithPipeline(
        Req.Source, Req.Pipeline, Req.Knobs, Opts, Diags,
        Shape & HasText ? &E.TransformedSource : nullptr);
    if (!Program) {
      Error = "compile of pipeline '" + Req.Pipeline + "' failed: " +
              Diags.str();
      return false;
    }
    E.Program = std::make_shared<const VmProgram>(std::move(*Program));
    return true;
  };
  auto Encode = [&](const MemEntry &E) { return encodeArtifact(E, Shape); };

  static constexpr Counters CompileCounters = {
      &ServiceStats::Requests, &ServiceStats::MemoryHits,
      &ServiceStats::DiskHits, &ServiceStats::Misses};
  MemEntry Entry;
  std::optional<CacheOutcome> Outcome = memoize(
      Resp.Key, Memory, CompileCounters, Entry, Resp.Error, Decode, Compute,
      Encode);
  if (!Outcome)
    return Resp;
  Resp.Ok = true;
  Resp.Outcome = *Outcome;
  Resp.TransformedSource = std::move(Entry.TransformedSource);
  Resp.Program = std::move(Entry.Program);
  return Resp;
}

std::vector<CompileResponse>
CompileService::compileBatch(const std::vector<CompileRequest> &Reqs) {
  // Responses land positionally, so the result order — and every per-key
  // artifact, via the single-flight compile path — is deterministic at
  // any worker count.
  std::vector<CompileResponse> Out(Reqs.size());
  parallelFor(Reqs.size(), workers(),
              [&](size_t I) { Out[I] = compile(Reqs[I]); });
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

/// A count field: a decimal that fits an unsigned.
bool parseCount(const std::string &Value, unsigned &Out) {
  uint64_t V = 0;
  if (!parseU64(Value, V) || V > std::numeric_limits<unsigned>::max())
    return false;
  Out = (unsigned)V;
  return true;
}

/// A time field: all of \p Value is one finite, non-negative decimal.
bool parseTime(const std::string &Value, double &Out) {
  char *End = nullptr;
  double V = std::strtod(Value.c_str(), &End);
  if (Value.empty() || !std::isdigit((unsigned char)Value[0]) || *End ||
      !std::isfinite(V))
    return false;
  Out = V;
  return true;
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
  std::set<std::string> Seen;
  while (std::getline(S, Line)) {
    if (Line.empty())
      continue;
    size_t Space = Line.find(' ');
    std::string Key = Line.substr(0, Space);
    std::string Value =
        Space == std::string::npos ? std::string() : Line.substr(Space + 1);
    bool Ok = true;
    if (Key == "mode")
      Ok = parseTuneMode(Value, Out.Mode);
    else if (Key == "pipeline")
      Out.Pipeline = Value;
    else if (Key == "timeus")
      Ok = parseTime(Value, Out.TimeUs);
    else if (Key == "evals")
      Ok = parseCount(Value, Out.VmEvaluations);
    else if (Key == "simprobes")
      Ok = parseCount(Value, Out.SimProbes);
    else
      continue; // unknown keys: forward compatibility
    if (!Ok || !Seen.insert(Key).second) {
      Error = "bad or repeated tune-result field '" + Line + "'";
      return false;
    }
  }
  if (Seen.size() != 5) { // each of the fields above
    Error = "tune result lacks a field";
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
  Resp.Key = tuneKeyFor(Req);
  auto Compute = [&](EmpiricalTuneResult &Result, std::string &Error) {
    std::string Spec = workloadSpecOf(Req);
    VmWorkload Workload;
    if (Spec == "canonical") {
      Workload = canonicalTuneWorkload(Req.Opts.Seed);
    } else {
      BenchCase Case;
      std::string SpecError;
      if (!parseWorkloadSpec(Spec, Case, SpecError)) {
        Error = "bad workload spec '" + Spec + "': " + SpecError;
        return false;
      }
      Workload = kernelVmWorkload(Case);
    }

    EmpiricalOptions Opts = Req.Opts;
    if (Req.WarmStart && !Config.TunedTableDir.empty() &&
        Req.Mode != TuneMode::Analytic) {
      // Seed the search from the committed tuned table for this workload,
      // when one exists and its pipeline is ExecConfig-representable.
      std::string TablePath = (std::filesystem::path(Config.TunedTableDir) /
                               tunedTableFileName(Spec))
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
    Result = tuneWorkload(Req.Mode, Gpu, Workload, Full, Opts);
    return true;
  };

  // Tune keys carry a "tune-" prefix, so they never meet compile keys in
  // the disk tier or the in-flight set. Searches count no misses.
  static constexpr Counters TuneCounters = {
      &ServiceStats::TuneRequests, &ServiceStats::TuneCacheHits,
      &ServiceStats::TuneCacheHits, nullptr};
  std::optional<CacheOutcome> Outcome =
      memoize(Resp.Key, TuneMemory, TuneCounters, Resp.Result, Resp.Error,
              decodeTuneResult, Compute, encodeTuneResult);
  Resp.Ok = Outcome.has_value();
  Resp.CacheHit = Resp.Ok && *Outcome != CacheOutcome::Miss;
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
