//===--- CompileServiceTest.cpp - Session-layer and artifact-cache tests -------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation-as-a-service contract (src/service/):
///  - content-addressed keys: stable, spelling-insensitive, sensitive to
///    source/pipeline/knob/format changes and the artifact's shape;
///  - hit paths: in-memory on repeat requests, on-disk across service
///    instances, bit-identical artifacts either way;
///  - robustness: truncated / bit-flipped / wrong-version artifacts fall
///    back to a clean recompile with a diagnostic and never crash;
///    eviction respects the size bound; a source nested past the parser
///    limit fails alone;
///  - concurrency: same-key compiles and tunes single-flight, batch
///    drains return deterministic results at every worker count;
///  - tune caching (memory hits refresh the disk LRU; a mangled result
///    is corrupt) and tuned-table warm starts.
///
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"
#include "tuner/TunedTable.h"
#include "transform/Pipeline.h"
#include "vm/BytecodeIO.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

namespace fs = std::filesystem;
using namespace dpo;

namespace {

const char *NestedSource =
    "__global__ void child(int *out, int base, int count) {\n"
    "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
    "  if (i < count) {\n"
    "    out[base + i] = base * 7 + i * 3 + count;\n"
    "  }\n"
    "}\n"
    "__global__ void parent(int *out, int *counts, int *offsets, int numV) "
    "{\n"
    "  int v = blockIdx.x * blockDim.x + threadIdx.x;\n"
    "  if (v < numV) {\n"
    "    int count = counts[v];\n"
    "    if (count > 0) {\n"
    "      child<<<(count + 31) / 32, 32>>>(out, offsets[v], count);\n"
    "    }\n"
    "  }\n"
    "}\n";

/// Fresh per-test scratch directory, removed on teardown.
class CompileServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Scratch = fs::temp_directory_path() /
              (std::string("dpo_service_") + Info->name());
    fs::remove_all(Scratch);
    fs::create_directories(Scratch);
  }
  void TearDown() override { fs::remove_all(Scratch); }

  std::string cacheDir() const { return (Scratch / "cache").string(); }
  ServiceConfig diskConfig(uint64_t MaxBytes = 256ull << 20) const {
    ServiceConfig C;
    C.CacheDir = cacheDir();
    C.CacheMaxBytes = MaxBytes;
    return C;
  }

  CompileRequest request(const std::string &Pipeline = "threshold[256]",
                         bool WantBytecode = false) const {
    CompileRequest R;
    R.Name = "nested.cu";
    R.Source = NestedSource;
    R.Pipeline = Pipeline;
    R.WantBytecode = WantBytecode;
    if (WantBytecode)
      R.Knobs = literalKnobConfig();
    return R;
  }

  fs::path Scratch;
};

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

TEST_F(CompileServiceTest, CacheKeysAreStableAndContentSensitive) {
  std::string Error;
  CompileRequest R = request();
  std::string K1 = CompileService::cacheKeyFor(R, Error);
  ASSERT_FALSE(K1.empty()) << Error;
  EXPECT_EQ(K1, CompileService::cacheKeyFor(R, Error));

  // The name is a label, not content.
  CompileRequest Renamed = R;
  Renamed.Name = "other.cu";
  EXPECT_EQ(K1, CompileService::cacheKeyFor(Renamed, Error));

  // Source, pipeline, bytecode demand, and peephole flag are content.
  CompileRequest Edited = R;
  Edited.Source += "\n";
  EXPECT_NE(K1, CompileService::cacheKeyFor(Edited, Error));
  CompileRequest OtherPipe = R;
  OtherPipe.Pipeline = "threshold[128]";
  EXPECT_NE(K1, CompileService::cacheKeyFor(OtherPipe, Error));
  CompileRequest WithCode = request("threshold[256:literal]", true);
  CompileRequest NoOpt = WithCode;
  NoOpt.OptimizeBytecode = false;
  EXPECT_NE(CompileService::cacheKeyFor(WithCode, Error),
            CompileService::cacheKeyFor(NoOpt, Error));

  // So is the artifact's shape: text only, program only and both are
  // three keys. Text alone holds no bytecode, so neither the peephole
  // flag nor asking for the text it gets anyway moves its key.
  CompileRequest TextOnly = WithCode;
  TextOnly.WantBytecode = false;
  CompileRequest Both = WithCode;
  Both.WantText = true;
  std::string TextKey = CompileService::cacheKeyFor(TextOnly, Error);
  EXPECT_EQ(std::set<std::string>(
                {TextKey, CompileService::cacheKeyFor(WithCode, Error),
                 CompileService::cacheKeyFor(Both, Error)})
                .size(),
            3u);
  CompileRequest TextNoOpt = TextOnly;
  TextNoOpt.OptimizeBytecode = false;
  EXPECT_EQ(TextKey, CompileService::cacheKeyFor(TextNoOpt, Error));
  CompileRequest TextAsked = TextOnly;
  TextAsked.WantText = true;
  EXPECT_EQ(TextKey, CompileService::cacheKeyFor(TextAsked, Error));

  // Equivalent pipeline spellings alias (the key hashes the canonical
  // re-render, not the user's text).
  CompileRequest Canonical = R;
  std::string Rendered;
  PassPipelineConfig Defaults;
  ASSERT_TRUE(canonicalPipelineText(R.Pipeline, Defaults, Rendered, Error));
  Canonical.Pipeline = Rendered;
  EXPECT_EQ(K1, CompileService::cacheKeyFor(Canonical, Error));

  // Invalid pipelines produce no key and a diagnostic.
  CompileRequest Bad = R;
  Bad.Pipeline = "nonsense[1]";
  EXPECT_TRUE(CompileService::cacheKeyFor(Bad, Error).empty());
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Hit paths
//===----------------------------------------------------------------------===//

TEST_F(CompileServiceTest, RepeatRequestHitsMemory) {
  CompileService Service;
  CompileResponse First = Service.compile(request());
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(First.Outcome, CacheOutcome::Miss);
  EXPECT_NE(First.TransformedSource.find("_THRESHOLD"), std::string::npos);

  CompileResponse Second = Service.compile(request());
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(Second.Outcome, CacheOutcome::MemoryHit);
  EXPECT_EQ(First.TransformedSource, Second.TransformedSource);

  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemoryHits, 1u);
}

TEST_F(CompileServiceTest, DiskArtifactsWarmANewServiceInstance) {
  CompileRequest Req = request("threshold[256:literal],coarsen[4:literal]",
                               /*WantBytecode=*/true);
  std::string ColdImage;
  {
    CompileService Cold(diskConfig());
    CompileResponse R = Cold.compile(Req);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Outcome, CacheOutcome::Miss);
    ASSERT_NE(R.Program, nullptr);
    ColdImage = serializeVmProgram(*R.Program);
    EXPECT_EQ(Cold.stats().DiskStores, 1u);
  }
  CompileService Warm(diskConfig());
  CompileResponse R = Warm.compile(Req);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outcome, CacheOutcome::DiskHit);
  ASSERT_NE(R.Program, nullptr);
  // The cached artifact is bit-identical to the in-memory compilation.
  EXPECT_EQ(ColdImage, serializeVmProgram(*R.Program));
  EXPECT_EQ(Warm.stats().DiskHits, 1u);
  EXPECT_EQ(Warm.stats().Misses, 0u);
}

//===----------------------------------------------------------------------===//
// Robustness: corrupt artifacts degrade to clean recompiles
//===----------------------------------------------------------------------===//

class CorruptionTest : public CompileServiceTest {
protected:
  /// A bytecode request that also wants the text, so its artifact holds
  /// every section.
  CompileRequest fullRequest() const {
    CompileRequest Req = request("threshold[128:literal]", true);
    Req.WantText = true;
    return Req;
  }

  /// Seeds the disk cache with one artifact and returns its path.
  fs::path seedArtifact(const CompileRequest &Req) {
    CompileService Service(diskConfig());
    CompileResponse R = Service.compile(Req);
    EXPECT_TRUE(R.Ok) << R.Error;
    fs::path File = fs::path(cacheDir()) / (R.Key + ".dpoart");
    EXPECT_TRUE(fs::exists(File));
    return File;
  }

  /// A fresh service over the (tampered) cache dir must recompile
  /// cleanly: correct output, Miss outcome, corruption counted, and the
  /// bad blob replaced by a fresh valid one.
  void expectCleanRecovery(const CompileRequest &Req) {
    CompileService Service(diskConfig());
    CompileResponse R = Service.compile(Req);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Outcome, CacheOutcome::Miss);
    EXPECT_NE(R.TransformedSource.find("child"), std::string::npos);
    EXPECT_EQ(Service.stats().CorruptArtifacts, 1u);

    // And the rewritten artifact is valid again.
    CompileService After(diskConfig());
    CompileResponse Reload = After.compile(Req);
    ASSERT_TRUE(Reload.Ok);
    EXPECT_EQ(Reload.Outcome, CacheOutcome::DiskHit);
    EXPECT_EQ(R.TransformedSource, Reload.TransformedSource);
  }
};

TEST_F(CorruptionTest, TruncatedArtifactRecompiles) {
  CompileRequest Req = fullRequest();
  fs::path File = seedArtifact(Req);
  auto Size = fs::file_size(File);
  ASSERT_GT(Size, 16u);
  fs::resize_file(File, Size / 2);
  expectCleanRecovery(Req);
}

TEST_F(CorruptionTest, BitFlippedArtifactRecompiles) {
  CompileRequest Req = fullRequest();
  fs::path File = seedArtifact(Req);
  std::fstream F(File, std::ios::in | std::ios::out | std::ios::binary);
  F.seekg(0, std::ios::end);
  auto Size = (uint64_t)F.tellg();
  F.seekp((std::streamoff)(Size / 2));
  char Byte = 0;
  F.seekg((std::streamoff)(Size / 2));
  F.read(&Byte, 1);
  Byte ^= 0x20;
  F.seekp((std::streamoff)(Size / 2));
  F.write(&Byte, 1);
  F.close();
  expectCleanRecovery(Req);
}

TEST_F(CorruptionTest, WrongContainerVersionRecompiles) {
  CompileRequest Req = fullRequest();
  fs::path File = seedArtifact(Req);
  // Rewrite the artifact as a (checksum-valid) blob of a future container
  // version: the version gate itself must reject it.
  std::string Blob = "DPOA";
  uint32_t Version = ArtifactFormatVersion + 7;
  Blob.append((const char *)&Version, 4);
  Blob.append(32, '\0');
  uint64_t Sum = fnv1a64(Blob);
  Blob.append((const char *)&Sum, 8);
  std::ofstream(File, std::ios::binary | std::ios::trunc) << Blob;
  expectCleanRecovery(Req);
}

/// The artifact file's bytes.
std::string readFile(const fs::path &File) {
  std::ifstream In(File, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

void writeFile(const fs::path &File, const std::string &Bytes) {
  std::ofstream(File, std::ios::binary | std::ios::trunc) << Bytes;
}

// One checksum still covers every byte: a flipped byte anywhere in the
// header, the text, the image (its header or payload) or the trailer is a
// corrupt artifact and a clean recompile.
TEST_F(CorruptionTest, FlippedByteAnywhereRecompiles) {
  CompileRequest Req = fullRequest();
  fs::path File = seedArtifact(Req);
  const std::string Blob = readFile(File);
  // "DPOA" | u32 version | u32 flags | u64 text len | text |
  // u64 image len | image | u64 checksum.
  uint64_t TextLen = 0, ImageLen = 0;
  std::memcpy(&TextLen, Blob.data() + 12, 8);
  const size_t TextAt = 20, ImageAt = TextAt + TextLen + 8;
  std::memcpy(&ImageLen, Blob.data() + TextAt + TextLen, 8);
  ASSERT_EQ(ImageAt + ImageLen + 8, Blob.size());
  ASSERT_GT(TextLen, 0u);
  ASSERT_GT(ImageLen, VmImageHeaderBytes);

  std::set<size_t> Positions;
  for (size_t P = 0; P < TextAt; ++P) // the container header
    Positions.insert(P);
  for (size_t P = ImageAt - 8; P < ImageAt + VmImageHeaderBytes; ++P)
    Positions.insert(P); // the image length and the image header
  for (size_t P = Blob.size() - 8; P < Blob.size(); ++P)
    Positions.insert(P); // the trailer
  for (size_t P = TextAt; P < Blob.size(); P += 61) // text and payload
    Positions.insert(P);
  Positions.insert(TextAt + TextLen - 1);
  Positions.insert(ImageAt + ImageLen - 1);

  std::string Image;
  {
    CompileService Reference; // memory only
    CompileResponse R = Reference.compile(Req);
    ASSERT_TRUE(R.Ok) << R.Error;
    Image = serializeVmProgram(*R.Program);
  }
  for (size_t P : Positions) {
    std::string Flipped = Blob;
    Flipped[P] ^= 0x10;
    writeFile(File, Flipped);
    CompileService Service(diskConfig());
    CompileResponse R = Service.compile(Req);
    ASSERT_TRUE(R.Ok) << "byte " << P << ": " << R.Error;
    EXPECT_EQ(R.Outcome, CacheOutcome::Miss) << "byte " << P;
    EXPECT_EQ(Service.stats().CorruptArtifacts, 1u) << "byte " << P;
    ASSERT_NE(R.Program, nullptr);
    EXPECT_EQ(serializeVmProgram(*R.Program), Image) << "byte " << P;
    EXPECT_EQ(R.TransformedSource, Blob.substr(TextAt, TextLen))
        << "byte " << P;
  }
}

// An artifact of the previous container version (text always present, one
// checksum over every byte before the trailer) is a clean recompile.
TEST_F(CorruptionTest, PreviousContainerVersionRecompiles) {
  CompileRequest Req = fullRequest();
  fs::path File = seedArtifact(Req);
  CompileService Reference;
  CompileResponse Fresh = Reference.compile(Req);
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
  std::string Image = serializeVmProgram(*Fresh.Program);

  auto PutLE = [](std::string &S, uint64_t V, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      S += (char)((V >> (8 * I)) & 0xff);
  };
  std::string Blob = "DPOA";
  PutLE(Blob, ArtifactFormatVersion - 1, 4);
  PutLE(Blob, 1, 4); // has an image
  PutLE(Blob, Fresh.TransformedSource.size(), 8);
  Blob += Fresh.TransformedSource;
  PutLE(Blob, Image.size(), 8);
  Blob += Image;
  PutLE(Blob, fnv1a64(Blob), 8);
  writeFile(File, Blob);
  expectCleanRecovery(Req);
}

//===----------------------------------------------------------------------===//
// Text only when asked
//===----------------------------------------------------------------------===//

class TextUpgradeTest : public CompileServiceTest {
protected:
  /// A bytecode request; \p WithText also asks for the text.
  CompileRequest codeRequest(bool WithText) const {
    CompileRequest Req = request("threshold[64:literal],coarsen[4:literal]",
                                 /*WantBytecode=*/true);
    Req.WantText = WithText;
    return Req;
  }

  std::string expectedText() const {
    CompileRequest Req = codeRequest(true);
    DiagnosticEngine Diags;
    std::string Text = transformSourceWithPipeline(Req.Source, Req.Pipeline,
                                                   Req.Knobs, Diags);
    EXPECT_FALSE(Text.empty()) << Diags.str();
    return Text;
  }
};

TEST_F(TextUpgradeTest, BytecodeRequestsStoreNoText) {
  CompileService Service(diskConfig());
  CompileResponse R = Service.compile(codeRequest(false));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.TransformedSource.empty());
  ASSERT_NE(R.Program, nullptr);
  std::string Blob = readFile(fs::path(cacheDir()) / (R.Key + ".dpoart"));
  // Header, image length, image, trailer: no text section.
  EXPECT_EQ(Blob.size(),
            4 + 4 + 4 + 8 + serializeVmProgram(*R.Program).size() + 8);
  EXPECT_EQ(Blob.find("__global__"), std::string::npos);
}

TEST_F(TextUpgradeTest, ShapesAreSeparateEntries) {
  // Text only, program only and both: each shape of one source and
  // pipeline is its own entry, compiled once and then served whole.
  CompileRequest TextOnly = codeRequest(false);
  TextOnly.WantBytecode = false;
  const CompileRequest Shapes[] = {TextOnly, codeRequest(false),
                                   codeRequest(true)};
  CompileService Service; // memory only
  std::vector<CompileResponse> First;
  for (const CompileRequest &Req : Shapes) {
    First.push_back(Service.compile(Req));
    ASSERT_TRUE(First.back().Ok) << First.back().Error;
    EXPECT_EQ(First.back().Outcome, CacheOutcome::Miss);
  }
  for (size_t I = 0; I < 3; ++I) {
    CompileResponse Again = Service.compile(Shapes[I]);
    ASSERT_TRUE(Again.Ok) << Again.Error;
    EXPECT_EQ(Again.Outcome, CacheOutcome::MemoryHit) << "shape " << I;
    EXPECT_EQ(Again.TransformedSource, First[I].TransformedSource);
    EXPECT_EQ(Again.Program, First[I].Program);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.MemoryHits, 3u);

  // Text equal across the text shapes, program bytes across the
  // bytecode shapes; bytecode alone carries no text, text alone no
  // program.
  EXPECT_EQ(First[0].TransformedSource, expectedText());
  EXPECT_EQ(First[2].TransformedSource, expectedText());
  EXPECT_TRUE(First[1].TransformedSource.empty());
  EXPECT_EQ(First[0].Program, nullptr);
  ASSERT_NE(First[1].Program, nullptr);
  ASSERT_NE(First[2].Program, nullptr);
  EXPECT_EQ(serializeVmProgram(*First[1].Program),
            serializeVmProgram(*First[2].Program));
}

TEST_F(CompileServiceTest, EvictionRespectsTheSizeBound) {
  // A bound small enough that a handful of distinct artifacts overflow
  // it. Each artifact for this source is a few KiB.
  constexpr uint64_t Bound = 8 * 1024;
  CompileService Service(diskConfig(Bound));
  for (int I = 0; I < 8; ++I) {
    CompileRequest R = request("threshold[" + std::to_string(32 << I) + "]");
    CompileResponse Resp = Service.compile(R);
    ASSERT_TRUE(Resp.Ok) << Resp.Error;
  }
  ServiceStats S = Service.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.ResidentBytes, Bound);

  // The directory agrees with the counter.
  uint64_t OnDisk = 0;
  for (const auto &E : fs::directory_iterator(cacheDir()))
    OnDisk += fs::file_size(E.path());
  EXPECT_LE(OnDisk, Bound);
}

TEST_F(CompileServiceTest, MemoryHitsKeepArtifactsAliveOnDisk) {
  // Four requests whose artifacts have the same size (only a two-digit
  // threshold differs).
  CompileRequest X = request("threshold[32]");
  CompileRequest Y = request("threshold[64]");
  CompileRequest Z = request("threshold[96]");
  CompileRequest W = request("threshold[16]");
  uint64_t ThreeArtifacts = 0;
  {
    CompileService A(diskConfig());
    for (const CompileRequest *R : {&X, &Y, &Z})
      ASSERT_EQ(A.compile(*R).Outcome, CacheOutcome::Miss);
    // X is now A's most recent use, though the disk tier never loads it.
    ASSERT_EQ(A.compile(X).Outcome, CacheOutcome::MemoryHit);
    ThreeArtifacts = A.stats().ResidentBytes;
  }
  // B's directory is full; storing W evicts the least recently used
  // artifact, which is Y.
  CompileService B(diskConfig(ThreeArtifacts));
  ASSERT_EQ(B.compile(W).Outcome, CacheOutcome::Miss);
  EXPECT_EQ(B.stats().Evictions, 1u);
  EXPECT_EQ(B.compile(X).Outcome, CacheOutcome::DiskHit);
  EXPECT_EQ(B.compile(Z).Outcome, CacheOutcome::DiskHit);
  EXPECT_EQ(B.compile(Y).Outcome, CacheOutcome::Miss);
}

TEST(ServiceConfigTest, InvalidCacheBoundKeepsTheDefault) {
  // A negative bound must not wrap to 2^64-1 (which would turn eviction
  // off); anything but a positive decimal byte count keeps the default.
  const uint64_t Default = ServiceConfig().CacheMaxBytes;
  for (const char *Bad :
       {"-1", "0", "", "12MiB", "+5", "99999999999999999999"}) {
    ASSERT_EQ(setenv("DPO_CACHE_MAX_BYTES", Bad, 1), 0);
    EXPECT_EQ(serviceConfigFromEnv().CacheMaxBytes, Default)
        << "'" << Bad << "'";
  }
  ASSERT_EQ(setenv("DPO_CACHE_MAX_BYTES", "4096", 1), 0);
  EXPECT_EQ(serviceConfigFromEnv().CacheMaxBytes, 4096u);
  unsetenv("DPO_CACHE_MAX_BYTES");
}

TEST_F(CompileServiceTest, TooDeepSourceFailsAndTheServiceCarriesOn) {
  CompileService Service(diskConfig());
  CompileRequest Deep = request("threshold[256:literal]", true);
  Deep.Source = "__global__ void k(int *a) {\n  a[0] = " +
                std::string(100000, '(') + "1" + std::string(100000, ')') +
                ";\n}\n";
  CompileResponse Bad = Service.compile(Deep);
  EXPECT_FALSE(Bad.Ok);
  EXPECT_NE(Bad.Error.find("nesting exceeds the parser limit"),
            std::string::npos)
      << Bad.Error;

  CompileResponse Next =
      Service.compile(request("threshold[256:literal]", true));
  ASSERT_TRUE(Next.Ok) << Next.Error;
  EXPECT_NE(Next.Program, nullptr);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Requests, 2u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.DiskStores, 1u) << "failures are not cached";
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST_F(CompileServiceTest, ConcurrentSameKeyRequestsSingleFlight) {
  CompileService Service(diskConfig());
  constexpr unsigned N = 8;
  std::vector<CompileResponse> Out(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back(
        [&, I]() { Out[I] = Service.compile(request()); });
  for (auto &T : Threads)
    T.join();

  for (unsigned I = 0; I < N; ++I) {
    ASSERT_TRUE(Out[I].Ok) << Out[I].Error;
    EXPECT_EQ(Out[I].TransformedSource, Out[0].TransformedSource);
  }
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.Requests, N);
  // Exactly one request compiled; everyone else shared it.
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemoryHits + S.DiskHits, N - 1);
  EXPECT_EQ(S.DiskStores, 1u);
}

TEST_F(CompileServiceTest, ConcurrentSameKeyTunesSingleFlight) {
  CompileService Service; // memory only
  TuneRequest Req;
  Req.WorkloadSpec = "canonical";
  Req.Mode = TuneMode::Analytic;
  constexpr unsigned N = 8;
  std::vector<TuneResponse> Out(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I]() { Out[I] = Service.tune(Req); });
  for (auto &T : Threads)
    T.join();

  unsigned Searches = 0;
  for (unsigned I = 0; I < N; ++I) {
    ASSERT_TRUE(Out[I].Ok) << Out[I].Error;
    Searches += !Out[I].CacheHit;
    EXPECT_EQ(Out[I].Result.Pipeline, Out[0].Result.Pipeline);
    EXPECT_EQ(Out[I].Result.TimeUs, Out[0].Result.TimeUs);
  }
  // Exactly one request searched; everyone else shared its result.
  EXPECT_EQ(Searches, 1u);
  ServiceStats S = Service.stats();
  EXPECT_EQ(S.TuneRequests, N);
  EXPECT_EQ(S.TuneCacheHits, N - 1);
}

TEST_F(CompileServiceTest, BatchResultsAreDeterministicAcrossWorkerCounts) {
  // A duplicate-heavy mix: 4 unique pipelines, 16 requests.
  std::vector<CompileRequest> Reqs;
  for (int I = 0; I < 16; ++I)
    Reqs.push_back(request("threshold[" + std::to_string(64 << (I % 4)) +
                           "]"));

  std::vector<std::string> Reference;
  for (unsigned Workers : {1u, 2u, 4u}) {
    ServiceConfig C = diskConfig();
    C.CacheDir = (Scratch / ("cache_w" + std::to_string(Workers))).string();
    C.Workers = Workers;
    CompileService Service(C);
    std::vector<CompileResponse> Out = Service.compileBatch(Reqs);
    ASSERT_EQ(Out.size(), Reqs.size());
    std::vector<std::string> Sources;
    for (const CompileResponse &R : Out) {
      ASSERT_TRUE(R.Ok) << R.Error;
      Sources.push_back(R.TransformedSource);
    }
    if (Reference.empty())
      Reference = Sources;
    else
      EXPECT_EQ(Reference, Sources) << "at " << Workers << " workers";
    ServiceStats S = Service.stats();
    EXPECT_EQ(S.Requests, 16u);
    EXPECT_EQ(S.Misses, 4u) << "at " << Workers << " workers";
    EXPECT_EQ(S.MemoryHits + S.DiskHits, 12u);
  }
}

TEST_F(CompileServiceTest, WorkerCountIsCappedAt64) {
  // The batch worker count goes through the same rule as the VM's and the
  // tuner's: an explicit value or DPO_SERVICE_WORKERS, capped at 64. Only
  // the getter is called; no batch runs, so no thread starts.
  ServiceConfig Explicit;
  Explicit.Workers = 100000;
  EXPECT_EQ(CompileService(Explicit).workers(), 64u);

  const char *Saved = std::getenv("DPO_SERVICE_WORKERS");
  std::string Restore = Saved ? Saved : "";
  ASSERT_EQ(setenv("DPO_SERVICE_WORKERS", "100000", 1), 0);
  EXPECT_EQ(CompileService(ServiceConfig()).workers(), 64u);
  ASSERT_EQ(setenv("DPO_SERVICE_WORKERS", "3", 1), 0);
  EXPECT_EQ(CompileService(ServiceConfig()).workers(), 3u);
  if (Saved)
    setenv("DPO_SERVICE_WORKERS", Restore.c_str(), 1);
  else
    unsetenv("DPO_SERVICE_WORKERS");
}

//===----------------------------------------------------------------------===//
// Tune caching and warm starts
//===----------------------------------------------------------------------===//

TEST_F(CompileServiceTest, TuneResultsAreCachedInMemoryAndOnDisk) {
  TuneRequest Req;
  Req.WorkloadSpec = "canonical";
  Req.Mode = TuneMode::Analytic;

  EmpiricalTuneResult Cold;
  {
    CompileService Service(diskConfig());
    TuneResponse First = Service.tune(Req);
    ASSERT_TRUE(First.Ok) << First.Error;
    EXPECT_FALSE(First.CacheHit);
    Cold = First.Result;

    TuneResponse Second = Service.tune(Req);
    ASSERT_TRUE(Second.Ok);
    EXPECT_TRUE(Second.CacheHit);
    EXPECT_EQ(Cold.Pipeline, Second.Result.Pipeline);
    EXPECT_EQ(Cold.TimeUs, Second.Result.TimeUs);
    EXPECT_EQ(Service.stats().TuneCacheHits, 1u);
  }

  // A new instance over the same cache dir hits the disk copy, and the
  // decoded result is identical to the cold search — pipeline, cost,
  // and the re-derived ExecConfig.
  CompileService Warm(diskConfig());
  TuneResponse R = Warm.tune(Req);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.CacheHit);
  EXPECT_EQ(Cold.Pipeline, R.Result.Pipeline);
  EXPECT_EQ(Cold.TimeUs, R.Result.TimeUs);
  EXPECT_TRUE(Cold.Config == R.Result.Config);
}

TEST_F(CompileServiceTest, MangledTuneResultFieldsAreCorrupt) {
  // A genuine result blob, planted under the key of a request whose own
  // search fails at once (an unknown workload): a blob the service
  // accepts is served as a hit, and one it rejects is discarded, counted
  // corrupt, and leaves the failing search.
  TuneRequest Req;
  Req.WorkloadSpec = "canonical";
  Req.Mode = TuneMode::Analytic;
  std::string Blob;
  {
    CompileService Service(diskConfig());
    TuneResponse R = Service.tune(Req);
    ASSERT_TRUE(R.Ok) << R.Error;
    Blob = readFile(fs::path(cacheDir()) / (R.Key + ".dpoart"));
  }
  TuneRequest Planted = Req;
  Planted.WorkloadSpec = "nosuch:workload";
  fs::path File = fs::path(cacheDir()) /
                  (CompileService::tuneKeyFor(Planted) + ".dpoart");
  auto Serve = [&](const std::string &Bytes) {
    writeFile(File, Bytes);
    CompileService Service(diskConfig());
    TuneResponse R = Service.tune(Planted);
    return std::make_pair(R, Service.stats().CorruptArtifacts);
  };
  auto [Intact, IntactCorrupt] = Serve(Blob);
  ASSERT_TRUE(Intact.CacheHit) << Intact.Error;
  EXPECT_EQ(IntactCorrupt, 0u);

  /// \p Blob with the value of its "Field" line replaced by \p Value.
  auto WithField = [&](const std::string &Field, const std::string &Value) {
    size_t At = Blob.find("\n" + Field + " ") + 1;
    size_t End = Blob.find('\n', At);
    return Blob.substr(0, At) + Field + " " + Value + Blob.substr(End);
  };
  for (const std::string &Bytes :
       {WithField("timeus", "abc"), WithField("timeus", ""),
        WithField("timeus", "12abc"), WithField("timeus", "-1"),
        WithField("timeus", " 5"), WithField("timeus", "inf"),
        WithField("timeus", "nan"), WithField("timeus", "1e999"),
        WithField("evals", "abc"), WithField("evals", "-1"),
        WithField("evals", "4294967296"),
        WithField("simprobes", "18446744073709551616"),
        WithField("simprobes", "7x"),
        Blob + "mode " + tuneModeName(Intact.Result.Mode) + "\n",
        Blob + "pipeline " + Intact.Result.Pipeline + "\n",
        Blob + "evals 0\n",
        Blob.substr(0, Blob.find("timeus "))}) {
    auto [R, Corrupt] = Serve(Bytes);
    EXPECT_FALSE(R.Ok) << Bytes;
    EXPECT_FALSE(R.CacheHit) << Bytes;
    EXPECT_NE(R.Error.find("bad workload spec"), std::string::npos)
        << R.Error;
    EXPECT_EQ(Corrupt, 1u) << Bytes;
    EXPECT_FALSE(fs::exists(File)) << Bytes;
  }
}

TEST_F(CompileServiceTest, TuneMemoryHitsKeepResultsAliveOnDisk) {
  // The tune result is stored first, then two compile artifacts; the
  // tune result is then served from memory only.
  TuneRequest T;
  T.WorkloadSpec = "canonical";
  T.Mode = TuneMode::Analytic;
  CompileRequest Y = request("threshold[64]");
  CompileRequest Z = request("threshold[96]");
  CompileRequest W = request("threshold[16]");
  uint64_t ThreeArtifacts = 0;
  {
    CompileService A(diskConfig());
    ASSERT_FALSE(A.tune(T).CacheHit);
    for (const CompileRequest *R : {&Y, &Z})
      ASSERT_EQ(A.compile(*R).Outcome, CacheOutcome::Miss);
    for (int I = 0; I < 3; ++I)
      ASSERT_TRUE(A.tune(T).CacheHit);
    ThreeArtifacts = A.stats().ResidentBytes;
  }
  // B's directory is full; storing W evicts the least recently used
  // artifact, which is Y, not the hot tune result.
  CompileService B(diskConfig(ThreeArtifacts));
  ASSERT_EQ(B.compile(W).Outcome, CacheOutcome::Miss);
  EXPECT_EQ(B.stats().Evictions, 1u);
  TuneResponse Warm = B.tune(T);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_TRUE(Warm.CacheHit) << "the tune result was evicted";
  EXPECT_EQ(B.compile(Z).Outcome, CacheOutcome::DiskHit);
  EXPECT_EQ(B.compile(Y).Outcome, CacheOutcome::Miss);
}

/// Commits a tuned table for the canonical workload whose winner is
/// \p Pipeline, in \p Dir.
static void commitCanonicalTable(const fs::path &Dir,
                                 const std::string &Pipeline) {
  fs::create_directories(Dir);
  TunedEntry Entry;
  Entry.Workload = "canonical";
  Entry.Mode = TuneMode::Empirical;
  Entry.Budget = 6;
  Entry.Seed = 3;
  Entry.Pipeline = Pipeline;
  Entry.TimeUs = 1.0;
  Entry.VmEvaluations = 6;
  ASSERT_TRUE(writeTunedEntryFile(
      (Dir / tunedTableFileName("canonical")).string(), Entry));
}

/// A small warm-started empirical search over the canonical workload.
static TuneRequest warmCanonicalRequest() {
  TuneRequest Req;
  Req.WorkloadSpec = "canonical";
  Req.Mode = TuneMode::Empirical;
  Req.Opts.Budget = 6;
  Req.Opts.Seed = 3;
  Req.Opts.SampleBatches = 2;
  Req.Opts.MaxSampleUnits = 4000;
  Req.WarmStart = true;
  return Req;
}

TEST_F(CompileServiceTest, WarmStartSeedsFromCommittedTunedTables) {
  // Commit a tuned entry for the canonical workload, then ask for a
  // warm-started search: the table seed must be picked up (counter) and
  // the search must stay deterministic.
  fs::path Tables = Scratch / "tuned";
  commitCanonicalTable(Tables, "threshold[256],coarsen[8]");

  ServiceConfig C; // memory-only: the searches must actually run twice
  C.TunedTableDir = Tables.string();
  TuneRequest Req = warmCanonicalRequest();

  CompileService A(C);
  TuneResponse First = A.tune(Req);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_EQ(A.stats().TuneWarmStarts, 1u);

  CompileService B(C);
  TuneResponse Second = B.tune(Req);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(First.Result.Pipeline, Second.Result.Pipeline);
  EXPECT_EQ(First.Result.TimeUs, Second.Result.TimeUs);
  EXPECT_EQ(First.Result.VmEvaluations, Second.Result.VmEvaluations);

  // Warm and cold searches are distinct cache keys: caching a seeded
  // search never masks an unseeded one.
  TuneRequest ColdReq = Req;
  ColdReq.WarmStart = false;
  EXPECT_NE(First.Key, B.tune(ColdReq).Key);
}

TEST_F(CompileServiceTest, WarmStartSkipsTablesOutsideExecConfig) {
  // Threshold after coarsening is a different program from every
  // ExecConfig's pipeline, so the table may not seed the search.
  fs::path Tables = Scratch / "tuned";
  commitCanonicalTable(Tables, "coarsen[2],threshold[32]");
  ServiceConfig C;
  C.TunedTableDir = Tables.string();
  CompileService A(C);
  TuneResponse R = A.tune(warmCanonicalRequest());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(A.stats().TuneWarmStarts, 0u);
}

//===----------------------------------------------------------------------===//
// Request-file parsing
//===----------------------------------------------------------------------===//

TEST(ServeRequestTest, ParsesCompileAndTuneLines) {
  std::vector<ServeRequest> Reqs;
  std::string Error;
  ASSERT_TRUE(parseServeRequests(
      "# header comment\n"
      "\n"
      "compile src=a.cu passes=threshold[256] out=a.out.cu\n"
      "compile src=b.cu bytecode=1\n"
      "tune workload=bfs:road_ny mode=analytic budget=12 seed=7 warm=1 "
      "out=t.json\n",
      Reqs, Error))
      << Error;
  ASSERT_EQ(Reqs.size(), 3u);
  EXPECT_EQ(Reqs[0].Kind, ServeRequest::Compile);
  EXPECT_EQ(Reqs[0].SourcePath, "a.cu");
  EXPECT_EQ(Reqs[0].Pipeline, "threshold[256]");
  EXPECT_EQ(Reqs[0].OutputPath, "a.out.cu");
  EXPECT_FALSE(Reqs[0].WantBytecode);
  EXPECT_TRUE(Reqs[1].WantBytecode);
  EXPECT_EQ(Reqs[2].Kind, ServeRequest::Tune);
  EXPECT_EQ(Reqs[2].WorkloadSpec, "bfs:road_ny");
  EXPECT_EQ(Reqs[2].Mode, TuneMode::Analytic);
  EXPECT_EQ(Reqs[2].Budget, 12u);
  EXPECT_EQ(Reqs[2].Seed, 7u);
  EXPECT_TRUE(Reqs[2].WarmStart);
  EXPECT_EQ(Reqs[2].TuneReportPath, "t.json");
}

TEST(ServeRequestTest, RejectsMalformedLinesWithLineNumbers) {
  std::vector<ServeRequest> Reqs;
  std::string Error;
  EXPECT_FALSE(parseServeRequests("compile src=a.cu\nfrobnicate x=1\n", Reqs,
                                  Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;

  EXPECT_FALSE(parseServeRequests("compile passes=threshold[8]\n", Reqs,
                                  Error));
  EXPECT_NE(Error.find("src="), std::string::npos) << Error;

  EXPECT_FALSE(parseServeRequests("tune workload=canonical budget=zero\n",
                                  Reqs, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
}

} // namespace
