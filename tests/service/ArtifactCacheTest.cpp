//===--- ArtifactCacheTest.cpp - Disk artifact store and content keys -----===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bookkeeping under the compile service's disk cache:
///  - ArtifactCache's index: LRU order with loads and touches refreshing
///    recency, stamps strictly increasing in use order, and the file name
///    breaking mtime ties; stores by another instance on the
///    same directory count against the bound; files deleted behind the
///    cache's back leave the index without counting as evictions;
///  - contentKey: tails, lengths and field boundaries reach the key, and
///    golden compile and tune keys pin the on-disk key format.
///
//===----------------------------------------------------------------------===//

#include "service/ArtifactCache.h"
#include "service/CompileService.h"
#include "service/ContentKey.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

namespace fs = std::filesystem;
using namespace dpo;

namespace {

/// Fresh per-test cache directory, removed on teardown.
class ArtifactCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::temp_directory_path() /
          (std::string("dpo_artifact_cache_") + Info->name());
    fs::remove_all(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  fs::path file(const std::string &Key) const {
    return Dir / (Key + ".dpoart");
  }
  bool resident(const std::string &Key) const {
    return fs::exists(file(Key));
  }

  uint64_t bytesOnDisk() const {
    uint64_t Total = 0;
    for (const auto &E : fs::directory_iterator(Dir))
      Total += fs::file_size(E.path());
    return Total;
  }

  fs::path Dir;
};

/// Every artifact in these tests is 100 bytes.
const std::string Blob(100, 'x');

TEST_F(ArtifactCacheTest, LoadKeepsAnEntryAliveAndNamesBreakTies) {
  {
    ArtifactCache Writer(Dir.string(), 300);
    for (const char *Key : {"a", "b", "c"})
      ASSERT_TRUE(Writer.store(Key, Blob));
  }
  // b is the oldest; a and c share one mtime.
  auto T = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(file("a"), T);
  fs::last_write_time(file("c"), T);
  fs::last_write_time(file("b"), T - std::chrono::minutes(1));

  ArtifactCache Cache(Dir.string(), 300);
  std::string Bytes;
  ASSERT_TRUE(Cache.load("b", Bytes)); // now the newest
  EXPECT_EQ(Bytes, Blob);

  ASSERT_TRUE(Cache.store("d", Blob));
  EXPECT_FALSE(resident("a")) << "a and c tie; a sorts first";
  EXPECT_TRUE(resident("b"));
  EXPECT_TRUE(resident("c"));

  ASSERT_TRUE(Cache.store("e", Blob));
  EXPECT_FALSE(resident("c"));
  EXPECT_TRUE(resident("b")) << "the load kept b alive";
  EXPECT_EQ(Cache.stats().Evictions, 2u);
  EXPECT_EQ(bytesOnDisk(), 300u);
}

TEST_F(ArtifactCacheTest, StoresLoadsAndTouchesStampInUseOrder) {
  ArtifactCache Cache(Dir.string(), 1000);
  ASSERT_TRUE(Cache.store("a", Blob));
  ASSERT_TRUE(Cache.store("b", Blob));
  std::string Bytes;
  ASSERT_TRUE(Cache.load("a", Bytes));
  ASSERT_TRUE(Cache.store("c", Blob));
  Cache.touch({"b", "missing"});
  // Use order: a's load, c's store, b's touch. The mtimes strictly
  // increase in that order even within one tick of the file clock.
  auto MTime = [&](const char *Key) { return fs::last_write_time(file(Key)); };
  EXPECT_LT(MTime("a"), MTime("c"));
  EXPECT_LT(MTime("c"), MTime("b"));
  EXPECT_FALSE(resident("missing")); // touching never creates a file
}

TEST_F(ArtifactCacheTest, AnotherInstancesStoresCountAgainstTheBound) {
  constexpr uint64_t Bound = 500;
  ArtifactCache First(Dir.string(), Bound);
  ArtifactCache Second(Dir.string(), Bound);
  ASSERT_TRUE(First.store("a1", Blob));
  ASSERT_TRUE(First.store("a2", Blob));
  for (const char *Key : {"b1", "b2", "b3"})
    ASSERT_TRUE(Second.store(Key, Blob));
  EXPECT_EQ(bytesOnDisk(), Bound);

  // First's index has only its own two files; its next store must see
  // Second's three and evict to stay within the bound.
  ASSERT_TRUE(First.store("a3", Blob));
  EXPECT_LE(bytesOnDisk(), Bound);
  EXPECT_EQ(First.stats().Evictions, 1u);
  EXPECT_EQ(First.stats().ResidentBytes, Bound);

  // And the other way round, including First's eviction.
  ASSERT_TRUE(Second.store("b4", Blob));
  EXPECT_LE(bytesOnDisk(), Bound);
  EXPECT_EQ(Second.stats().Evictions, 1u);
}

TEST_F(ArtifactCacheTest, ExternalDeletesAreNotEvictions) {
  ArtifactCache Cache(Dir.string(), 300);
  for (const char *Key : {"a", "b", "c"})
    ASSERT_TRUE(Cache.store(Key, Blob));
  fs::remove(file("a"));

  // The vanished file frees its bytes: d fits without evicting anything.
  ASSERT_TRUE(Cache.store("d", Blob));
  ArtifactCacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.ResidentBytes, 300u);
  EXPECT_TRUE(resident("b") && resident("c") && resident("d"));

  // remove() of a key the cache no longer has is not a remove either.
  Cache.remove("a");
  EXPECT_EQ(Cache.stats().Removes, 0u);
}

TEST_F(ArtifactCacheTest, StoresLeaveNoTemporaryFiles) {
  ArtifactCache Cache(Dir.string(), 1000);
  ASSERT_TRUE(Cache.store("a", Blob));
  ASSERT_TRUE(Cache.store("a", std::string(50, 'y')));
  std::vector<std::string> Names;
  for (const auto &E : fs::directory_iterator(Dir))
    Names.push_back(E.path().filename().string());
  EXPECT_EQ(Names, std::vector<std::string>{"a.dpoart"});
  EXPECT_EQ(Cache.stats().ResidentBytes, 50u);
}

//===----------------------------------------------------------------------===//
// Content keys
//===----------------------------------------------------------------------===//

TEST(ContentKeyTest, TailsLengthsAndBoundariesReachTheKey) {
  std::string Long(37, 'q'); // two full 16-byte blocks and a 5-byte tail
  std::string LastByte = Long;
  LastByte.back() = 'r';
  EXPECT_NE(contentKey({Long}), contentKey({LastByte}));
  std::string BlockByte = Long;
  BlockByte[3] = 'r';
  EXPECT_NE(contentKey({Long}), contentKey({BlockByte}));

  // Zero padding of the tail block does not alias a trailing NUL.
  EXPECT_NE(contentKey({"abc"}), contentKey({std::string_view("abc\0", 4)}));
  EXPECT_NE(contentKey({""}), contentKey({std::string_view("\0", 1)}));
  EXPECT_NE(contentKey({""}), contentKey({}));
  EXPECT_NE(contentKey({"ab", "c"}), contentKey({"a", "bc"}));
  EXPECT_NE(contentKey({"abc"}), contentKey({"abc", ""}));

  EXPECT_EQ(contentKey({"abc"}), contentKey({"abc"}));
  std::string Key = contentKey({"abc"}, "tune-");
  EXPECT_EQ(Key.substr(0, 5), "tune-");
  EXPECT_EQ(Key.substr(5), contentKey({"abc"}));
  EXPECT_EQ(Key.size(), 5u + 32u);
  EXPECT_EQ(Key.find_first_not_of("0123456789abcdef", 5), std::string::npos);
}

TEST(ContentKeyTest, ShortAndPaddingLikeInputsNeverCollide) {
  std::set<std::string> Keys;
  size_t Inputs = 0;
  auto Add = [&](std::initializer_list<std::string_view> Fields) {
    Keys.insert(contentKey(Fields));
    ++Inputs;
  };
  Add({});
  for (int A = 0; A < 256; ++A) {
    std::string One(1, (char)A);
    Add({One});
    for (int B = 0; B < 256; ++B) {
      Add({One + (char)B});
      Add({One, std::string(1, (char)B)});
    }
  }
  // Longer runs that differ from zero padding only in length, or in one
  // low byte past a block boundary (all distinct from the inputs above).
  Add({""});
  for (size_t Len = 3; Len <= 64; ++Len) {
    Add({std::string(Len, '\0')});
    Add({std::string(Len, '\1')});
    Add({std::string(Len - 1, '\0') + '\2'});
  }
  EXPECT_EQ(Keys.size(), Inputs);
}

// Keys name artifact files, so their values are an on-disk format: a change
// here orphans every cached artifact and must be deliberate.
TEST(ContentKeyTest, GoldenCompileAndTuneKeys) {
  CompileRequest Req;
  Req.Source = "__global__ void k(int *a) { a[threadIdx.x] = 1; }\n";
  Req.Pipeline = "threshold[64:literal],coarsen[4:literal]";
  Req.Knobs = literalKnobConfig();
  Req.WantBytecode = true;
  std::string Error;
  EXPECT_EQ(CompileService::cacheKeyFor(Req, Error),
            "eaf6a0004f2fe70a41d1303f0c90def3")
      << Error;

  TuneRequest Tune;
  Tune.WorkloadSpec = "bfs:road_ny";
  Tune.Mode = TuneMode::Hybrid;
  Tune.Opts.Budget = 24;
  Tune.Opts.Seed = 7;
  Tune.Opts.SampleBatches = 4;
  Tune.Opts.MaxSampleUnits = 4096;
  Tune.WarmStart = true;
  EXPECT_EQ(CompileService::tuneKeyFor(Tune),
            "tune-a6126c79e15e6510d6095b0af43d4b9a");
}

} // namespace
