//===--- ArtifactCache.h - Content-addressed on-disk artifact store -------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disk layer of the compile service's artifact cache: a directory of
/// content-addressed blobs, one file per key (`<dir>/<key>.dpoart`),
/// size-bounded with LRU eviction. The cache is deliberately dumb about
/// content — it stores and returns raw bytes; the CompileService layers
/// the versioned, checksummed artifact format on top and treats any blob
/// that fails validation as a miss (recompile, remove, re-store).
///
/// Durability model: stores write to a temporary file (named by process
/// id and instance) through one descriptor, stamp it, and rename it into
/// place, so readers never observe a half-written artifact even with
/// concurrent writers. Recency for LRU is
/// the file mtime: stores and loads stamp it, and touch() stamps the uses
/// a caller served from a memory tier above this cache. Stamps strictly
/// increase in the order of those operations (a clock reading, raised
/// past the newest mtime seen), since the kernel's file clock is only
/// tick-granular. All operations tolerate a hostile
/// directory state (missing dir, unreadable files, files vanishing
/// mid-scan) by degrading to a miss.
///
/// Bookkeeping: an in-memory index maps each artifact file to its (size,
/// mtime) and orders the files by (mtime, name), the eviction order. One
/// scan builds it on first use; this instance's own loads, stores,
/// removes and evictions keep it current without listing the directory.
/// Before each eviction decision a names-only listing reconciles it with
/// the directory: names the index lacks (other writers' stores) are
/// stat'ed and added, names that vanished are dropped without counting as
/// evictions. The listing stays the source of truth, so the size bound
/// holds across processes sharing a directory. What another process does
/// to a file the index already knows — a load's touch, or an overwrite
/// with different bytes under the same key — is not re-read: recency
/// across processes is approximate, and such an overwrite is accounted
/// at its old size until this instance next stores or loads that key.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_SERVICE_ARTIFACTCACHE_H
#define DPO_SERVICE_ARTIFACTCACHE_H

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dpo {

struct ArtifactCacheStats {
  uint64_t Hits = 0;      ///< load() found the key.
  uint64_t Misses = 0;    ///< load() did not.
  uint64_t Stores = 0;    ///< Successful store() calls.
  uint64_t Evictions = 0; ///< Artifacts removed to respect MaxBytes.
  uint64_t Removes = 0;   ///< Explicit remove() calls that deleted a file.
  uint64_t ResidentBytes = 0; ///< Artifact bytes in the directory now.
};

class ArtifactCache {
public:
  /// \p Dir empty disables the cache: every load misses, stores are
  /// dropped. Otherwise the directory is created on first store.
  ArtifactCache(std::string Dir, uint64_t MaxBytes);

  bool enabled() const { return !Dir.empty(); }
  const std::string &directory() const { return Dir; }
  uint64_t maxBytes() const { return MaxBytes; }

  /// Loads the blob stored under \p Key into \p Bytes. Returns false on
  /// a miss (or read failure). A hit refreshes the artifact's recency.
  bool load(const std::string &Key, std::string &Bytes);

  /// Stores \p Bytes under \p Key (atomically: tmp file + rename),
  /// evicting least-recently-used artifacts first so the directory stays
  /// within maxBytes(). A blob larger than the bound itself is refused.
  bool store(const std::string &Key, std::string_view Bytes);

  /// Deletes \p Key's artifact if present (used when validation rejects
  /// a corrupt blob, so the poisoned entry cannot be served again).
  void remove(const std::string &Key);

  /// Refreshes the recency of each key's artifact, in order, as if each
  /// had been loaded: the uses of a memory tier above this cache. Keys
  /// without an artifact are skipped.
  void touch(const std::vector<std::string> &Keys);

  ArtifactCacheStats stats() const;

private:
  /// The in-memory view of the directory (see the file comment).
  struct FileIndex {
    struct Entry {
      uint64_t Size = 0;
      int64_t MTimeNs = 0;
      uint64_t Epoch = 0; ///< The last reconcile that listed the file.
    };
    /// File name (within the cache directory) -> entry.
    std::map<std::string, Entry, std::less<>> Files;
    /// (mtime, name) of every file: the LRU eviction order, the name
    /// breaking mtime ties so eviction is deterministic.
    std::set<std::pair<int64_t, std::string>> ByAge;
    uint64_t Bytes = 0; ///< Sum of the entries' sizes.
    uint64_t Epoch = 0;
    int64_t NewestNs = 0; ///< The newest mtime ever put.

    /// Records \p Name at \p Size / \p MTimeNs, replacing any old entry.
    void put(const std::string &Name, uint64_t Size, int64_t MTimeNs);
    void drop(decltype(Files)::iterator It);
  };

  /// Dir / Name.
  std::string pathOf(std::string_view Name) const;
  std::string fileFor(const std::string &Key) const;
  /// Under Lock: brings the index in line with a names-only listing of
  /// the directory, stat'ing only names it lacks (so the first call is
  /// the one full scan). const because stats() reconciles too; it
  /// changes only Index.
  void reconcile() const;
  /// Under Lock: delete oldest artifacts until Incoming more bytes fit.
  void evictToFit(uint64_t Incoming);
  /// Under Lock: the next recency stamp, in ns since the epoch: now, or
  /// just past the newest mtime the index has seen if that is later.
  int64_t nextStamp();

  std::string Dir;
  uint64_t MaxBytes;
  mutable std::mutex Lock;
  ArtifactCacheStats Stats;
  mutable FileIndex Index;
};

} // namespace dpo

#endif // DPO_SERVICE_ARTIFACTCACHE_H
