//===--- ArtifactCache.cpp - Content-addressed on-disk artifact store -----===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/ArtifactCache.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <system_error>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

namespace fs = std::filesystem;
using namespace dpo;

namespace {

constexpr std::string_view ArtifactSuffix = ".dpoart";

bool isArtifactName(std::string_view Name) {
  return Name.size() > ArtifactSuffix.size() &&
         Name.substr(Name.size() - ArtifactSuffix.size()) == ArtifactSuffix;
}

std::string nameFor(const std::string &Key) {
  return Key + std::string(ArtifactSuffix);
}

int64_t mtimeNs(const struct stat &St) {
  return (int64_t)St.st_mtim.tv_sec * 1000000000 + St.st_mtim.tv_nsec;
}

/// Access and modification time both at a stamp, in the form
/// futimens/utimensat take.
struct StampTimes {
  struct timespec Times[2];
  explicit StampTimes(int64_t Ns)
      : Times{{Ns / 1000000000, Ns % 1000000000},
              {Ns / 1000000000, Ns % 1000000000}} {}
};

/// Writes all of \p Bytes to \p Fd.
bool writeAll(int Fd, std::string_view Bytes) {
  while (!Bytes.empty()) {
    ssize_t N = ::write(Fd, Bytes.data(), Bytes.size());
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Bytes.remove_prefix((size_t)N);
  }
  return true;
}

} // namespace

void ArtifactCache::FileIndex::put(const std::string &Name, uint64_t Size,
                                   int64_t MTimeNs) {
  auto [It, Inserted] = Files.try_emplace(Name);
  Entry &E = It->second;
  if (!Inserted) {
    ByAge.erase({E.MTimeNs, Name});
    Bytes -= E.Size;
  }
  E.Size = Size;
  E.MTimeNs = MTimeNs;
  E.Epoch = Epoch;
  ByAge.insert({MTimeNs, Name});
  Bytes += Size;
  NewestNs = std::max(NewestNs, MTimeNs);
}

void ArtifactCache::FileIndex::drop(decltype(Files)::iterator It) {
  ByAge.erase({It->second.MTimeNs, It->first});
  Bytes -= It->second.Size;
  Files.erase(It);
}

ArtifactCache::ArtifactCache(std::string Dir, uint64_t MaxBytes)
    : Dir(std::move(Dir)), MaxBytes(MaxBytes) {}

std::string ArtifactCache::pathOf(std::string_view Name) const {
  return (fs::path(Dir) / Name).string();
}

std::string ArtifactCache::fileFor(const std::string &Key) const {
  return pathOf(nameFor(Key));
}

bool ArtifactCache::load(const std::string &Key, std::string &Bytes) {
  std::lock_guard<std::mutex> G(Lock);
  if (Dir.empty()) {
    ++Stats.Misses;
    return false;
  }
  int Fd = ::open(fileFor(Key).c_str(), O_RDONLY | O_CLOEXEC);
  struct stat St {};
  if (Fd < 0 || ::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode)) {
    if (Fd >= 0)
      ::close(Fd);
    ++Stats.Misses;
    return false;
  }
  std::string Blob((size_t)St.st_size, '\0');
  size_t Got = 0;
  while (Got < Blob.size()) {
    ssize_t N = ::read(Fd, Blob.data() + Got, Blob.size() - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      ::close(Fd);
      ++Stats.Misses;
      return false;
    }
    if (N == 0)
      break; // shorter than stat said; the caller's validation decides
    Got += (size_t)N;
  }
  Blob.resize(Got);
  Bytes = std::move(Blob);
  // Touch for LRU; best-effort (a read-only cache dir still serves hits).
  int64_t Stamp = nextStamp();
  Index.put(nameFor(Key), Got,
            ::futimens(Fd, StampTimes(Stamp).Times) == 0 ? Stamp
                                                         : mtimeNs(St));
  ::close(Fd);
  ++Stats.Hits;
  return true;
}

int64_t ArtifactCache::nextStamp() {
  struct timespec Now {};
  ::clock_gettime(CLOCK_REALTIME, &Now);
  int64_t Stamp = std::max((int64_t)Now.tv_sec * 1000000000 + Now.tv_nsec,
                           Index.NewestNs + 1);
  Index.NewestNs = Stamp;
  return Stamp;
}

void ArtifactCache::touch(const std::vector<std::string> &Keys) {
  if (Keys.empty())
    return;
  std::lock_guard<std::mutex> G(Lock);
  if (Dir.empty())
    return;
  for (const std::string &Key : Keys) {
    int64_t Stamp = nextStamp();
    if (::utimensat(AT_FDCWD, fileFor(Key).c_str(), StampTimes(Stamp).Times,
                    0) != 0)
      continue; // evicted or removed since; nothing to refresh
    auto It = Index.Files.find(nameFor(Key));
    if (It != Index.Files.end())
      Index.put(It->first, It->second.Size, Stamp);
  }
}

void ArtifactCache::reconcile() const {
  ++Index.Epoch;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (const struct dirent *E = ::readdir(D)) {
      std::string_view Name(E->d_name);
      if (!isArtifactName(Name))
        continue;
      auto It = Index.Files.find(Name);
      if (It != Index.Files.end()) {
        It->second.Epoch = Index.Epoch;
        continue;
      }
      // Another writer's store: the only names that cost a stat.
      struct stat St {};
      if (::stat(pathOf(Name).c_str(), &St) == 0 && S_ISREG(St.st_mode))
        Index.put(std::string(Name), (uint64_t)St.st_size, mtimeNs(St));
    }
    ::closedir(D);
  }
  // Whatever the listing did not show has vanished (or the directory
  // has): forget it without counting an eviction.
  for (auto It = Index.Files.begin(); It != Index.Files.end();) {
    auto Next = std::next(It);
    if (It->second.Epoch != Index.Epoch)
      Index.drop(It);
    It = Next;
  }
}

void ArtifactCache::evictToFit(uint64_t Incoming) {
  reconcile();
  // Oldest first; ByAge orders by (mtime, name).
  for (auto It = Index.ByAge.begin();
       It != Index.ByAge.end() && Index.Bytes + Incoming > MaxBytes;) {
    auto File = Index.Files.find(It->second);
    ++It;
    if (::unlink(pathOf(File->first).c_str()) == 0)
      ++Stats.Evictions;
    else if (errno != ENOENT)
      continue; // cannot delete it; try the next oldest
    Index.drop(File);
  }
}

bool ArtifactCache::store(const std::string &Key, std::string_view Bytes) {
  std::lock_guard<std::mutex> G(Lock);
  if (Dir.empty())
    return false;
  if (Bytes.size() > MaxBytes)
    return false; // larger than the whole budget; caching it is pointless

  evictToFit(Bytes.size());

  // Unique tmp name per process and instance, so concurrent writers of
  // the same key race only at the atomic rename. Stores of one instance
  // hold Lock, so a tmp file already there is a dead process's leftover.
  std::string Final = fileFor(Key);
  std::string Tmp = Final + ".tmp" + std::to_string((long long)::getpid()) +
                    "." + std::to_string((uintptr_t)this);
  auto Open = [&]() {
    return ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  };
  int Fd = Open();
  if (Fd < 0 && errno == ENOENT) {
    std::error_code EC;
    fs::create_directories(Dir, EC);
    Fd = Open();
  } else if (Fd < 0 && errno == EEXIST && ::unlink(Tmp.c_str()) == 0) {
    Fd = Open();
  }
  if (Fd < 0)
    return false;
  // Stamp the store in use order before the rename, which keeps the
  // mtime; the file clock alone could date it before a touch made in the
  // same tick.
  bool Written = writeAll(Fd, Bytes);
  int64_t Stamp = nextStamp();
  bool Stamped = Written && ::futimens(Fd, StampTimes(Stamp).Times) == 0;
  if (::close(Fd) != 0 || !Written ||
      ::rename(Tmp.c_str(), Final.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  ++Stats.Stores;
  struct stat St {};
  if (Stamped)
    Index.put(nameFor(Key), Bytes.size(), Stamp);
  else if (::stat(Final.c_str(), &St) == 0)
    Index.put(nameFor(Key), (uint64_t)St.st_size, mtimeNs(St));
  return true;
}

void ArtifactCache::remove(const std::string &Key) {
  std::lock_guard<std::mutex> G(Lock);
  if (Dir.empty())
    return;
  if (::unlink(fileFor(Key).c_str()) != 0)
    return;
  ++Stats.Removes;
  auto It = Index.Files.find(nameFor(Key));
  if (It != Index.Files.end())
    Index.drop(It);
}

ArtifactCacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> G(Lock);
  ArtifactCacheStats S = Stats;
  // The directory is the source of truth: other processes store and
  // evict too (a warm run that never stores would otherwise report zero).
  if (!Dir.empty()) {
    reconcile();
    S.ResidentBytes = Index.Bytes;
  }
  return S;
}
