//===--- Parallel.h - Worker counts and index fan-out ---------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way work fans out across threads outside the VM's persistent
/// wave pool: resolveWorkers decides how many threads a fan-out may use
/// (the VM, the empirical tuner and the compile service all ask it), and
/// parallelFor runs one body over [0, N) on that many threads, the
/// calling thread included.
///
//===----------------------------------------------------------------------===//

#ifndef DPO_SUPPORT_PARALLEL_H
#define DPO_SUPPORT_PARALLEL_H

#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace dpo {

/// No fan-out runs more threads than this, so a typo in a worker-count
/// option or variable cannot spawn an absurd pool.
constexpr unsigned MaxWorkers = 64;

/// The hardware concurrency, at least 1 and at most 8: the automatic
/// worker count of the tuner and the compile service.
inline unsigned hardwareWorkers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
}

/// The worker count for one fan-out: \p Explicit when it is nonzero, else
/// the positive decimal in the environment variable \p EnvVar, else
/// \p Auto (absent or invalid values fall through), capped at MaxWorkers.
inline unsigned resolveWorkers(unsigned Explicit, const char *EnvVar,
                               unsigned Auto) {
  unsigned N = Explicit;
  if (!N) {
    const char *Env = std::getenv(EnvVar);
    if (!Env || parsePositiveU32(Env, N) != ParseUIntStatus::Ok)
      N = Auto;
  }
  return std::clamp(N, 1u, MaxWorkers);
}

/// Calls \p Body(I) once for every I in [0, N) on up to \p Workers
/// threads, the calling thread among them; threads claim indices in
/// increasing order. With one worker or one index the calls run inline,
/// in order, and no thread is started. Returns when every call has. If a
/// call throws, no further index is claimed and the first exception is
/// rethrown on the calling thread once every thread has joined; a thread
/// that cannot be started leaves its share to the others.
template <typename Fn>
void parallelFor(size_t N, unsigned Workers, Fn &&Body) {
  size_t Threads = std::min<size_t>(Workers, N);
  if (Threads <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::mutex FailureMutex;
  std::exception_ptr Failure; // Guarded by FailureMutex.
  auto Work = [&] {
    try {
      for (size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
           I = Next.fetch_add(1, std::memory_order_relaxed))
        Body(I);
    } catch (...) {
      Next.store(N, std::memory_order_relaxed);
      std::lock_guard<std::mutex> G(FailureMutex);
      if (!Failure)
        Failure = std::current_exception();
    }
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Threads - 1);
  for (size_t T = 1; T < Threads; ++T) {
    try {
      Pool.emplace_back(Work);
    } catch (const std::system_error &) {
      break;
    }
  }
  Work();
  for (std::thread &T : Pool)
    T.join();
  if (Failure)
    std::rethrow_exception(Failure);
}

} // namespace dpo

#endif // DPO_SUPPORT_PARALLEL_H
