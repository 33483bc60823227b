//===--- ParallelTest.cpp - Worker counts and parallelFor ------------------===//
//
// Part of the dpopt project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// resolveWorkers picks an explicit value over the environment over the
/// automatic count and caps every result; parallelFor calls its body once
/// per index at any worker count. No test asks for more than 4 threads.
///
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace dpo;

namespace {

/// Read by resolveWorkers in these tests only.
constexpr const char *TestVar = "DPO_PARALLEL_TEST_WORKERS";

TEST(ParallelTest, ForVisitsEveryIndexExactlyOnce) {
  for (unsigned Workers : {1u, 2u, 4u}) {
    for (size_t N : {size_t(0), size_t(1), size_t(3), size_t(100)}) {
      std::vector<std::atomic<unsigned>> Visits(N);
      parallelFor(N, Workers, [&](size_t I) {
        Visits[I].fetch_add(1, std::memory_order_relaxed);
      });
      for (size_t I = 0; I < N; ++I)
        EXPECT_EQ(Visits[I].load(), 1u)
            << "index " << I << " of " << N << " at " << Workers
            << " workers";
    }
  }
}

TEST(ParallelTest, ForUsesNoMoreThreadsThanIndices) {
  // Three indices at four workers: at most three threads, the caller
  // among them whenever more than one runs.
  std::mutex M;
  std::set<std::thread::id> Seen;
  parallelFor(3, 4, [&](size_t) {
    std::lock_guard<std::mutex> G(M);
    Seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(Seen.size(), 1u);
  EXPECT_LE(Seen.size(), 3u);
}

TEST(ParallelTest, ForRunsInlineAtOneWorkerOrOneIndex) {
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  parallelFor(5, 1, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));

  bool Ran = false;
  parallelFor(1, 4, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Ran = true;
  });
  EXPECT_TRUE(Ran);
}

TEST(ParallelTest, ForRethrowsTheFirstExceptionAfterJoining) {
  for (unsigned Workers : {1u, 2u, 4u}) {
    std::atomic<unsigned> Calls{0};
    EXPECT_THROW(parallelFor(100, Workers,
                             [&](size_t I) {
                               Calls.fetch_add(1);
                               if (I == 3)
                                 throw std::runtime_error("index 3");
                             }),
                 std::runtime_error)
        << Workers << " workers";
    // Every index up to 3 ran; inline, nothing after it did.
    EXPECT_GE(Calls.load(), 4u);
    if (Workers == 1) {
      EXPECT_EQ(Calls.load(), 4u);
    }
  }
}

TEST(ParallelTest, ResolveWorkersPrefersExplicitThenEnvironmentThenAuto) {
  unsetenv(TestVar);
  EXPECT_EQ(resolveWorkers(0, TestVar, 3), 3u);
  EXPECT_EQ(resolveWorkers(2, TestVar, 3), 2u);

  ASSERT_EQ(setenv(TestVar, "4", 1), 0);
  EXPECT_EQ(resolveWorkers(0, TestVar, 3), 4u);
  EXPECT_EQ(resolveWorkers(2, TestVar, 3), 2u);

  for (const char *Bad : {"", "0", "-2", "+2", "two", "4x", "99999999999"}) {
    ASSERT_EQ(setenv(TestVar, Bad, 1), 0);
    EXPECT_EQ(resolveWorkers(0, TestVar, 3), 3u) << "'" << Bad << "'";
  }
  unsetenv(TestVar);
}

TEST(ParallelTest, ResolveWorkersCapsEveryResult) {
  unsetenv(TestVar);
  EXPECT_EQ(MaxWorkers, 64u);
  EXPECT_EQ(resolveWorkers(100000, TestVar, 1), MaxWorkers);
  EXPECT_EQ(resolveWorkers(0, TestVar, 100000), MaxWorkers);
  EXPECT_EQ(resolveWorkers(64, TestVar, 1), 64u);
  ASSERT_EQ(setenv(TestVar, "100000", 1), 0);
  EXPECT_EQ(resolveWorkers(0, TestVar, 1), MaxWorkers);
  unsetenv(TestVar);

  EXPECT_GE(hardwareWorkers(), 1u);
  EXPECT_LE(hardwareWorkers(), 8u);
}

} // namespace
