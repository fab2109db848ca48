// Stress tests for the thread pool: repeated exception propagation
// rounds, concurrent submissions from many OS threads (which queue
// rather than abort - the multi-tenant serving layer depends on it),
// and the one remaining misuse shape - a body resubmitting to its own
// pool - which must fail as a clean CheckError (via
// ScopedCheckHandler) rather than deadlocking. Runs under TSan via the
// "tsan" ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu {
namespace {

TEST(ThreadPoolStress, ExceptionPropagationSurvivesRepeatedRounds) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i == 37) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    EXPECT_GE(ran.load(), 1);
    // The pool must be fully usable again after each failed round.
    std::atomic<int> clean{0};
    pool.parallel_for(64, [&](std::size_t) {
      clean.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(clean.load(), 64);
  }
}

TEST(ThreadPoolStress, ConcurrentSubmissionsQueueAndAllComplete) {
  // Many OS threads hammer one pool with parallel_for calls at once.
  // Every call must run every one of its iterations exactly once -
  // concurrent submitters serialize through the submission queue, they
  // never abort and never corrupt each other's tasks.
  ThreadPool pool(3);
  constexpr int kThreads = 6;
  constexpr int kRounds = 20;
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<std::uint64_t>> sums(kThreads);
  for (auto& s : sums) s.store(0);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(kN, 1, [&](std::size_t i) {
          sums[t].fetch_add(i + 1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& c : clients) c.join();
  const std::uint64_t per_round = kN * (kN + 1) / 2;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t].load(), per_round * kRounds) << "client " << t;
  }
}

TEST(ThreadPoolStress, NestedSubmissionFromBodyFailsWithCheckError) {
  // The one submission shape that cannot queue: a body running on the
  // pool resubmitting to the same pool would wait on the very task its
  // own thread is executing. It must fail as a CheckError on the
  // offending iteration, not deadlock.
  ScopedCheckHandler guard(&throwing_check_failure_handler);
  ThreadPool pool(2);
  std::atomic<bool> got_check_error{false};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     try {
                                       pool.parallel_for(4, [](std::size_t) {});
                                     } catch (const CheckError&) {
                                       got_check_error.store(
                                           true, std::memory_order_release);
                                       throw;
                                     }
                                   }
                                 }),
               CheckError);
  EXPECT_TRUE(got_check_error.load());
  // The pool survives for a clean follow-up round.
  std::atomic<int> clean{0};
  pool.parallel_for(16, [&](std::size_t) {
    clean.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(clean.load(), 16);
}

TEST(ThreadPoolStress, ConcurrentSubmissionsBumpContentionTelemetry) {
#if !M3XU_TELEMETRY_ENABLED
  GTEST_SKIP() << "telemetry compiled out";
#else
  ThreadPool pool(2);
  const telemetry::Snapshot before = telemetry::snapshot();
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::thread waiter([&] {
    while (!inside.load(std::memory_order_acquire)) std::this_thread::yield();
    pool.parallel_for(8, 1, [](std::size_t) {});
    release.store(true, std::memory_order_release);
  });
  pool.parallel_for(8, [&](std::size_t i) {
    inside.store(true, std::memory_order_release);
    if (i == 0) {
      // Hold the pool briefly so the waiter reliably queues.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  waiter.join();
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_delta(before, "threadpool.submissions_queued"), 1u);
#endif
}

}  // namespace
}  // namespace m3xu
