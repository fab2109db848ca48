// Tests for cooperative cancellation and the thread pool's deadline
// and stall checks: token semantics, mid-parallel_for cancellation,
// deadline and stall detection (injected delays), exception priority,
// and the zero-false-positive guarantee on clean guarded runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu {
namespace {

TEST(CancellationToken, LatchesOnceWithFirstReason) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
  token.request_cancel("first");
  EXPECT_TRUE(token.cancelled());
  token.request_cancel("second");
  EXPECT_EQ(token.reason(), "first");
  try {
    token.check();
    FAIL() << "check() must throw once latched";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos);
  }
}

TEST(CancellationToken, DeadlineExceededIsACancelledError) {
  // Callers that catch CancelledError must also catch watchdog aborts.
  try {
    throw DeadlineExceeded("late");
  } catch (const CancelledError&) {
    SUCCEED();
  }
}

TEST(ParallelOptions, GuardedOnlyWhenConfigured) {
  EXPECT_FALSE(ParallelOptions{}.guarded());
  CancellationToken token;
  ParallelOptions with_token;
  with_token.token = &token;
  EXPECT_TRUE(with_token.guarded());
  ParallelOptions with_deadline;
  with_deadline.deadline_ms = 1;
  EXPECT_TRUE(with_deadline.guarded());
  ParallelOptions with_stall;
  with_stall.stall_ms = 1;
  EXPECT_TRUE(with_stall.guarded());
}

TEST(Cancellation, PreCancelledTokenAbortsPooledRun) {
  ThreadPool pool(4);
  CancellationToken token;
  token.request_cancel("pre");
  ParallelOptions options;
  options.token = &token;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(100, 1, [&](std::size_t) { ++ran; }, options),
      CancelledError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(Cancellation, PreCancelledTokenAbortsSerialRun) {
  ThreadPool pool(1);
  CancellationToken token;
  token.request_cancel("pre");
  ParallelOptions options;
  options.token = &token;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(100, 1, [&](std::size_t) { ++ran; }, options),
      CancelledError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(Cancellation, TokenObservedMidParallelFor) {
  ThreadPool pool(4);
  CancellationToken token;
  ParallelOptions options;
  options.token = &token;
  std::atomic<std::size_t> ran{0};
  const std::size_t n = 10'000;
  try {
    pool.parallel_for(
        n, 1,
        [&](std::size_t i) {
          if (i == 0) token.request_cancel("mid-run");
          ++ran;
        },
        options);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("mid-run"), std::string::npos);
  }
  // Every iteration polls the token, so the skip must leave most of
  // the range unexecuted.
  EXPECT_LT(ran.load(), n);
  // The pool stays usable after the abort.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64u);
}

TEST(Cancellation, FnExceptionOutranksCancellation) {
  ThreadPool pool(4);
  CancellationToken token;
  ParallelOptions options;
  options.token = &token;
  EXPECT_THROW(pool.parallel_for(
                   1000, 1,
                   [&](std::size_t i) {
                     if (i == 0) {
                       token.request_cancel("masked");
                       throw std::runtime_error("real failure");
                     }
                   },
                   options),
               std::runtime_error);
}

TEST(Watchdog, DeadlineFiresOnInjectedStallPooled) {
  ThreadPool pool(4);
  ParallelOptions options;
  options.deadline_ms = 25;
  std::atomic<std::size_t> ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.parallel_for(
                   64, 1,
                   [&](std::size_t) {
                     ++ran;
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(10));
                   },
                   options),
               DeadlineExceeded);
  // The abort happened long before all 64 x 10ms of work was done.
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  EXPECT_LT(ran.load(), 64u);
}

TEST(Watchdog, DeadlineFiresOnSerialPool) {
  ThreadPool pool(1);
  ParallelOptions options;
  options.deadline_ms = 25;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(
                   64, 1,
                   [&](std::size_t) {
                     ++ran;
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(10));
                   },
                   options),
               DeadlineExceeded);
  EXPECT_LT(ran.load(), 64u);
}

TEST(Watchdog, StallDetectionFiresOnStuckWorker) {
  ThreadPool pool(2);
  ParallelOptions options;
  options.stall_ms = 40;
  std::atomic<bool> woke{false};
  try {
    pool.parallel_for(
        4, 1,
        [&](std::size_t i) {
          if (i == 0) {
            // One worker sleeps well past the stall window while the
            // rest of the range finishes immediately.
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            woke = true;
          }
        },
        options);
    FAIL() << "expected DeadlineExceeded from the stall watchdog";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("stalled"), std::string::npos);
  }
  // The abort is cooperative: parallel_for returned only after the
  // stuck worker finished its iteration.
  EXPECT_TRUE(woke.load());
}

TEST(Watchdog, NoFalsePositivesOnCleanGuardedRuns) {
  ThreadPool pool(4);
  CancellationToken token;  // never cancelled
  ParallelOptions options;
  options.token = &token;
  options.deadline_ms = 60'000;
  options.stall_ms = 60'000;
  const telemetry::Snapshot before = telemetry::snapshot();
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<std::size_t> ran{0};
    pool.parallel_for(256, 1, [&](std::size_t) { ++ran; }, options);
    ASSERT_EQ(ran.load(), 256u);
  }
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_EQ(after.counter_delta(before, "threadpool.cancellations"), 0u);
  EXPECT_EQ(
      after.counter_delta(before, "threadpool.watchdog.deadline_fired"), 0u);
  EXPECT_EQ(
      after.counter_delta(before, "threadpool.watchdog.stalls_detected"), 0u);
}

TEST(CancellationReason, TagRidesTheTokenIntoCancelledError) {
  CancellationToken token;
  EXPECT_EQ(token.reason_tag(), CancelReason::kUnspecified);
  token.request_cancel("shed by admission control", CancelReason::kShed);
  EXPECT_EQ(token.reason_tag(), CancelReason::kShed);
  // The latch keeps the first tag too.
  token.request_cancel("later", CancelReason::kUser);
  EXPECT_EQ(token.reason_tag(), CancelReason::kShed);
  try {
    token.check();
    FAIL() << "latched token must throw";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kShed);
  }
}

TEST(CancellationReason, NamesAreStable) {
  EXPECT_STREQ(cancel_reason_name(CancelReason::kUnspecified), "unspecified");
  EXPECT_STREQ(cancel_reason_name(CancelReason::kUser), "user");
  EXPECT_STREQ(cancel_reason_name(CancelReason::kDeadline), "deadline");
  EXPECT_STREQ(cancel_reason_name(CancelReason::kShed), "shed");
  EXPECT_STREQ(cancel_reason_name(CancelReason::kStall), "stall");
}

#if M3XU_TELEMETRY_ENABLED
TEST(CancellationReason, ReasonCountersTrackTokenLatches) {
  const telemetry::Snapshot before = telemetry::snapshot();
  CancellationToken user_token;
  user_token.request_cancel("user asked", CancelReason::kUser);
  CancellationToken deadline_token;
  deadline_token.request_cancel("too slow", CancelReason::kDeadline);
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_delta(before, "cancel.user"), 1u);
  EXPECT_GE(after.counter_delta(before, "cancel.deadline"), 1u);
}
#endif

TEST(Watchdog, GuardedRunStillCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  CancellationToken token;
  ParallelOptions options;
  options.token = &token;
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(hits.size(), 1, [&](std::size_t i) { ++hits[i]; },
                    options);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace m3xu
