// Tests for the cooperative cancellation token: latch-once semantics,
// the reason tag it carries into CancelledError, the per-reason latch
// counters, and DeadlineExceeded's place under CancelledError. The
// driver's guard checkpoint that consumes tokens and time limits is
// covered in resilience_test.cpp.
#include <gtest/gtest.h>

#include <string>

#include "common/cancellation.hpp"
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
  // Callers that catch CancelledError must also catch time-limit aborts.
  try {
    throw DeadlineExceeded("late");
  } catch (const CancelledError&) {
    SUCCEED();
  }
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

}  // namespace
}  // namespace m3xu
