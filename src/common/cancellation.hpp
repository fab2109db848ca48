// Cooperative cancellation for long-running parallel work.
//
// A CancellationToken is a thread-safe flag plus a human-readable
// reason and a machine-readable CancelReason tag. Producers (the
// serving layer's admission control, an RPC layer, a user) call
// request_cancel(); the consumer, the tiled GEMM driver's guard
// checkpoint (at tile entry and before every staged K-block), calls
// check(), which throws CancelledError. Cancellation is purely
// cooperative: work only stops at the next checkpoint. The same
// checkpoint reads the clock for gemm::ExecRails' wall deadline and
// stall window and aborts with DeadlineExceeded.
// The reason tag distinguishes who pulled the trigger (user cancel,
// deadline, load shed, stall), is carried on CancelledError, and is
// mirrored into cancel.* telemetry counters when a token latches. See
// docs/RESILIENCE.md and docs/SERVING.md.
#pragma once

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>

#include "telemetry/telemetry.hpp"

namespace m3xu {

/// Who (conceptually) latched a CancellationToken / aborted a guarded
/// call. Tags are advisory labels for classification - they do not
/// change abort semantics - but the serving layer relies on them to
/// map aborts onto terminal request statuses (user cancel vs deadline
/// vs shed) and to decide which failures are retryable (stall).
enum class CancelReason : int {
  kUnspecified = 0,  // legacy callers that never tagged their cancel
  kUser = 1,         // an explicit caller-initiated cancel
  kDeadline = 2,     // a wall deadline elapsed
  kShed = 3,         // admission control / load shedding
  kStall = 4,        // no tile completed for the stall window
};

namespace detail {
/// One bump per latch/abort, by reason - no-ops with M3XU_TELEMETRY=OFF.
inline void count_cancel_reason(CancelReason reason) {
  static telemetry::Counter unspecified("cancel.unspecified");
  static telemetry::Counter user("cancel.user");
  static telemetry::Counter deadline("cancel.deadline");
  static telemetry::Counter shed("cancel.shed");
  static telemetry::Counter stall("cancel.stall");
  switch (reason) {
    case CancelReason::kUser:
      user.increment();
      break;
    case CancelReason::kDeadline:
      deadline.increment();
      break;
    case CancelReason::kShed:
      shed.increment();
      break;
    case CancelReason::kStall:
      stall.increment();
      break;
    default:
      unspecified.increment();
      break;
  }
}
}  // namespace detail

/// A run was cancelled via a CancellationToken (or aborted by a time
/// limit, whose errors derive from this so one catch clause covers
/// every cooperative abort). reason() carries the CancelReason tag of
/// whoever triggered the abort.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& what,
                          CancelReason reason = CancelReason::kUnspecified)
      : std::runtime_error(what), reason_(reason) {}

  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

/// A guarded run hit a time limit at a checkpoint: either the wall
/// deadline elapsed (reason kDeadline) or no tile completed for the
/// stall window (reason kStall). The message distinguishes the two
/// as well.
class DeadlineExceeded : public CancelledError {
 public:
  explicit DeadlineExceeded(const std::string& what,
                            CancelReason reason = CancelReason::kDeadline)
      : CancelledError(what, reason) {}
};

class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Latches the token. The first caller's reason (and tag) wins;
  /// later calls are no-ops. Safe from any thread.
  void request_cancel(const std::string& reason = "cancelled",
                      CancelReason tag = CancelReason::kUser) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;
    reason_ = reason;
    tag_ = tag;
    detail::count_cancel_reason(tag);
    cancelled_.store(true, std::memory_order_release);
  }

  /// Cheap poll (one acquire load) for inner-loop checkpoints.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The reason passed to request_cancel (empty until then).
  std::string reason() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return reason_;
  }

  /// The machine-readable tag of the winning request_cancel
  /// (kUnspecified until the token latches).
  CancelReason reason_tag() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return tag_;
  }

  /// Throws CancelledError when the token is latched; otherwise a
  /// no-op. The canonical checkpoint call.
  void check() const {
    if (cancelled()) {
      const std::lock_guard<std::mutex> lock(mu_);
      throw CancelledError("cancelled: " + reason_, tag_);
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;
  std::string reason_;
  CancelReason tag_ = CancelReason::kUnspecified;
};

}  // namespace m3xu
