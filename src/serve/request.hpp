// Request/response types for the multi-tenant GemmServer.
//
// A submission returns a RequestHandle - a shared handle onto the
// request's state. The caller keeps the handle to wait on completion,
// cancel, and read the result; the server keeps one to execute it.
// Every request terminates in exactly one terminal status:
//
//   kOk                bit-identical result (clean run, or every fault
//                      recovered by the ladder)
//   kDeadlineExceeded  the request's deadline elapsed (queued or
//                      mid-run)
//   kShed              admission control rejected or evicted it
//   kCancelled         the caller's explicit cancel()
//   kFailed            a structured error (exhausted retries, invalid
//                      shapes, ...); error() carries the message
//
// There is no silent-drop path: shutdown and eviction both resolve
// pending requests to kShed. See docs/SERVING.md.
#pragma once

#include <chrono>
#include <complex>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/cancellation.hpp"
#include "gemm/matrix.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::serve {

/// Trace events carry these numbers ("request.done"), so they stay
/// fixed; 3 is retired.
enum class RequestStatus : int {
  kQueued = 0,
  kRunning = 1,
  kOk = 2,
  kDeadlineExceeded = 4,
  kShed = 5,
  kCancelled = 6,
  kFailed = 7,
};

inline const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kRunning:
      return "running";
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kFailed:
      return "failed";
  }
  return "?";
}

inline bool is_terminal(RequestStatus s) {
  return s != RequestStatus::kQueued && s != RequestStatus::kRunning;
}

/// Per-request knobs a tenant sets at submission.
struct RequestOptions {
  /// Tenant identity: scopes the quarantine (one tenant's repeat
  /// offenders never demote a neighbor's route) and the per-tenant
  /// serving counters.
  std::string tenant = "default";
  /// Admission priority: higher wins. Under the evict-lowest-priority
  /// policy a full queue evicts the lowest-priority (then youngest)
  /// queued request to admit a strictly higher-priority one.
  int priority = 0;
  /// Wall deadline from submission, in ms. 0 uses the server default;
  /// < 0 means no deadline even if the server has a default.
  std::int64_t deadline_ms = 0;
  /// Identity of the B matrix contents for prepacked-panel caching.
  /// 0 = no caching. Callers must guarantee two submissions share a
  /// b_key only when their B matrices are bytewise identical.
  std::uint64_t b_key = 0;
};

/// One in-flight GEMM request. Thread-safe shared state between the
/// submitting tenant and the executor; obtained only via
/// GemmServer::submit_* (the server fills in the matrices and token).
class Request {
 public:
  RequestStatus status() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }
  bool done() const { return is_terminal(status()); }

  /// Blocks until the request reaches a terminal status.
  void wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return is_terminal(status_); });
  }
  /// As wait(), bounded; returns false on timeout.
  bool wait_for(std::int64_t timeout_ms) const {
    std::unique_lock<std::mutex> lock(mu_);
    return done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return is_terminal(status_); });
  }

  /// Cooperative cancel. Queued requests resolve to kCancelled when
  /// the executor picks them up; running ones abort at the next
  /// checkpoint. No-op once terminal.
  void cancel(const std::string& reason = "cancelled by caller") {
    token_.request_cancel(reason, CancelReason::kUser);
  }

  /// Result matrix; valid only in kOk.
  const gemm::Matrix<float>& result_f32() const { return c_; }
  const gemm::Matrix<std::complex<float>>& result_c64() const { return cc_; }

  /// Driver stats of the successful attempt (kOk only).
  const gemm::TiledGemmStats& stats() const { return stats_; }
  /// Structured error message (kFailed; also set for kShed /
  /// kDeadlineExceeded / kCancelled with the abort reason).
  std::string error() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }
  /// Executor attempts consumed (0 when never started).
  int attempts() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return attempts_;
  }

  const RequestOptions& options() const { return options_; }
  bool complex_mode() const { return complex_; }

  /// Request-scoped trace the server threaded through execution, or
  /// null when ServerConfig::trace_requests is off. Valid for the
  /// handle's lifetime; export with trace()->to_json() once terminal.
  telemetry::TraceContext* trace() const { return trace_.get(); }

 private:
  friend class GemmServer;

  Request() = default;

  /// Executor-side: publish a terminal status exactly once. Later
  /// calls are ignored, so racing resolutions (e.g. a cancel landing
  /// while the executor finishes) keep the first outcome.
  // Resolution is two-phase so terminal side effects (the terminal
  // counter, the trace's "request.done" event) complete BEFORE any
  // waiter wakes: claim_terminal() wins the idempotence race without
  // publishing; publish_resolution() then stores the outcome and
  // notifies. A wait() that returns therefore always observes the
  // finished timeline and counters that already counted the request.
  bool claim_terminal() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (claimed_ || is_terminal(status_)) return false;
    claimed_ = true;
    return true;
  }
  void publish_resolution(RequestStatus s, const std::string& error) {
    std::unique_lock<std::mutex> lock(mu_);
    status_ = s;
    error_ = error;
    lock.unlock();
    done_cv_.notify_all();
  }
  void set_running() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!claimed_ && !is_terminal(status_)) status_ = RequestStatus::kRunning;
  }

  RequestOptions options_;
  bool complex_ = false;
  gemm::Matrix<float> a_, b_, c_;
  gemm::Matrix<std::complex<float>> ca_, cb_, cc_;
  CancellationToken token_;
  gemm::TiledGemmStats stats_;
  std::unique_ptr<telemetry::TraceContext> trace_;
  std::int64_t submit_ns_ = 0;  // steady-clock stamp at submission
  int attempts_ = 0;

  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  RequestStatus status_ = RequestStatus::kQueued;
  bool claimed_ = false;  // terminal resolution claimed, not yet published
  std::string error_;
};

using RequestHandle = std::shared_ptr<Request>;

}  // namespace m3xu::serve
