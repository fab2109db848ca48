// A small work-stealing-free thread pool with a blocking parallel_for.
//
// GEMM drivers and workload generators parallelize over tile grids with
// parallel_for; the pool is created once and reused. On single-core
// hosts the pool degenerates to serial execution with identical results
// (chunk order is deterministic regardless of thread count).
//
// parallel_for can optionally run *guarded* (ParallelOptions): a
// cooperative CancellationToken is polled before every iteration, and
// a wall deadline and a stall window are read off the clock at the
// same iteration boundaries (before each iteration and after each
// completed one). No helper thread watches the clock, so a limit takes
// effect at the next boundary. Guarding is strictly opt-in - the
// default options leave the hot path byte-identical to the unguarded
// pool (no per-iteration atomics), and a token-only call reads no
// clock. See docs/RESILIENCE.md.
//
// Concurrent submissions: parallel_for may be called from multiple OS
// threads at once (the multi-tenant GemmServer does exactly this).
// The pool runs one task at a time; later submitters queue on a
// condition variable until the pool frees up. The queue wait is
// cancellable (a latched token throws CancelledError without running
// a single iteration) and counts against the caller's deadline_ms;
// threadpool.submit_wait_ns / threadpool.submissions_queued telemetry
// expose the contention. Calling parallel_for from *inside* a body
// running on the same pool is still misuse (it would deadlock) and
// fails a M3XU_CHECK. try_parallel_for is the non-blocking form: it
// claims an idle pool or reports it busy, never queueing, which lets
// the tiled driver run a request's tiles on its own thread while
// another request holds the pool. See docs/SERVING.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.hpp"

namespace m3xu {

/// Optional guard rails for one parallel_for call. All default-off;
/// any non-default field switches the call into guarded mode.
struct ParallelOptions {
  /// Cooperative cancellation: polled before every iteration. A
  /// latched token makes workers skip their remaining iterations and
  /// parallel_for throw CancelledError after quiescing.
  const CancellationToken* token = nullptr;
  /// Wall-clock budget for the whole call, in ms (0 = none), counted
  /// from entry (queue wait included) and checked before every
  /// iteration and after every completed one. Once it has elapsed no
  /// further iteration starts and parallel_for throws
  /// DeadlineExceeded - also when the iteration that crossed it was
  /// the last.
  std::int64_t deadline_ms = 0;
  /// No-progress window, in ms (0 = none; pooled calls only): a
  /// completed iteration that ends a gap of at least this long since
  /// the previous completion (or since the task started) flags a
  /// stall, unless the deadline elapsed before the gap reached the
  /// window, and parallel_for throws DeadlineExceeded (kStall). The
  /// abort is cooperative - a worker stuck *inside* fn is only seen
  /// when fn returns; the check bounds the damage by skipping
  /// everything after it.
  std::int64_t stall_ms = 0;

  bool guarded() const {
    return token != nullptr || deadline_ms > 0 || stall_ms > 0;
  }
};

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs fn(i) for i in [0, n), partitioned into contiguous chunks.
  /// Blocks until all iterations complete. If `fn` throws, the first
  /// exception is captured, remaining iterations are skipped, and the
  /// exception is rethrown on the calling thread once all workers have
  /// quiesced (which iterations ran before the skip is unspecified).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// As above with an explicit scheduling grain: workers claim `grain`
  /// consecutive indices per queue pop, so cheap per-index bodies
  /// amortize the atomic increment and closure dispatch. grain == 0
  /// picks the default (~4 chunks per thread). Iteration results are
  /// independent of grain; only scheduling granularity changes.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

  /// Guarded variant: cooperative cancellation and time limits per
  /// `options`. Exceptions thrown by fn take priority over guard
  /// aborts; otherwise a latched token throws CancelledError and an
  /// elapsed deadline / detected stall throws DeadlineExceeded, in
  /// both cases only after every worker has quiesced.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn,
                    const ParallelOptions& options);

  /// Non-blocking parallel_for: checks and claims the pool in one
  /// step. When the pool is idle it runs exactly like parallel_for and
  /// returns true; when another task holds it (another caller's, or
  /// the task a body calling this is part of) it runs nothing and
  /// returns false, so the caller can do the work itself instead of
  /// queueing. Calls that never need the pool (n <= 1, or a pool
  /// without workers) run serially on the caller and return true.
  bool try_parallel_for(std::size_t n, std::size_t grain,
                        const std::function<void(std::size_t)>& fn,
                        const ParallelOptions& options);

  /// Runs fn(i) for i in [0, n) on the calling thread in index order
  /// with parallel_for's serial guard semantics: the token is checked
  /// before every iteration and the deadline before and after each
  /// (stall_ms is not checked here: stall detection is the pooled
  /// path's).
  static void run_inline(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         const ParallelOptions& options);

  /// Process-wide default pool (lazily constructed). Sized by the
  /// first of: configure_global(), the M3XU_THREADS environment
  /// variable, hardware_concurrency().
  static ThreadPool& global();

  /// Sets the worker count the global pool is built with (0 = the
  /// hardware default). Only effective before the first global() call
  /// - the pool is immutable once running - and returns false without
  /// touching anything afterwards. Benchmarks call this from flag
  /// parsing; libraries should take an explicit pool instead.
  static bool configure_global(std::size_t threads);

 private:
  // Why a guarded task stopped (Task::stop_cause values).
  enum : int { kStopNone = 0, kStopToken = 1, kStopDeadline = 2,
               kStopStall = 3 };

  struct Task {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> done{0};
    // First exception thrown by fn; later ones are dropped. `failed`
    // short-circuits the remaining iterations cheaply.
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr error;
    // Guarded-mode state, set before the task is published, so
    // unguarded drains pay one predictable branch and no atomics
    // beyond the existing ones.
    bool guarded = false;
    const CancellationToken* token = nullptr;
    // Time limits in telemetry::now_ns() units (0 = none): the
    // deadline instant and the stall window. Only a task with one
    // reads the clock.
    std::uint64_t deadline_ns = 0;
    std::uint64_t stall_ns = 0;
    std::atomic<int> stop_cause{kStopNone};
    // Clock reading at the latest completed iteration (the task's
    // publication before the first): the stall check's heartbeat.
    std::atomic<std::uint64_t> last_progress_ns{0};

    bool timed() const { return deadline_ns != 0 || stall_ns != 0; }
    /// One guard checkpoint: latches the first stop cause it sees -
    /// the token and the deadline before an iteration, the stall
    /// window and the deadline after a completed one (`completed`),
    /// whichever was crossed first - and returns whether the task is
    /// stopping.
    bool stopping(bool completed);
  };

  void worker_loop();
  void drain(Task& task);
  /// Fills `task` for publication; called under mu_ right before
  /// current_ = &task, so the stall heartbeat starts after any queue
  /// wait while the deadline counts from `start_ns`, the call's entry.
  void prepare(Task& task, std::size_t n, std::size_t grain,
               const std::function<void(std::size_t)>& fn,
               const ParallelOptions& options, std::uint64_t start_ns) const;
  /// Runs a task this caller has claimed (current_ == &task) to
  /// completion: wakes the workers, drains alongside them, releases
  /// the pool and rethrows the first body error or guard abort.
  /// `start_ns` is the call's entry (threadpool.wall_ns counts from it).
  void run_claimed(Task& task, const ParallelOptions& options,
                   std::uint64_t start_ns);

  // The pool this thread is currently draining a task for (nullptr
  // outside drain). Lets parallel_for reject the one submission shape
  // that cannot queue: a body resubmitting to its own pool.
  static thread_local const ThreadPool* draining_pool_;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::condition_variable submit_cv_;
  Task* current_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Convenience wrappers over the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn);
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& options);

}  // namespace m3xu
