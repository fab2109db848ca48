#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/check.hpp"
#include "telemetry/stopwatch.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace m3xu {

namespace {

// Pool gauges (no-ops when M3XU_TELEMETRY=OFF). Worker utilization is
// worker_busy_ns / (wall_ns * thread_count); queue_depth samples the
// iterations still unclaimed at each chunk claim.
telemetry::Counter tp_tasks("threadpool.tasks");
telemetry::Counter tp_iters("threadpool.iterations");
telemetry::Counter tp_busy_ns("threadpool.worker_busy_ns");
telemetry::Counter tp_wall_ns("threadpool.wall_ns");
telemetry::Histogram tp_depth("threadpool.queue_depth");
// Guard-rail outcomes: every pooled call with a time limit, and every
// abort the pool's own checks latch, by cause. Clean guarded runs bump
// watches only - the zero-false-positive property tests assert on
// exactly these counters.
telemetry::Counter tp_cancellations("threadpool.cancellations");
telemetry::Counter tp_watches("threadpool.watchdog.watches");
telemetry::Counter tp_deadline_fired("threadpool.watchdog.deadline_fired");
telemetry::Counter tp_stalls("threadpool.watchdog.stalls_detected");
// Concurrent-submission contention: calls that found the pool busy,
// and how long they queued before acquiring it.
telemetry::Counter tp_submit_queued("threadpool.submissions_queued");
telemetry::Histogram tp_submit_wait("threadpool.submit_wait_ns");

/// The now_ns() instant `options.deadline_ms` after `start_ns`.
std::uint64_t deadline_at(const ParallelOptions& options,
                          std::uint64_t start_ns) {
  return start_ns + static_cast<std::uint64_t>(options.deadline_ms) * 1'000'000;
}

std::string deadline_message(const ParallelOptions& options) {
  return "parallel_for exceeded its deadline of " +
         std::to_string(options.deadline_ms) + " ms";
}

}  // namespace

thread_local const ThreadPool* ThreadPool::draining_pool_ = nullptr;

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::Task::stopping(bool completed) {
  if (stop_cause.load(std::memory_order_relaxed) != kStopNone) return true;
  int cause = kStopNone;
  if (!completed && token != nullptr && token->cancelled()) {
    cause = kStopToken;
  } else if (timed()) {
    const std::uint64_t now = telemetry::now_ns();
    if (completed && stall_ns != 0) {
      // The gap since the previous completion. A gap that reached the
      // stall window before the deadline is a stall even if it ends
      // past the deadline: the window was the first limit crossed.
      // Concurrent completions may swap in slightly out of order; a
      // negative gap is no stall.
      const std::uint64_t last = last_progress_ns.exchange(now);
      if (now > last && now - last >= stall_ns &&
          (deadline_ns == 0 || last + stall_ns < deadline_ns)) {
        cause = kStopStall;
      }
    }
    if (cause == kStopNone && deadline_ns != 0 && now >= deadline_ns) {
      cause = kStopDeadline;
    }
  }
  if (cause == kStopNone) return false;
  int expected = kStopNone;
  if (stop_cause.compare_exchange_strong(expected, cause)) {
    if (cause == kStopToken) tp_cancellations.increment();
    if (cause == kStopDeadline) tp_deadline_fired.increment();
    if (cause == kStopStall) tp_stalls.increment();
  }
  return true;
}

void ThreadPool::drain(Task& task) {
  const ThreadPool* const prev_pool = draining_pool_;
  draining_pool_ = this;
  const telemetry::Stopwatch busy;
  for (;;) {
    std::size_t begin = task.next.fetch_add(task.chunk);
    if (begin >= task.end) break;
    tp_depth.record(task.end - begin);
    std::size_t end = std::min(begin + task.chunk, task.end);
    if (!task.failed.load(std::memory_order_relaxed)) {
      for (std::size_t i = begin; i < end; ++i) {
        if (task.guarded && task.stopping(false)) {
          break;  // remaining iterations counted below
        }
        try {
          (*task.fn)(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(task.error_mu);
            if (!task.error) task.error = std::current_exception();
          }
          task.failed.store(true, std::memory_order_relaxed);
          break;  // skip the rest of this chunk
        }
        if (task.timed()) task.stopping(true);
      }
    }
    // Iterations skipped after a failure or guard abort still count as
    // done so the caller's completion wait terminates.
    task.done.fetch_add(end - begin);
  }
  tp_busy_ns.add(busy.elapsed_ns());
  draining_pool_ = prev_pool;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_generation = generation_;
  for (;;) {
    cv_.wait(lock, [&] {
      return stop_ || (current_ != nullptr && generation_ != seen_generation);
    });
    if (stop_) return;
    seen_generation = generation_;
    Task* task = current_;
    ++active_;
    lock.unlock();
    drain(*task);
    lock.lock();
    --active_;
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(n, 0, fn, ParallelOptions{});
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(n, grain, fn, ParallelOptions{});
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn,
                              const ParallelOptions& options) {
  if (n == 0) return;
  tp_tasks.increment();
  tp_iters.add(n);
  if (workers_.empty() || n == 1) {
    run_inline(n, fn, options);
    return;
  }
  const telemetry::ScopedTimer span("threadpool.parallel_for");
  const std::uint64_t start_ns = telemetry::now_ns();
  M3XU_CHECK_MSG(draining_pool_ != this,
                 "nested parallel_for: a body running on this pool must not "
                 "submit to the same pool (the inner call would wait on the "
                 "task its own thread is executing)");
  Task task;
  {
    // Acquire the pool. The pool runs one task at a time; concurrent
    // submitters queue here until the running task retires. The wait
    // is cancellable (token) and counts against the caller's deadline,
    // so a shed or expired request never occupies the pool at all.
    std::unique_lock<std::mutex> lock(mu_);
    if (current_ != nullptr) {
      tp_submit_queued.increment();
      const telemetry::Stopwatch queued;
      while (current_ != nullptr) {
        submit_cv_.wait_for(lock, std::chrono::milliseconds(1));
        if (current_ == nullptr) break;
        if (options.token != nullptr && options.token->cancelled()) {
          tp_cancellations.increment();
          throw CancelledError(
              "parallel_for cancelled while queued for the pool: " +
                  options.token->reason(),
              options.token->reason_tag());
        }
        if (options.deadline_ms > 0 &&
            telemetry::now_ns() >= deadline_at(options, start_ns)) {
          tp_deadline_fired.increment();
          throw DeadlineExceeded(deadline_message(options) +
                                 " while queued for the pool");
        }
      }
      tp_submit_wait.record(static_cast<std::uint64_t>(queued.elapsed_ns()));
    }
    prepare(task, n, grain, fn, options, start_ns);
    current_ = &task;
    ++generation_;
  }
  run_claimed(task, options, start_ns);
}

bool ThreadPool::try_parallel_for(std::size_t n, std::size_t grain,
                                  const std::function<void(std::size_t)>& fn,
                                  const ParallelOptions& options) {
  if (workers_.empty() || n <= 1) {
    parallel_for(n, grain, fn, options);
    return true;
  }
  const std::uint64_t start_ns = telemetry::now_ns();
  Task task;
  {
    // Check and claim under one lock: a busy pool (another caller's
    // task, or this thread's own task when called from a body) is
    // reported, never waited for, so submissions_queued cannot move.
    const std::lock_guard<std::mutex> lock(mu_);
    if (current_ != nullptr) return false;
    prepare(task, n, grain, fn, options, start_ns);
    current_ = &task;
    ++generation_;
  }
  tp_tasks.increment();
  tp_iters.add(n);
  const telemetry::ScopedTimer span("threadpool.parallel_for");
  run_claimed(task, options, start_ns);
  return true;
}

void ThreadPool::run_inline(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            const ParallelOptions& options) {
  if (!options.guarded()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Guarded: the token is checked before every iteration, the
  // deadline before and after each.
  const std::uint64_t deadline_ns =
      options.deadline_ms > 0 ? deadline_at(options, telemetry::now_ns()) : 0;
  const auto check_deadline = [&] {
    if (deadline_ns != 0 && telemetry::now_ns() >= deadline_ns) {
      tp_deadline_fired.increment();
      throw DeadlineExceeded(deadline_message(options));
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (options.token != nullptr && options.token->cancelled()) {
      tp_cancellations.increment();
      throw CancelledError(
          "parallel_for cancelled: " + options.token->reason(),
          options.token->reason_tag());
    }
    check_deadline();
    fn(i);
  }
  check_deadline();
}

void ThreadPool::prepare(Task& task, std::size_t n, std::size_t grain,
                         const std::function<void(std::size_t)>& fn,
                         const ParallelOptions& options,
                         std::uint64_t start_ns) const {
  task.fn = &fn;
  task.end = n;
  // Default grain aims for ~4 chunks per thread to balance load
  // without excess atomics.
  task.chunk = grain != 0
                   ? grain
                   : std::max<std::size_t>(1, n / (4 * thread_count()));
  task.guarded = options.guarded();
  task.token = options.token;
  if (options.deadline_ms > 0) {
    task.deadline_ns = deadline_at(options, start_ns);
  }
  if (options.stall_ms > 0) {
    task.stall_ns = static_cast<std::uint64_t>(options.stall_ms) * 1'000'000;
    task.last_progress_ns.store(telemetry::now_ns(), std::memory_order_relaxed);
  }
}

void ThreadPool::run_claimed(Task& task, const ParallelOptions& options,
                             std::uint64_t start_ns) {
  if (task.timed()) tp_watches.increment();
  cv_.notify_all();
  drain(task);
  {
    // Wait until every iteration ran AND no worker still holds a
    // reference to `task` (it lives on this stack frame).
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return active_ == 0 && task.done.load() == task.end;
    });
    current_ = nullptr;
  }
  // Hand the pool to the next queued submitter, if any.
  submit_cv_.notify_one();
  tp_wall_ns.add(telemetry::now_ns() - start_ns);
  // All workers have quiesced: rethrow the first captured exception on
  // the calling thread (no lock needed past the wait above). fn errors
  // outrank guard aborts - a real failure should not be masked by the
  // cancellation it triggered.
  if (task.error) std::rethrow_exception(task.error);
  switch (task.stop_cause.load(std::memory_order_relaxed)) {
    case kStopToken:
      throw CancelledError(
          "parallel_for cancelled: " +
              (task.token != nullptr ? task.token->reason() : std::string()),
          task.token != nullptr ? task.token->reason_tag()
                                : CancelReason::kUnspecified);
    case kStopDeadline:
      throw DeadlineExceeded(deadline_message(options));
    case kStopStall:
      throw DeadlineExceeded(
          "parallel_for stalled: no iteration completed for " +
              std::to_string(options.stall_ms) + " ms",
          CancelReason::kStall);
    default:
      break;
  }
}

namespace {

// Requested global-pool size: SIZE_MAX = unset (fall through to the
// M3XU_THREADS env var, then the hardware default). Latched by the
// first global() call.
std::atomic<std::size_t> g_global_threads{SIZE_MAX};
std::atomic<bool> g_global_built{false};

std::size_t global_pool_size() {
  std::size_t req = g_global_threads.load(std::memory_order_acquire);
  if (req != SIZE_MAX) return req;
  if (const char* env = std::getenv("M3XU_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v < 4096) return v;
  }
  return 0;  // hardware default
}

}  // namespace

ThreadPool& ThreadPool::global() {
  static ThreadPool* pool = [] {
    static ThreadPool p(global_pool_size());
    g_global_built.store(true, std::memory_order_release);
    return &p;
  }();
  return *pool;
}

bool ThreadPool::configure_global(std::size_t threads) {
  if (g_global_built.load(std::memory_order_acquire)) return false;
  g_global_threads.store(threads, std::memory_order_release);
  // Benign race: a concurrent first global() call may or may not see
  // the request; callers are expected to configure before spinning up
  // concurrent work.
  return !g_global_built.load(std::memory_order_acquire);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, grain, fn);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& fn,
                  const ParallelOptions& options) {
  ThreadPool::global().parallel_for(n, grain, fn, options);
}

}  // namespace m3xu

// Time-limit limitation, documented here next to the implementation: a
// worker that never returns from fn cannot be preempted - the
// completion wait above still blocks on its chunk, and the checks only
// run at iteration boundaries. Their job is to convert a *finite*
// stall (a slow syscall, an injected delay, a contended lock) into a
// clean DeadlineExceeded instead of silently absorbing it, and to stop
// the rest of the grid from piling in after it. Truly unbounded hangs
// need process-level supervision.
