#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>

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
// Concurrent-submission contention: calls that found the pool busy,
// and how long they queued before acquiring it.
telemetry::Counter tp_submit_queued("threadpool.submissions_queued");
telemetry::Histogram tp_submit_wait("threadpool.submit_wait_ns");

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
      }
    }
    // Iterations skipped after a failure still count as done so the
    // caller's completion wait terminates.
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
  parallel_for(n, 0, fn);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  tp_tasks.increment();
  tp_iters.add(n);
  if (workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
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
    // submitters queue here until the running task retires.
    std::unique_lock<std::mutex> lock(mu_);
    if (current_ != nullptr) {
      tp_submit_queued.increment();
      const telemetry::Stopwatch queued;
      submit_cv_.wait(lock, [&] { return current_ == nullptr; });
      tp_submit_wait.record(static_cast<std::uint64_t>(queued.elapsed_ns()));
    }
    prepare(task, n, grain, fn);
    current_ = &task;
    ++generation_;
  }
  run_claimed(task, start_ns);
}

bool ThreadPool::try_parallel_for(std::size_t n, std::size_t grain,
                                  const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    parallel_for(n, grain, fn);
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
    prepare(task, n, grain, fn);
    current_ = &task;
    ++generation_;
  }
  tp_tasks.increment();
  tp_iters.add(n);
  const telemetry::ScopedTimer span("threadpool.parallel_for");
  run_claimed(task, start_ns);
  return true;
}

void ThreadPool::prepare(Task& task, std::size_t n, std::size_t grain,
                         const std::function<void(std::size_t)>& fn) const {
  task.fn = &fn;
  task.end = n;
  // Default grain aims for ~4 chunks per thread to balance load
  // without excess atomics.
  task.chunk = grain != 0
                   ? grain
                   : std::max<std::size_t>(1, n / (4 * thread_count()));
}

void ThreadPool::run_claimed(Task& task, std::uint64_t start_ns) {
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
  // the calling thread (no lock needed past the wait above).
  if (task.error) std::rethrow_exception(task.error);
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

}  // namespace m3xu
