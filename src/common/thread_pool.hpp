// A small work-stealing-free thread pool with a blocking parallel_for.
//
// GEMM drivers and workload generators parallelize over tile grids with
// parallel_for; the pool is created once and reused. On single-core
// hosts the pool degenerates to serial execution with identical results
// (chunk order is deterministic regardless of thread count).
//
// The pool knows nothing of cancellation tokens, deadlines or stall
// windows: a body that must stop early throws, and parallel_for skips
// the iterations nobody has started and rethrows on the caller. The
// tiled GEMM driver enforces gemm::ExecRails' limits that way, at its
// own checkpoints (docs/RESILIENCE.md).
//
// Concurrent submissions: parallel_for may be called from multiple OS
// threads at once (the multi-tenant GemmServer does exactly this).
// The pool runs one task at a time; later submitters queue on a
// condition variable until the pool frees up, and
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

namespace m3xu {

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

  /// Non-blocking parallel_for: checks and claims the pool in one
  /// step. When the pool is idle it runs exactly like parallel_for and
  /// returns true; when another task holds it (another caller's, or
  /// the task a body calling this is part of) it runs nothing and
  /// returns false, so the caller can do the work itself instead of
  /// queueing. Calls that never need the pool (n <= 1, or a pool
  /// without workers) run serially on the caller and return true.
  bool try_parallel_for(std::size_t n, std::size_t grain,
                        const std::function<void(std::size_t)>& fn);

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
  };

  void worker_loop();
  void drain(Task& task);
  /// Fills `task` for publication; called under mu_ right before
  /// current_ = &task.
  void prepare(Task& task, std::size_t n, std::size_t grain,
               const std::function<void(std::size_t)>& fn) const;
  /// Runs a task this caller has claimed (current_ == &task) to
  /// completion: wakes the workers, drains alongside them, releases
  /// the pool and rethrows the first body error. `start_ns` is the
  /// call's entry (threadpool.wall_ns counts from it).
  void run_claimed(Task& task, std::uint64_t start_ns);

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

}  // namespace m3xu
