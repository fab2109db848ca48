// Threaded tiled-driver determinism: partitioning the tile grid over a
// ThreadPool is a throughput lever only. For every route rung and both
// dtypes, the result must be bit-identical whatever pool the caller
// supplies (1, 2, or 8 threads via ExecRails::pool, or the
// process-global pool) and whatever grid the plan picks for it,
// identical across repeated runs on the same pool (no
// schedule-dependent accumulation order), and identical with the ABFT
// guard on. Runs under `ctest -L tsan` in the
// M3XU_SANITIZE=thread CI job, where the per-thread staging scratch
// and the shared TiledGemmStats reduction are the interesting surface.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <complex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::gemm {
namespace {

template <typename T>
struct Problem {
  Matrix<T> a, b, c;
};

template <typename T>
Problem<T> make(int m, int n, int k, std::uint64_t seed) {
  Problem<T> p{Matrix<T>(m, k), Matrix<T>(k, n), Matrix<T>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

std::vector<std::pair<const char*, core::M3xuConfig>> route_configs() {
  std::vector<std::pair<const char*, core::M3xuConfig>> out;
  out.emplace_back("microkernel", core::M3xuConfig{});
  core::M3xuConfig generic;
  generic.force_generic = true;
  out.emplace_back("generic", generic);
  return out;
}

// A tile shape that yields a multi-tile grid on the test problems, so
// the pool actually partitions work (2x2 tiles and a K mainloop).
const TileConfig kTile{64, 64, 16, 32, 32};

constexpr int kPoolSizes[] = {1, 2, 8};

/// C <- p.c + A*B through `plan` on `pool` (null = the global pool).
template <typename T>
void run_on(const GemmPlan& plan, ThreadPool* pool, const Problem<T>& p,
            Matrix<T>& c) {
  ExecRails rails;
  rails.pool = pool;
  c = p.c;
  plan.execute(p.a, p.b, c, rails);
}

template <typename T>
void expect_pool_invariance(const char* route, const core::M3xuConfig& cfg,
                            const AbftConfig& abft, const Problem<T>& p) {
  SCOPED_TRACE(route);
  PlanOptions options;
  options.tile = kTile;
  options.abft = abft;
  const GemmPlan plan = GemmPlan::compile(
      cfg,
      {p.a.rows(), p.b.cols(), p.a.cols(),
       std::is_same_v<T, std::complex<float>>},
      options);

  // Reference: the global pool (whatever size the host gave it).
  Matrix<T> ref(p.c.rows(), p.c.cols());
  run_on(plan, nullptr, p, ref);

  for (const int threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(static_cast<std::size_t>(threads));
    Matrix<T> c1(p.c.rows(), p.c.cols());
    Matrix<T> c2(p.c.rows(), p.c.cols());
    run_on(plan, &pool, p, c1);
    // Second run on the same (already warm) pool: chunk claiming order
    // differs run to run; the bits must not.
    run_on(plan, &pool, p, c2);
    EXPECT_TRUE(bitwise_equal(c1, ref)) << "pool size " << threads;
    EXPECT_TRUE(bitwise_equal(c1, c2)) << "repeat on pool size " << threads;
  }
}

TEST(ThreadedDriver, SgemmBitIdenticalAcrossPoolSizes) {
  const Problem<float> p = make<float>(100, 90, 130, 901);
  for (const auto& [route, cfg] : route_configs()) {
    expect_pool_invariance(route, cfg, AbftConfig{}, p);
  }
}

TEST(ThreadedDriver, CgemmBitIdenticalAcrossPoolSizes) {
  const Problem<std::complex<float>> p =
      make<std::complex<float>>(80, 70, 72, 902);
  for (const auto& [route, cfg] : route_configs()) {
    expect_pool_invariance(route, cfg, AbftConfig{}, p);
  }
}

TEST(ThreadedDriver, AbftGuardedRunsStayPoolInvariant) {
  // The guard adds per-tile checksum verification (and its own
  // temporary buffers) to each worker; fault-free it must stay a pure
  // observer at every pool size.
  const Problem<float> p = make<float>(96, 96, 96, 903);
  AbftConfig abft;
  abft.enable = true;
  expect_pool_invariance("microkernel", core::M3xuConfig{}, abft, p);
}

TEST(ThreadedDriver, PlanExecuteHonorsRailsPool) {
  // The plan layer forwards ExecRails::pool into the driver; results
  // must match the global-pool execute bitwise at every size, for both
  // dtypes, including back-to-back executes on one pool.
  const Problem<float> ps = make<float>(100, 90, 130, 904);
  const Problem<std::complex<float>> pc =
      make<std::complex<float>>(80, 70, 72, 905);
  PlanOptions opts;
  opts.tile = kTile;

  const GemmPlan splan = GemmPlan::compile(
      core::M3xuConfig{}, {ps.a.rows(), ps.b.cols(), ps.a.cols(), false},
      opts);
  const GemmPlan cplan = GemmPlan::compile(
      core::M3xuConfig{}, {pc.a.rows(), pc.b.cols(), pc.a.cols(), true},
      opts);

  Matrix<float> sref = ps.c;
  splan.execute(ps.a, ps.b, sref);
  Matrix<std::complex<float>> cref = pc.c;
  cplan.execute(pc.a, pc.b, cref);

  for (const int threads : kPoolSizes) {
    SCOPED_TRACE(threads);
    ThreadPool pool(static_cast<std::size_t>(threads));
    ExecRails rails;
    rails.pool = &pool;
    for (int rep = 0; rep < 2; ++rep) {
      Matrix<float> cs = ps.c;
      splan.execute(ps.a, ps.b, cs, rails);
      EXPECT_TRUE(bitwise_equal(cs, sref)) << "sgemm rep " << rep;
      Matrix<std::complex<float>> cc = pc.c;
      cplan.execute(pc.a, pc.b, cc, rails);
      EXPECT_TRUE(bitwise_equal(cc, cref)) << "cgemm rep " << rep;
    }
  }
}

TEST(ThreadedDriver, ForcedRegisterBlockShapesStayPoolInvariant) {
  // Register-block overrides compose with threading: every supported
  // MRxNR shape is bit-identical across pool sizes.
  const Problem<float> p = make<float>(96, 80, 64, 906);
  for (const auto& [mr, nr] : {std::pair{4, 4}, std::pair{8, 8}}) {
    core::M3xuConfig cfg;
    cfg.mk_mr = mr;
    cfg.mk_nr = nr;
    SCOPED_TRACE(mr * 100 + nr);
    expect_pool_invariance("microkernel", cfg, AbftConfig{}, p);
  }
}

TEST(ThreadedDriver, BusyPoolRunsPlanTilesInlineWithoutQueueing) {
  // While another thread's parallel_for holds pool P on a latch, a plan
  // execute whose grid fans out on P must not queue behind it: it runs
  // its own tiles on the calling thread, finishes before the latch is
  // released, and produces the same bits. If the execute queued, it
  // would wait on the latch forever; the timeout below turns that into
  // a failure instead of a hang.
  // ABFT on: the fanned-out run computes the row strip's checksum
  // ingredients once, from whichever tile gets there first.
  const Problem<float> p = make<float>(32, 128, 128, 907);
  PlanOptions opts;
  opts.abft.enable = true;
  const GemmPlan plan = GemmPlan::compile(
      core::M3xuConfig{}, {p.a.rows(), p.b.cols(), p.a.cols(), false}, opts);
  ThreadPool pool(4);
  ASSERT_EQ(plan.grid(&pool).tiles(), 4);  // 32x128x128: four 32-col strips

  ExecRails rails;
  rails.pool = &pool;
  Matrix<float> want = p.c;
  plan.execute(p.a, p.b, want, rails);  // idle pool: fans out

  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.parallel_for(2, 1, [&](std::size_t i) {
      if (i != 0) return;
      holding.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();

  const telemetry::Snapshot before = telemetry::snapshot();
  Matrix<float> got = p.c;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    plan.execute(p.a, p.b, got, rails);
    done.store(true);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!done.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool finished_while_held = done.load();
  const telemetry::Snapshot after = telemetry::snapshot();
  release.store(true);
  runner.join();
  holder.join();

  EXPECT_TRUE(finished_while_held)
      << "execute waited for the busy pool instead of running inline";
  EXPECT_TRUE(bitwise_equal(got, want));
  EXPECT_EQ(after.counter_delta(before, "threadpool.submissions_queued"), 0u);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "gemm.grid.inline_busy"), 1u);
#endif
}

}  // namespace
}  // namespace m3xu::gemm
