// Tests for the resilient execution layer around the tiled GEMM
// driver: the retry-then-demote ladder, tile quarantine,
// allocation-failure fallback, staged-panel faults, the NaN-aware
// checksum, the clean-recompute protocol, and the guard checkpoint
// that enforces ExecRails' token, deadline and stall window and counts
// each abort once.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/panel_cache.hpp"
#include "gemm/plan.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::gemm {
namespace {

std::uint32_t bits32(float v) { return std::bit_cast<std::uint32_t>(v); }

struct Problem {
  Matrix<float> a, b, c;
};

Problem make(int m, int n, int k, std::uint64_t seed) {
  Problem p{Matrix<float>(m, k), Matrix<float>(k, n), Matrix<float>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

/// The fault-free reference: the flat engine loop, which the tiled
/// driver matches bit for bit.
template <typename T>
Matrix<T> flat_ref(const Matrix<T>& a, const Matrix<T>& b,
                   const Matrix<T>& c) {
  const core::M3xuEngine clean;
  Matrix<T> ref = c;
  if constexpr (std::is_same_v<T, float>) {
    clean.gemm_fp32(a.rows(), b.cols(), a.cols(), a.data(), a.ld(), b.data(),
                    b.ld(), ref.data(), ref.ld());
  } else {
    clean.gemm_fp32c(a.rows(), b.cols(), a.cols(), a.data(), a.ld(),
                     b.data(), b.ld(), ref.data(), ref.ld());
  }
  return ref;
}

Matrix<float> flat_ref(const Problem& p) { return flat_ref(p.a, p.b, p.c); }

/// Rails on a 1-thread pool: the plan keeps TileConfig's uniform grid
/// and runs its tiles in order, so injected faults land on the same
/// tiles every run and grid-dependent counts are exact.
ExecRails one_thread() {
  static ThreadPool pool(1);
  ExecRails rails;
  rails.pool = &pool;
  return rails;
}

/// Rails on a 4-thread pool: a multi-tile grid fans out over it.
ExecRails four_threads() {
  static ThreadPool pool(4);
  ExecRails rails;
  rails.pool = &pool;
  return rails;
}

/// Expects the guard's abort counters to have moved by exactly these
/// amounts over [before, after). The telemetry-off build compiles the
/// counters out, so there it checks nothing.
void expect_guard_aborts(const telemetry::Snapshot& before,
                         const telemetry::Snapshot& after,
                         std::uint64_t cancellations,
                         std::uint64_t deadline_fired,
                         std::uint64_t stalls_detected) {
  if (!M3XU_TELEMETRY_ENABLED) return;
  EXPECT_EQ(after.counter_delta(before, "gemm.guard.cancellations"),
            cancellations);
  EXPECT_EQ(after.counter_delta(before, "gemm.guard.deadline_fired"),
            deadline_fired);
  EXPECT_EQ(after.counter_delta(before, "gemm.guard.stalls_detected"),
            stalls_detected);
}

/// C <- A*B + C through a plan compiled for this one call.
template <typename T>
TiledGemmStats run_plan(const core::M3xuConfig& engine,
                        const PlanOptions& options, const Matrix<T>& a,
                        const Matrix<T>& b, Matrix<T>& c,
                        const ExecRails& rails = {}) {
  const GemmPlan plan = GemmPlan::compile(
      engine,
      {a.rows(), b.cols(), a.cols(), std::is_same_v<T, std::complex<float>>},
      options);
  return plan.execute(a, b, c, rails);
}

TileConfig single_tile_cfg() { return TileConfig{32, 32, 32, 16, 16}; }

AbftConfig abft_on() {
  AbftConfig abft;
  abft.enable = true;
  return abft;
}

/// The clean-recompute protocol (no demotion ladder).
RecoveryPolicy clean_recompute() {
  RecoveryPolicy policy;
  policy.demote = false;
  return policy;
}

long total_recovered(const RecoveryReport& rec) {
  long total = 0;
  for (int r = 0; r < kRouteCount; ++r) total += rec.recovered_on[r];
  return total;
}

TEST(TileQuarantine, OnlyLowersAndReportsChanges) {
  TileQuarantine q;
  Route route = Route::kMicrokernel;
  EXPECT_FALSE(q.lookup(7, &route));
  EXPECT_TRUE(q.demote(7, Route::kGenericPerDot));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kGenericPerDot);
  // Raising back up is a no-op.
  EXPECT_FALSE(q.demote(7, Route::kMicrokernel));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kGenericPerDot);
  // Lowering further sticks.
  EXPECT_TRUE(q.demote(7, Route::kScalarReference));
  EXPECT_TRUE(q.lookup(7, &route));
  EXPECT_EQ(route, Route::kScalarReference);
  EXPECT_EQ(q.size(), 1u);
  q.clear();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.lookup(7, &route));
}

TEST(TileQuarantine, CapacityBoundsEntriesWithLruEviction) {
  TileQuarantine q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.demote(1, Route::kGenericPerDot));
  EXPECT_TRUE(q.demote(2, Route::kGenericPerDot));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.evictions(), 0u);
  // Refresh tile 1 so tile 2 is the LRU victim of the next insert.
  Route route = Route::kMicrokernel;
  EXPECT_TRUE(q.lookup(1, &route));
  EXPECT_TRUE(q.demote(3, Route::kGenericPerDot));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.evictions(), 1u);
  EXPECT_TRUE(q.lookup(1, &route));
  EXPECT_FALSE(q.lookup(2, &route));  // evicted
  EXPECT_TRUE(q.lookup(3, &route));
}

#if M3XU_TELEMETRY_ENABLED
TEST(TileQuarantine, EvictionCounterIsExported) {
  const telemetry::Snapshot before = telemetry::snapshot();
  TileQuarantine q(1);
  q.demote(1, Route::kGenericPerDot);
  q.demote(2, Route::kGenericPerDot);  // evicts tile 1
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_delta(before, "recovery.quarantine_evictions"), 1u);
}
#endif

TEST(ResilienceValidation, RejectsMalformedPolicyAbftAndRails) {
  const ScopedCheckHandler guard(throwing_check_failure_handler);
  const Problem p = make(32, 32, 32, 90);
  const core::M3xuConfig clean;
  const PlanKey key{32, 32, 32, false};
  Matrix<float> out = p.c;

  // Frozen configs fail at compile. A NaN, infinite or negative
  // tolerance fails every checksum (or none); a recompute budget below
  // one used to run one recompute.
  for (const double scale : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -1.0}) {
    AbftConfig bad_tolerance = abft_on();
    bad_tolerance.tolerance_scale = scale;
    EXPECT_THROW(GemmPlan::compile(clean, key,
                                   {single_tile_cfg(), bad_tolerance, {}}),
                 CheckError)
        << scale;
  }
  for (const int budget : {0, -5}) {
    AbftConfig bad_budget = abft_on();
    bad_budget.max_recompute = budget;
    EXPECT_THROW(
        GemmPlan::compile(clean, key, {single_tile_cfg(), bad_budget, {}}),
        CheckError)
        << budget;
  }
  // A zero tolerance stays legal: tests use it to force detections.
  AbftConfig zero_tolerance = abft_on();
  zero_tolerance.tolerance_scale = 0.0;
  EXPECT_NO_THROW(
      GemmPlan::compile(clean, key, {single_tile_cfg(), zero_tolerance, {}}));

  // Rails fail at execute.
  const GemmPlan plan =
      GemmPlan::compile(clean, key, {single_tile_cfg(), abft_on(), {}});
  ExecRails negative_deadline;
  negative_deadline.deadline_ms = -5;
  EXPECT_THROW(plan.execute(p.a, p.b, out, negative_deadline), CheckError);

  // Stall detection without a wall-deadline backstop is rejected: a
  // trickle of progress would never terminate.
  ExecRails stall_only;
  stall_only.stall_ms = 10;
  EXPECT_THROW(plan.execute(p.a, p.b, out, stall_only), CheckError);

  // A panel cache requires a nonzero B-identity key.
  PanelCache cache(1);
  ExecRails keyless_cache;
  keyless_cache.b_cache = &cache;
  EXPECT_THROW(plan.execute(p.a, p.b, out, keyless_cache), CheckError);

  // The valid combinations still run.
  ExecRails ok;
  ok.deadline_ms = 60'000;
  ok.stall_ms = 60'000;
  EXPECT_NO_THROW(plan.execute(p.a, p.b, out, ok));
}

/// One detected tile under rate-1.0 faults at `site`: every pass
/// through the primary datapath (and every per-tile retry injector) is
/// corrupted, so the ladder must walk all the way down; the scalar rung
/// runs fault-free and its recovery is bit-exact by construction.
template <typename T>
void expect_ladder_walks_to_scalar(fault::Site site) {
  Matrix<T> a(32, 64), b(64, 32), c0(32, 32);
  Rng rng(77);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  const Matrix<T> ref = flat_ref(a, b, c0);

  const fault::FaultInjector inj(1234, fault::SiteRates::only(site, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const RecoveryPolicy policy;  // the ladder
  Matrix<T> out = c0;
  const TiledGemmStats stats = run_plan(
      cfg, {single_tile_cfg(), abft_on(), policy}, a, b, out, one_thread());
  EXPECT_EQ(stats.abft_detected, 1);
  EXPECT_EQ(stats.recovery.demotions, 2);
  EXPECT_EQ(stats.recovery.demoted_to[static_cast<int>(
                Route::kScalarReference)],
            1);
  EXPECT_EQ(stats.recovery.recovered_on[static_cast<int>(
                Route::kScalarReference)],
            1);
  // One retry on each of the two faulty rungs, then the fault-free
  // scalar rung recovers on its first attempt.
  EXPECT_EQ(stats.recovery.retries, 3);
  EXPECT_TRUE(bitwise_equal(out, ref));
  // The ladder settles every detection.
  EXPECT_EQ(stats.abft_recovered + stats.abft_false_alarms,
            stats.abft_detected);
}

TEST(Resilience, LadderWalksToScalarAndRecoversBitExact) {
  for (const fault::Site site :
       {fault::Site::kOperandA, fault::Site::kOperandB,
        fault::Site::kPartialProduct, fault::Site::kAccumulator,
        fault::Site::kStagedPanel}) {
    SCOPED_TRACE(fault::site_name(site));
    {
      SCOPED_TRACE("fp32");
      expect_ladder_walks_to_scalar<float>(site);
    }
    {
      SCOPED_TRACE("fp32c");
      expect_ladder_walks_to_scalar<std::complex<float>>(site);
    }
  }
}

TEST(Resilience, QuarantineSkipsTheLadderOnTheNextCall) {
  const Problem p = make(32, 32, 64, 78);
  const Matrix<float> ref = flat_ref(p);

  const fault::FaultInjector inj(
      99, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const GemmPlan plan = GemmPlan::compile(cfg, {32, 32, 64, false},
                                          {single_tile_cfg(), abft_on(), {}});
  TileQuarantine quarantine;
  ExecRails rails = one_thread();
  rails.quarantine = &quarantine;

  Matrix<float> out1 = p.c;
  const TiledGemmStats s1 = plan.execute(p.a, p.b, out1, rails);
  EXPECT_EQ(s1.recovery.demotions, 2);
  EXPECT_EQ(s1.recovery.quarantined, 1);
  EXPECT_EQ(quarantine.size(), 1u);
  EXPECT_TRUE(bitwise_equal(out1, ref));

  // Second call: the tile starts directly on the quarantined scalar
  // rung - still detected (the primary pass is faulty), but recovery
  // needs zero demotions now.
  Matrix<float> out2 = p.c;
  const TiledGemmStats s2 = plan.execute(p.a, p.b, out2, rails);
  EXPECT_EQ(s2.recovery.quarantine_hits, 1);
  EXPECT_EQ(s2.recovery.demotions, 0);
  EXPECT_TRUE(bitwise_equal(out2, ref));
}

TEST(Resilience, AllocFailureFallsBackBitExact) {
  // Every staged K-block loses its packed panels; the per-dot fallback
  // must deliver the same bits with no ABFT involvement.
  const Problem p = make(64, 64, 64, 82);
  const TileConfig tile{32, 32, 32, 16, 16};  // 2x2 tile grid
  const Matrix<float> ref = flat_ref(p);

  const fault::FaultInjector inj(
      5, fault::SiteRates::only(fault::Site::kAllocFailure, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  Matrix<float> out = p.c;
  const TiledGemmStats stats =
      run_plan(cfg, {tile, abft_on(), {}}, p.a, p.b, out);
  EXPECT_TRUE(bitwise_equal(out, ref));
  EXPECT_EQ(stats.abft_detected, 0);
  EXPECT_EQ(stats.recovery.alloc_fallbacks, stats.mainloop_iterations);
}

TEST(Resilience, AllocFailureFallsBackBitExactComplex) {
  using C = std::complex<float>;
  Matrix<C> a(32, 64), b(64, 32), c0(32, 32);
  Rng rng(83);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  const Matrix<C> ref = flat_ref(a, b, c0);

  const fault::FaultInjector inj(
      6, fault::SiteRates::only(fault::Site::kAllocFailure, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  Matrix<C> out = c0;
  const TiledGemmStats stats =
      run_plan(cfg, {single_tile_cfg(), abft_on(), {}}, a, b, out);
  EXPECT_GT(stats.recovery.alloc_fallbacks, 0);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(bits32(out(i, j).real()), bits32(ref(i, j).real()));
      ASSERT_EQ(bits32(out(i, j).imag()), bits32(ref(i, j).imag()));
    }
  }
}

TEST(Resilience, StagedPanelFaultsNeverEscapeAboveTolerance) {
  // Staged-panel flips may land below the checksum tolerance (benign)
  // or above it (must be detected + repaired). Either way the result
  // the driver returns must never deviate beyond the detectability
  // bar.
  const Problem p = make(32, 32, 64, 84);
  const core::M3xuEngine clean{core::M3xuConfig{}};
  const AbftConfig abft = abft_on();
  const Matrix<float> ref = flat_ref(p);
  long detections = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const fault::FaultInjector inj(
        seed, fault::SiteRates::only(fault::Site::kStagedPanel, 2e-3));
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    Matrix<float> out = p.c;
    const TiledGemmStats stats = run_plan(cfg, {single_tile_cfg(), abft, {}},
                                          p.a, p.b, out, one_thread());
    detections += stats.abft_detected;
    EXPECT_EQ(stats.abft_recovered + stats.abft_false_alarms,
              stats.abft_detected);
    for (int j = 0; j < 32; ++j) {
      const double limit = 2.0 * abft_column_tolerance(
                                     clean, single_tile_cfg(), abft, p.a,
                                     p.b, p.c, 0, 32, j);
      for (int i = 0; i < 32; ++i) {
        const double dev = std::fabs(static_cast<double>(out(i, j)) -
                                     static_cast<double>(ref(i, j)));
        ASSERT_TRUE(dev <= limit) << "seed " << seed << " at " << i << ","
                                  << j;
      }
    }
  }
  // At a 2e-3 per-scalar rate over 12 seeds the guard must have seen
  // real work (each pass stages ~6k scalars).
  EXPECT_GT(detections, 0);
}

TEST(Resilience, NaNInputTripsTheChecksumAsFalseAlarmNotEscape) {
  // A NaN residual fails the negated-<= comparison, so poisoned
  // inputs surface as a detection; the clean reproduction then proves
  // the false alarm and the NaN propagates honestly.
  Problem p = make(32, 32, 64, 85);
  p.c(3, 4) = std::numeric_limits<float>::quiet_NaN();
  Matrix<float> out = p.c;
  const TiledGemmStats stats =
      run_plan(core::M3xuConfig{}, {single_tile_cfg(), abft_on(),
                                    clean_recompute()},
               p.a, p.b, out, one_thread());
  EXPECT_EQ(stats.abft_detected, 1);
  EXPECT_EQ(stats.abft_false_alarms, 1);
  EXPECT_TRUE(std::isnan(out(3, 4)));
}

TEST(Resilience, CleanRecomputeNeverEngagesTheLadder) {
  // policy.demote == false recovers through fault-free recomputes
  // alone: the ladder's retry, demotion and rung counters stay zero.
  const Problem p = make(32, 32, 64, 86);
  const fault::FaultInjector inj(
      42, fault::SiteRates::only(fault::Site::kOperandA, 1e-3));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  Matrix<float> out = p.c;
  const TiledGemmStats stats =
      run_plan(cfg, {single_tile_cfg(), abft_on(), clean_recompute()}, p.a,
               p.b, out, one_thread());
  ASSERT_GT(stats.abft_detected, 0);
  EXPECT_EQ(stats.abft_recovered + stats.abft_false_alarms,
            stats.abft_detected);
  EXPECT_EQ(stats.recovery.retries, 0);
  EXPECT_EQ(stats.recovery.demotions, 0);
  EXPECT_EQ(total_recovered(stats.recovery), 0);
}

TEST(Resilience, CleanRecomputeOnASplitGridRecoversBitExact) {
  // On 4 threads plan_grid splits 48x48x96 into three 48x16 column
  // tiles that run concurrently on one shared injector. Whichever tiles
  // the faults land on, every detected tile is recomputed on the
  // fault-free clone, so it matches the flat loop bit for bit; an
  // undetected tile keeps at most a sub-tolerance deviation.
  const int m = 48, n = 48, k = 96;
  const Problem p = make(m, n, k, 91);
  const Matrix<float> ref = flat_ref(p);
  const TileConfig tile{48, 48, 32, 16, 16};
  const AbftConfig abft = abft_on();
  const fault::FaultInjector inj(43, fault::SiteRates::uniform(1e-4));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  const GemmPlan plan =
      GemmPlan::compile(cfg, {m, n, k, false}, {tile, abft, clean_recompute()});
  ThreadPool pool(4);
  const TileGrid& grid = plan.grid(&pool);
  ASSERT_EQ(grid.grid_m(), 1);
  ASSERT_EQ(grid.grid_n(), 3);

  telemetry::TraceContext trace("test", "split_clean_recompute");
  ExecRails rails;
  rails.pool = &pool;
  rails.trace = &trace;
  Matrix<float> out = p.c;
  const TiledGemmStats stats = plan.execute(p.a, p.b, out, rails);
  ASSERT_GT(inj.total_injected(), 0u);
  ASSERT_GT(stats.abft_detected, 0);
  EXPECT_EQ(stats.abft_recovered + stats.abft_false_alarms,
            stats.abft_detected);
  EXPECT_EQ(stats.recovery.retries, 0);
  EXPECT_EQ(stats.recovery.demotions, 0);

  std::set<long> detected;
  for (const telemetry::TraceEvent& e : trace.events()) {
    if (std::string(e.name) == "abft.detect") detected.insert(e.a0);
  }
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(static_cast<long>(detected.size()), stats.abft_detected);
#endif
  const core::M3xuEngine clean;
  for (long t = 0; t < grid.tiles(); ++t) {
    const int bn = grid.cols[static_cast<std::size_t>(t)];
    const int bn_end = grid.cols[static_cast<std::size_t>(t) + 1];
    for (int j = bn; j < bn_end; ++j) {
      const double limit = 2.0 * abft_column_tolerance(clean, tile, abft, p.a,
                                                       p.b, p.c, 0, m, j);
      for (int i = 0; i < m; ++i) {
        if (detected.count(t) != 0) {
          ASSERT_EQ(bits32(out(i, j)), bits32(ref(i, j)))
              << "tile " << t << " at " << i << "," << j;
        } else {
          const double dev = std::fabs(static_cast<double>(out(i, j)) -
                                       static_cast<double>(ref(i, j)));
          ASSERT_TRUE(dev <= limit) << "tile " << t << " at " << i << ","
                                    << j;
        }
      }
    }
  }
}

TEST(Resilience, CleanResilientPathBitIdenticalToUnguarded) {
  // The full resilient configuration on a clean engine changes nothing
  // about the numerics.
  const Problem p = make(64, 48, 96, 87);
  const TileConfig tile{32, 32, 32, 16, 16};
  const Matrix<float> ref = flat_ref(p);
  TileQuarantine quarantine;
  CancellationToken token;
  ExecRails rails;
  rails.token = &token;
  rails.deadline_ms = 60'000;
  rails.stall_ms = 60'000;
  rails.quarantine = &quarantine;
  Matrix<float> out = p.c;
  const TiledGemmStats stats = run_plan(core::M3xuConfig{},
                                        {tile, abft_on(), {}}, p.a, p.b, out,
                                        rails);
  EXPECT_TRUE(bitwise_equal(out, ref));
  EXPECT_EQ(stats.abft_detected, 0);
  EXPECT_EQ(stats.recovery.retries, 0);
  EXPECT_EQ(quarantine.size(), 0u);
}

TEST(Resilience, CancellationTokenAbortsTheDriver) {
  const Problem p = make(96, 96, 64, 88);
  const TileConfig tile{32, 32, 32, 16, 16};
  CancellationToken token;
  token.request_cancel("test abort");
  ExecRails rails;
  rails.token = &token;
  Matrix<float> out = p.c;
  EXPECT_THROW(run_plan(core::M3xuConfig{}, {tile, abft_on(), {}}, p.a, p.b,
                        out, rails),
               CancelledError);
}

TEST(Resilience, DeadlineBindsInsideASingleTile) {
  // One tile on a 1-thread pool runs inline, and its injected stall
  // outlasts the deadline: the checkpoints inside and after the tile
  // must abort the execute instead of letting it return late.
  const Problem p = make(32, 32, 32, 89);
  fault::FaultInjector inj(
      89, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 50;
  core::M3xuConfig engine;
  engine.injector = &inj;
  ExecRails rails = one_thread();
  rails.deadline_ms = 20;
  Matrix<float> out = p.c;
  try {
    run_plan(engine, {single_tile_cfg(), {}, {}}, p.a, p.b, out, rails);
    FAIL() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
}

/// The multi-tile geometry of the guard tests: 3 x 3 tiles, which a
/// plan keeps on a 4-thread pool (65536 MACs per tile).
const TileConfig kGuardTile{32, 32, 32, 16, 16};

TEST(Resilience, PreCancelledTokenAbortsWithCUntouched) {
  // The tile-entry checkpoint runs before a tile reads or writes C, so
  // a token latched before the execute aborts it with the token's tag
  // and C bitwise unchanged, fanned out or serial.
  const Problem p = make(96, 96, 64, 91);
  CancellationToken token;
  token.request_cancel("shed before execute", CancelReason::kShed);
  for (ExecRails rails : {four_threads(), one_thread()}) {
    rails.token = &token;
    Matrix<float> out = p.c;
    const telemetry::Snapshot before = telemetry::snapshot();
    try {
      run_plan(core::M3xuConfig{}, {kGuardTile, abft_on(), {}}, p.a, p.b, out,
               rails);
      ADD_FAILURE() << "expected CancelledError";
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kShed);
    }
    expect_guard_aborts(before, telemetry::snapshot(), 1, 0, 0);
    EXPECT_TRUE(bitwise_equal(out, p.c));
  }
}

TEST(Resilience, StallWindowAbortsAFannedOutGrid) {
  // Every tile pass sleeps 50 ms, past the 20 ms stall window, long
  // before the deadline: the first tile completion ends a stalled gap
  // and the execute aborts with kStall, counted once however many
  // tiles were in flight.
  const Problem p = make(96, 96, 64, 92);
  fault::FaultInjector inj(
      92, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 50;
  core::M3xuConfig engine;
  engine.injector = &inj;
  const GemmPlan plan =
      GemmPlan::compile(engine, {96, 96, 64, false}, {kGuardTile, {}, {}});
  ExecRails rails = four_threads();
  ASSERT_EQ(plan.grid(rails.pool).tiles(), 9);
  rails.deadline_ms = 60'000;
  rails.stall_ms = 20;
  Matrix<float> out = p.c;
  const telemetry::Snapshot before = telemetry::snapshot();
  try {
    plan.execute(p.a, p.b, out, rails);
    ADD_FAILURE() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_EQ(e.reason(), CancelReason::kStall);
  }
  expect_guard_aborts(before, telemetry::snapshot(), 0, 0, 1);
}

TEST(Resilience, StallWindowIsNotCheckedOnASerialGrid) {
  // The same stalls on a 1-thread pool: the tiles run one after
  // another, so the stall window does not apply, and the execute
  // completes bit-exactly.
  const Problem p = make(96, 96, 64, 92);
  fault::FaultInjector inj(
      92, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 50;
  core::M3xuConfig engine;
  engine.injector = &inj;
  ExecRails rails = one_thread();
  rails.deadline_ms = 60'000;
  rails.stall_ms = 20;
  Matrix<float> out = p.c;
  const telemetry::Snapshot before = telemetry::snapshot();
  run_plan(engine, {kGuardTile, {}, {}}, p.a, p.b, out, rails);
  expect_guard_aborts(before, telemetry::snapshot(), 0, 0, 0);
  EXPECT_TRUE(bitwise_equal(out, flat_ref(p)));
}

TEST(Resilience, DeadlineAbortInsideATileCountsOnce) {
  // DeadlineBindsInsideASingleTile's setup: the K-block checkpoint
  // throws, and the driver counts the aborted execute once.
  const Problem p = make(32, 32, 32, 89);
  fault::FaultInjector inj(
      89, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 50;
  core::M3xuConfig engine;
  engine.injector = &inj;
  ExecRails rails = one_thread();
  rails.deadline_ms = 20;
  Matrix<float> out = p.c;
  const telemetry::Snapshot before = telemetry::snapshot();
  EXPECT_THROW(
      run_plan(engine, {single_tile_cfg(), {}, {}}, p.a, p.b, out, rails),
      DeadlineExceeded);
  expect_guard_aborts(before, telemetry::snapshot(), 0, 1, 0);
}

TEST(Resilience, CleanGuardedExecutesBumpNoAbortCounter) {
  // Zero false positives: fully guarded clean executes, fanned out
  // and serial, are bit-exact and count as watches only.
  constexpr int kReps = 10;
  const Problem p = make(96, 96, 64, 93);
  const Matrix<float> ref = flat_ref(p);
  CancellationToken token;  // never latched
  for (ExecRails rails : {four_threads(), one_thread()}) {
    rails.token = &token;
    rails.deadline_ms = 60'000;
    rails.stall_ms = 60'000;
    const telemetry::Snapshot before = telemetry::snapshot();
    for (int rep = 0; rep < kReps; ++rep) {
      Matrix<float> out = p.c;
      run_plan(core::M3xuConfig{}, {kGuardTile, abft_on(), {}}, p.a, p.b, out,
               rails);
      ASSERT_TRUE(bitwise_equal(out, ref)) << "rep " << rep;
    }
    const telemetry::Snapshot after = telemetry::snapshot();
    expect_guard_aborts(before, after, 0, 0, 0);
    if (M3XU_TELEMETRY_ENABLED) {
      EXPECT_EQ(after.counter_delta(before, "gemm.guard.watches"),
                static_cast<std::uint64_t>(kReps));
    }
  }
}

}  // namespace
}  // namespace m3xu::gemm
