// Tests for the fault-injection framework and the ABFT guard: injector
// determinism, the detect-or-below-tolerance property for single-bit
// flips, the clean-recompute recovery protocol, and the campaign
// runner's reproducibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/injector.hpp"
#include "fp/unpacked.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::fault {
namespace {

TEST(FaultInjector, ZeroRateNeverInjects) {
  const FaultInjector inj(123, SiteRates{});
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_EQ(inj.corrupt(Site::kOperandA, 0xabcull, 12), 0xabcull);
  }
  EXPECT_EQ(inj.total_injected(), 0u);
  EXPECT_EQ(inj.opportunities(Site::kOperandA), 10'000u);
}

TEST(FaultInjector, RateOneAlwaysFlipsExactlyOneBit) {
  const FaultInjector inj(7, SiteRates::uniform(1.0));
  for (int i = 0; i < 1'000; ++i) {
    const std::uint64_t out = inj.corrupt(Site::kPartialProduct, 0xfffull, 24);
    const std::uint64_t diff = out ^ 0xfffull;
    EXPECT_NE(diff, 0u);
    EXPECT_EQ(diff & (diff - 1), 0u);  // exactly one bit
    EXPECT_LT(highest_bit(diff), 24);
  }
  EXPECT_EQ(inj.injected(Site::kPartialProduct), 1'000u);
}

TEST(FaultInjector, SameSeedReplaysIdenticalFaults) {
  const SiteRates rates = SiteRates::uniform(0.01);
  const FaultInjector a(42, rates), b(42, rates);
  for (int i = 0; i < 50'000; ++i) {
    const Site site = static_cast<Site>(i % kSiteCount);
    EXPECT_EQ(a.corrupt(site, 0x5a5a5ull, 24), b.corrupt(site, 0x5a5a5ull, 24));
  }
  EXPECT_GT(a.total_injected(), 0u);
  EXPECT_EQ(a.log(), b.log());
}

TEST(FaultInjector, SeedsDecorrelate) {
  const SiteRates rates = SiteRates::uniform(0.01);
  const FaultInjector a(1, rates), b(2, rates);
  for (int i = 0; i < 50'000; ++i) {
    a.corrupt(Site::kOperandB, 0x7ffull, 12);
    b.corrupt(Site::kOperandB, 0x7ffull, 12);
  }
  EXPECT_GT(a.total_injected(), 0u);
  EXPECT_GT(b.total_injected(), 0u);
  EXPECT_NE(a.log(), b.log());
}

TEST(FaultInjector, CorruptUnpackedStaysNormalizedOrZero) {
  const FaultInjector inj(99, SiteRates::uniform(1.0));
  Rng rng(1234);
  for (int i = 0; i < 10'000; ++i) {
    const fp::Unpacked in = fp::unpack(rng.scaled_float());
    if (in.cls != fp::FpClass::kNormal) continue;
    const fp::Unpacked out = inj.corrupt_unpacked(Site::kAccumulator, in, 48);
    if (out.cls == fp::FpClass::kZero) continue;
    ASSERT_EQ(out.cls, fp::FpClass::kNormal);
    // Normalized: the leading significand bit sits at kSigTop.
    EXPECT_EQ(highest_bit(out.sig), fp::Unpacked::kSigTop);
  }
}

TEST(FaultInjector, SpecialsPassThroughButConsumeOpportunity) {
  const FaultInjector inj(5, SiteRates::uniform(1.0));
  fp::Unpacked inf;
  inf.cls = fp::FpClass::kInf;
  const fp::Unpacked out = inj.corrupt_unpacked(Site::kAccumulator, inf, 48);
  EXPECT_EQ(out.cls, fp::FpClass::kInf);
  EXPECT_EQ(inj.opportunities(Site::kAccumulator), 1u);
  EXPECT_EQ(inj.injected(Site::kAccumulator), 0u);
}

// --- ABFT property tests ---------------------------------------------

struct Problem {
  gemm::Matrix<float> a, b, c;
};

Problem make(int m, int n, int k, std::uint64_t seed) {
  Problem p{gemm::Matrix<float>(m, k), gemm::Matrix<float>(k, n),
            gemm::Matrix<float>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

/// The fault-free reference: the flat engine loop, which the tiled
/// driver matches bit for bit.
gemm::Matrix<float> flat_ref(const Problem& p) {
  const core::M3xuEngine clean;
  gemm::Matrix<float> ref = p.c;
  clean.gemm_fp32(p.a.rows(), p.b.cols(), p.a.cols(), p.a.data(), p.a.ld(),
                  p.b.data(), p.b.ld(), ref.data(), ref.ld());
  return ref;
}

/// The 1-thread pool: a plan keeps the uniform grid there and runs its
/// tiles in order, so a fresh injector with the same seed replays the
/// same flips on the same tiles.
ThreadPool* one_thread() {
  static ThreadPool pool(1);
  return &pool;
}

/// C <- A*B + C through a plan compiled for this call, recovering
/// detections with the clean-recompute protocol (RecoveryPolicy::demote
/// = false). A null `pool` runs on the global pool.
gemm::TiledGemmStats run_plan(const core::M3xuConfig& engine,
                              const gemm::TileConfig& tile,
                              const gemm::AbftConfig& abft, const Problem& p,
                              gemm::Matrix<float>& c,
                              ThreadPool* pool = nullptr) {
  gemm::PlanOptions options;
  options.tile = tile;
  options.abft = abft;
  options.policy.demote = false;
  const gemm::GemmPlan plan = gemm::GemmPlan::compile(
      engine, {p.a.rows(), p.b.cols(), p.a.cols(), false}, options);
  gemm::ExecRails rails;
  rails.pool = pool;
  return plan.execute(p.a, p.b, c, rails);
}

// Every injected single-bit flip is either detected by the ABFT guard
// or its effect on every output element stays below twice the mode's
// column tolerance (i.e. provably inside the legitimate rounding band).
// Swept across all four sites.
TEST(AbftProperty, FlipDetectedOrBelowTolerance) {
  constexpr int m = 32, n = 32, k = 64;
  const gemm::TileConfig tile{32, 32, 32, 16, 16};
  const gemm::AbftConfig abft{true, 1.0, 2};
  const core::M3xuEngine clean;
  int injected_trials = 0, detected_trials = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Problem p = make(m, n, k, 9000 + trial);
    const gemm::Matrix<float> ref = flat_ref(p);
    const Site site = static_cast<Site>(trial % kSiteCount);
    const std::uint64_t seed = 777 + trial;
    // Low rate: typically a handful of flips per run (a 32x32x64 run
    // offers a few hundred thousand operand opportunities).
    const SiteRates rates = SiteRates::only(site, 3e-5);

    const FaultInjector raw_inj(seed, rates);
    core::M3xuConfig cfg;
    cfg.injector = &raw_inj;
    gemm::Matrix<float> raw = p.c;
    run_plan(cfg, tile, gemm::AbftConfig{}, p, raw, one_thread());
    if (raw_inj.total_injected() == 0) continue;
    ++injected_trials;

    const FaultInjector guard_inj(seed, rates);
    core::M3xuConfig gcfg;
    gcfg.injector = &guard_inj;
    gemm::Matrix<float> fixed = p.c;
    const gemm::TiledGemmStats stats =
        run_plan(gcfg, tile, abft, p, fixed, one_thread());
    // The guarded pass replays the identical flips.
    EXPECT_EQ(guard_inj.log(), raw_inj.log());
    detected_trials += stats.abft_detected > 0 ? 1 : 0;

    for (int j = 0; j < n; ++j) {
      const double tol = gemm::abft_column_tolerance(clean, tile, abft, p.a,
                                                     p.b, p.c, 0, m, j);
      for (int i = 0; i < m; ++i) {
        const double dev = std::fabs(static_cast<double>(raw(i, j)) -
                                     static_cast<double>(ref(i, j)));
        if (dev > 2.0 * tol) {
          // Guaranteed-detectable deviation: the guard must have seen it.
          ASSERT_GT(stats.abft_detected, 0)
              << "escaped SDC at (" << i << "," << j << "), trial " << trial;
          // And the recompute must restore the fault-free result.
          ASSERT_EQ(bits_of(fixed(i, j)), bits_of(ref(i, j)));
        }
      }
    }
    if (stats.abft_detected > 0) {
      // A detected tile is recomputed fault-free: full bitwise match.
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ASSERT_EQ(bits_of(fixed(i, j)), bits_of(ref(i, j)));
        }
      }
    }
  }
  // The sweep must actually exercise the machinery.
  EXPECT_GT(injected_trials, 10);
  EXPECT_GT(detected_trials, 0);
}

TEST(Abft, RecoversFromHeavyInjection) {
  const Problem p = make(48, 48, 96, 3111);
  const gemm::TileConfig tile{48, 48, 32, 16, 16};
  const gemm::Matrix<float> ref = flat_ref(p);

  const FaultInjector inj(21, SiteRates::uniform(1e-4));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  gemm::Matrix<float> c = p.c;
  const gemm::TiledGemmStats stats = run_plan(
      cfg, tile, gemm::AbftConfig{true, 1.0, 2}, p, c, one_thread());
  ASSERT_GT(inj.total_injected(), 0u);
  ASSERT_GT(stats.abft_detected, 0);
  EXPECT_EQ(stats.abft_recovered, stats.abft_detected);
  for (int i = 0; i < 48; ++i) {
    for (int j = 0; j < 48; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(ref(i, j))) << i << "," << j;
    }
  }
}

TEST(Abft, ZeroToleranceWithFaultsExhaustsRetries) {
  // tolerance_scale = 0 makes even legitimate rounding trip the check;
  // with live injection and a single recompute the driver cannot settle
  // and must surface the structured error (not abort), naming the tile,
  // the route and the recomputes spent.
  const Problem p = make(32, 32, 32, 3222);
  const gemm::TileConfig tile{32, 32, 32, 16, 16};
  const FaultInjector inj(3, SiteRates::only(Site::kOperandA, 1.0));
  core::M3xuConfig cfg;
  cfg.injector = &inj;
  gemm::Matrix<float> c = p.c;
  try {
    run_plan(cfg, tile, gemm::AbftConfig{true, 0.0, 1}, p, c, one_thread());
    FAIL() << "expected AbftFailure";
  } catch (const gemm::AbftFailure& e) {
    EXPECT_EQ(e.tile_row(), 0);
    EXPECT_EQ(e.tile_col(), 0);
    EXPECT_EQ(e.route(), gemm::Route::kMicrokernel);
    EXPECT_EQ(e.attempts(), 1);
  }
}

TEST(Abft, ZeroToleranceCleanEngineIsFalseAlarm) {
  // With a fault-free engine the recompute reproduces the same bits,
  // which the driver classifies as a tolerance artifact and accepts.
  const Problem p = make(32, 32, 32, 3333);
  const gemm::TileConfig tile{32, 32, 32, 16, 16};
  const gemm::Matrix<float> ref = flat_ref(p);
  gemm::Matrix<float> c = p.c;
  const gemm::TiledGemmStats stats = run_plan(
      core::M3xuConfig{}, tile, gemm::AbftConfig{true, 0.0, 2}, p, c);
  EXPECT_GT(stats.abft_detected, 0);
  EXPECT_GT(stats.abft_false_alarms, 0);
  EXPECT_EQ(stats.abft_recovered, 0);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(ref(i, j)));
    }
  }
}

// --- Campaign runner --------------------------------------------------

CampaignConfig small_campaign() {
  CampaignConfig config;
  config.m = config.n = 16;
  config.k = 32;
  config.tile = gemm::TileConfig{16, 16, 16, 16, 16};
  config.trials = 4;
  config.sites = {Site::kOperandA, Site::kAccumulator};
  config.rates = {1e-4};
  return config;
}

TEST(Campaign, SameSeedIsBitReproducible) {
  const CampaignResult r1 = run_campaign(small_campaign());
  const CampaignResult r2 = run_campaign(small_campaign());
  ASSERT_EQ(r1.cells.size(), r2.cells.size());
  for (std::size_t i = 0; i < r1.cells.size(); ++i) {
    EXPECT_EQ(r1.cells[i].site, r2.cells[i].site);
    EXPECT_EQ(r1.cells[i].faults_injected, r2.cells[i].faults_injected);
    EXPECT_EQ(r1.cells[i].perturbed, r2.cells[i].perturbed);
    EXPECT_EQ(r1.cells[i].corrupting, r2.cells[i].corrupting);
    EXPECT_EQ(r1.cells[i].detected, r2.cells[i].detected);
    EXPECT_EQ(r1.cells[i].corrected, r2.cells[i].corrected);
    EXPECT_EQ(r1.cells[i].escaped_sdc, r2.cells[i].escaped_sdc);
  }
  EXPECT_EQ(to_json(r1), to_json(r2));
}

TEST(Campaign, NoEscapedSdcAndCoherentCounts) {
  CampaignConfig config = small_campaign();
  config.trials = 8;
  const CampaignResult r = run_campaign(config);
  ASSERT_EQ(r.cells.size(), 2u);
  for (const CampaignCell& cell : r.cells) {
    EXPECT_EQ(cell.trials, 8);
    EXPECT_GE(cell.perturbed, cell.corrupting);
    EXPECT_LE(cell.escaped_sdc, cell.corrupting);
    EXPECT_LE(cell.corrected, cell.detected);
    EXPECT_EQ(cell.escaped_sdc, 0) << site_name(cell.site);
    EXPECT_EQ(cell.corrected, cell.detected) << site_name(cell.site);
  }
  EXPECT_DOUBLE_EQ(r.overall_detection_rate(), 1.0);
}

TEST(Campaign, RejectsMultiTileGeometry) {
  CampaignConfig config = small_campaign();
  config.m = 64;  // > tile.block_m: fault replay would depend on
                  // scheduling order
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  EXPECT_THROW(run_campaign(config), CheckError);
}

}  // namespace
}  // namespace m3xu::fault
