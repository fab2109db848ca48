// Tests for the hierarchical tiled GEMM driver: bit-identity with the
// flat engine loop, tile-shape sweeps, edge-tile handling, and the
// traffic counters the simulator's model assumes.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/reference.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::gemm {
namespace {

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

/// Rails on a 1-thread pool, where a plan runs TileConfig's uniform
/// grid: the geometry the traffic counters below are written for.
ExecRails one_thread() {
  static ThreadPool pool(1);
  ExecRails rails;
  rails.pool = &pool;
  return rails;
}

/// C <- A*B + C through a plan compiled for this one call. Detections
/// take the clean-recompute protocol these ABFT tests were written for.
template <typename T>
TiledGemmStats run_plan(const TileConfig& tile, const Matrix<T>& a,
                        const Matrix<T>& b, Matrix<T>& c,
                        const AbftConfig& abft = {},
                        const ExecRails& rails = {}) {
  PlanOptions options;
  options.tile = tile;
  options.abft = abft;
  options.policy.demote = false;
  const GemmPlan plan = GemmPlan::compile(
      core::M3xuConfig{},
      {a.rows(), b.cols(), a.cols(), std::is_same_v<T, std::complex<float>>},
      options);
  return plan.execute(a, b, c, rails);
}

/// The sweep's problem for one dtype: 100x90x130, which no tile shape
/// below divides, and its flat engine loop result, computed once.
template <typename T>
struct SweepCase {
  Matrix<T> a{100, 130}, b{130, 90}, c{100, 90}, flat;
};

template <typename T>
const SweepCase<T>& sweep_case() {
  static const SweepCase<T> sc = [] {
    SweepCase<T> out;
    Rng rng(std::is_same_v<T, float> ? 501 : 510);
    fill_random(out.a, rng);
    fill_random(out.b, rng);
    fill_random(out.c, rng);
    out.flat = out.c;
    const core::M3xuEngine engine;
    if constexpr (std::is_same_v<T, float>) {
      engine.gemm_fp32(100, 90, 130, out.a.data(), out.a.ld(), out.b.data(),
                       out.b.ld(), out.flat.data(), out.flat.ld());
    } else {
      engine.gemm_fp32c(100, 90, 130, out.a.data(), out.a.ld(), out.b.data(),
                        out.b.ld(), out.flat.data(), out.flat.ld());
    }
    return out;
  }();
  return sc;
}

// Same K-chunk rounding boundaries -> the hierarchy is invisible to the
// arithmetic.
template <typename T>
void expect_tiled_matches_flat(const TileConfig& tile) {
  const SweepCase<T>& sc = sweep_case<T>();
  Matrix<T> tiled = sc.c;
  run_plan(tile, sc.a, sc.b, tiled);
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 90; ++j) {
      ASSERT_EQ(std::memcmp(&tiled(i, j), &sc.flat(i, j), sizeof(T)), 0)
          << i << "," << j;
    }
  }
}

class TileSweep : public ::testing::TestWithParam<TileConfig> {};

TEST_P(TileSweep, BitIdenticalToFlatEngineLoop) {
  expect_tiled_matches_flat<float>(GetParam());
}

TEST_P(TileSweep, ComplexBitIdenticalToFlatEngineLoop) {
  expect_tiled_matches_flat<std::complex<float>>(GetParam());
}

// Block, warp and block_k shapes from small to the default's 128x128
// block, including block_k = 64 with a warp tile spanning the whole
// 128-column block.
INSTANTIATE_TEST_SUITE_P(
    Tiles, TileSweep,
    ::testing::Values(TileConfig{64, 64, 16, 32, 32},
                      TileConfig{128, 128, 32, 64, 32},
                      TileConfig{32, 32, 8, 16, 16},
                      TileConfig{128, 64, 64, 32, 64},
                      TileConfig{64, 64, 32, 32, 32},
                      TileConfig{64, 64, 16, 64, 32},
                      TileConfig{32, 32, 32, 16, 16},
                      TileConfig{128, 128, 64, 64, 128},
                      TileConfig{32, 128, 64, 32, 128},
                      TileConfig{128, 128, 64, 64, 32}),
    [](const auto& info) {
      const TileConfig& t = info.param;
      return "b" + std::to_string(t.block_m) + "x" +
             std::to_string(t.block_n) + "x" + std::to_string(t.block_k) +
             "_w" + std::to_string(t.warp_m) + "x" + std::to_string(t.warp_n);
    });

TEST(TiledGemm, StatsMatchGeometry) {
  const Problem p = make(256, 128, 64, 502);
  Matrix<float> c = p.c;
  const TileConfig cfg{128, 128, 32, 64, 32};
  const TiledGemmStats s =
      run_plan(cfg, p.a, p.b, c, {}, one_thread());
  EXPECT_EQ(s.block_tiles, 2);             // 256/128 x 128/128
  EXPECT_EQ(s.mainloop_iterations, 2 * 2);  // K=64 / block_k=32 per tile
  // Staged bytes: per tile-iteration (block_m + block_n) * block_k * 4.
  EXPECT_DOUBLE_EQ(s.staged_bytes, 4.0 * (128 + 128) * 32 * 4);
  // MMA instructions: M*N*K / (16*8*8).
  EXPECT_EQ(s.mma_instructions, 256L * 128 * 64 / (16 * 8 * 8));
}

TEST(TiledGemm, PlanGridSplitsOnlyPastOneThread) {
  // On one thread a plan runs TileConfig's exact uniform grid:
  // 32x128x128 stays one 128x128 tile. On a 4-thread pool it splits
  // into four 32-column strips (each restaging A). Same bits either
  // way.
  const Problem p = make(32, 128, 128, 512);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{},
                                          {32, 128, 128, false});
  Matrix<float> c = p.c;
  const TiledGemmStats s = plan.execute(p.a, p.b, c, one_thread());
  EXPECT_EQ(s.block_tiles, 1);
  EXPECT_EQ(s.mainloop_iterations, 4);  // K=128 / block_k=32
  EXPECT_DOUBLE_EQ(s.staged_bytes, (32.0 + 128) * 128 * 4);

  ThreadPool pool(4);
  ExecRails rails;
  rails.pool = &pool;
  Matrix<float> cp = p.c;
  const TiledGemmStats sp = plan.execute(p.a, p.b, cp, rails);
  EXPECT_EQ(sp.block_tiles, 4);
  EXPECT_EQ(sp.mainloop_iterations, 4 * 4);
  EXPECT_DOUBLE_EQ(sp.staged_bytes, 4 * (32.0 + 32) * 128 * 4);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 128; ++j) {
      ASSERT_EQ(bits_of(cp(i, j)), bits_of(c(i, j))) << i << "," << j;
    }
  }
}

TEST(TiledGemm, RaggedEdgesBitIdenticalToFlatLoop) {
  const core::M3xuEngine engine;
  const Problem p = make(77, 45, 53, 503);  // nothing divides anything
  Matrix<float> flat = p.c;
  engine.gemm_fp32(77, 45, 53, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   flat.data(), flat.ld());
  Matrix<float> c = p.c;
  run_plan(TileConfig{64, 64, 16, 32, 32}, p.a, p.b, c);
  for (int i = 0; i < 77; ++i) {
    for (int j = 0; j < 45; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(flat(i, j))) << i << "," << j;
    }
  }
  // And stays close to the double reference on this modest K.
  Matrix<double> ref = widen(p.c);
  ref_dgemm(widen(p.a), widen(p.b), ref);
  EXPECT_LT(compare(c, ref).mean_rel, 1e-4);
}

TEST(TiledGemm, ComplexBitIdenticalToFlatLoop) {
  const core::M3xuEngine engine;
  Rng rng(504);
  const int m = 48, n = 40, k = 36;
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  Matrix<std::complex<float>> flat = c;
  engine.gemm_fp32c(m, n, k, a.data(), k, b.data(), n, flat.data(), n);
  Matrix<std::complex<float>> tiled = c;
  run_plan(TileConfig{32, 32, 8, 16, 16}, a, b, tiled);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits_of(tiled(i, j).real()), bits_of(flat(i, j).real()));
      ASSERT_EQ(bits_of(tiled(i, j).imag()), bits_of(flat(i, j).imag()));
    }
  }
}

TEST(TiledGemm, RepeatedRunsAreDeterministic) {
  // Tiles are independent, so concurrent scheduling order cannot leak
  // into the results: repeated runs are bit-identical.
  const Problem p = make(130, 130, 64, 505);
  Matrix<float> c1 = p.c, c2 = p.c;
  PlanOptions options;
  options.tile = TileConfig{64, 64, 32, 32, 32};
  const GemmPlan plan =
      GemmPlan::compile(core::M3xuConfig{}, {130, 130, 64, false}, options);
  plan.execute(p.a, p.b, c1);
  plan.execute(p.a, p.b, c2);
  for (int i = 0; i < 130; ++i) {
    for (int j = 0; j < 130; ++j) {
      ASSERT_EQ(bits_of(c1(i, j)), bits_of(c2(i, j)));
    }
  }
}

TEST(TiledGemm, AbftCleanPathBitIdenticalWithZeroCounters) {
  // Enabling the guard on a fault-free engine must not change a single
  // bit of the output, and no counter beyond tile_checks may move.
  const Problem p = make(100, 90, 130, 507);
  const TileConfig cfg{64, 64, 16, 32, 32};
  Matrix<float> plain = p.c, guarded = p.c;
  const TiledGemmStats s0 = run_plan(cfg, p.a, p.b, plain);
  const TiledGemmStats s1 =
      run_plan(cfg, p.a, p.b, guarded, AbftConfig{true, 1.0, 2});
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 90; ++j) {
      ASSERT_EQ(bits_of(guarded(i, j)), bits_of(plain(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(s0.abft_tile_checks, 0);
  EXPECT_EQ(s1.abft_tile_checks, s1.block_tiles);
  EXPECT_EQ(s1.abft_detected, 0);
  EXPECT_EQ(s1.abft_recomputed, 0);
  EXPECT_EQ(s1.abft_recovered, 0);
  EXPECT_EQ(s1.abft_false_alarms, 0);
  // The traffic counters are unaffected by the guard.
  EXPECT_EQ(s1.mainloop_iterations, s0.mainloop_iterations);
  EXPECT_DOUBLE_EQ(s1.staged_bytes, s0.staged_bytes);
  EXPECT_EQ(s1.mma_instructions, s0.mma_instructions);
}

TEST(TiledGemm, AbftCleanPathComplexBitIdentical) {
  Rng rng(508);
  const int m = 48, n = 40, k = 36;
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c, rng);
  Matrix<std::complex<float>> plain = c, guarded = c;
  const TileConfig cfg{32, 32, 8, 16, 16};
  run_plan(cfg, a, b, plain);
  const TiledGemmStats s =
      run_plan(cfg, a, b, guarded, AbftConfig{true, 1.0, 2});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_EQ(bits_of(guarded(i, j).real()), bits_of(plain(i, j).real()));
      ASSERT_EQ(bits_of(guarded(i, j).imag()), bits_of(plain(i, j).imag()));
    }
  }
  EXPECT_EQ(s.abft_detected, 0);
  EXPECT_EQ(s.abft_false_alarms, 0);
}

TEST(TiledGemm, AbftMultiColumnGridSharesRowChecksums) {
  // A 2x3 block grid: each block row's A column-sum vector is computed
  // once and reused across the three block columns. Detection behavior
  // and output bits must be indistinguishable from recomputing it per
  // tile.
  const core::M3xuEngine engine;
  const Problem p = make(96, 130, 72, 511);
  const TileConfig cfg{48, 48, 24, 24, 24};
  Matrix<float> flat = p.c;
  engine.gemm_fp32(96, 130, 72, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   flat.data(), flat.ld());
  Matrix<float> guarded = p.c;
  const TiledGemmStats s = run_plan(cfg, p.a, p.b, guarded,
                                    AbftConfig{true, 1.0, 2}, one_thread());
  for (int i = 0; i < 96; ++i) {
    for (int j = 0; j < 130; ++j) {
      ASSERT_EQ(bits_of(guarded(i, j)), bits_of(flat(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(s.block_tiles, 2 * 3);
  EXPECT_EQ(s.abft_tile_checks, s.block_tiles);
  EXPECT_EQ(s.abft_detected, 0);
  EXPECT_EQ(s.abft_recomputed, 0);
  EXPECT_EQ(s.abft_recovered, 0);
  EXPECT_EQ(s.abft_false_alarms, 0);
}

TEST(TiledGemm, AbftMultiTileRecoversUnderInjection) {
  // Detection must keep firing on a multi-tile grid where the cached
  // per-block-row checksums are shared across block columns.
  const Problem p = make(96, 96, 48, 512);
  const TileConfig cfg{48, 48, 24, 24, 24};
  const core::M3xuEngine clean;
  Matrix<float> ref = p.c;
  clean.gemm_fp32(96, 96, 48, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                  ref.data(), ref.ld());

  const fault::FaultInjector inj(37, fault::SiteRates::uniform(1e-4));
  core::M3xuConfig mcfg;
  mcfg.injector = &inj;
  PlanOptions options;
  options.tile = cfg;
  options.abft = AbftConfig{true, 1.0, 4};
  options.policy.demote = false;  // the clean-recompute protocol
  const GemmPlan plan =
      GemmPlan::compile(mcfg, {96, 96, 48, false}, options);
  Matrix<float> c = p.c;
  const TiledGemmStats s = plan.execute(p.a, p.b, c, one_thread());
  EXPECT_EQ(s.block_tiles, 4);
  ASSERT_GT(inj.total_injected(), 0u);
  ASSERT_GT(s.abft_detected, 0);
  EXPECT_EQ(s.abft_recovered, s.abft_detected);
  for (int i = 0; i < 96; ++i) {
    for (int j = 0; j < 96; ++j) {
      ASSERT_EQ(bits_of(c(i, j)), bits_of(ref(i, j))) << i << "," << j;
    }
  }
}

TEST(TiledGemm, InvalidTileConfigReportsClearMessage) {
  const Problem p = make(32, 32, 32, 509);
  Matrix<float> c = p.c;
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  try {
    // warp_m does not divide block_m.
    run_plan(TileConfig{48, 32, 16, 32, 16}, p.a, p.b, c);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("TileConfig invalid"),
              std::string::npos);
  }
}

TEST(TileConfigValid, RejectsNonPositiveFieldsWithoutUb) {
  // Regression: valid() used to run the % divisibility checks before
  // checking positivity, which is UB (division by zero) on a zero warp
  // tile, and plan compile validates whatever tile its caller passes.
  // Under the UBSan CI matrix this test fails loudly if that ordering
  // ever regresses.
  EXPECT_TRUE(TileConfig{}.valid());
  const auto mutate = [](int TileConfig::* field, int value) {
    TileConfig tile{};
    tile.*field = value;
    return tile;
  };
  for (const int bad : {0, -1, -128}) {
    EXPECT_FALSE(mutate(&TileConfig::block_m, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::block_n, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::block_k, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::warp_m, bad).valid()) << bad;
    EXPECT_FALSE(mutate(&TileConfig::warp_n, bad).valid()) << bad;
  }
  // Divisibility still enforced once positivity holds.
  EXPECT_FALSE((TileConfig{48, 32, 16, 32, 16}).valid());
  EXPECT_FALSE((TileConfig{64, 48, 16, 32, 32}).valid());
}

TEST(TiledGemm, ZeroWarpTileFailsTheEntryCheckCleanly) {
  // The driver's M3XU_CHECK path must reach the handler (and not trip
  // UB inside valid()) for the same malformed configs.
  const Problem p = make(32, 32, 32, 511);
  Matrix<float> c = p.c;
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  EXPECT_THROW(
      run_plan(TileConfig{64, 64, 16, 0, 32}, p.a, p.b, c),
      CheckError);
  EXPECT_THROW(
      run_plan(TileConfig{64, 64, -8, 32, 32}, p.a, p.b, c),
      CheckError);
}

TEST(TiledGemm, RejectsMisalignedBlockK) {
  const Problem p = make(32, 32, 32, 506);
  Matrix<float> c = p.c;
  // block_k must be a multiple of the FP32 instruction K (8).
  EXPECT_DEATH(
      run_plan(TileConfig{32, 32, 12, 16, 16}, p.a, p.b, c),
      "");
}

}  // namespace
}  // namespace m3xu::gemm
