// Plan tile grids (plan_grid): for every shape x pool size x ABFT
// setting, a plan's output is bit-identical to the per-dot engine route
// (force_generic); the chosen strips cover C exactly once, none exceeds
// the TileConfig block, inner boundaries of a split fall on the 8-wide
// register block; the static balance bound reaches 0.9 wherever the
// work minimum allows two tiles per thread; a 1-thread pool gets the
// uniform grid; and prepack_b fills exactly the panels the first
// global-pool execute looks up. Every pool is explicit, so nothing here
// depends on the host's core count.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::gemm {
namespace {

constexpr int kK = 32;
constexpr int kShapes[][2] = {{1, 1},     {7, 9},     {32, 128},
                              {100, 100}, {129, 257}, {192, 192},
                              {228, 228}, {512, 512}};
constexpr std::size_t kPools[] = {1, 2, 3, 4, 7};

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

/// C + A*B on the per-dot engine route: the bit-identity reference.
/// Every output element is its own dot product on this route, so the
/// rows are computed in 8-row slices on a pool (the route costs
/// ~0.3 us per real MAC).
template <typename T>
Matrix<T> perdot(const Problem<T>& p) {
  core::M3xuConfig cfg;
  cfg.force_generic = true;
  const core::M3xuEngine engine(cfg);
  Matrix<T> c = p.c;
  const int m = p.a.rows(), n = p.b.cols(), k = p.a.cols();
  const auto slice = [&](std::size_t s) {
    const int r0 = static_cast<int>(s) * 8;
    const int rows = std::min(8, m - r0);
    const T* a = p.a.data() + static_cast<std::size_t>(r0) * k;
    T* out = c.data() + static_cast<std::size_t>(r0) * n;
    if constexpr (std::is_same_v<T, float>) {
      engine.gemm_fp32(rows, n, k, a, k, p.b.data(), n, out, n);
    } else {
      engine.gemm_fp32c(rows, n, k, a, k, p.b.data(), n, out, n);
    }
  };
  ThreadPool pool(4);
  pool.parallel_for(static_cast<std::size_t>((m + 7) / 8), 1, slice);
  return c;
}

/// Strips start at 0, ascend strictly, end at `extent`, none wider than
/// `block`, and - unless the grid is the uniform one - every inner
/// boundary sits on a multiple of 8.
void expect_strips(const std::vector<int>& edges, int extent, int block,
                   bool uniform) {
  ASSERT_GE(edges.size(), 2u);
  EXPECT_EQ(edges.front(), 0);
  EXPECT_EQ(edges.back(), extent);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    EXPECT_GT(edges[i + 1], edges[i]) << "strip " << i;
    EXPECT_LE(edges[i + 1] - edges[i], block) << "strip " << i;
    if (!uniform && i > 0) {
      EXPECT_EQ(edges[i] % 8, 0) << "boundary " << i;
    }
  }
}

template <typename T>
void sweep_dtype() {
  constexpr bool kCplx = std::is_same_v<T, std::complex<float>>;
  const TileConfig tile;
  std::uint64_t seed = kCplx ? 2200 : 2100;
  for (const auto& shape : kShapes) {
    const int m = shape[0], n = shape[1];
    SCOPED_TRACE(testing::Message() << (kCplx ? "cgemm " : "sgemm ") << m
                                    << "x" << n << "x" << kK);
    const Problem<T> p = make<T>(m, n, kK, ++seed);
    const Matrix<T> want = perdot(p);
    const PlanKey key{m, n, kK, kCplx};
    const double macs =
        static_cast<double>(m) * n * kK * (kCplx ? 4.0 : 1.0);
    const TileGrid uniform = TileGrid::uniform(m, n, tile);
    for (const bool abft_on : {false, true}) {
      PlanOptions opts;
      opts.abft.enable = abft_on;
      const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, key, opts);
      for (const std::size_t threads : kPools) {
        SCOPED_TRACE(testing::Message() << "pool " << threads << " abft "
                                        << abft_on);
        ThreadPool pool(threads);
        const TileGrid& grid = plan.grid(&pool);
        const bool is_uniform =
            grid.rows == uniform.rows && grid.cols == uniform.cols;
        expect_strips(grid.rows, m, tile.block_m, is_uniform);
        expect_strips(grid.cols, n, tile.block_n, is_uniform);
        const TileGrid direct = plan_grid(key, tile, threads);
        EXPECT_EQ(grid.rows, direct.rows);
        EXPECT_EQ(grid.cols, direct.cols);
        if (threads == 1) {
          EXPECT_TRUE(is_uniform);
        }
        const double bound = balance_bound(grid, threads);
        EXPECT_GE(bound, balance_bound(uniform, threads) - 1e-12);
        if (macs >= 2.0 * static_cast<double>(threads) * kMinTileMacs) {
          EXPECT_GE(bound, 0.9) << grid.grid_m() << "x" << grid.grid_n();
        }
        ExecRails rails;
        rails.pool = &pool;
        Matrix<T> c = p.c;
        const TiledGemmStats stats = plan.execute(p.a, p.b, c, rails);
        EXPECT_EQ(stats.block_tiles, grid.tiles());
        EXPECT_TRUE(bitwise_equal(c, want));
        if (abft_on) {
          EXPECT_EQ(stats.abft_tile_checks, grid.tiles());
          EXPECT_EQ(stats.abft_detected, 0);
        }
      }
    }
  }
}

TEST(PlanGrid, SgemmSweepMatchesPerDotAndBalances) { sweep_dtype<float>(); }

TEST(PlanGrid, CgemmSweepMatchesPerDotAndBalances) {
  sweep_dtype<std::complex<float>>();
}

template <typename T>
void expect_prepack_covers_first_execute() {
  constexpr bool kCplx = std::is_same_v<T, std::complex<float>>;
  std::uint64_t seed = kCplx ? 2400 : 2300;
  for (const auto& shape : kShapes) {
    const int m = shape[0], n = shape[1];
    SCOPED_TRACE(testing::Message() << m << "x" << n);
    const Problem<T> p = make<T>(m, n, kK, ++seed);
    GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {m, n, kK, kCplx});
    plan.prepack_b(p.b);
    Matrix<T> c = p.c;
    plan.execute(p.a, p.b, c);
    const PlanPanelStats st = plan.panel_stats();
    EXPECT_GT(st.hits, 0u);
    EXPECT_EQ(st.misses, 0u);  // plan_b_hit_rate 1.0
  }
}

TEST(PlanGrid, PrepackFollowsTheGlobalPoolGrid) {
  expect_prepack_covers_first_execute<float>();
  expect_prepack_covers_first_execute<std::complex<float>>();
}

TEST(PlanGrid, ShortWideShapesSplitByColumns) {
  // 32x128x128 on 4 threads: four 32-column strips (bound 1.0), not
  // row strips that would each restage all of B and recompute its ABFT
  // column checksums. The transposed shape splits by rows.
  const TileConfig tile;
  const TileGrid wide = plan_grid({32, 128, 128, false}, tile, 4);
  EXPECT_EQ(wide.rows, (std::vector<int>{0, 32}));
  EXPECT_EQ(wide.cols, (std::vector<int>{0, 32, 64, 96, 128}));
  EXPECT_DOUBLE_EQ(balance_bound(wide, 4), 1.0);
  const TileGrid tall = plan_grid({128, 32, 128, false}, tile, 4);
  EXPECT_EQ(tall.rows, (std::vector<int>{0, 32, 64, 96, 128}));
  EXPECT_EQ(tall.cols, (std::vector<int>{0, 32}));
}

TEST(PlanGrid, KeepsBalancedUniformGridsAndSmallGemms) {
  const TileConfig tile;
  // 16 equal tiles on 4 threads: bound 1.0, so the uniform grid (and
  // its panel keys) stays.
  const TileGrid big = plan_grid({512, 512, 512, false}, tile, 4);
  const TileGrid uniform = TileGrid::uniform(512, 512, tile);
  EXPECT_EQ(big.rows, uniform.rows);
  EXPECT_EQ(big.cols, uniform.cols);
  // 32x32x64 is 64 k MACs: splitting it would drop below kMinTileMacs.
  const TileGrid small = plan_grid({32, 32, 64, false}, tile, 4);
  EXPECT_LT(32.0 * 32 * 64 / 2, kMinTileMacs);
  EXPECT_EQ(small.tiles(), 1);
  // A tile config whose blocks are off the 8-wide strip unit keeps
  // its uniform grid.
  const TileConfig odd{60, 60, 32, 60, 60};
  const TileGrid kept = plan_grid({100, 100, 512, false}, odd, 4);
  EXPECT_EQ(kept.rows, TileGrid::uniform(100, 100, odd).rows);
  EXPECT_EQ(kept.cols, TileGrid::uniform(100, 100, odd).cols);
}

TEST(PlanGrid, BalanceBoundModelsGreedyScheduling) {
  // cgemm_stream's 228 = 128 + 100 uniform grid: 16:13:13:10 work.
  const TileGrid g = TileGrid::uniform(228, 228, TileConfig{});
  EXPECT_NEAR(balance_bound(g, 4), 51984.0 / (4.0 * 16384.0), 1e-12);
  EXPECT_DOUBLE_EQ(balance_bound(g, 1), 1.0);
  // One tile on four threads reads 0.25.
  const TileGrid one = TileGrid::uniform(32, 128, TileConfig{});
  EXPECT_DOUBLE_EQ(balance_bound(one, 4), 0.25);
}

}  // namespace
}  // namespace m3xu::gemm
