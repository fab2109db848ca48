// Cross-checks the tiled driver's hand-maintained TiledGemmStats
// against the engine/pack telemetry counters: the two are independent
// bookkeeping paths over the same work, so aligned geometries must
// agree exactly. Also pins the per-dot element counter, the generic
// routes' per-datapath counter families and the ABFT counter mirror.
// In M3XU_TELEMETRY=OFF builds the counter deltas are all zero while
// TiledGemmStats still counts; both branches are asserted.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/mxu.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/telemetry.hpp"

namespace fault = m3xu::fault;
namespace telemetry = m3xu::telemetry;
using m3xu::Rng;
using m3xu::core::M3xuEngine;
using m3xu::gemm::Matrix;
using m3xu::gemm::TiledGemmStats;

namespace {

/// Engine-side (output element, K-chunk) pairs attributed to `family`
/// ("fp32" or "fp32c") between two snapshots. Each of the two packed
/// routes counts each pair exactly once: the generic (special/injector/
/// forced) reassembly and the microkernel's block pairs.
std::uint64_t element_chunk_pairs(const telemetry::Snapshot& after,
                                  const telemetry::Snapshot& before,
                                  const std::string& family) {
  const std::string base = "mxu." + family;
  return after.counter_delta(before, base + ".chunks.generic") +
         after.counter_delta(before, base + ".microkernel.pair_chunks");
}

/// One GEMM through a plan on a 1-thread pool, where the plan runs
/// TileConfig's uniform grid: the geometry the counts below assume.
/// Detections take the clean-recompute protocol.
template <typename T>
TiledGemmStats run_plan(const m3xu::gemm::TileConfig& tile,
                        const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c,
                        const m3xu::gemm::AbftConfig& abft = {}) {
  static m3xu::ThreadPool pool(1);
  m3xu::gemm::PlanOptions options;
  options.tile = tile;
  options.abft = abft;
  options.policy.demote = false;
  const m3xu::gemm::GemmPlan plan = m3xu::gemm::GemmPlan::compile(
      m3xu::core::M3xuConfig{},
      {a.rows(), b.cols(), a.cols(), std::is_same_v<T, std::complex<float>>},
      options);
  m3xu::gemm::ExecRails rails;
  rails.pool = &pool;
  return plan.execute(a, b, c, rails);
}

std::uint64_t packed_elements(const telemetry::Snapshot& after,
                              const telemetry::Snapshot& before,
                              const std::string& family) {
  return after.counter_delta(before, "pack." + family + ".a_elements") +
         after.counter_delta(before, "pack." + family + ".b_elements");
}

}  // namespace

TEST(TelemetryRoutes, TiledSgemmStatsMatchEngineCounters) {
  // Aligned everywhere: 128x128x64 against the default 128/128/32
  // tile with 64x32 warps, so instr_count has no ceil slack and
  // stats.mma_instructions * (inst_m * inst_n) is exactly the number
  // of (element, chunk) pairs the engine routes.
  const int m = 128, n = 128, k = 64;
  Rng rng(7);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const m3xu::gemm::TileConfig cfg;
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = run_plan(cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.mma_instructions, 0);
#if M3XU_TELEMETRY_ENABLED
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32);
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32"),
            static_cast<std::uint64_t>(stats.mma_instructions) * shape.m *
                shape.n);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(packed_elements(after, before, "fp32")) *
          sizeof(float),
      stats.staged_bytes);
#else
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32"), 0u);
  EXPECT_EQ(packed_elements(after, before, "fp32"), 0u);
#endif
}

TEST(TelemetryRoutes, TiledSgemmUnalignedGeometry) {
  // Unaligned edges: instr_count rounds partial instructions up, so
  // the engine pair count (exact per element) can only be smaller.
  // The per-element chunk count is still exact and checkable.
  const int m = 100, n = 90, k = 50;
  Rng rng(11);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  m3xu::gemm::TileConfig cfg;
  const int inst_k = m3xu::core::shape_for(m3xu::core::MxuMode::kFp32).k;
  std::uint64_t chunks = 0;  // sum over mainloop panels of ceil(kc / inst_k)
  for (int k0 = 0; k0 < k; k0 += cfg.block_k) {
    const int kc = std::min(cfg.block_k, k - k0);
    chunks += static_cast<std::uint64_t>((kc + inst_k - 1) / inst_k);
  }
  const telemetry::Snapshot before = telemetry::snapshot();
  [[maybe_unused]] const TiledGemmStats stats = run_plan(cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32);
  const std::uint64_t pairs = element_chunk_pairs(after, before, "fp32");
  EXPECT_EQ(pairs, static_cast<std::uint64_t>(m) * n * chunks);
  EXPECT_LE(pairs, static_cast<std::uint64_t>(stats.mma_instructions) *
                       shape.m * shape.n);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(packed_elements(after, before, "fp32")) *
          sizeof(float),
      stats.staged_bytes);
#else
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32"), 0u);
#endif
}

TEST(TelemetryRoutes, TiledCgemmStatsMatchEngineCounters) {
  const int m = 64, n = 64, k = 32;
  Rng rng(23);
  Matrix<std::complex<float>> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill({});
  m3xu::gemm::TileConfig cfg;
  cfg.block_m = 64;
  cfg.block_n = 64;
  cfg.block_k = 16;
  cfg.warp_m = 32;
  cfg.warp_n = 32;
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = run_plan(cfg, a, b, c);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.mma_instructions, 0);
#if M3XU_TELEMETRY_ENABLED
  const m3xu::core::MmaShape shape =
      m3xu::core::shape_for(m3xu::core::MxuMode::kFp32Complex);
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32c"),
            static_cast<std::uint64_t>(stats.mma_instructions) * shape.m *
                shape.n);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(packed_elements(after, before, "fp32c")) *
          sizeof(std::complex<float>),
      stats.staged_bytes);
#else
  EXPECT_EQ(element_chunk_pairs(after, before, "fp32c"), 0u);
#endif
}

TEST(TelemetryRoutes, PerDotElementCounter) {
  const int m = 24, n = 16, k = 8;
  Rng rng(31);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const M3xuEngine engine;
  const telemetry::Snapshot before = telemetry::snapshot();
  engine.gemm_fp32(m, n, k, a.data(), a.ld(), b.data(), b.ld(), c.data(),
                   c.ld());
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32.elements.perdot"),
            static_cast<std::uint64_t>(m) * n);
#else
  EXPECT_EQ(after.counter_delta(before, "mxu.fp32.elements.perdot"), 0u);
#endif
}

namespace {

/// The engine's per-datapath route counters, as suffixes of
/// "mxu.<family>.": the generic and per-dot routes' books, and the
/// microkernel's, which a generic call must leave alone.
const char* const kRouteCounters[] = {
    "chunks.generic",           "elements.bypass_special",
    "elements.bypass_injector", "elements.perdot",
    "microkernel.blocks",       "microkernel.block_elements",
    "microkernel.pair_chunks",  "microkernel.pair_fallbacks",
    "microkernel.lane_exits"};

/// Asserts that the window [before, after) booked exactly `want` under
/// mxu.<own>.* (every other route counter of the family 0) and nothing
/// under mxu.<other>.*. With telemetry off every delta reads 0.
void expect_books(const telemetry::Snapshot& before,
                  const telemetry::Snapshot& after, const std::string& own,
                  const std::string& other,
                  const std::map<std::string, std::uint64_t>& want,
                  const char* what) {
  for (const std::string name : kRouteCounters) {
    const auto it = want.find(name);
    const std::uint64_t expected =
        M3XU_TELEMETRY_ENABLED && it != want.end() ? it->second : 0;
    EXPECT_EQ(after.counter_delta(before, "mxu." + own + "." + name),
              expected)
        << what << ": mxu." << own << "." << name;
    EXPECT_EQ(after.counter_delta(before, "mxu." + other + "." + name), 0u)
        << what << ": mxu." << other << "." << name;
  }
}

/// Each generic route of one datapath - a force_generic engine, panels
/// holding an Inf, an attached (zero-rate) injector, and the flat
/// per-dot loop - books its elements and chunks under its own family.
template <typename T>
void check_generic_route_books(const std::string& own,
                               const std::string& other, int chunk_k) {
  constexpr bool kComplex = std::is_same_v<T, std::complex<float>>;
  const int m = 12, n = 10, k = 20;  // K ends in a partial chunk
  Rng rng(kComplex ? 53 : 47);
  Matrix<T> a(m, k), b(k, n), b_inf(k, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  b_inf = b;
  b_inf(3, 4) = T{std::numeric_limits<float>::infinity()};
  const std::uint64_t area = static_cast<std::uint64_t>(m) * n;
  const std::uint64_t chunks = area * ((k + chunk_k - 1) / chunk_k);

  m3xu::core::M3xuConfig forced;
  forced.force_generic = true;
  const fault::FaultInjector quiet(61, fault::SiteRates{});
  m3xu::core::M3xuConfig injected;
  injected.injector = &quiet;
  const M3xuEngine plain;
  const M3xuEngine generic(forced);
  const M3xuEngine faulty(injected);

  const auto packed = [&](const M3xuEngine& e, const Matrix<T>& bm) {
    Matrix<T> c(m, n);
    c.fill(T{});
    if constexpr (kComplex) {
      e.gemm_fp32c_packed(m, n, k, a.data(), a.ld(), bm.data(), bm.ld(),
                          c.data(), c.ld());
    } else {
      e.gemm_fp32_packed(m, n, k, a.data(), a.ld(), bm.data(), bm.ld(),
                         c.data(), c.ld());
    }
  };
  const auto flat = [&] {
    Matrix<T> c(m, n);
    c.fill(T{});
    if constexpr (kComplex) {
      plain.gemm_fp32c(m, n, k, a.data(), a.ld(), b.data(), b.ld(), c.data(),
                       c.ld());
    } else {
      plain.gemm_fp32(m, n, k, a.data(), a.ld(), b.data(), b.ld(), c.data(),
                      c.ld());
    }
  };

  telemetry::Snapshot before = telemetry::snapshot();
  packed(generic, b);
  expect_books(before, telemetry::snapshot(), own, other,
               {{"chunks.generic", chunks}}, "force_generic");
  before = telemetry::snapshot();
  packed(plain, b_inf);
  expect_books(before, telemetry::snapshot(), own, other,
               {{"chunks.generic", chunks},
                {"elements.bypass_special", area}},
               "special");
  before = telemetry::snapshot();
  packed(faulty, b);
  expect_books(before, telemetry::snapshot(), own, other,
               {{"chunks.generic", chunks},
                {"elements.bypass_injector", area}},
               "injector");
  before = telemetry::snapshot();
  flat();
  expect_books(before, telemetry::snapshot(), own, other,
               {{"elements.perdot", area}}, "flat");
}

}  // namespace

TEST(TelemetryRoutes, GenericRouteCountsBookToTheirFamily) {
  check_generic_route_books<float>("fp32", "fp32c",
                                   m3xu::core::kPackChunkFp32);
  check_generic_route_books<std::complex<float>>(
      "fp32c", "fp32", m3xu::core::kPackChunkFp32c);
}

TEST(TelemetryRoutes, AbftCountersMirrorStats) {
  const int m = 64, n = 64, k = 32;
  Rng rng(5);
  Matrix<float> a(m, k), b(k, n), c(m, n);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  c.fill(0.0f);
  const m3xu::gemm::TileConfig cfg;
  m3xu::gemm::AbftConfig abft;
  abft.enable = true;
  const telemetry::Snapshot before = telemetry::snapshot();
  const TiledGemmStats stats = run_plan(cfg, a, b, c, abft);
  const telemetry::Snapshot after = telemetry::snapshot();
  ASSERT_GT(stats.abft_tile_checks, 0);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "abft.tile_checks"),
            static_cast<std::uint64_t>(stats.abft_tile_checks));
  EXPECT_EQ(after.counter_delta(before, "abft.detected"),
            static_cast<std::uint64_t>(stats.abft_detected));
  EXPECT_EQ(after.counter_delta(before, "abft.recomputed"),
            static_cast<std::uint64_t>(stats.abft_recomputed));
#else
  EXPECT_EQ(after.counter_delta(before, "abft.tile_checks"), 0u);
#endif
}
