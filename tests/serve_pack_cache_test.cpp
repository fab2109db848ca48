// Tests for the checksummed LRU prepacked-B panel cache (gemm::PanelCache,
// the serving PackCache): LRU eviction order, corruption detection ->
// drop -> repack, hit/miss accounting, bit-identical cached-vs-uncached
// GEMM results through the driver, and concurrent multi-tenant access
// (tsan-labeled).
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/mxu.hpp"
#include "core/packed_panel.hpp"
#include "gemm/matrix.hpp"
#include "gemm/panel_cache.hpp"
#include "gemm/plan.hpp"
#include "gemm/recovery.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::serve {
namespace {

/// A small deterministic FP32 B panel packed from ramp data; `salt`
/// varies the contents per key so distinct panels stay distinct.
core::PackedPanelFp32B make_panel(int salt) {
  const int k = 8, cols = 4;
  std::vector<float> b(static_cast<std::size_t>(k) * cols);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.25f * static_cast<float>(i + 1) + static_cast<float>(salt);
  }
  core::PackedPanelFp32B panel;
  core::pack_fp32_b(b.data(), cols, k, cols, panel);
  return panel;
}

gemm::PanelKey key_for(std::uint64_t b_key, int k0 = 0) {
  return gemm::PanelKey{b_key, k0, 0, 8, 4, false};
}

bool meta_equal(const std::vector<core::PanelChunkMeta>& x,
                const std::vector<core::PanelChunkMeta>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].min_exp != y[i].min_exp || x[i].max_exp != y[i].max_exp ||
        x[i].flags != y[i].flags) {
      return false;
    }
  }
  return true;
}

/// Two B panels carry the same operands: equal words and prescan.
template <typename Panel>
bool panel_equal(const Panel& x, const Panel& y) {
  return x.words == y.words && meta_equal(x.meta, y.meta);
}

core::PackedPanelFp32cB make_cpanel(int salt) {
  const int k = 8, cols = 4;
  std::vector<std::complex<float>> cb(static_cast<std::size_t>(k) * cols);
  for (std::size_t i = 0; i < cb.size(); ++i) {
    cb[i] = {0.5f * static_cast<float>(i + 1) + static_cast<float>(salt),
             -1.5f};
  }
  core::PackedPanelFp32cB panel;
  core::pack_fp32c_b(cb.data(), cols, k, cols, panel);
  return panel;
}

TEST(PackCache, RoundTripsAPanelBitExactly) {
  gemm::PanelCache cache(8);
  const core::PackedPanelFp32B panel = make_panel(1);
  cache.put(key_for(1), panel);
  core::PackedPanelFp32B out;
  ASSERT_TRUE(cache.get(key_for(1), &out));
  EXPECT_EQ(out.k, panel.k);
  EXPECT_EQ(out.cols, panel.cols);
  EXPECT_EQ(out.has_special, panel.has_special);
  EXPECT_EQ(out.words, panel.words);
  EXPECT_TRUE(meta_equal(out.meta, panel.meta));
}

TEST(PackCache, MissOnUnknownKeyAndCountersTrack) {
  gemm::PanelCache cache(8);
  core::PackedPanelFp32B out;
  EXPECT_FALSE(cache.get(key_for(42), &out));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.put(key_for(42), make_panel(0));
  EXPECT_TRUE(cache.get(key_for(42), &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PackCache, EvictsLeastRecentlyUsedFirst) {
  gemm::PanelCache cache(3);
  cache.put(key_for(1), make_panel(1));
  cache.put(key_for(2), make_panel(2));
  cache.put(key_for(3), make_panel(3));
  ASSERT_EQ(cache.size(), 3u);
  // Touch key 1 so key 2 becomes the LRU victim.
  core::PackedPanelFp32B out;
  ASSERT_TRUE(cache.get(key_for(1), &out));
  cache.put(key_for(4), make_panel(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get(key_for(1), &out));
  EXPECT_FALSE(cache.get(key_for(2), &out));  // evicted
  EXPECT_TRUE(cache.get(key_for(3), &out));
  EXPECT_TRUE(cache.get(key_for(4), &out));
}

TEST(PackCache, ReinsertRefreshesInsteadOfEvicting) {
  gemm::PanelCache cache(2);
  cache.put(key_for(1), make_panel(1));
  cache.put(key_for(2), make_panel(2));
  // Re-putting an existing key replaces in place: no eviction.
  cache.put(key_for(1), make_panel(9));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  core::PackedPanelFp32B out;
  ASSERT_TRUE(cache.get(key_for(1), &out));
  EXPECT_TRUE(panel_equal(out, make_panel(9)));
}

TEST(PackCache, CorruptedEntryIsDroppedNotServed) {
  gemm::PanelCache cache(8);
  cache.put(key_for(7), make_panel(7));
  ASSERT_TRUE(cache.corrupt_one(7));
  core::PackedPanelFp32B out;
  // The checksum trips: the hit becomes a miss and the entry is gone.
  EXPECT_FALSE(cache.get(key_for(7), &out));
  EXPECT_EQ(cache.corrupt_dropped(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  // A repack (what the driver does on the miss) restores service.
  cache.put(key_for(7), make_panel(7));
  ASSERT_TRUE(cache.get(key_for(7), &out));
  EXPECT_TRUE(panel_equal(out, make_panel(7)));
}

TEST(PackCache, CorruptionServedWhenVerifyDisabled) {
  // Documents the trade: verify=false skips the integrity re-check, so
  // the corrupted panel is served. Serving keeps verify on.
  gemm::PanelCache cache(8, /*verify=*/false);
  cache.put(key_for(7), make_panel(7));
  ASSERT_TRUE(cache.corrupt_one(7));
  core::PackedPanelFp32B out;
  EXPECT_TRUE(cache.get(key_for(7), &out));
  EXPECT_FALSE(panel_equal(out, make_panel(7)));
  EXPECT_EQ(cache.corrupt_dropped(), 0u);
}

TEST(PackCache, ComplexPanelsKeyedSeparatelyFromReal) {
  gemm::PanelCache cache(8);
  cache.put(key_for(1), make_panel(1));
  gemm::PanelKey ckey = key_for(1);
  ckey.cplx = true;
  core::PackedPanelFp32cB cout_panel;
  EXPECT_FALSE(cache.get(ckey, &cout_panel));

  const core::PackedPanelFp32cB cpanel = make_cpanel(0);
  cache.put(ckey, cpanel);
  ASSERT_TRUE(cache.get(ckey, &cout_panel));
  EXPECT_TRUE(panel_equal(cout_panel, cpanel));

  // Corruption detection covers the complex panel type too.
  ASSERT_TRUE(cache.corrupt_one(1));
  cache.clear();
}

/// Flips one bit at item `index` (words first, then prescan entries)
/// of the only cached panel and expects the next get to drop it.
template <typename Panel>
void expect_flip_caught(const Panel& panel, std::size_t index) {
  gemm::PanelCache cache(8);
  gemm::PanelKey key = key_for(5);
  key.cplx = std::is_same_v<Panel, core::PackedPanelFp32cB>;
  Panel out;
  cache.put(key, panel);
  ASSERT_TRUE(cache.corrupt_one(5, index)) << "item " << index;
  EXPECT_FALSE(cache.get(key, &out)) << "item " << index;
  EXPECT_EQ(cache.corrupt_dropped(), 1u) << "item " << index;
  EXPECT_EQ(cache.size(), 0u) << "item " << index;
  // The repack is served again, intact.
  cache.put(key, panel);
  ASSERT_TRUE(cache.get(key, &out));
  EXPECT_TRUE(panel_equal(out, panel));
}

TEST(PackCache, OneBitFlipAnywhereInACompactPanelIsCaught) {
  // A flipped prescan entry matters as much as a flipped word: it would
  // silently hand the microkernel a wrong rounding window.
  const core::PackedPanelFp32B f32 = make_panel(3);
  const core::PackedPanelFp32cB f32c = make_cpanel(3);
  for (const std::size_t w : {std::size_t{0}, f32.words.size() / 2,
                              f32.words.size() - 1, f32.words.size() + 1}) {
    expect_flip_caught(f32, w);
  }
  for (const std::size_t w : {std::size_t{0}, f32c.words.size() / 2,
                              f32c.words.size() - 1, f32c.words.size() + 2}) {
    expect_flip_caught(f32c, w);
  }
  // Past the prescan there is nothing to flip.
  gemm::PanelCache cache(8);
  cache.put(key_for(5), f32);
  EXPECT_FALSE(cache.corrupt_one(5, f32.words.size() + f32.meta.size()));
}

#if M3XU_TELEMETRY_ENABLED
TEST(PackCache, TelemetryMirrorsCounters) {
  const telemetry::Snapshot before = telemetry::snapshot();
  gemm::PanelCache cache(2);
  core::PackedPanelFp32B out;
  cache.get(key_for(1), &out);       // miss
  cache.put(key_for(1), make_panel(1));
  cache.get(key_for(1), &out);       // hit
  cache.put(key_for(2), make_panel(2));
  cache.put(key_for(3), make_panel(3));  // evicts
  ASSERT_TRUE(cache.corrupt_one(3));
  cache.get(key_for(3), &out);       // corrupt drop
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GE(after.counter_delta(before, "panel_cache.misses"), 2u);
  EXPECT_GE(after.counter_delta(before, "panel_cache.hits"), 1u);
  EXPECT_GE(after.counter_delta(before, "panel_cache.evictions"), 1u);
  EXPECT_GE(after.counter_delta(before, "panel_cache.corrupt_dropped"),
            1u);
}
#endif

/// A plan without its private B-panel store: an execute packs every B
/// panel itself unless the rails bring a cache.
gemm::GemmPlan uncached_plan(const gemm::PlanKey& key,
                             const gemm::TileConfig& tile,
                             const gemm::AbftConfig& abft) {
  gemm::PlanOptions options;
  options.tile = tile;
  options.abft = abft;
  options.reuse_b_panels = false;
  return gemm::GemmPlan::compile(core::M3xuConfig{}, key, options);
}

/// End-to-end bit-identity: the same GEMM run uncached, cache-cold, and
/// cache-warm must produce byte-identical C. This is the property that
/// licenses sharing packed panels across tenants at all.
TEST(PackCacheDriver, CachedRunsAreBitIdenticalToUncached) {
  const int m = 96, n = 80, k = 72;
  gemm::Matrix<float> a(m, k), b(k, n), c0(m, n);
  Rng rng(101);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  gemm::AbftConfig abft;
  abft.enable = true;
  const gemm::GemmPlan plan =
      uncached_plan({m, n, k, false}, {32, 32, 32, 16, 16}, abft);

  gemm::Matrix<float> c_plain = c0;
  plan.execute(a, b, c_plain);

  gemm::PanelCache cache(64);
  gemm::ExecRails rails;
  rails.b_cache = &cache;
  rails.b_key = 0xB0B;

  gemm::Matrix<float> c_cold = c0;
  plan.execute(a, b, c_cold, rails);
  EXPECT_GT(cache.size(), 0u);  // the cold run populated the cache

  gemm::Matrix<float> c_warm = c0;
  plan.execute(a, b, c_warm, rails);
  EXPECT_GT(cache.hits(), 0u);  // the warm run actually hit

  ASSERT_EQ(std::memcmp(c_plain.data(), c_cold.data(),
                        sizeof(float) * static_cast<std::size_t>(m) * n),
            0);
  ASSERT_EQ(std::memcmp(c_plain.data(), c_warm.data(),
                        sizeof(float) * static_cast<std::size_t>(m) * n),
            0);
}

TEST(PackCacheDriver, ComplexCachedRunsAreBitIdenticalToUncached) {
  const int m = 48, n = 40, k = 36;
  gemm::Matrix<std::complex<float>> a(m, k), b(k, n), c0(m, n);
  Rng rng(11);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  gemm::AbftConfig abft;
  abft.enable = true;
  const gemm::GemmPlan plan =
      uncached_plan({m, n, k, true}, {16, 16, 32, 16, 16}, abft);

  gemm::Matrix<std::complex<float>> c_plain = c0;
  plan.execute(a, b, c_plain);

  gemm::PanelCache cache(64);
  gemm::ExecRails rails;
  rails.b_cache = &cache;
  rails.b_key = 0xC0C;

  gemm::Matrix<std::complex<float>> c_cold = c0;
  plan.execute(a, b, c_cold, rails);
  gemm::Matrix<std::complex<float>> c_warm = c0;
  plan.execute(a, b, c_warm, rails);
  EXPECT_GT(cache.hits(), 0u);

  ASSERT_EQ(std::memcmp(c_plain.data(), c_cold.data(),
                        sizeof(std::complex<float>) *
                            static_cast<std::size_t>(m) * n),
            0);
  ASSERT_EQ(std::memcmp(c_plain.data(), c_warm.data(),
                        sizeof(std::complex<float>) *
                            static_cast<std::size_t>(m) * n),
            0);
}

/// A corrupted shared panel must never change results: the checksum
/// converts the would-be wrong answer into a repack.
TEST(PackCacheDriver, CorruptionBetweenRunsStillYieldsBitIdenticalResult) {
  const int m = 64, n = 64, k = 64;
  gemm::Matrix<float> a(m, k), b(k, n), c0(m, n);
  Rng rng(7);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  const gemm::GemmPlan plan =
      uncached_plan({m, n, k, false}, {32, 32, 32, 16, 16}, {});

  gemm::Matrix<float> c_plain = c0;
  plan.execute(a, b, c_plain);

  gemm::PanelCache cache(64);
  gemm::ExecRails rails;
  rails.b_cache = &cache;
  rails.b_key = 0xDEAD;
  gemm::Matrix<float> c_cold = c0;
  plan.execute(a, b, c_cold, rails);
  ASSERT_TRUE(cache.corrupt_one(0xDEAD));
  const std::uint64_t drops_before = cache.corrupt_dropped();
  gemm::Matrix<float> c_after = c0;
  plan.execute(a, b, c_after, rails);
  EXPECT_GT(cache.corrupt_dropped(), drops_before);
  ASSERT_EQ(std::memcmp(c_plain.data(), c_after.data(),
                        sizeof(float) * static_cast<std::size_t>(m) * n),
            0);
}

/// Concurrent tenants hammering overlapping key ranges (tsan target):
/// correctness here is "no data race, every hit returns an intact
/// panel" - corruption injection races against readers on purpose.
TEST(PackCacheConcurrency, ConcurrentTenantsGetConsistentPanels) {
  gemm::PanelCache cache(16);
  constexpr int kThreads = 6;
  constexpr int kRounds = 200;
  std::atomic<bool> fail{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::PackedPanelFp32B out;
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t b_key =
            static_cast<std::uint64_t>((t + r) % 8 + 1);
        const gemm::PanelKey key = key_for(static_cast<int>(b_key));
        if (cache.get(key, &out)) {
          // A served panel is always intact (checksum-verified) and
          // internally consistent with its key contents.
          if (!panel_equal(out, make_panel(static_cast<int>(b_key)))) {
            fail = true;
          }
        } else {
          cache.put(key, make_panel(static_cast<int>(b_key)));
        }
        if (t == 0 && r % 50 == 13) {
          cache.corrupt_one(b_key);  // chaos: readers must survive it
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(fail.load());
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace m3xu::serve
