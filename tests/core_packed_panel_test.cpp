// Tests for the packed-operand fast path: the packed/prepacked engine
// GEMMs must be bit-identical to the per-dot route on random sweeps,
// special values, and with a fault injector attached (same sites, same
// opportunity order, same injected flips); the panels must hold the
// staged words and a prescan equal to one rebuilt from the per-element
// split; plus the 64-bit indexing regression for leading dimensions
// whose virtual index crosses 2^31.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "core/lane_operand.hpp"
#include "core/mxu.hpp"
#include "core/packed_panel.hpp"
#include "fault/injector.hpp"
#include "fp/split.hpp"

namespace m3xu::core {
namespace {

std::vector<float> random_buffer(int rows, int cols, int ld, Rng& rng,
                                 bool benign) {
  std::vector<float> v(static_cast<std::size_t>(rows) * ld, 0.0f);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      v[static_cast<std::size_t>(i) * ld + j] =
          benign ? rng.scaled_float() : rng.any_finite_float();
    }
  }
  return v;
}

std::vector<std::complex<float>> random_cbuffer(int rows, int cols, int ld,
                                                Rng& rng, bool benign) {
  std::vector<std::complex<float>> v(static_cast<std::size_t>(rows) * ld);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      v[static_cast<std::size_t>(i) * ld + j] =
          benign ? std::complex<float>(rng.scaled_float(), rng.scaled_float())
                 : std::complex<float>(rng.any_finite_float(),
                                       rng.any_finite_float());
    }
  }
  return v;
}

/// Sprinkles Inf/NaN/zero/subnormal values over a buffer.
void add_specials(std::vector<float>& v, Rng& rng, int count) {
  static const float kSpecials[] = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -1.17549421e-38f,  // largest subnormal, negated
  };
  for (int i = 0; i < count; ++i) {
    v[rng.next_below(v.size())] = kSpecials[rng.next_below(7)];
  }
}

void expect_bitwise_equal(const std::vector<float>& x,
                          const std::vector<float>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(x[i]), bits_of(y[i])) << "element " << i;
  }
}

void expect_bitwise_equal(const std::vector<std::complex<float>>& x,
                          const std::vector<std::complex<float>>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(x[i].real()), bits_of(y[i].real())) << "element " << i;
    ASSERT_EQ(bits_of(x[i].imag()), bits_of(y[i].imag())) << "element " << i;
  }
}

// --- FP32 bit-identity -------------------------------------------------

TEST(PackedFp32, BitIdenticalToPerDotAcrossGeometries) {
  // k values straddle the FP32 chunk width (8): partial chunks, exact
  // multiples, and multi-chunk reductions; padded leading dimensions.
  const struct {
    int m, n, k, pad;
  } cases[] = {{1, 1, 1, 0},   {3, 5, 7, 2},   {8, 8, 8, 0}, {13, 9, 16, 3},
               {17, 6, 23, 1}, {5, 31, 40, 0}, {2, 2, 65, 5}};
  const M3xuEngine engine;
  int idx = 0;
  for (const auto& g : cases) {
    for (const bool benign : {true, false}) {
      Rng rng(4200 + idx++);
      const auto a = random_buffer(g.m, g.k, g.k + g.pad, rng, benign);
      const auto b = random_buffer(g.k, g.n, g.n + g.pad, rng, benign);
      auto c0 = random_buffer(g.m, g.n, g.n + g.pad, rng, true);
      auto c1 = c0;
      engine.gemm_fp32(g.m, g.n, g.k, a.data(), g.k + g.pad, b.data(),
                       g.n + g.pad, c0.data(), g.n + g.pad);
      engine.gemm_fp32_packed(g.m, g.n, g.k, a.data(), g.k + g.pad, b.data(),
                              g.n + g.pad, c1.data(), g.n + g.pad);
      expect_bitwise_equal(c0, c1);
    }
  }
}

TEST(PackedFp32, SpecialValuesBitIdentical) {
  const M3xuEngine engine;
  for (int trial = 0; trial < 8; ++trial) {
    Rng rng(5100 + trial);
    const int m = 9, n = 11, k = 19;
    auto a = random_buffer(m, k, k, rng, true);
    auto b = random_buffer(k, n, n, rng, true);
    add_specials(a, rng, 12);
    add_specials(b, rng, 12);
    auto c0 = random_buffer(m, n, n, rng, true);
    auto c1 = c0;
    engine.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    engine.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1);
  }
}

TEST(PackedFp32, PrepackedSubBlocksMatchPerDot) {
  // Pack one big panel pair, then compute interior sub-blocks through
  // (row0, col0) offsets: each must equal the per-dot GEMM over the
  // corresponding operand slices.
  const int rows = 20, cols = 18, k = 21;
  Rng rng(6000);
  const auto a = random_buffer(rows, k, k, rng, false);
  const auto b = random_buffer(k, cols, cols, rng, false);
  PackedPanelFp32A pa;
  PackedPanelFp32B pb;
  pack_fp32_a(a.data(), k, rows, k, pa);
  pack_fp32_b(b.data(), cols, k, cols, pb);
  const M3xuEngine engine;
  const struct {
    int row0, col0, m, n;
  } blocks[] = {
      {0, 0, rows, cols}, {3, 2, 7, 9}, {13, 11, 7, 7}, {19, 17, 1, 1}};
  for (const auto& blk : blocks) {
    auto c0 = random_buffer(blk.m, blk.n, blk.n, rng, true);
    auto c1 = c0;
    engine.gemm_fp32(blk.m, blk.n, k,
                     a.data() + static_cast<std::size_t>(blk.row0) * k, k,
                     b.data() + blk.col0, cols, c0.data(), blk.n);
    engine.gemm_fp32_prepacked(pa, blk.row0, pb, blk.col0, blk.m, blk.n,
                               c1.data(), blk.n);
    expect_bitwise_equal(c0, c1);
  }
}

TEST(PackedFp32, NonDefaultRoundingConfigsStayBitIdentical) {
  // The packed path (microkernel) must replicate both register semantics
  // (per-step rounding and the single-rounding ablation) at every
  // supported accumulation-precision boundary.
  for (const bool per_step : {true, false}) {
    for (const int prec : {24, 48, 63}) {
      M3xuConfig cfg;
      cfg.per_step_rounding = per_step;
      cfg.accum_prec = prec;
      const M3xuEngine engine(cfg);
      Rng rng(6400 + prec + (per_step ? 1000 : 0));
      const int m = 7, n = 9, k = 26;
      const auto a = random_buffer(m, k, k, rng, false);
      const auto b = random_buffer(k, n, n, rng, false);
      auto c0 = random_buffer(m, n, n, rng, true);
      auto c1 = c0;
      engine.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
      engine.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
      expect_bitwise_equal(c0, c1);
    }
  }
}

// --- FP32C bit-identity ------------------------------------------------

TEST(PackedFp32c, BitIdenticalToPerDotAcrossGeometries) {
  const struct {
    int m, n, k, pad;
  } cases[] = {
      {1, 1, 1, 0}, {3, 5, 6, 2}, {4, 4, 4, 0}, {9, 7, 13, 1}, {2, 11, 33, 4}};
  const M3xuEngine engine;
  int idx = 0;
  for (const auto& g : cases) {
    for (const bool benign : {true, false}) {
      Rng rng(7300 + idx++);
      const auto a = random_cbuffer(g.m, g.k, g.k + g.pad, rng, benign);
      const auto b = random_cbuffer(g.k, g.n, g.n + g.pad, rng, benign);
      auto c0 = random_cbuffer(g.m, g.n, g.n + g.pad, rng, true);
      auto c1 = c0;
      engine.gemm_fp32c(g.m, g.n, g.k, a.data(), g.k + g.pad, b.data(),
                        g.n + g.pad, c0.data(), g.n + g.pad);
      engine.gemm_fp32c_packed(g.m, g.n, g.k, a.data(), g.k + g.pad, b.data(),
                               g.n + g.pad, c1.data(), g.n + g.pad);
      expect_bitwise_equal(c0, c1);
    }
  }
}

TEST(PackedFp32c, SpecialComponentsBitIdentical) {
  const M3xuEngine engine;
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(7900 + trial);
    const int m = 6, n = 7, k = 11;
    auto a = random_cbuffer(m, k, k, rng, true);
    auto b = random_cbuffer(k, n, n, rng, true);
    // Corrupt individual components so real/imag bypass flags diverge.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int i = 0; i < 8; ++i) {
      auto& ae = a[rng.next_below(a.size())];
      ae = rng.next_below(2) ? std::complex<float>(inf, ae.imag())
                             : std::complex<float>(ae.real(), nan);
      auto& be = b[rng.next_below(b.size())];
      be = rng.next_below(2) ? std::complex<float>(0.0f, be.imag())
                             : std::complex<float>(be.real(), -inf);
    }
    auto c0 = random_cbuffer(m, n, n, rng, true);
    auto c1 = c0;
    engine.gemm_fp32c(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    engine.gemm_fp32c_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1);
  }
}

// --- Fault-opportunity equivalence ------------------------------------

TEST(PackedFault, Fp32SameFaultSequenceAndOutputs) {
  // With an injector attached, the packed path reassembles per-dot
  // steps: every operand-buffer opportunity must fire in the per-dot
  // order so a fixed seed replays the identical fault set.
  for (int trial = 0; trial < 4; ++trial) {
    const fault::SiteRates rates = fault::SiteRates::uniform(2e-3);
    const fault::FaultInjector inj_perdot(900 + trial, rates);
    const fault::FaultInjector inj_packed(900 + trial, rates);
    M3xuConfig cfg_perdot, cfg_packed;
    cfg_perdot.injector = &inj_perdot;
    cfg_packed.injector = &inj_packed;
    const M3xuEngine perdot(cfg_perdot);
    const M3xuEngine packed(cfg_packed);
    Rng rng(8800 + trial);
    const int m = 8, n = 9, k = 20;
    auto a = random_buffer(m, k, k, rng, true);
    auto b = random_buffer(k, n, n, rng, true);
    if (trial % 2 == 1) {
      add_specials(a, rng, 5);
      add_specials(b, rng, 5);
    }
    auto c0 = random_buffer(m, n, n, rng, true);
    auto c1 = c0;
    perdot.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    packed.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1);
    EXPECT_GT(inj_perdot.total_injected(), 0u);
    EXPECT_EQ(inj_perdot.log(), inj_packed.log());
    for (int s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      EXPECT_EQ(inj_perdot.opportunities(site), inj_packed.opportunities(site))
          << "site " << s;
      EXPECT_EQ(inj_perdot.injected(site), inj_packed.injected(site))
          << "site " << s;
    }
  }
}

TEST(PackedFault, Fp32cSameFaultSequenceAndOutputs) {
  const fault::SiteRates rates = fault::SiteRates::uniform(2e-3);
  const fault::FaultInjector inj_perdot(77, rates);
  const fault::FaultInjector inj_packed(77, rates);
  M3xuConfig cfg_perdot, cfg_packed;
  cfg_perdot.injector = &inj_perdot;
  cfg_packed.injector = &inj_packed;
  const M3xuEngine perdot(cfg_perdot);
  const M3xuEngine packed(cfg_packed);
  Rng rng(9100);
  const int m = 6, n = 6, k = 14;
  const auto a = random_cbuffer(m, k, k, rng, true);
  const auto b = random_cbuffer(k, n, n, rng, true);
  auto c0 = random_cbuffer(m, n, n, rng, true);
  auto c1 = c0;
  perdot.gemm_fp32c(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  packed.gemm_fp32c_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  expect_bitwise_equal(c0, c1);
  EXPECT_GT(inj_perdot.total_injected(), 0u);
  EXPECT_EQ(inj_perdot.log(), inj_packed.log());
  for (int s = 0; s < fault::kSiteCount; ++s) {
    const auto site = static_cast<fault::Site>(s);
    EXPECT_EQ(inj_perdot.opportunities(site), inj_packed.opportunities(site));
    EXPECT_EQ(inj_perdot.injected(site), inj_packed.injected(site));
  }
}

// --- Pack-time prescan -------------------------------------------------

/// A chunk's prescan rebuilt element by element from the
/// data-assignment split: each part through fp::split_fp32_hw and
/// from_hw_part, a finite hi lane anchored 12 below its exp2.
struct RefChunk {
  int min_exp = std::numeric_limits<int>::max();
  int max_exp = std::numeric_limits<int>::min();
  bool special = false;

  void add(float v) {
    const fp::HwSplit split = fp::split_fp32_hw(v);
    if (!split.hi.finite) {
      special = true;
      return;
    }
    const LaneOperand hi = from_hw_part(split.hi);
    const LaneOperand lo = from_hw_part(split.lo);
    if (hi.cls == LaneOperand::Cls::kFinite) {
      min_exp = std::min(min_exp, hi.exp2 - 12);
      max_exp = std::max(max_exp, hi.exp2);
    }
    if (lo.cls == LaneOperand::Cls::kFinite) {
      min_exp = std::min(min_exp, lo.exp2);
      max_exp = std::max(max_exp, lo.exp2);
    }
  }
};

void expect_meta(const PanelChunkMeta& got, const RefChunk& ref, int line,
                 int chunk) {
  const bool finite = ref.min_exp <= ref.max_exp;
  EXPECT_EQ((got.flags & PanelChunkMeta::kHasFinite) != 0, finite)
      << "line " << line << " chunk " << chunk;
  EXPECT_EQ((got.flags & PanelChunkMeta::kHasSpecial) != 0, ref.special)
      << "line " << line << " chunk " << chunk;
  EXPECT_EQ(got.flags & ~(PanelChunkMeta::kHasFinite |
                          PanelChunkMeta::kHasSpecial),
            0);
  if (finite) {
    EXPECT_EQ(got.min_exp, ref.min_exp) << "line " << line << " chunk "
                                        << chunk;
    EXPECT_EQ(got.max_exp, ref.max_exp) << "line " << line << " chunk "
                                        << chunk;
  }
}

/// Edge values for the prescan: signed zeros, subnormals (flushed, so
/// no finite lane), Inf/NaN, the extreme normal exponents, and values
/// whose lo part is zero.
float prescan_value(Rng& rng) {
  static const float kEdges[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -1.17549421e-38f,  // largest subnormal, negated
      std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(),
      std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      1.0f,
      -0.75f,
  };
  constexpr std::size_t kCount = sizeof(kEdges) / sizeof(kEdges[0]);
  const std::uint64_t pick = rng.next_below(2 * kCount);
  return pick < kCount ? kEdges[pick] : rng.any_finite_float();
}

/// Calls set(e) for every element e of chunk `chunk` of a line, to plant
/// whole-chunk patterns the random fill rarely produces.
template <typename Set>
void fill_chunk(int chunk, int chunk_len, int k, Set set) {
  for (int e = chunk * chunk_len; e < std::min(k, (chunk + 1) * chunk_len);
       ++e) {
    set(e);
  }
}

TEST(PackPrescan, Fp32WordsAndPrescanMatchPerElementSplit) {
  const int rows = 5, cols = 6, k = 19, pad = 3;  // 19 % 8 != 0
  const int chunks = panel_chunk_count(k, kPackChunkFp32);
  Rng rng(14100);
  std::vector<float> a(static_cast<std::size_t>(rows) * (k + pad));
  std::vector<float> b(static_cast<std::size_t>(k) * (cols + pad));
  for (float& v : a) v = prescan_value(rng);
  for (float& v : b) v = prescan_value(rng);
  const auto at = [&](int r, int kk) -> float& {
    return a[static_cast<std::size_t>(r) * (k + pad) + kk];
  };
  const auto bt = [&](int kk, int j) -> float& {
    return b[static_cast<std::size_t>(kk) * (cols + pad) + j];
  };
  // Whole chunks of zeros/subnormals (no finite lane), of specials, and
  // of normals only (the last chunk is partial).
  fill_chunk(0, kPackChunkFp32, k, [&](int e) { at(0, e) = -0.0f; });
  fill_chunk(1, kPackChunkFp32, k, [&](int e) { at(1, e) = 1e-40f; });
  fill_chunk(2, kPackChunkFp32, k, [&](int e) { at(2, e) = 3.5f; });
  fill_chunk(0, kPackChunkFp32, k, [&](int e) {
    bt(e, 1) = std::numeric_limits<float>::infinity();
  });
  fill_chunk(2, kPackChunkFp32, k, [&](int e) { bt(e, 2) = 0.0f; });

  PackedPanelFp32A pa;
  PackedPanelFp32B pb;
  pack_fp32_a(a.data(), k + pad, rows, k, pa);
  pack_fp32_b(b.data(), cols + pad, k, cols, pb);

  bool a_special = false;
  ASSERT_EQ(pa.words.size(), static_cast<std::size_t>(rows) * k);
  ASSERT_EQ(pa.meta.size(), static_cast<std::size_t>(rows) * chunks);
  for (int r = 0; r < rows; ++r) {
    for (int ch = 0; ch < chunks; ++ch) {
      RefChunk ref;
      for (int kk = ch * kPackChunkFp32;
           kk < std::min(k, (ch + 1) * kPackChunkFp32); ++kk) {
        ASSERT_EQ(pa.words[static_cast<std::size_t>(r) * k + kk],
                  bits_of(at(r, kk)));
        ref.add(at(r, kk));
      }
      a_special |= ref.special;
      expect_meta(pa.meta[static_cast<std::size_t>(r) * chunks + ch], ref, r,
                  ch);
    }
  }
  EXPECT_EQ(pa.has_special, a_special);

  bool b_special = false;
  ASSERT_EQ(pb.words.size(), static_cast<std::size_t>(k) * cols);
  ASSERT_EQ(pb.meta.size(), static_cast<std::size_t>(cols) * chunks);
  for (int j = 0; j < cols; ++j) {
    for (int ch = 0; ch < chunks; ++ch) {
      RefChunk ref;
      for (int kk = ch * kPackChunkFp32;
           kk < std::min(k, (ch + 1) * kPackChunkFp32); ++kk) {
        ASSERT_EQ(pb.words[static_cast<std::size_t>(kk) * cols + j],
                  bits_of(bt(kk, j)));
        ref.add(bt(kk, j));
      }
      b_special |= ref.special;
      expect_meta(pb.meta[static_cast<std::size_t>(j) * chunks + ch], ref, j,
                  ch);
    }
  }
  EXPECT_EQ(pb.has_special, b_special);
}

TEST(PackPrescan, Fp32cWordsAndPrescanMatchPerElementSplit) {
  const int rows = 4, cols = 5, k = 11, pad = 2;  // 11 % 4 != 0
  const int chunks = panel_chunk_count(k, kPackChunkFp32c);
  using C = std::complex<float>;
  Rng rng(14200);
  std::vector<C> a(static_cast<std::size_t>(rows) * (k + pad));
  std::vector<C> b(static_cast<std::size_t>(k) * (cols + pad));
  for (C& v : a) v = {prescan_value(rng), prescan_value(rng)};
  for (C& v : b) v = {prescan_value(rng), prescan_value(rng)};
  const auto at = [&](int r, int kk) -> C& {
    return a[static_cast<std::size_t>(r) * (k + pad) + kk];
  };
  const auto bt = [&](int kk, int j) -> C& {
    return b[static_cast<std::size_t>(kk) * (cols + pad) + j];
  };
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // A special in only one component leaves the other's lanes finite;
  // an all-zero chunk has none.
  fill_chunk(0, kPackChunkFp32c, k, [&](int e) { at(0, e) = {2.0f, nan}; });
  fill_chunk(1, kPackChunkFp32c, k, [&](int e) { at(1, e) = {-inf, 0.0f}; });
  fill_chunk(2, kPackChunkFp32c, k, [&](int e) { at(2, e) = {0.0f, -0.0f}; });
  fill_chunk(1, kPackChunkFp32c, k, [&](int e) { bt(e, 0) = {1e-42f, 0.5f}; });
  fill_chunk(2, kPackChunkFp32c, k, [&](int e) { bt(e, 3) = {0.0f, 0.0f}; });

  PackedPanelFp32cA pa;
  PackedPanelFp32cB pb;
  pack_fp32c_a(a.data(), k + pad, rows, k, pa);
  pack_fp32c_b(b.data(), cols + pad, k, cols, pb);

  bool a_special = false;
  ASSERT_EQ(pa.words.size(), static_cast<std::size_t>(rows) * k * 2);
  ASSERT_EQ(pa.meta.size(), static_cast<std::size_t>(rows) * chunks);
  for (int r = 0; r < rows; ++r) {
    for (int ch = 0; ch < chunks; ++ch) {
      RefChunk ref;
      for (int kk = ch * kPackChunkFp32c;
           kk < std::min(k, (ch + 1) * kPackChunkFp32c); ++kk) {
        const std::size_t w = (static_cast<std::size_t>(r) * k + kk) * 2;
        ASSERT_EQ(pa.words[w], bits_of(at(r, kk).real()));
        ASSERT_EQ(pa.words[w + 1], bits_of(at(r, kk).imag()));
        ref.add(at(r, kk).real());
        ref.add(at(r, kk).imag());
      }
      a_special |= ref.special;
      expect_meta(pa.meta[static_cast<std::size_t>(r) * chunks + ch], ref, r,
                  ch);
    }
  }
  EXPECT_EQ(pa.has_special, a_special);

  bool b_special = false;
  ASSERT_EQ(pb.words.size(), static_cast<std::size_t>(k) * cols * 2);
  ASSERT_EQ(pb.meta.size(), static_cast<std::size_t>(cols) * chunks);
  for (int j = 0; j < cols; ++j) {
    for (int ch = 0; ch < chunks; ++ch) {
      RefChunk ref;
      for (int kk = ch * kPackChunkFp32c;
           kk < std::min(k, (ch + 1) * kPackChunkFp32c); ++kk) {
        const std::size_t w = (static_cast<std::size_t>(kk) * cols + j) * 2;
        ASSERT_EQ(pb.words[w], bits_of(bt(kk, j).real()));
        ASSERT_EQ(pb.words[w + 1], bits_of(bt(kk, j).imag()));
        ref.add(bt(kk, j).real());
        ref.add(bt(kk, j).imag());
      }
      b_special |= ref.special;
      expect_meta(pb.meta[static_cast<std::size_t>(j) * chunks + ch], ref, j,
                  ch);
    }
  }
  EXPECT_EQ(pb.has_special, b_special);
}

// --- 64-bit indexing regression ---------------------------------------

/// Maps `floats` floats of untouched-pages-are-free virtual memory.
float* map_virtual(std::size_t floats) {
  void* p = mmap(nullptr, floats * sizeof(float), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return p == MAP_FAILED ? nullptr : static_cast<float*>(p);
}

TEST(PackedIndexing, LargeLeadingDimensionsDoNotOverflowInt) {
  // lda = ldb = 2^30: row 2 of A lives at virtual float index 2^31,
  // past what 32-bit index arithmetic (i * lda) can address. Only a few
  // pages are ever touched thanks to MAP_NORESERVE, so the test runs in
  // ordinary CI memory; the result must match a dense copy.
  const int ld = 1 << 30;
  const int m = 3, n = 2, k = 3;
  const std::size_t floats =
      static_cast<std::size_t>(m - 1) * ld + k + 1;  // ~8 GiB virtual
  float* big_a = map_virtual(floats);
  float* big_b = map_virtual(floats);
  if (big_a == nullptr || big_b == nullptr) {
    if (big_a != nullptr) munmap(big_a, floats * sizeof(float));
    if (big_b != nullptr) munmap(big_b, floats * sizeof(float));
    GTEST_SKIP() << "cannot reserve 8 GiB of virtual address space";
  }
  Rng rng(12000);
  std::vector<float> dense_a(static_cast<std::size_t>(m) * k);
  std::vector<float> dense_b(static_cast<std::size_t>(k) * n);
  for (auto& v : dense_a) v = rng.scaled_float();
  for (auto& v : dense_b) v = rng.scaled_float();
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      big_a[static_cast<std::size_t>(i) * ld + kk] = dense_a[i * k + kk];
    }
  }
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) {
      big_b[static_cast<std::size_t>(kk) * ld + j] = dense_b[kk * n + j];
    }
  }
  const M3xuEngine engine;
  std::vector<float> c_ref(static_cast<std::size_t>(m) * n, 0.0f);
  engine.gemm_fp32(m, n, k, dense_a.data(), k, dense_b.data(), n,
                   c_ref.data(), n);
  // Per-dot route with huge lda/ldb.
  std::vector<float> c_perdot(static_cast<std::size_t>(m) * n, 0.0f);
  engine.gemm_fp32(m, n, k, big_a, ld, big_b, ld, c_perdot.data(), n);
  expect_bitwise_equal(c_ref, c_perdot);
  // Packed route (pack_fp32_a/b index with size_t as well).
  std::vector<float> c_packed(static_cast<std::size_t>(m) * n, 0.0f);
  engine.gemm_fp32_packed(m, n, k, big_a, ld, big_b, ld, c_packed.data(), n);
  expect_bitwise_equal(c_ref, c_packed);
  munmap(big_a, floats * sizeof(float));
  munmap(big_b, floats * sizeof(float));
}

}  // namespace
}  // namespace m3xu::core
