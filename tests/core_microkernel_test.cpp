// Property tests for the register-blocked microkernel: the packed GEMM
// through the microkernel must be bit-identical to the per-dot route
// (and to the packed path's generic per-dot reassembly) across geometry
// sweeps straddling the MR/NR block and K-chunk boundaries, subnormal
// inputs, Inf/NaN operands (which bypass the microkernel at the routing
// seam), wide exponent spans that force the per-pair generic fallback,
// nonzero and signed-zero C, non-default rounding configs, prepacked
// sub-block offsets, and injector-attached engines (which must stay on
// the per-dot-identical generic path and replay identical fault logs).
// Every SIMD variant covers tile edges with partial blocks, with exact
// route counters; the AVX-512 lanes-as-columns kernel additionally gets
// lane-exit, long-K, special-register and full accum_prec sweeps.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/microkernel.hpp"
#include "core/mxu.hpp"
#include "core/packed_panel.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::core {
namespace {

/// The same engine forced onto the packed path's generic per-dot
/// reassembly: the third route check_fp32/check_fp32c compare.
M3xuEngine generic_engine(M3xuConfig cfg = {}) {
  cfg.force_generic = true;
  return M3xuEngine(cfg);
}

std::vector<float> random_buffer(int rows, int cols, Rng& rng, bool benign) {
  std::vector<float> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) x = benign ? rng.scaled_float() : rng.any_finite_float();
  return v;
}

std::vector<std::complex<float>> random_cbuffer(int rows, int cols, Rng& rng,
                                                bool benign) {
  std::vector<std::complex<float>> v(static_cast<std::size_t>(rows) * cols);
  for (auto& x : v) {
    x = benign ? std::complex<float>(rng.scaled_float(), rng.scaled_float())
               : std::complex<float>(rng.any_finite_float(),
                                     rng.any_finite_float());
  }
  return v;
}

void expect_bitwise_equal(const std::vector<float>& x,
                          const std::vector<float>& y, const char* what) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(x[i]), bits_of(y[i])) << what << " element " << i;
  }
}

void expect_bitwise_equal(const std::vector<std::complex<float>>& x,
                          const std::vector<std::complex<float>>& y,
                          const char* what) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits_of(x[i].real()), bits_of(y[i].real()))
        << what << " re " << i;
    ASSERT_EQ(bits_of(x[i].imag()), bits_of(y[i].imag()))
        << what << " im " << i;
  }
}

/// Runs one FP32 shape through per-dot, the packed generic reassembly,
/// and the packed microkernel; asserts all three agree bitwise.
void check_fp32(const M3xuEngine& micro, const M3xuEngine& packed, int m,
                int n, int k, const std::vector<float>& a,
                const std::vector<float>& b, const std::vector<float>& c) {
  auto c0 = c, c1 = c, c2 = c;
  micro.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  packed.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  micro.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c2.data(), n);
  expect_bitwise_equal(c0, c1, "packed-vs-perdot");
  expect_bitwise_equal(c0, c2, "microkernel-vs-perdot");
}

void check_fp32c(const M3xuEngine& micro, const M3xuEngine& packed, int m,
                 int n, int k, const std::vector<std::complex<float>>& a,
                 const std::vector<std::complex<float>>& b,
                 const std::vector<std::complex<float>>& c) {
  auto c0 = c, c1 = c, c2 = c;
  micro.gemm_fp32c(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
  packed.gemm_fp32c_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
  micro.gemm_fp32c_packed(m, n, k, a.data(), k, b.data(), n, c2.data(), n);
  expect_bitwise_equal(c0, c1, "packed-vs-perdot");
  expect_bitwise_equal(c0, c2, "microkernel-vs-perdot");
}

// --- Geometry sweep ----------------------------------------------------

TEST(MicrokernelFp32, GeometrySweepAroundBlockAndChunkBoundaries) {
  // m, n straddle the 4x4 register block (edge tiles 1..3 wide plus
  // full blocks); k straddles the FP32 chunk width 8 (partial chunk,
  // exact multiples, and the first lane of the next chunk).
  const M3xuEngine micro;
  const M3xuEngine packed = generic_engine();
  int idx = 0;
  for (const int m : {1, 3, 4, 5, 8, 9}) {
    for (const int n : {1, 3, 4, 5, 9}) {
      for (const int k : {1, 7, 8, 9, 16, 17}) {
        Rng rng(3100 + idx++);
        const auto a = random_buffer(m, k, rng, false);
        const auto b = random_buffer(k, n, rng, false);
        const auto c = random_buffer(m, n, rng, true);
        check_fp32(micro, packed, m, n, k, a, b, c);
      }
    }
  }
}

TEST(MicrokernelFp32c, GeometrySweepAroundBlockAndChunkBoundaries) {
  // FP32C chunk width is 4; keep the sweep smaller since each complex
  // element costs four scalar dot streams.
  const M3xuEngine micro;
  const M3xuEngine packed = generic_engine();
  int idx = 0;
  for (const int m : {1, 3, 4, 5, 9}) {
    for (const int n : {1, 4, 5, 9}) {
      for (const int k : {1, 3, 4, 5, 8, 9}) {
        Rng rng(4100 + idx++);
        const auto a = random_cbuffer(m, k, rng, false);
        const auto b = random_cbuffer(k, n, rng, false);
        const auto c = random_cbuffer(m, n, rng, true);
        check_fp32c(micro, packed, m, n, k, a, b, c);
      }
    }
  }
}

// --- Value-class corners ----------------------------------------------

TEST(MicrokernelFp32, SubnormalsFlushIdentically) {
  // Subnormal operands flush to zero in the hardware split; the
  // microkernel must treat the resulting all-zero lanes exactly like
  // the scalar paths (including zero-times-anything and empty sums
  // producing +0).
  const M3xuEngine micro;
  const M3xuEngine packed = generic_engine();
  const float sub_min = std::numeric_limits<float>::denorm_min();
  const float sub_max = 1.17549421e-38f;  // largest subnormal
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(5200 + trial);
    const int m = 6, n = 7, k = 17;
    auto a = random_buffer(m, k, rng, true);
    auto b = random_buffer(k, n, rng, true);
    for (int i = 0; i < 24; ++i) {
      a[rng.next_below(a.size())] = rng.next_below(2) ? sub_min : -sub_max;
      b[rng.next_below(b.size())] = rng.next_below(2) ? -sub_min : sub_max;
    }
    // One all-subnormal row: every product flushes, C passes through.
    for (int j = 0; j < k; ++j) a[static_cast<std::size_t>(2) * k + j] = sub_max;
    auto c = random_buffer(m, n, rng, true);
    c[0] = -0.0f;
    c[1] = 0.0f;
    check_fp32(micro, packed, m, n, k, a, b, c);
  }
}

TEST(MicrokernelFp32, InfNanOperandsBypassAtRoutingSeam) {
  // Specials mark the packed panels has_special, which must route the
  // whole GEMM around the microkernel; the result still has to match
  // per-dot bit-for-bit (Inf/NaN propagation included).
  const M3xuEngine micro;
  const M3xuEngine packed = generic_engine();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(6200 + trial);
    const int m = 5, n = 6, k = 12;
    auto a = random_buffer(m, k, rng, true);
    auto b = random_buffer(k, n, rng, true);
    const float specials[] = {inf, -inf, nan};
    for (int i = 0; i < 6; ++i) {
      a[rng.next_below(a.size())] = specials[rng.next_below(3)];
      if (trial % 2 == 0) b[rng.next_below(b.size())] = specials[rng.next_below(3)];
    }
    const auto c = random_buffer(m, n, rng, true);
    check_fp32(micro, packed, m, n, k, a, b, c);
  }
}

TEST(MicrokernelFp32, WideExponentSpansFallBackBitIdentically) {
  // Mix magnitudes near the FP32 extremes so chunk prescan windows
  // exceed the 128-bit fixed-point budget and individual 4x4 pairs
  // fall through to the generic per-dot-replica path mid-block. Also
  // seed C with huge/tiny values so the register fold exercises the
  // dropped-bits fallback.
  const M3xuEngine micro;
  const M3xuEngine packed = generic_engine();
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng(7200 + trial);
    const int m = 7, n = 8, k = 24;
    auto a = random_buffer(m, k, rng, false);
    auto b = random_buffer(k, n, rng, false);
    const float extremes[] = {3e38f,      -2.5e38f,  1.2e-38f, -4e-38f,
                              1.5e30f,    -2e-30f,   6e19f,    -7e-19f};
    for (std::size_t i = 0; i < a.size(); i += 3) {
      a[i] = extremes[rng.next_below(8)];
    }
    for (std::size_t i = 0; i < b.size(); i += 2) {
      b[i] = extremes[rng.next_below(8)];
    }
    auto c = random_buffer(m, n, rng, false);
    c[0] = 3.4e38f;
    c[1] = -1e-38f;
    check_fp32(micro, packed, m, n, k, a, b, c);
  }
}

TEST(MicrokernelFp32c, WideExponentSpansFallBackBitIdentically) {
  const M3xuEngine micro;
  const M3xuEngine packed = generic_engine();
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(8200 + trial);
    const int m = 5, n = 5, k = 9;
    auto a = random_cbuffer(m, k, rng, false);
    auto b = random_cbuffer(k, n, rng, false);
    const float extremes[] = {3e38f, -1.2e-38f, 2e30f, -5e-30f};
    for (std::size_t i = 0; i < a.size(); i += 2) {
      a[i] = {extremes[rng.next_below(4)], a[i].imag()};
    }
    for (std::size_t i = 0; i < b.size(); i += 3) {
      b[i] = {b[i].real(), extremes[rng.next_below(4)]};
    }
    const auto c = random_cbuffer(m, n, rng, false);
    check_fp32c(micro, packed, m, n, k, a, b, c);
  }
}

// --- Rounding-config sweep --------------------------------------------

TEST(MicrokernelFp32, NonDefaultRoundingConfigsStayBitIdentical) {
  // Both register semantics (per-step and the idealized single-rounding
  // ablation) at several accumulation precisions must agree with the
  // per-dot route through the microkernel's exact step rounding.
  for (const bool per_step : {true, false}) {
    for (const int prec : {24, 48, 63}) {
      M3xuConfig cfg;
      cfg.per_step_rounding = per_step;
      cfg.accum_prec = prec;
      const M3xuEngine micro(cfg);
      const M3xuEngine packed = generic_engine(cfg);
      Rng rng(9300 + prec + (per_step ? 1000 : 0));
      const int m = 6, n = 9, k = 26;
      const auto a = random_buffer(m, k, rng, false);
      const auto b = random_buffer(k, n, rng, false);
      const auto c = random_buffer(m, n, rng, true);
      check_fp32(micro, packed, m, n, k, a, b, c);
      const int ck = 12;
      const auto ca = random_cbuffer(m, ck, rng, false);
      const auto cb = random_cbuffer(ck, n, rng, false);
      const auto cc = random_cbuffer(m, n, rng, true);
      check_fp32c(micro, packed, m, n, ck, ca, cb, cc);
    }
  }
}

// --- Prepacked sub-block offsets --------------------------------------

TEST(MicrokernelFp32, PrepackedOffsetsAlignWithChunkMetadata) {
  // Sub-block row0/col0 offsets that are not multiples of the 4x4
  // block must still index the right per-chunk prescan metadata rows.
  const int rows = 19, cols = 17, k = 21;
  Rng rng(10400);
  const auto a = random_buffer(rows, k, rng, false);
  const auto b = random_buffer(k, cols, rng, false);
  PackedPanelFp32A pa;
  PackedPanelFp32B pb;
  pack_fp32_a(a.data(), k, rows, k, pa);
  pack_fp32_b(b.data(), cols, k, cols, pb);
  const M3xuEngine micro;
  const struct {
    int row0, col0, m, n;
  } blocks[] = {{0, 0, rows, cols}, {1, 2, 9, 9}, {5, 3, 8, 12},
                {13, 9, 6, 8},      {18, 16, 1, 1}};
  for (const auto& blk : blocks) {
    auto c0 = random_buffer(blk.m, blk.n, rng, true);
    auto c1 = c0;
    micro.gemm_fp32(blk.m, blk.n, k,
                    a.data() + static_cast<std::size_t>(blk.row0) * k, k,
                    b.data() + blk.col0, cols, c0.data(), blk.n);
    micro.gemm_fp32_prepacked(pa, blk.row0, pb, blk.col0, blk.m, blk.n,
                              c1.data(), blk.n);
    expect_bitwise_equal(c0, c1, "prepacked-offset");
  }
}

// --- Dispatch matrix ---------------------------------------------------
//
// The SIMD variant and the register-block shape are pure performance
// knobs: every (variant, MRxNR) combination the host can run must be
// bit-identical to the per-dot route on the same condensed property
// sweep the default config is tested with above.

TEST(MicrokernelDispatch, ResolutionRespectsAvailability) {
  for (const MkVariant v : {MkVariant::kAuto, MkVariant::kScalar,
                            MkVariant::kAvx2, MkVariant::kAvx512}) {
    const MkVariant r = mk_variant_resolve(v);
    EXPECT_TRUE(mk_variant_available(r)) << mk_variant_name(v);
    EXPECT_NE(r, MkVariant::kAuto) << mk_variant_name(v);
    if (v != MkVariant::kAuto) {
      // A forced-but-unavailable variant clamps down, never up.
      EXPECT_LE(static_cast<int>(r), static_cast<int>(v))
          << mk_variant_name(v);
    }
  }
  // Scalar is unconditionally available and never redirected.
  EXPECT_TRUE(mk_variant_available(MkVariant::kScalar));
  EXPECT_EQ(mk_variant_resolve(MkVariant::kScalar), MkVariant::kScalar);
}

TEST(MicrokernelDispatch, VariantCapParserRejectsUnknownValues) {
  EXPECT_EQ(mk_variant_parse("scalar"), MkVariant::kScalar);
  EXPECT_EQ(mk_variant_parse("avx2"), MkVariant::kAvx2);
  EXPECT_EQ(mk_variant_parse("avx512"), MkVariant::kAvx512);
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  for (const char* bad : {"scalr", "", "AVX512", "auto", "avx512 ", "avx"}) {
    try {
      (void)mk_variant_parse(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("scalar|avx2|avx512"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MicrokernelDispatch, EnvCapBindsAutoResolution) {
  // The forced-variant CI job sets M3XU_MK_VARIANT; there, auto dispatch
  // must resolve to exactly the requested cap (clamped only by what the
  // host supports), or the job would be testing some other kernel.
  const char* env = std::getenv("M3XU_MK_VARIANT");
  if (env == nullptr) GTEST_SKIP() << "M3XU_MK_VARIANT is not set";
  const MkVariant cap = mk_variant_parse(env);
  const MkVariant best = mk_variant_resolve(MkVariant::kAvx512);
  const MkVariant want = static_cast<int>(cap) < static_cast<int>(best)
                             ? cap
                             : best;
  EXPECT_EQ(mk_variant_resolve(MkVariant::kAuto), want)
      << "M3XU_MK_VARIANT=" << env;
}

TEST(MicrokernelDispatch, BlockShapeResolution) {
  EXPECT_TRUE(mk_block_supported(4, 4));
  EXPECT_TRUE(mk_block_supported(8, 8));
  EXPECT_FALSE(mk_block_supported(6, 8));
  EXPECT_FALSE(mk_block_supported(5, 5));
  EXPECT_FALSE(mk_block_supported(0, 4));
  EXPECT_FALSE(mk_block_supported(8, 4));
  const MkBlockShape def = mk_block_resolve(0, 0);
  EXPECT_TRUE(mk_block_supported(def.mr, def.nr));
  for (const int side : {4, 8}) {
    const MkBlockShape forced = mk_block_resolve(side, side);
    EXPECT_EQ(forced.mr, side);
    EXPECT_EQ(forced.nr, side);
  }
}

TEST(MicrokernelDispatch, EveryVariantAndShapeMatchesPerDot) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  int combo = 0;
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;  // host without that ISA
    for (const MkBlockShape shape :
         {MkBlockShape{4, 4}, MkBlockShape{8, 8}}) {
      SCOPED_TRACE(std::string(mk_variant_name(v)) + " " +
                   std::to_string(shape.mr) + "x" + std::to_string(shape.nr));
      M3xuConfig cfg;
      cfg.mk_variant = v;
      cfg.mk_mr = shape.mr;
      cfg.mk_nr = shape.nr;
      const M3xuEngine micro(cfg);
      const M3xuEngine packed = generic_engine(cfg);

      // Geometry straddling this shape's block boundaries and the
      // K-chunk width.
      for (const int m : {1, shape.mr - 1, shape.mr, shape.mr + 1,
                          2 * shape.mr + 3}) {
        for (const int n : {1, shape.nr, shape.nr + 2}) {
          const int k = 17;
          Rng rng(31000 + 97 * combo + 7 * m + n);
          const auto a = random_buffer(m, k, rng, false);
          const auto b = random_buffer(k, n, rng, false);
          const auto c = random_buffer(m, n, rng, true);
          check_fp32(micro, packed, m, n, k, a, b, c);
        }
      }
      {
        // Subnormals, specials, and wide spans in one salted batch.
        Rng rng(32000 + combo);
        const int m = shape.mr + 2, n = shape.nr + 1, k = 19;
        auto a = random_buffer(m, k, rng, false);
        auto b = random_buffer(k, n, rng, false);
        a[0] = sub;
        a[1] = -sub;
        b[0] = inf;
        b[1] = nan;
        a[2] = 3e38f;
        b[2] = -1.2e-38f;
        const auto c = random_buffer(m, n, rng, true);
        check_fp32(micro, packed, m, n, k, a, b, c);
      }
      {
        // Complex route with the same forced dispatch.
        Rng rng(33000 + combo);
        const int m = shape.mr + 1, n = shape.nr, k = 9;
        const auto a = random_cbuffer(m, k, rng, false);
        const auto b = random_cbuffer(k, n, rng, false);
        const auto c = random_cbuffer(m, n, rng, true);
        check_fp32c(micro, packed, m, n, k, a, b, c);
      }
      {
        // Prepacked sub-block offsets must index the per-chunk prescan
        // metadata correctly for every MRxNR, not just the default.
        const int rows = 2 * shape.mr + 3, cols = 2 * shape.nr + 1, k = 13;
        Rng rng(34000 + combo);
        const auto a = random_buffer(rows, k, rng, false);
        const auto b = random_buffer(k, cols, rng, false);
        PackedPanelFp32A pa;
        PackedPanelFp32B pb;
        pack_fp32_a(a.data(), k, rows, k, pa);
        pack_fp32_b(b.data(), cols, k, cols, pb);
        const int row0 = 1, col0 = 2;
        const int bm = rows - row0, bn = cols - col0;
        auto c0 = random_buffer(bm, bn, rng, true);
        auto c1 = c0;
        micro.gemm_fp32(bm, bn, k,
                        a.data() + static_cast<std::size_t>(row0) * k, k,
                        b.data() + col0, cols, c0.data(), bn);
        micro.gemm_fp32_prepacked(pa, row0, pb, col0, bm, bn, c1.data(), bn);
        expect_bitwise_equal(c0, c1, "prepacked-offset-dispatch");
      }
      ++combo;
    }
  }
  EXPECT_GE(combo, 3);  // at least the scalar variant ran all shapes
}

TEST(MicrokernelDispatch, InjectorDeterminismUnderForcedDispatch) {
  // Injector-attached engines take the generic per-dot-replica path
  // regardless of the dispatch config; a forced variant/shape must not
  // perturb outputs or the fault log.
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;
    const fault::SiteRates rates = fault::SiteRates::uniform(2e-3);
    const fault::FaultInjector inj_ref(2600, rates);
    const fault::FaultInjector inj_forced(2600, rates);
    M3xuConfig cfg_ref, cfg_forced;
    cfg_ref.injector = &inj_ref;
    cfg_forced.injector = &inj_forced;
    cfg_forced.mk_variant = v;
    cfg_forced.mk_mr = 8;
    cfg_forced.mk_nr = 8;
    const M3xuEngine ref(cfg_ref);
    const M3xuEngine forced(cfg_forced);
    Rng rng(35000);
    const int m = 9, n = 8, k = 20;
    const auto a = random_buffer(m, k, rng, true);
    const auto b = random_buffer(k, n, rng, true);
    auto c0 = random_buffer(m, n, rng, true);
    auto c1 = c0;
    ref.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    forced.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1, "forced-dispatch-fault-replay");
    EXPECT_EQ(inj_ref.log(), inj_forced.log()) << mk_variant_name(v);
  }
}

// --- Route counters ----------------------------------------------------
//
// The kernels' own counters: blocks counts register-block calls per
// variant; block_elements and pair_chunks must count exactly the
// elements a (partial) block covers; lane_exits counts (row, column,
// chunk) triples the AVX-512 kernel handed back to the scalar pair path.

struct MkCounts {
  std::uint64_t blocks_avx512 = 0;
  std::uint64_t blocks = 0;  // blocks of the variant mk_counts was asked for
  std::uint64_t elements = 0;
  std::uint64_t pairs = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t exits = 0;
};

MkCounts mk_counts(const telemetry::Snapshot& before,
                   const telemetry::Snapshot& after,
                   const std::string& family,
                   MkVariant variant = MkVariant::kAvx512) {
  const std::string p = "mxu." + family;
  MkCounts r;
  r.blocks_avx512 = after.counter_delta(before, "mk.variant.avx512.blocks");
  const std::string name = mk_variant_name(variant);
  r.blocks = after.counter_delta(before, "mk.variant." + name + ".blocks");
  r.elements = after.counter_delta(before, p + ".microkernel.block_elements");
  r.pairs = after.counter_delta(before, p + ".microkernel.pair_chunks");
  r.fallbacks = after.counter_delta(before, p + ".microkernel.pair_fallbacks");
  r.exits = after.counter_delta(before, p + ".microkernel.lane_exits");
  return r;
}

/// Every mxu.<family>.microkernel.* delta, summed: a window that ran
/// only the other datapath must book none of them.
std::uint64_t family_mk_total(const telemetry::Snapshot& before,
                              const telemetry::Snapshot& after,
                              const std::string& family) {
  std::uint64_t total = 0;
  for (const char* name : {"blocks", "block_elements", "pair_chunks",
                           "pair_fallbacks", "lane_exits"}) {
    total += after.counter_delta(before,
                                 "mxu." + family + ".microkernel." + name);
  }
  return total;
}

/// An engine pinned to variant `v` at `shape`.
M3xuConfig variant_config(MkVariant v, MkBlockShape shape) {
  M3xuConfig cfg;
  cfg.mk_variant = v;
  cfg.mk_mr = shape.mr;
  cfg.mk_nr = shape.nr;
  return cfg;
}

/// An engine pinned to the AVX-512 kernel at `shape`.
M3xuConfig avx512_config(MkBlockShape shape = {8, 8}) {
  return variant_config(MkVariant::kAvx512, shape);
}

TEST(MicrokernelDispatch, PartialBlocksCoverEdgesWithExactCounts) {
  // Every m % MR and every n % NR, for every available variant and
  // block shape: each kernel takes the partial blocks at the right and
  // bottom edges, so the counters cover exactly m x n and every block
  // runs on the requested variant.
  int seed = 0;
  for (const MkVariant v :
       {MkVariant::kScalar, MkVariant::kAvx2, MkVariant::kAvx512}) {
    if (!mk_variant_available(v)) continue;  // host without that ISA
    for (const MkBlockShape shape :
         {MkBlockShape{4, 4}, MkBlockShape{8, 8}}) {
      SCOPED_TRACE(std::string(mk_variant_name(v)) + " " +
                   std::to_string(shape.mr) + "x" + std::to_string(shape.nr));
      const M3xuConfig cfg = variant_config(v, shape);
      const M3xuEngine micro(cfg);
      const M3xuEngine packed = generic_engine(cfg);
      for (int m = shape.mr; m < 2 * shape.mr; ++m) {
        for (int r = 1; r <= 7; ++r) {
          const int n = 8 + r;
          const int k = 20;
          Rng rng(40300 + seed++);
          const auto a = random_buffer(m, k, rng, false);
          const auto b = random_buffer(k, n, rng, false);
          const auto c = random_buffer(m, n, rng, true);
          telemetry::Snapshot before = telemetry::snapshot();
          auto out = c;
          micro.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n,
                                 out.data(), n);
          telemetry::Snapshot after = telemetry::snapshot();
          const MkCounts got = mk_counts(before, after, "fp32", v);
          EXPECT_EQ(family_mk_total(before, after, "fp32c"), 0u)
              << m << "x" << n;
          check_fp32(micro, packed, m, n, k, a, b, c);
          const int kc = 4;
          const auto ca = random_cbuffer(m, kc, rng, false);
          const auto cb = random_cbuffer(kc, n, rng, false);
          const auto cc = random_cbuffer(m, n, rng, true);
          before = telemetry::snapshot();
          auto cout = cc;
          micro.gemm_fp32c_packed(m, n, kc, ca.data(), kc, cb.data(), n,
                                  cout.data(), n);
          after = telemetry::snapshot();
          const MkCounts cgot = mk_counts(before, after, "fp32c", v);
          EXPECT_EQ(family_mk_total(before, after, "fp32"), 0u)
              << m << "x" << n;
          check_fp32c(micro, packed, m, n, kc, ca, cb, cc);
#if M3XU_TELEMETRY_ENABLED
          const std::uint64_t area = static_cast<std::uint64_t>(m) * n;
          const std::uint64_t blocks =
              static_cast<std::uint64_t>((m + shape.mr - 1) / shape.mr) *
              ((n + shape.nr - 1) / shape.nr);
          EXPECT_EQ(got.elements, area) << m << "x" << n;
          EXPECT_EQ(got.pairs, area * ((k + 7) / 8)) << m << "x" << n;
          EXPECT_EQ(got.blocks, blocks) << m << "x" << n;
          EXPECT_EQ(cgot.elements, area) << m << "x" << n;
          EXPECT_EQ(cgot.pairs, area) << m << "x" << n;
          EXPECT_EQ(cgot.blocks, blocks) << m << "x" << n;
#else
          (void)got;
          (void)cgot;
#endif
        }
      }
    }
  }
}

// --- AVX-512 lanes-as-columns kernel ----------------------------------

#define SKIP_WITHOUT_AVX512()                                           \
  if (!mk_variant_available(MkVariant::kAvx512)) {                      \
    GTEST_SKIP() << "host or build lacks AVX512F+AVX512CD: the "        \
                    "lanes-as-columns kernel cannot run here";          \
  }

TEST(MicrokernelAvx512, Fp32LaneExitsBesideInVectorColumns) {
  SKIP_WITHOUT_AVX512();
  // One 8x8 block at K = 64 (8 chunks), A = 1 so each column's products
  // are its B values. Column 0 has one tiny element in chunk 3, so that
  // chunk's exponent span exceeds the 118-bit window: it exits there,
  // takes the generic route, and streams in-vector again afterwards.
  // Column 1 (C = 0) sums 8 x 1e38 in chunk 0, packs to Inf, and
  // exits every later chunk from its Inf register. Columns 2..7 never
  // leave the vector.
  const M3xuConfig cfg = avx512_config();
  const M3xuEngine micro(cfg);
  const M3xuEngine packed = generic_engine(cfg);
  const int m = 8, n = 8, k = 64;
  Rng rng(40100);
  const std::vector<float> a(static_cast<std::size_t>(m) * k, 1.0f);
  auto b = random_buffer(k, n, rng, true);
  auto c = random_buffer(m, n, rng, true);
  b[static_cast<std::size_t>(25) * n + 0] = 1e-35f;
  for (int kk = 0; kk < k; ++kk) {
    b[static_cast<std::size_t>(kk) * n + 1] = 1e38f;
  }
  for (int i = 0; i < m; ++i) c[static_cast<std::size_t>(i) * n + 1] = 0.0f;
  const telemetry::Snapshot before = telemetry::snapshot();
  check_fp32(micro, packed, m, n, k, a, b, c);
  const MkCounts got = mk_counts(before, telemetry::snapshot(), "fp32");
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(got.exits, 8u * 1 + 8u * 7);
  EXPECT_EQ(got.fallbacks, 8u);  // only the span exits fail pair_chunk
  EXPECT_EQ(got.pairs, static_cast<std::uint64_t>(m) * n * (k / 8));
  EXPECT_EQ(got.blocks_avx512, 1u);
#else
  (void)got;
#endif
}

TEST(MicrokernelAvx512, Fp32cLaneExitsBesideInVectorColumns) {
  SKIP_WITHOUT_AVX512();
  // The FP32C analogue (16 chunks of 4 elements, A = 1 + 0i): column 0
  // has a wide-span chunk 5, column 1's real register overflows in
  // chunk 0; a lane exits when either part's register or window needs
  // the scalar route.
  const M3xuConfig cfg = avx512_config();
  const M3xuEngine micro(cfg);
  const M3xuEngine packed = generic_engine(cfg);
  const int m = 8, n = 8, k = 64;
  Rng rng(40200);
  const std::vector<std::complex<float>> a(static_cast<std::size_t>(m) * k,
                                           {1.0f, 0.0f});
  auto b = random_cbuffer(k, n, rng, true);
  auto c = random_cbuffer(m, n, rng, true);
  b[static_cast<std::size_t>(21) * n + 0] = {1e-35f, 0.0f};
  for (int kk = 0; kk < k; ++kk) {
    b[static_cast<std::size_t>(kk) * n + 1] = {1e38f, 1e37f};
  }
  for (int i = 0; i < m; ++i) c[static_cast<std::size_t>(i) * n + 1] = 0.0f;
  const telemetry::Snapshot before = telemetry::snapshot();
  check_fp32c(micro, packed, m, n, k, a, b, c);
  const MkCounts got = mk_counts(before, telemetry::snapshot(), "fp32c");
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(got.exits, 8u * 1 + 8u * 15);
  EXPECT_EQ(got.fallbacks, 8u);
  EXPECT_EQ(got.pairs, static_cast<std::uint64_t>(m) * n * (k / 4));
#else
  (void)got;
#endif
}

TEST(MicrokernelAvx512, LongKBenignInputsNeverLeaveTheVector) {
  SKIP_WITHOUT_AVX512();
  const M3xuConfig cfg = avx512_config();
  const M3xuEngine micro(cfg);
  const M3xuEngine packed = generic_engine(cfg);
  const int m = 16, n = 16, k = 512;
  Rng rng(40400);
  const auto a = random_buffer(m, k, rng, true);
  const auto b = random_buffer(k, n, rng, true);
  const auto c = random_buffer(m, n, rng, true);
  telemetry::Snapshot before = telemetry::snapshot();
  check_fp32(micro, packed, m, n, k, a, b, c);
  const MkCounts got = mk_counts(before, telemetry::snapshot(), "fp32");
  const auto ca = random_cbuffer(m, k, rng, true);
  const auto cb = random_cbuffer(k, n, rng, true);
  const auto cc = random_cbuffer(m, n, rng, true);
  before = telemetry::snapshot();
  check_fp32c(micro, packed, m, n, k, ca, cb, cc);
  const MkCounts cgot = mk_counts(before, telemetry::snapshot(), "fp32c");
#if M3XU_TELEMETRY_ENABLED
  EXPECT_GT(got.blocks_avx512, 0u);
  EXPECT_EQ(got.exits, 0u);
  EXPECT_EQ(got.fallbacks, 0u);
  EXPECT_GT(cgot.blocks_avx512, 0u);
  EXPECT_EQ(cgot.exits, 0u);
  EXPECT_EQ(cgot.fallbacks, 0u);
#else
  (void)got;
  (void)cgot;
#endif
}

TEST(MicrokernelAvx512, SignedZeroSubnormalAndInfRegisters) {
  SKIP_WITHOUT_AVX512();
  // C seeds the registers: -0 and +0 (an empty or cancelled step must
  // give +0), subnormals (decoded at 2^-149 without a hidden bit, and
  // re-encoded through the subnormal range), and +-Inf (the lane exits
  // every chunk). One all-zero A row leaves its registers to pass
  // through every chunk on their own.
  const M3xuConfig cfg = avx512_config();
  const M3xuEngine micro(cfg);
  const M3xuEngine packed = generic_engine(cfg);
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  const int m = 9, n = 11, k = 24;
  Rng rng(40500);
  auto a = random_buffer(m, k, rng, true);
  const auto b = random_buffer(k, n, rng, true);
  for (int kk = 0; kk < k; ++kk) {
    a[static_cast<std::size_t>(3) * k + kk] = 0.0f;
    a[static_cast<std::size_t>(5) * k + kk] *= 1e-38f;
  }
  auto c = random_buffer(m, n, rng, true);
  const float seeds[] = {-0.0f, 0.0f, sub, -sub, 1.17549421e-38f,
                         -5e-39f, inf, -inf};
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i % 3 != 1) c[i] = seeds[i % 8];
  }
  const telemetry::Snapshot before = telemetry::snapshot();
  check_fp32(micro, packed, m, n, k, a, b, c);
  const MkCounts got = mk_counts(before, telemetry::snapshot(), "fp32");
  std::vector<std::complex<float>> cc(static_cast<std::size_t>(m) * n);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    cc[i] = {seeds[i % 8], seeds[(i + 3) % 8]};
  }
  const int ck = 8;
  auto ca = random_cbuffer(m, ck, rng, true);
  for (int kk = 0; kk < ck; ++kk) {
    ca[static_cast<std::size_t>(3) * ck + kk] = 0.0f;
  }
  const auto cb = random_cbuffer(ck, n, rng, true);
  check_fp32c(micro, packed, m, n, ck, ca, cb, cc);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_GT(got.exits, 0u);  // at least the Inf registers
#else
  (void)got;
#endif
}

TEST(MicrokernelAvx512, EveryAccumPrecisionBothRegisterSemantics) {
  SKIP_WITHOUT_AVX512();
  // The in-vector rounding tail is parameterized by accum_prec; sweep
  // every precision the engine accepts in both register semantics,
  // with wide-range operands so rounding, subnormal encode and the
  // span exits all occur.
  for (const bool per_step : {true, false}) {
    for (int prec = 24; prec <= 63; ++prec) {
      SCOPED_TRACE(std::string(per_step ? "per-step" : "idealized") +
                   " prec " + std::to_string(prec));
      M3xuConfig cfg = avx512_config();
      cfg.per_step_rounding = per_step;
      cfg.accum_prec = prec;
      const M3xuEngine micro(cfg);
      const M3xuEngine packed = generic_engine(cfg);
      Rng rng(40600 + prec + (per_step ? 100 : 0));
      const int m = 9, n = 10, k = 40;
      const bool benign = prec % 2 == 0;
      const auto a = random_buffer(m, k, rng, benign);
      const auto b = random_buffer(k, n, rng, benign);
      const auto c = random_buffer(m, n, rng, benign);
      check_fp32(micro, packed, m, n, k, a, b, c);
      const int ck = 12;
      const auto ca = random_cbuffer(m, ck, rng, benign);
      const auto cb = random_cbuffer(ck, n, rng, benign);
      const auto cc = random_cbuffer(m, n, rng, benign);
      check_fp32c(micro, packed, m, n, ck, ca, cb, cc);
    }
  }
}

// --- Fault-injection determinism recheck ------------------------------

TEST(MicrokernelFault, InjectorAttachedEnginesStayDeterministic) {
  // An injector-attached engine must stay off the microkernel, replay
  // the per-dot fault-opportunity order exactly, and produce identical
  // outputs and logs on the per-dot and packed entry points.
  for (int trial = 0; trial < 3; ++trial) {
    const fault::SiteRates rates = fault::SiteRates::uniform(2e-3);
    const fault::FaultInjector inj_perdot(1500 + trial, rates);
    const fault::FaultInjector inj_micro(1500 + trial, rates);
    M3xuConfig cfg_perdot, cfg_micro;
    cfg_perdot.injector = &inj_perdot;
    cfg_micro.injector = &inj_micro;
    const M3xuEngine perdot(cfg_perdot);
    const M3xuEngine micro(cfg_micro);
    Rng rng(11500 + trial);
    const int m = 9, n = 8, k = 20;
    const auto a = random_buffer(m, k, rng, true);
    const auto b = random_buffer(k, n, rng, true);
    auto c0 = random_buffer(m, n, rng, true);
    auto c1 = c0;
    perdot.gemm_fp32(m, n, k, a.data(), k, b.data(), n, c0.data(), n);
    micro.gemm_fp32_packed(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    expect_bitwise_equal(c0, c1, "fault-replay");
    EXPECT_GT(inj_perdot.total_injected(), 0u);
    EXPECT_EQ(inj_perdot.log(), inj_micro.log());
    for (int s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      EXPECT_EQ(inj_perdot.opportunities(site), inj_micro.opportunities(site))
          << "site " << s;
      EXPECT_EQ(inj_perdot.injected(site), inj_micro.injected(site))
          << "site " << s;
    }
  }
}

}  // namespace
}  // namespace m3xu::core
