#include "core/microkernel.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string_view>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "core/data_assignment.hpp"
#include "core/fused_round.hpp"
#include "fp/unpacked.hpp"
#include "telemetry/telemetry.hpp"

#ifdef M3XU_ENABLE_SIMD
// GCC 12's AVX-512 headers self-initialize their "undefined" vectors,
// which -Wuninitialized reports wherever such an intrinsic inlines (a
// header false positive fixed in later releases). Diagnostic state is
// per source location, so this silences the header's lines only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace m3xu::core {

namespace {

// Route counters (no-ops when M3XU_TELEMETRY=OFF). Increments are
// accumulated in block-local variables and flushed once per register
// block (once per strip on AVX-512) so the pair loop stays free of TLS
// lookups. blocks counts the MR x NR register blocks covered, so a strip
// books ceil(rows / MR) of them on every variant. block_elements counts
// the output elements covered (blocks alone no longer determine that
// now that the register-block shape varies). lane_exits counts the
// (row, column, chunk) triples the AVX-512 kernel handed back to the
// scalar pair path.
struct MkCounters {
  telemetry::Counter blocks;
  telemetry::Counter elems;
  telemetry::Counter pairs;
  telemetry::Counter falls;
  telemetry::Counter exits;

  /// One flush: `nblocks` register blocks covering rows x cols outputs
  /// over nchunks K-chunks.
  void add_blocks(int nblocks, int rows, int cols, int nchunks,
                  std::uint64_t fallbacks, std::uint64_t lane_exits) {
    const std::uint64_t n = static_cast<std::uint64_t>(rows) * cols;
    blocks.add(static_cast<std::uint64_t>(nblocks));
    elems.add(n);
    pairs.add(static_cast<std::uint64_t>(nchunks) * n);
    falls.add(fallbacks);
    exits.add(lane_exits);
  }
};
MkCounters uk_fp32{telemetry::Counter("mxu.fp32.microkernel.blocks"),
                   telemetry::Counter("mxu.fp32.microkernel.block_elements"),
                   telemetry::Counter("mxu.fp32.microkernel.pair_chunks"),
                   telemetry::Counter("mxu.fp32.microkernel.pair_fallbacks"),
                   telemetry::Counter("mxu.fp32.microkernel.lane_exits")};
MkCounters uk_fp32c{telemetry::Counter("mxu.fp32c.microkernel.blocks"),
                    telemetry::Counter("mxu.fp32c.microkernel.block_elements"),
                    telemetry::Counter("mxu.fp32c.microkernel.pair_chunks"),
                    telemetry::Counter("mxu.fp32c.microkernel.pair_fallbacks"),
                    telemetry::Counter("mxu.fp32c.microkernel.lane_exits")};

// Dispatch counters: which variant's kernel actually ran, per register
// block covered.
telemetry::Counter mk_var_scalar("mk.variant.scalar.blocks");
telemetry::Counter mk_var_avx2("mk.variant.avx2.blocks");
telemetry::Counter mk_var_avx512("mk.variant.avx512.blocks");

inline void count_variant_blocks(MkVariant v, int nblocks) {
  const auto n = static_cast<std::uint64_t>(nblocks);
  switch (v) {
    case MkVariant::kAvx512:
      mk_var_avx512.add(n);
      break;
    case MkVariant::kAvx2:
      mk_var_avx2.add(n);
      break;
    default:
      mk_var_scalar.add(n);
      break;
  }
}

bool cpu_has_avx2() {
#ifdef M3XU_ENABLE_SIMD
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#ifdef M3XU_ENABLE_SIMD
  // Exactly the extensions the lanes-as-columns kernel is compiled for
  // (M3XU_AVX512_TARGET below): AVX512F for the 64-bit lane arithmetic
  // and masks, AVX512CD for the per-lane leading-zero count.
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512cd");
  return ok;
#else
  return false;
#endif
}

MkVariant best_available() {
  if (cpu_has_avx512()) return MkVariant::kAvx512;
  if (cpu_has_avx2()) return MkVariant::kAvx2;
  return MkVariant::kScalar;
}

/// What kAuto resolves to: the widest available variant, capped (never
/// raised) by M3XU_MK_VARIANT. The cap only applies to kAuto so tests
/// can still force a specific variant through the config while CI pins
/// the default path to scalar.
MkVariant auto_variant() {
  static const MkVariant v = [] {
    MkVariant cap = best_available();
    if (const char* env = std::getenv("M3XU_MK_VARIANT")) {
      const MkVariant req = mk_variant_parse(env);
      if (static_cast<int>(req) < static_cast<int>(cap)) cap = req;
    }
    return cap;
  }();
  return v;
}

}  // namespace

const char* mk_variant_name(MkVariant v) {
  switch (v) {
    case MkVariant::kAuto:
      return "auto";
    case MkVariant::kScalar:
      return "scalar";
    case MkVariant::kAvx2:
      return "avx2";
    case MkVariant::kAvx512:
      return "avx512";
  }
  return "unknown";
}

MkVariant mk_variant_parse(std::string_view s) {
  if (s == "scalar") return MkVariant::kScalar;
  if (s == "avx2") return MkVariant::kAvx2;
  M3XU_CHECK_MSG(s == "avx512",
                 "M3XU_MK_VARIANT must be one of scalar|avx2|avx512");
  return MkVariant::kAvx512;
}

bool mk_variant_available(MkVariant v) {
  switch (v) {
    case MkVariant::kAuto:
    case MkVariant::kScalar:
      return true;
    case MkVariant::kAvx2:
      return cpu_has_avx2();
    case MkVariant::kAvx512:
      return cpu_has_avx512();
  }
  return false;
}

MkVariant mk_variant_resolve(MkVariant requested) {
  if (requested == MkVariant::kAuto) return auto_variant();
  if (requested == MkVariant::kAvx512 && cpu_has_avx512()) {
    return MkVariant::kAvx512;
  }
  if (requested != MkVariant::kScalar && cpu_has_avx2()) {
    return MkVariant::kAvx2;
  }
  return MkVariant::kScalar;
}

bool microkernel_simd_active() {
  return mk_variant_resolve(MkVariant::kAuto) != MkVariant::kScalar;
}

bool mk_block_supported(int mr, int nr) {
  return (mr == 4 && nr == 4) || (mr == 8 && nr == 8);
}

MkBlockShape mk_block_resolve(int mr, int nr) {
  if (mr == 0 && nr == 0) {
    // With a SIMD variant the decode amortization wins: 8x8 drops
    // the per-output decode cost to (8+8)/(8*8) = 0.25 decodes per
    // element-chunk vs 0.5 at 4x4. The scalar variant keeps the small
    // block (decode is a smaller share of its runtime, and the larger
    // live accumulator set costs it more).
    return microkernel_simd_active() ? MkBlockShape{8, 8} : MkBlockShape{4, 4};
  }
  M3XU_CHECK(mk_block_supported(mr, nr));
  return {mr, nr};
}

namespace {

// --- Element-level operand compaction ---------------------------------
//
// Panels hold the operands' FP32 words; the decode splits each word
// into its two 12-bit parts in registers, as the data-assignment stage
// does at the datapath entry (fp/split.hpp). The parts share a sign and
// differ by exactly 2^12 in lsb weight, so an element packs into one
// 64-bit word ab = hi_sig * 2^32 + lo_sig. One 64x64->128 multiply
// then yields ALL FOUR partial products of an operand pair at disjoint
// bit ranges:
//
//   ab_a * ab_b = (ah*bh) * 2^64 + (ah*bl + al*bh) * 2^32 + (al*bl)
//
// (each product is below 2^24 and the crossed sum below 2^25, so the
// fields cannot carry into each other). The like-parts step (step 0:
// ah*bh + al*bl) is the top and bottom fields recombined at 24-bit
// spacing; the crossed step (step 1: ah*bl + al*bh) is the middle
// field. Both are the exact integers the per-lane path would feed the
// ExactAccumulator, so the per-step sums - and hence the rounded
// registers - are bit-for-bit identical.

/// Operand slots per k-chunk: kPackChunkFp32 scalar elements, or
/// 2 * kPackChunkFp32c component slots (re, im) per complex element.
constexpr int kMaxSlots = 8;
static_assert(kMaxSlots == kPackChunkFp32 &&
              kMaxSlots == 2 * kPackChunkFp32c);

/// One decoded operand stream, one slot per scalar (or complex
/// component) element. Zero slots hold ab = 0 with exp = the chunk's
/// min anchor + 12, which keeps every alignment shift in-window while
/// the zero significand contributes nothing to any sum. The streams
/// are aligned for the AVX2 term build's full-width loads.
struct ElemSoA {
  alignas(64) std::uint64_t ab[kMaxSlots];  // hi_sig << 32 | lo_sig
  alignas(32) std::int32_t exp[kMaxSlots];  // hi-part exp2
  alignas(32) std::uint32_t neg[kMaxSlots];
};

/// One operand pair's partial products for both steps of a register
/// stream: slot i contributes s0[i] * 2^sh[i] to the like-parts step
/// and s1[i] * 2^(sh[i]+12) to the crossed step, both with sign
/// neg[i]. sh is the lsb weight of the pair's combined 48-bit product.
struct PairTerms {
  alignas(64) std::uint64_t s0[kMaxSlots];  // ah*bh << 24 | al*bl, < 2^48
  alignas(64) std::uint64_t s1[kMaxSlots];  // ah*bl + al*bh, < 2^25
  alignas(32) std::int32_t sh[kMaxSlots];
  alignas(32) std::uint32_t neg[kMaxSlots];
};

/// Exponent for zero/tail slots: min_exp is an element anchor (hi exp2
/// minus 12) while slots store the hi exp2, so anchor + 12 is the
/// smallest exp any finite slot in the chunk carries.
inline int fill_exp(const PanelChunkMeta& m) {
  return (m.flags & PanelChunkMeta::kHasFinite) ? m.min_exp + 12 : 0;
}

/// Decodes `ns` slots of one row or column chunk from panel words,
/// splitting each word as fp::split_fp32_hw does: slot t is word
/// t % kWords of element t / kWords, elements `stride` words apart
/// (FP32: one slot per element; FP32C: a re slot then an im slot per
/// element). An exponent field of 0 - zero or a flushed subnormal, the
/// only non-normal words in special-free panels - gives a zero slot.
/// `flip_odd` negates the im slots: FP32C A rows decode in the real
/// part's order, which carries the stage's -AI pre-negation. The tail
/// up to kMaxSlots is zero-filled so the fixed-width term build stays
/// exact.
template <int kWords>
void decode_slots(const std::uint32_t* src, std::size_t stride, int ns,
                  int fill, bool flip_odd, ElemSoA& out) {
  for (int t = 0; t < ns; ++t) {
    const std::uint32_t w =
        src[static_cast<std::size_t>(t / kWords) * stride + t % kWords];
    const std::uint32_t e = (w >> 23) & 0xff;
    const std::uint32_t sig = (w & 0x7fffff) | 0x800000;
    const bool fin = e != 0;
    out.ab[t] = fin ? (std::uint64_t{sig >> 12} << 32) | (sig & 0xfff) : 0;
    out.exp[t] = fin ? static_cast<std::int32_t>(e) - kHiLsbBias : fill;
    out.neg[t] = fin ? (w >> 31) ^ (flip_odd ? t & 1u : 0u) : 0u;
  }
  for (int t = ns; t < kMaxSlots; ++t) {
    out.ab[t] = 0;
    out.exp[t] = fill;
    out.neg[t] = 0;
  }
}

/// Row `row`'s / column `col`'s chunk at k0 with kc elements.
void decode_chunk(const PackedPanelFp32A& a, int row, int k0, int kc,
                  int fill, ElemSoA& out) {
  decode_slots<1>(a.words.data() + static_cast<std::size_t>(row) * a.k + k0,
                  1, kc, fill, false, out);
}

void decode_chunk(const PackedPanelFp32B& b, int col, int k0, int kc,
                  int fill, ElemSoA& out) {
  decode_slots<1>(
      b.words.data() + static_cast<std::size_t>(k0) * b.cols + col,
      static_cast<std::size_t>(b.cols), kc, fill, false, out);
}

void decode_chunk(const PackedPanelFp32cA& a, int row, int k0, int kc,
                  int fill, ElemSoA& out) {
  decode_slots<2>(
      a.words.data() + (static_cast<std::size_t>(row) * a.k + k0) * 2, 2,
      2 * kc, fill, /*flip_odd=*/true, out);
}

void decode_chunk(const PackedPanelFp32cB& b, int col, int k0, int kc,
                  int fill, ElemSoA& out) {
  decode_slots<2>(
      b.words.data() + (static_cast<std::size_t>(k0) * b.cols + col) * 2,
      static_cast<std::size_t>(b.cols) * 2, 2 * kc, fill, false, out);
}

/// Swaps adjacent slots (re <-> im) for the imag-part pairing, where
/// a's slot t multiplies b's slot t^1.
void swap_slots(const ElemSoA& in, ElemSoA& out) {
  for (int t = 0; t < kMaxSlots; ++t) {
    out.ab[t] = in.ab[t ^ 1];
    out.exp[t] = in.exp[t ^ 1];
    out.neg[t] = in.neg[t ^ 1];
  }
}

// --- Pair term build --------------------------------------------------
//
// Always processes the full kMaxSlots slots (tail slots have zero
// significands and in-window exponents) so the SIMD paths have no
// remainder and the accumulation loops have a fixed trip count.
// `flip_odd` adds a sign flip on odd slots: the imag-part AI*BR
// entries, whose A slot carries the real-part order's -AI pre-negation
// that the imaginary part must undo.

void build_pair_scalar(const ElemSoA& a, const ElemSoA& b, bool flip_odd,
                       PairTerms& t) {
  for (int i = 0; i < kMaxSlots; ++i) {
    const unsigned __int128 p =
        static_cast<unsigned __int128>(a.ab[i]) * b.ab[i];
    t.s0[i] = (static_cast<std::uint64_t>(p >> 64) << 24) |
              (static_cast<std::uint64_t>(p) & low_mask(24));
    t.s1[i] = static_cast<std::uint64_t>(p >> 32) & low_mask(25);
    t.sh[i] = a.exp[i] + b.exp[i] - 24;
    t.neg[i] = a.neg[i] ^ b.neg[i] ^ (flip_odd ? (i & 1u) : 0u);
  }
}

#ifdef M3XU_ENABLE_SIMD
__attribute__((target("avx2"))) void build_pair_avx2(const ElemSoA& a,
                                                     const ElemSoA& b,
                                                     bool flip_odd,
                                                     PairTerms& t) {
  const __m256i m24 = _mm256_set1_epi64x(0xffffff);
  for (int i = 0; i < kMaxSlots; i += 4) {
    const __m256i av =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(a.ab + i));
    const __m256i bv =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(b.ab + i));
    const __m256i ah = _mm256_srli_epi64(av, 32);
    const __m256i bh = _mm256_srli_epi64(bv, 32);
    // mul_epu32 multiplies the low 32 bits of each 64-bit lane, which
    // hold the 12-bit part sigs exactly.
    const __m256i hh = _mm256_mul_epu32(ah, bh);
    const __m256i ll = _mm256_mul_epu32(av, bv);
    const __m256i hl = _mm256_mul_epu32(ah, bv);
    const __m256i lh = _mm256_mul_epu32(av, bh);
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(t.s0 + i),
        _mm256_or_si256(_mm256_slli_epi64(hh, 24), _mm256_and_si256(ll, m24)));
    _mm256_store_si256(reinterpret_cast<__m256i*>(t.s1 + i),
                       _mm256_add_epi64(hl, lh));
  }
  const __m256i ae = _mm256_load_si256(reinterpret_cast<const __m256i*>(a.exp));
  const __m256i be = _mm256_load_si256(reinterpret_cast<const __m256i*>(b.exp));
  _mm256_store_si256(
      reinterpret_cast<__m256i*>(t.sh),
      _mm256_sub_epi32(_mm256_add_epi32(ae, be), _mm256_set1_epi32(24)));
  const __m256i an = _mm256_load_si256(reinterpret_cast<const __m256i*>(a.neg));
  const __m256i bn = _mm256_load_si256(reinterpret_cast<const __m256i*>(b.neg));
  __m256i nn = _mm256_xor_si256(an, bn);
  if (flip_odd) {
    nn = _mm256_xor_si256(nn, _mm256_set_epi32(1, 0, 1, 0, 1, 0, 1, 0));
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(t.neg), nn);
}

#endif

/// `v` must be a resolved variant (mk_variant_resolve): the AVX2 case
/// assumes the CPU support check already happened, once per strip, not
/// per pair. (AVX-512 strips run their own lanes-as-columns kernel and
/// send only lane exits here, as kScalar.)
inline void build_pair(MkVariant v, const ElemSoA& a, const ElemSoA& b,
                       bool flip_odd, PairTerms& t) {
#ifdef M3XU_ENABLE_SIMD
  if (v == MkVariant::kAvx2) {
    build_pair_avx2(a, b, flip_odd, t);
    return;
  }
#else
  (void)v;
#endif
  build_pair_scalar(a, b, flip_odd, t);
}

// --- Fused step rounding over prescan windows -------------------------

/// Widest window [lo, hi] a fused step accepts: with <= 17 addends the
/// signed sum then stays inside 128 bits (see step_round).
constexpr int kMaxSpan = 118;

/// RNE_prec(c + selected step fields of `t`), bit-identical to the
/// ExactAccumulator route. The exponent window comes from the pack-time
/// prescan instead of a per-dot scan: [t_lo, t_hi] bounds every term
/// (t_lo = the sides' min anchors summed, t_hi = the max lane exponents
/// summed + 23; a pair's 48-bit product spans [sh, sh+47] with
/// sh >= t_lo and sh+47 <= t_hi, the crossed field [sh+12, sh+36]). A
/// conservative window only enlarges the shifts - round_sum128
/// normalizes on the actual leading bit - so the rounded value is
/// unchanged; the span check merely falls back to the generic path a
/// bit earlier than a per-dot scan would. `kLike`/`kCrossed` select
/// the fields (both together = the idealized one-rounding-per-
/// instruction sum). `c` may alias `*out`.
/// Returns false with *out untouched when the chunk needs the generic
/// ExactAccumulator route.
template <bool kLike, bool kCrossed>
bool step_round(const PairTerms& t, bool have_terms, int t_lo, int t_hi,
                const fp::Unpacked& c, int prec, fp::Unpacked* out) {
  // A NaN/Inf register short-circuits like the accumulator's sticky
  // flags (the step sum itself is finite: special-free panels).
  if (c.cls == fp::FpClass::kNaN) {
    *out = {};
    out->cls = fp::FpClass::kNaN;
    return true;
  }
  if (c.cls == fp::FpClass::kInf) {
    const bool sign = c.sign;
    *out = {};
    out->cls = fp::FpClass::kInf;
    out->sign = sign;
    return true;
  }
  int lo = 0;
  int hi = 0;
  bool any = false;
  if (have_terms) {
    lo = t_lo;
    hi = t_hi;
    any = true;
  }
  std::uint64_t rsig = 0;
  int rexp = 0;
  bool rneg = false;
  if (c.cls == fp::FpClass::kNormal) {
    // The register holds a prec-bit value (rounded to prec every step;
    // the chunk-boundary C has <= 24 <= prec significant bits).
    const int drop = fp::Unpacked::kSigTop - (prec - 1);
    if ((c.sig & low_mask(drop)) != 0) return false;
    rsig = c.sig >> drop;
    rexp = c.exp - (prec - 1);
    rneg = c.sign;
    if (!any) {
      lo = rexp;
      hi = c.exp;
      any = true;
    } else {
      lo = std::min(lo, rexp);
      hi = std::max(hi, c.exp);
    }
  }
  if (!any) {
    *out = {};  // empty sum: exact +0, as ExactAccumulator rounds it
    return true;
  }
  // Addend magnitudes: a like field is below 2^48 shifted by at most
  // hi-lo-47, a crossed field below 2^25 shifted by at most hi-lo-35,
  // the register below 2^(hi-lo+1); with <= 17 addends the sum stays
  // under 2^(hi-lo+6) <= 2^124, inside the signed 128-bit window.
  if (hi - lo > kMaxSpan) return false;
  unsigned __int128 sum = 0;
  if (have_terms) {
    // Branchless sign application ((v ^ m) - m with m = 0 or ~0): the
    // signs are data-dependent, so a select beats a mispredicted
    // branch in this 8-wide fixed-trip loop.
    if (kLike) {
      for (int i = 0; i < kMaxSlots; ++i) {
        const unsigned __int128 v = static_cast<unsigned __int128>(t.s0[i])
                                    << (t.sh[i] - lo);
        const unsigned __int128 m = -static_cast<unsigned __int128>(t.neg[i]);
        sum += (v ^ m) - m;
      }
    }
    if (kCrossed) {
      for (int i = 0; i < kMaxSlots; ++i) {
        const unsigned __int128 v = static_cast<unsigned __int128>(t.s1[i])
                                    << (t.sh[i] + 12 - lo);
        const unsigned __int128 m = -static_cast<unsigned __int128>(t.neg[i]);
        sum += (v ^ m) - m;
      }
    }
  }
  if (rsig != 0) {
    const unsigned __int128 v = static_cast<unsigned __int128>(rsig)
                                << (rexp - lo);
    sum = rneg ? sum - v : sum + v;
  }
  detail::round_sum128(sum, lo, prec, out);
  return true;
}

/// Runs one register stream's chunk - the like-parts step then the
/// crossed step over one prebuilt PairTerms, or both in one window in
/// idealized mode - replicating run_steps' register semantics, with
/// the chunk-boundary pack to FP32 on success. Returns false with
/// *acc untouched when the chunk must take the generic path.
bool pair_chunk(const PairTerms& terms, bool have_terms, int t_lo, int t_hi,
                const MicrokernelParams& p, float* acc) {
  fp::Unpacked reg = fp::unpack(*acc);
  if (p.per_step_rounding) {
    if (!step_round<true, false>(terms, have_terms, t_lo, t_hi, reg,
                                 p.accum_prec, &reg) ||
        !step_round<false, true>(terms, have_terms, t_lo, t_hi, reg,
                                 p.accum_prec, &reg)) {
      return false;
    }
  } else if (!step_round<true, true>(terms, have_terms, t_lo, t_hi, reg,
                                     p.accum_prec, &reg)) {
    return false;
  }
  *acc = fp::pack_to_float(reg);
  return true;
}

// --- Generic fallback -------------------------------------------------
//
// Chunks the prescan can't prove safe re-run on the per-dot schedule:
// the chunk's words as the operand registers, split and routed by
// DataAssignmentStage::schedule_fp32 / schedule_fp32c with a null
// injector (the engine keeps injector-attached runs off the
// microkernel entirely), through DpUnit::run_steps. `acc` holds the
// chunk's register streams: one float for FP32, (re, im) for FP32C.

float run_chunk(std::span<const StepOperands> steps, const DpUnit& unit,
                const MicrokernelParams& p, float acc) {
  return fp::pack_to_float(unit.run_steps(steps, fp::unpack(acc),
                                          p.accum_prec, p.per_step_rounding));
}

void generic_chunk(const PackedPanelFp32A& a, int row,
                   const PackedPanelFp32B& b, int col, int k0, int kc,
                   const DpUnit& unit, const MicrokernelParams& p,
                   float* acc) {
  float av[kPackChunkFp32];
  float bv[kPackChunkFp32];
  panel_chunk(a, row, k0, kc, av);
  panel_chunk(b, col, k0, kc, bv);
  const auto n = static_cast<std::size_t>(kc);
  acc[0] = run_chunk(DataAssignmentStage::schedule_fp32({av, n}, {bv, n}),
                     unit, p, acc[0]);
}

void generic_chunk(const PackedPanelFp32cA& a, int row,
                   const PackedPanelFp32cB& b, int col, int k0, int kc,
                   const DpUnit& unit, const MicrokernelParams& p,
                   float* acc) {
  std::complex<float> av[kPackChunkFp32c];
  std::complex<float> bv[kPackChunkFp32c];
  panel_chunk(a, row, k0, kc, av);
  panel_chunk(b, col, k0, kc, bv);
  const auto n = static_cast<std::size_t>(kc);
  const DataAssignmentStage::ComplexSchedule sched =
      DataAssignmentStage::schedule_fp32c({av, n}, {bv, n});
  acc[0] = run_chunk(sched.real, unit, p, acc[0]);
  acc[1] = run_chunk(sched.imag, unit, p, acc[1]);
}

inline bool finite_chunk(const PanelChunkMeta& m) {
  return (m.flags & PanelChunkMeta::kHasFinite) != 0;
}

// --- Datapath families ------------------------------------------------
//
// FP32C runs on the FP32 datapath with a second register stream: every
// output carries a real and an imaginary register, both fed from the
// same A-row and B-column decodes. Family names what differs; the
// bodies below are written once and instantiated for both panel pairs.

template <typename PanelA>
struct Family;

template <>
struct Family<PackedPanelFp32A> {
  using PanelB = PackedPanelFp32B;
  using CElem = float;
  static constexpr int kChunk = kPackChunkFp32;
  static constexpr int kStreams = 1;
  static MkCounters& counters() { return uk_fp32; }
};

template <>
struct Family<PackedPanelFp32cA> {
  using PanelB = PackedPanelFp32cB;
  using CElem = std::complex<float>;  // (re, im): one float per stream
  static constexpr int kChunk = kPackChunkFp32c;
  static constexpr int kStreams = 2;
  static MkCounters& counters() { return uk_fp32c; }
};

template <typename PanelA>
using PanelBOf = typename Family<PanelA>::PanelB;
template <typename PanelA>
using CElemOf = typename Family<PanelA>::CElem;

/// C element `e`'s register streams. The standard lets a
/// std::complex<float> be accessed as float[2] ([complex.numbers]), so
/// FP32C's (re, im) sit where FP32's one float does.
template <typename CElem>
float* streams_of(CElem* e) {
  return reinterpret_cast<float*>(e);
}

/// A block call's panel preconditions: one K, special-free panels, and
/// a rows x cols extent of at most max_rows x max_cols inside them.
template <typename PanelA>
void check_block(const PanelA& a, int row0, int rows, int max_rows,
                 const PanelBOf<PanelA>& b, int col0, int cols,
                 int max_cols) {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(!a.has_special && !b.has_special);
  M3XU_CHECK(rows >= 1 && rows <= max_rows && row0 >= 0 &&
             row0 + rows <= a.rows);
  M3XU_CHECK(cols >= 1 && cols <= max_cols && col0 >= 0 &&
             col0 + cols <= b.cols);
}

/// Column `col`'s chunk, one decode per register stream. FP32C A rows
/// decode in the real part's order, where the im slots carry the
/// stage's -AI pre-negation: exactly the sign the real part's -AI*BI
/// term needs (build_pair's flip_odd undoes it for the imaginary
/// part's AI*BR). The imaginary stream takes the slot-swapped copy, so
/// A slot t meets B slot t^1: the crossed pairing (AR*BI, AI*BR).
template <typename PanelA>
void decode_column(const PanelBOf<PanelA>& b, int col, int k0, int kc,
                   int fill, ElemSoA* out) {
  decode_chunk(b, col, k0, kc, fill, out[0]);
  if constexpr (Family<PanelA>::kStreams == 2) swap_slots(out[0], out[1]);
}

// --- Scalar pair route ------------------------------------------------
//
// One (row, column) pair of a chunk: pair_chunk per register stream
// over the prebuilt slot decodes (`bc`: decode_column's), and the
// generic route when the prescan window fails. Every stream must stay
// fused; on any failure the whole chunk (every stream) re-runs
// generically from the entry registers in `acc`. Returns true when the
// pair fell back to the generic route. The scalar and AVX2 blocks run
// every pair through it; the AVX-512 kernel runs only its lane exits
// through it, with kScalar term builds. Forced inline: it is the scalar
// blocks' loop body.

template <typename PanelA>
[[gnu::always_inline]] inline bool mk_pair(
    MkVariant v, const ElemSoA& ar, const PanelChunkMeta& am,
    const ElemSoA* bc, const PanelChunkMeta& bm, const PanelA& a, int row,
    const PanelBOf<PanelA>& b, int col, int k0, int kc, const DpUnit& unit,
    const MicrokernelParams& p, float* acc) {
  constexpr int kStreams = Family<PanelA>::kStreams;
  const bool have = finite_chunk(am) && finite_chunk(bm);
  PairTerms terms[kStreams];
  int t_lo = 0;
  int t_hi = 0;
  if (have) {
    t_lo = am.min_exp + bm.min_exp;
    t_hi = am.max_exp + bm.max_exp + 23;
    for (int s = 0; s < kStreams; ++s) {
      build_pair(v, ar, bc[s], /*flip_odd=*/s == 1, terms[s]);
    }
  }
  float out[kStreams];
  bool fused = true;
  for (int s = 0; s < kStreams && fused; ++s) {
    out[s] = acc[s];
    fused = pair_chunk(terms[s], have, t_lo, t_hi, p, &out[s]);
  }
  if (fused) {
    std::copy_n(out, kStreams, acc);
    return false;
  }
  generic_chunk(a, row, b, col, k0, kc, unit, p, acc);
  return true;
}

// --- Register-blocked body (scalar / AVX2 term build) -----------------
//
// Templated on the family and the MR x NR register-block shape so each
// instantiation keeps its accumulator array and decode state at fixed
// size; a block covers the top-left rows x cols of it (fewer at a tile
// edge). `v` is the resolved term-build variant, checked once per
// block. Returns the block's generic fallbacks.

template <typename PanelA, int MR, int NR>
std::uint64_t block_scalar(const PanelA& a, int row0, int rows,
                           const PanelBOf<PanelA>& b, int col0, int cols,
                           const DpUnit& unit, const MicrokernelParams& p,
                           MkVariant v, CElemOf<PanelA>* c, int ldc) {
  using F = Family<PanelA>;
  check_block(a, row0, rows, MR, b, col0, cols, NR);
  const int k = a.k;
  const int nchunks = panel_chunk_count(k, F::kChunk);
  float acc[MR][NR][F::kStreams];  // laid out as C's elements
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      std::copy_n(streams_of(c + i * ldc + j), F::kStreams, acc[i][j]);
    }
  }
  ElemSoA arow[MR];
  ElemSoA bcol[NR][F::kStreams];
  std::uint64_t fallbacks = 0;
  for (int ch = 0; ch < nchunks; ++ch) {
    const int k0 = ch * F::kChunk;
    const int kc = std::min(F::kChunk, k - k0);
    const PanelChunkMeta* am[MR];
    const PanelChunkMeta* bm[NR];
    for (int i = 0; i < rows; ++i) {
      am[i] = &a.meta[static_cast<std::size_t>(row0 + i) * nchunks + ch];
      decode_chunk(a, row0 + i, k0, kc, fill_exp(*am[i]), arow[i]);
    }
    for (int j = 0; j < cols; ++j) {
      bm[j] = &b.meta[static_cast<std::size_t>(col0 + j) * nchunks + ch];
      decode_column<PanelA>(b, col0 + j, k0, kc, fill_exp(*bm[j]), bcol[j]);
    }
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        fallbacks += mk_pair(v, arow[i], *am[i], bcol[j], *bm[j], a,
                             row0 + i, b, col0 + j, k0, kc, unit, p,
                             acc[i][j]);
      }
    }
  }
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      std::copy_n(acc[i][j], F::kStreams, streams_of(c + i * ldc + j));
    }
  }
  F::counters().add_blocks(1, rows, cols, nchunks, fallbacks, 0);
  return fallbacks;
}

#ifdef M3XU_ENABLE_SIMD
// --- AVX-512: SIMD lanes are the strip's output columns ---------------
//
// The scalar route rounds one (row, column) register at a time through
// a 128-bit window (step_round). Here the 8 lanes of a 512-bit vector
// are the (up to) 8 output columns of one strip row. Per chunk, each B
// slot's 8 columns are one masked load from the row-major panel words,
// split into parts in-vector once for the whole strip; each A row's
// chunk is one masked load split the same way, and its slots are
// broadcast. Each
// lane carries its own column's exact step sums, register, window
// check, rounding and FP32 encode. A lane computes exactly what
// step_round computes - RNE_prec(reg + exact step sum), over the same
// [lo, hi] window with the same kMaxSpan limit - so an in-window lane's
// bits are the scalar route's bits. A lane whose window check fails in
// either step, or whose chunk-entry register is Inf/NaN, is recomputed
// for that chunk by mk_pair from its chunk-entry registers,
// exactly as the scalar kernel would have run it (including
// the generic fallback and its pair_fallbacks count).
//
// Exact sums: a lane accumulates each step's terms relative to its
// prescan t_lo in a lazy two-limb form, value = h * 2^60 + l. A term
// adds its low 60 bits (a non-negative part) to l and the floor of the
// rest to h. The parts are signed (negated by the operand's sign), so
// each product already carries its term's sign. In a lane that passes
// the span check a like field (below 2^48) sits at offset <=
// kMaxFieldOffset and a crossed field (below 2^25) at most 12 higher,
// each contributing below 2^59 to |h|. When the step folds the
// register in (fold_step: prec <= 48, the register a 48-bit field at
// an offset <= kMaxFieldOffset), a lane holds 9 terms: l < 9 * 2^60 <
// 2^64 and |h| < 9 * 2^59 < 2^63, so the slot loop needs no carry
// handling and normalize() shifts l logically, as an unsigned limb.
// The step then rounds the normalized two's-complement 128-bit value at
// base t_lo; the general step (lane_step) instead shifts the 8-term sum
// to the window base lo and adds the register in 128 bits. Both round
// with the same top-64 + RNE-with-sticky tail as round_sum128.

#define M3XU_AVX512_TARGET __attribute__((target("avx512f,avx512cd")))
#define M3XU_AVX512_INLINE \
  __attribute__((target("avx512f,avx512cd"), always_inline)) inline

constexpr int kLimbBits = 60;
constexpr std::uint64_t kLimbMask = (std::uint64_t{1} << kLimbBits) - 1;
/// Largest like-field offset from t_lo in a lane that passes the span
/// check: the field's msb sh + 47 <= t_hi <= t_lo + kMaxSpan.
constexpr int kMaxFieldOffset = kMaxSpan - 47;
/// Widest prescan window t_hi - t_lo of a narrow row group: every field
/// offset is then at most kLimbBits, the high limb's own lsb.
constexpr int kNarrowSpan = kLimbBits + 47;
constexpr int kLanes = 8;

/// One K-chunk of up to kLanes B columns, slot t of every column in one
/// vector (lane j = column j). The parts are signed: negated in lanes
/// whose word is negative, so a product of signed A and B parts carries
/// the term's sign. Columns past a partial strip's edge hold zero slots
/// and no finite flag. Slots past a partial chunk's live count are left
/// unset: the A slots they pair with are zero and never visited.
struct BChunkLanes {
  __m512i lo[kMaxSlots];           // signed lo part sig
  __m512i hi[kMaxSlots];           // signed hi part sig
  __m512i sig[kMaxSlots];          // signed 24-bit significand, hi * 2^12 + lo
  __m512i off[kMaxSlots];          // hi exp2 - column anchor (0 in zero slots)
  __m512i noff[kMaxSlots];         // kMaxFieldOffset - off
  __m512i noff_narrow[kMaxSlots];  // kLimbBits - off
  __m512i min_exp;                 // column anchors
  __m512i max_exp;
  __mmask8 finite = 0;  // lanes whose column chunk has a finite lane
};

/// Eight FP32 words, one per u64 lane, split as decode_slots splits
/// them: a lane whose exponent field is 0 is a zero slot (nz clear and
/// every field 0).
struct LaneWords {
  __m512i sig;  // 24-bit significand
  __m512i exp;  // hi part exp2
  __mmask8 nz;
  __mmask8 neg;
};

M3XU_AVX512_INLINE LaneWords split_words(__m512i w) {
  const __m512i e =
      _mm512_and_si512(_mm512_srli_epi64(w, 23), _mm512_set1_epi64(0xff));
  LaneWords s;
  s.nz = _mm512_test_epi64_mask(e, e);
  s.sig = _mm512_maskz_or_epi64(
      s.nz, _mm512_and_si512(w, _mm512_set1_epi64(0x7fffff)),
      _mm512_set1_epi64(0x800000));
  s.exp = _mm512_maskz_sub_epi64(s.nz, e, _mm512_set1_epi64(kHiLsbBias));
  s.neg = _mm512_mask_test_epi64_mask(s.nz, w, _mm512_set1_epi64(0x80000000));
  return s;
}

/// A slot's three signed parts: lo, hi and the whole significand, each
/// negated in the lanes `neg` marks.
struct SignedParts {
  __m512i lo;
  __m512i hi;
  __m512i sig;
};

M3XU_AVX512_INLINE SignedParts signed_parts(__m512i sig, __mmask8 neg) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lo = _mm512_and_si512(sig, _mm512_set1_epi64(0xfff));
  const __m512i hi = _mm512_srli_epi64(sig, 12);
  return {_mm512_mask_sub_epi64(lo, neg, zero, lo),
          _mm512_mask_sub_epi64(hi, neg, zero, hi),
          _mm512_mask_sub_epi64(sig, neg, zero, sig)};
}

/// Loads the words `m` selects from p[0..7], one per u64 lane; the
/// other lanes read as zero words and nothing past them is touched.
M3XU_AVX512_INLINE __m512i load_words(const std::uint32_t* p, __mmask8 m) {
  return _mm512_cvtepu32_epi64(
      _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(m, p)));
}

M3XU_AVX512_INLINE void set_b_slot(BChunkLanes& out, int t,
                                   const LaneWords& s) {
  const SignedParts sp = signed_parts(s.sig, s.neg);
  out.lo[t] = sp.lo;
  out.hi[t] = sp.hi;
  out.sig[t] = sp.sig;
  out.off[t] = _mm512_maskz_sub_epi64(s.nz, s.exp, out.min_exp);
  out.noff[t] =
      _mm512_sub_epi64(_mm512_set1_epi64(kMaxFieldOffset), out.off[t]);
  out.noff_narrow[t] =
      _mm512_sub_epi64(_mm512_set1_epi64(kLimbBits), out.off[t]);
}

/// The chunk's prescan for `cols` columns (`meta` is column 0's entry,
/// `meta_stride` entries per column).
M3XU_AVX512_TARGET void b_lanes_prescan(const PanelChunkMeta* meta,
                                        std::size_t meta_stride, int cols,
                                        BChunkLanes& out) {
  alignas(64) std::int64_t mn[kLanes] = {};
  alignas(64) std::int64_t mx[kLanes] = {};
  out.finite = 0;
  for (int j = 0; j < cols; ++j) {
    const PanelChunkMeta& m = meta[j * meta_stride];
    if (!finite_chunk(m)) continue;
    out.finite |= static_cast<__mmask8>(1u << j);
    mn[j] = m.min_exp;
    mx[j] = m.max_exp;
  }
  out.min_exp = _mm512_load_si512(mn);
  out.max_exp = _mm512_load_si512(mx);
}

/// Decodes chunk `ch` of B columns [col0, col0 + cols): each slot's
/// columns are one masked load from the row-major words.
M3XU_AVX512_TARGET void decode_b_lanes(const PackedPanelFp32B& b, int col0,
                                       int cols, int ch, int kc,
                                       BChunkLanes& out) {
  const int nchunks = panel_chunk_count(b.k, kPackChunkFp32);
  b_lanes_prescan(&b.meta[static_cast<std::size_t>(col0) * nchunks + ch],
                  nchunks, cols, out);
  const auto lanes = static_cast<__mmask8>((1u << cols) - 1);
  const auto stride = static_cast<std::size_t>(b.cols);
  const std::uint32_t* src =
      b.words.data() + ch * kPackChunkFp32 * stride + col0;
  for (int t = 0; t < kc; ++t) {
    set_b_slot(out, t, split_words(load_words(src + t * stride, lanes)));
  }
}

/// The FP32C form: one masked load per element brings 8 columns' (re,
/// im) word pairs, one per u64 lane, which split into slots 2e and
/// 2e + 1.
M3XU_AVX512_TARGET void decode_b_lanes(const PackedPanelFp32cB& b, int col0,
                                       int cols, int ch, int kc,
                                       BChunkLanes& out) {
  const int nchunks = panel_chunk_count(b.k, kPackChunkFp32c);
  b_lanes_prescan(&b.meta[static_cast<std::size_t>(col0) * nchunks + ch],
                  nchunks, cols, out);
  const auto words = static_cast<__mmask16>((1u << (2 * cols)) - 1);
  const std::size_t stride = static_cast<std::size_t>(b.cols) * 2;
  const std::uint32_t* src = b.words.data() +
                             ch * kPackChunkFp32c * stride +
                             static_cast<std::size_t>(col0) * 2;
  const __m512i low32 = _mm512_set1_epi64(0xffffffff);
  for (int e = 0; e < kc; ++e) {
    const __m512i v = _mm512_maskz_loadu_epi32(words, src + e * stride);
    set_b_slot(out, 2 * e, split_words(_mm512_and_si512(v, low32)));
    set_b_slot(out, 2 * e + 1, split_words(_mm512_srli_epi64(v, 32)));
  }
}

/// One strip row's A chunk, decoded in-vector for broadcasting: slot
/// t's signed parts per register stream - lo and hi pre-scaled by 2^12
/// (below 2^24, still a signed 32-bit multiplier input), the whole
/// significand as it is - and its shift offset from the
/// row anchor (hi exp2 - anchor - 24, so a term's offset from t_lo is
/// the A and B offsets summed). Stream 0 carries FP32C's -AI
/// pre-negation on the im slots (the real part's order, as
/// decode_chunk's flip_odd); FP32C's stream 1, the imaginary part,
/// keeps the unflipped signs, which is the flip its odd slots need.
/// `nz` marks the nonzero slots.
template <int S>
struct ARowSlots {
  alignas(64) std::int64_t lo[S][kMaxSlots];  // lo * 2^12
  alignas(64) std::int64_t hi[S][kMaxSlots];  // hi * 2^12
  alignas(64) std::int64_t sig[S][kMaxSlots];
  alignas(64) std::int64_t off[kMaxSlots];
  __mmask8 nz;
};

template <int S>
M3XU_AVX512_INLINE void store_a_stream(ARowSlots<S>& out, int stream,
                                       const SignedParts& sp) {
  _mm512_store_si512(out.lo[stream], _mm512_slli_epi64(sp.lo, 12));
  _mm512_store_si512(out.hi[stream], _mm512_slli_epi64(sp.hi, 12));
  _mm512_store_si512(out.sig[stream], sp.sig);
}

/// Decodes `ns` consecutive slot words at `src`.
template <int S>
M3XU_AVX512_INLINE void decode_a_lanes(const std::uint32_t* src, int ns,
                                       int anchor, ARowSlots<S>& out) {
  const LaneWords s =
      split_words(load_words(src, static_cast<__mmask8>((1u << ns) - 1)));
  store_a_stream(out, 0, signed_parts(s.sig, S == 2 ? s.neg ^ 0xaa : s.neg));
  if constexpr (S == 2) store_a_stream(out, 1, signed_parts(s.sig, s.neg));
  _mm512_store_si512(out.off, _mm512_maskz_sub_epi64(
                                  s.nz, s.exp, _mm512_set1_epi64(anchor + 24)));
  out.nz = s.nz;
}

/// A lane's exact step sum relative to its t_lo: h * 2^60 + l.
struct LaneSum {
  __m512i h;
  __m512i l;
};

/// A lane's register: sig * 2^lsb, leading bit at `lead`; sig is 0 (and
/// lsb/lead meaningless) in lanes outside `nz`.
struct LaneReg {
  __m512i sig;
  __m512i lsb;
  __m512i lead;
  __mmask8 neg;
  __mmask8 nz;
};

/// accum_prec-dependent constants, built once per strip.
struct LaneRound {
  __m512i prec_m1;   // prec - 1
  __m512i drop;      // 64 - prec: top-64 window bits below the significand
  __m512i rem_mask;  // low `drop` bits
  __m512i half;      // 1 << (drop - 1)
  __m512i carry;     // 1 << prec: a round-up that overflowed
  __m512i renorm;    // 1 << (prec - 1)
  __m512i f32_drop;  // prec - 24: bits an FP32 encode drops (normal range)
  bool fold;         // prec <= 48: the register fits a like field
};

M3XU_AVX512_TARGET LaneRound lane_round_consts(int prec) {
  const std::uint64_t one = 1;
  const int drop = 64 - prec;
  return {_mm512_set1_epi64(prec - 1),
          _mm512_set1_epi64(drop),
          _mm512_set1_epi64(static_cast<std::int64_t>(low_mask(drop))),
          _mm512_set1_epi64(static_cast<std::int64_t>(one << (drop - 1))),
          _mm512_set1_epi64(static_cast<std::int64_t>(one << prec)),
          _mm512_set1_epi64(static_cast<std::int64_t>(one << (prec - 1))),
          _mm512_set1_epi64(prec - 24),
          prec <= 48};
}

/// Adds the signed field x placed at cnt above t_lo. The low part is
/// (x * 2^cnt) mod 2^60; the high part is its floor over 2^60.
///
/// Wide (ncnt = kMaxFieldOffset - cnt): the high part is an arithmetic
/// right shift by ncnt of x pre-scaled by 2^(kMaxFieldOffset - 60) =
/// 2^11. That is exact for any cnt <= kMaxFieldOffset while |x| * 2^11
/// < 2^63 (a like field is below 2^48, a crossed field below 2^37 in
/// its 2^12-scaled form), and a count of 64 or more sign-fills - the
/// floor of a term below 2^60.
///
/// Narrow (ncnt = kLimbBits - cnt, for cnt <= kLimbBits): the high part
/// is x itself shifted right arithmetically by ncnt, with no pre-scale.
/// Zero fields add zero at any count.
template <bool kNarrow>
M3XU_AVX512_TARGET inline void add_field(LaneSum& s, __m512i x, __m512i cnt,
                                         __m512i ncnt) {
  s.l = _mm512_add_epi64(s.l, _mm512_and_si512(_mm512_sllv_epi64(x, cnt),
                                               _mm512_set1_epi64(kLimbMask)));
  const __m512i xh =
      kNarrow ? x : _mm512_slli_epi64(x, kMaxFieldOffset - kLimbBits);
  s.h = _mm512_add_epi64(s.h, _mm512_srav_epi64(xh, ncnt));
}

/// Per-slot A broadcasts of one register stream: the signed parts (lo
/// and hi times 2^12) and the slot's count offset from the row's anchor
/// (sh - t_lo = aoff + boff).
struct ASlot {
  __m512i lo;
  __m512i hi;
  __m512i sig;
  __m512i off;
};

template <int S>
M3XU_AVX512_TARGET inline ASlot a_slot(const ARowSlots<S>& ar, int stream,
                                       int t) {
  return {_mm512_set1_epi64(ar.lo[stream][t]),
          _mm512_set1_epi64(ar.hi[stream][t]),
          _mm512_set1_epi64(ar.sig[stream][t]), _mm512_set1_epi64(ar.off[t])};
}

/// Adds A slot `a` times B slot `tb` of every lane: the like field into
/// s0 and the crossed field into s1. With signed parts (sa = ah * 2^12
/// + al, likewise sb) three signed 32x32 multiplies give both, A's parts
/// arriving pre-scaled by 2^12:
///   c12  = (ah*bl + al*bh) * 2^12             (below 2^37)
///   like = sa*sb - c12 = ah*bh * 2^24 + al*bl  (below 2^48)
/// c12 is the crossed field scaled to the like field's lsb, so both go
/// in at the same offset. Each carries the sign of the product: the
/// same signed integers as the unsigned fields negated by that sign.
/// kNarrow selects add_field's narrow form (a narrow row group).
template <bool kNarrow>
M3XU_AVX512_TARGET inline void add_pair(const ASlot& a, const BChunkLanes& bl,
                                        int tb, LaneSum& s0, LaneSum& s1) {
  const __m512i cnt = _mm512_add_epi64(bl.off[tb], a.off);
  const __m512i ncnt = _mm512_sub_epi64(
      kNarrow ? bl.noff_narrow[tb] : bl.noff[tb], a.off);
  const __m512i c12 = _mm512_add_epi64(_mm512_mul_epi32(a.hi, bl.lo[tb]),
                                       _mm512_mul_epi32(a.lo, bl.hi[tb]));
  const __m512i like =
      _mm512_sub_epi64(_mm512_mul_epi32(a.sig, bl.sig[tb]), c12);
  add_field<kNarrow>(s0, like, cnt, ncnt);
  add_field<kNarrow>(s1, c12, cnt, ncnt);
}

M3XU_AVX512_TARGET inline void normalize(LaneSum& s) {
  s.h = _mm512_add_epi64(s.h, _mm512_srli_epi64(s.l, kLimbBits));
  s.l = _mm512_and_si512(s.l, _mm512_set1_epi64(kLimbMask));
}

/// The idealized single-rounding sum of both fields.
M3XU_AVX512_TARGET inline LaneSum add_sums(LaneSum a, LaneSum b) {
  normalize(a);
  normalize(b);
  return {_mm512_add_epi64(a.h, b.h), _mm512_add_epi64(a.l, b.l)};
}

/// (hi:lo) <<= d for per-lane d in [0, 127], modulo 2^128 (variable
/// shifts by 64 or more yield 0, which covers both limb crossings).
M3XU_AVX512_TARGET inline void shl128(__m512i& hi, __m512i& lo, __m512i d) {
  const __m512i c64 = _mm512_set1_epi64(64);
  hi = _mm512_or_si512(
      _mm512_or_si512(_mm512_sllv_epi64(hi, d),
                      _mm512_srlv_epi64(lo, _mm512_sub_epi64(c64, d))),
      _mm512_sllv_epi64(lo, _mm512_sub_epi64(d, c64)));
  lo = _mm512_sllv_epi64(lo, d);
}

/// RNE_prec of the two's-complement 128-bit sum (hi:lo) with bit 0 at
/// weight 2^lo_exp: round_sum128 + finish_round per lane. The leading
/// bit must be at position <= 126 (span-checked lanes guarantee it).
M3XU_AVX512_INLINE LaneReg lane_round(__m512i hi, __m512i lo, __m512i lo_exp,
                                      const LaneRound& rc) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i c64 = _mm512_set1_epi64(64);
  LaneReg out;
  out.neg = _mm512_cmplt_epi64_mask(hi, zero);
  // Magnitude: -(hi:lo) = (-hi - [lo != 0]) : -lo.
  const __mmask8 borrow = out.neg & _mm512_test_epi64_mask(lo, lo);
  lo = _mm512_mask_sub_epi64(lo, out.neg, zero, lo);
  hi = _mm512_mask_sub_epi64(hi, out.neg, zero, hi);
  hi = _mm512_mask_sub_epi64(hi, borrow, hi, one);
  const __m512i any = _mm512_or_si512(hi, lo);
  out.nz = _mm512_test_epi64_mask(any, any);
  // Leading zeros of the 128-bit magnitude (128 when it is zero).
  const __m512i lz_hi = _mm512_lzcnt_epi64(hi);
  const __m512i nlz =
      _mm512_mask_add_epi64(lz_hi, _mm512_cmpeq_epi64_mask(lz_hi, c64), lz_hi,
                            _mm512_lzcnt_epi64(lo));
  // top64 = the magnitude shifted left by nlz, high half; the bits of
  // lo left below it are the sticky dust.
  const __m512i top = _mm512_or_si512(
      _mm512_or_si512(_mm512_sllv_epi64(hi, nlz),
                      _mm512_srlv_epi64(lo, _mm512_sub_epi64(c64, nlz))),
      _mm512_sllv_epi64(lo, _mm512_sub_epi64(nlz, c64)));
  const __m512i dust = _mm512_sllv_epi64(lo, nlz);
  const __mmask8 sticky = _mm512_test_epi64_mask(dust, dust);
  __m512i lead = _mm512_sub_epi64(
      _mm512_add_epi64(lo_exp, _mm512_set1_epi64(127)), nlz);
  // finish_round: RNE of top64 to prec bits.
  __m512i sig = _mm512_srlv_epi64(top, rc.drop);
  const __m512i rem = _mm512_and_si512(top, rc.rem_mask);
  const __mmask8 up =
      _mm512_cmpgt_epu64_mask(rem, rc.half) |
      (_mm512_cmpeq_epi64_mask(rem, rc.half) &
       (sticky | _mm512_test_epi64_mask(sig, one)));
  sig = _mm512_mask_add_epi64(sig, up, sig, one);
  const __mmask8 ovf = _mm512_cmpeq_epi64_mask(sig, rc.carry);
  sig = _mm512_mask_mov_epi64(sig, ovf, rc.renorm);
  lead = _mm512_mask_add_epi64(lead, ovf, lead, one);
  out.sig = _mm512_maskz_mov_epi64(out.nz, sig);
  out.lead = lead;
  out.lsb = _mm512_sub_epi64(lead, rc.prec_m1);
  return out;
}

/// One architectural step for every lane: reg' = RNE_prec(reg + s),
/// where s (relative to t_lo) holds terms only in `have` lanes. The
/// window is step_round's: [min(t_lo, rexp), max(t_hi, lead)] over the
/// parts present; lanes whose span exceeds kMaxSpan are added to `bad`
/// and carry garbage.
M3XU_AVX512_INLINE LaneReg lane_step(LaneSum s, __m512i t_lo, __m512i t_hi,
                                     __mmask8 have, const LaneReg& r,
                                     const LaneRound& rc, __mmask8& bad) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i c64 = _mm512_set1_epi64(64);
  const __m512i rexp = _mm512_sub_epi64(r.lead, rc.prec_m1);
  const __mmask8 both = have & r.nz;
  const __mmask8 reg_only = r.nz & ~have;
  __m512i lo = _mm512_mask_min_epi64(t_lo, both, t_lo, rexp);
  lo = _mm512_mask_mov_epi64(lo, reg_only, rexp);
  __m512i hi = _mm512_mask_max_epi64(t_hi, both, t_hi, r.lead);
  hi = _mm512_mask_mov_epi64(hi, reg_only, r.lead);
  bad |= _mm512_mask_cmpgt_epi64_mask(have | r.nz, _mm512_sub_epi64(hi, lo),
                                      _mm512_set1_epi64(kMaxSpan));
  // The term sum as two's-complement 128 bits, aligned to lo.
  normalize(s);
  __m512i x_lo = _mm512_or_si512(s.l, _mm512_slli_epi64(s.h, kLimbBits));
  __m512i x_hi = _mm512_srai_epi64(s.h, 64 - kLimbBits);
  shl128(x_hi, x_lo, _mm512_maskz_sub_epi64(have, t_lo, lo));
  // The register at e = lsb - lo, negated in negative lanes.
  const __m512i e = _mm512_sub_epi64(r.lsb, lo);
  __m512i r_lo = _mm512_sllv_epi64(r.sig, e);
  __m512i r_hi =
      _mm512_or_si512(_mm512_srlv_epi64(r.sig, _mm512_sub_epi64(c64, e)),
                      _mm512_sllv_epi64(r.sig, _mm512_sub_epi64(e, c64)));
  const __mmask8 borrow = r.neg & _mm512_test_epi64_mask(r_lo, r_lo);
  r_lo = _mm512_mask_sub_epi64(r_lo, r.neg, zero, r_lo);
  r_hi = _mm512_mask_sub_epi64(r_hi, r.neg, zero, r_hi);
  r_hi = _mm512_mask_sub_epi64(r_hi, borrow, r_hi, _mm512_set1_epi64(1));
  x_lo = _mm512_add_epi64(x_lo, r_lo);
  x_hi = _mm512_add_epi64(x_hi, r_hi);
  x_hi = _mm512_mask_add_epi64(x_hi, _mm512_cmplt_epu64_mask(x_lo, r_lo), x_hi,
                               _mm512_set1_epi64(1));
  return lane_round(x_hi, x_lo, lo, rc);
}

/// lane_step with the register folded into the exact sum, for a vector
/// where every lane with terms and a nonzero register has the
/// register's 48-bit lsb, lead - 47, at or above t_lo (and prec <= 48,
/// so rexp >= lead - 47). There lane_step's window [min(t_lo, rexp),
/// max(t_hi, lead)] has base t_lo, and the register - its significand
/// shifted up to a 48-bit one and signed (a decoded FP32 register has
/// 24 bits or fewer, a rounded one prec) - is one more like-sized field
/// at offset lead - 47 - t_lo, which the span check caps at
/// kMaxFieldOffset. Lanes without terms round the register alone at
/// base lead - 47 (offset 0). Same window, same exact value, same
/// rounding: the result is lane_step's bit for bit, without aligning
/// the sum and the register in 128 bits first.
M3XU_AVX512_INLINE LaneReg fold_step(LaneSum s, __m512i t_lo, __m512i t_hi,
                                     __mmask8 have, const LaneReg& r,
                                     const LaneRound& rc, __mmask8& bad) {
  const __m512i lsb48 = _mm512_sub_epi64(r.lead, _mm512_set1_epi64(47));
  const __m512i base = _mm512_mask_mov_epi64(lsb48, have, t_lo);
  const __m512i hi = _mm512_mask_max_epi64(t_hi, have & r.nz, t_hi, r.lead);
  bad |= _mm512_mask_cmpgt_epi64_mask(have, _mm512_sub_epi64(hi, t_lo),
                                      _mm512_set1_epi64(kMaxSpan));
  const __m512i cnt = _mm512_sub_epi64(lsb48, base);
  __m512i x = _mm512_sllv_epi64(r.sig, _mm512_sub_epi64(r.lsb, lsb48));
  x = _mm512_mask_sub_epi64(x, r.neg, _mm512_setzero_si512(), x);
  add_field<false>(
      s, x, cnt, _mm512_sub_epi64(_mm512_set1_epi64(kMaxFieldOffset), cnt));
  normalize(s);
  return lane_round(_mm512_srai_epi64(s.h, 64 - kLimbBits),
                    _mm512_or_si512(s.l, _mm512_slli_epi64(s.h, kLimbBits)),
                    base, rc);
}

/// One step: fold_step when the register folds in every lane (one
/// masked compare and a kortest), else the general lane_step.
M3XU_AVX512_INLINE LaneReg chunk_step(const LaneSum& s, __m512i t_lo,
                                      __m512i t_hi, __mmask8 have,
                                      const LaneReg& r, const LaneRound& rc,
                                      __mmask8& bad) {
  if (rc.fold &&
      _mm512_mask_cmplt_epi64_mask(
          have & r.nz, _mm512_sub_epi64(r.lead, _mm512_set1_epi64(47)),
          t_lo) == 0) {
    return fold_step(s, t_lo, t_hi, have, r, rc, bad);
  }
  return lane_step(s, t_lo, t_hi, have, r, rc, bad);
}

/// Decodes FP32 bit patterns (one per u64 lane) into registers, like
/// fp::unpack. Inf/NaN lanes are reported in `special` and decode as
/// zero.
M3XU_AVX512_INLINE LaneReg lane_decode(__m512i bits, __mmask8& special) {
  const __m512i ef = _mm512_and_si512(_mm512_srli_epi64(bits, 23),
                                      _mm512_set1_epi64(0xff));
  const __m512i mant = _mm512_and_si512(bits, _mm512_set1_epi64(0x7fffff));
  special = _mm512_cmpeq_epi64_mask(ef, _mm512_set1_epi64(0xff));
  LaneReg r;
  r.neg = _mm512_test_epi64_mask(bits, _mm512_set1_epi64(0x80000000));
  r.nz = _mm512_test_epi64_mask(bits, _mm512_set1_epi64(0x7fffffff)) &
         ~special;
  // Normal: 1.mant at 2^(ef-150) per lsb; subnormal: mant at 2^-149.
  r.sig = _mm512_mask_or_epi64(mant, _mm512_test_epi64_mask(ef, ef), mant,
                               _mm512_set1_epi64(1 << 23));
  r.sig = _mm512_maskz_mov_epi64(r.nz, r.sig);
  r.lsb = _mm512_sub_epi64(_mm512_max_epi64(ef, _mm512_set1_epi64(1)),
                           _mm512_set1_epi64(150));
  r.lead = _mm512_sub_epi64(_mm512_add_epi64(r.lsb, _mm512_set1_epi64(63)),
                            _mm512_lzcnt_epi64(r.sig));
  return r;
}

/// Packs registers to FP32 bit patterns like fp::pack_to_float: RNE to
/// 24 bits (fewer in the subnormal range), overflow to Inf, exact
/// cancellation to +0.
M3XU_AVX512_INLINE __m512i lane_encode(const LaneReg& r, const LaneRound& rc) {
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i e_cl = _mm512_max_epi64(r.lead, _mm512_set1_epi64(-126));
  const __m512i s = _mm512_min_epi64(
      _mm512_add_epi64(rc.f32_drop, _mm512_sub_epi64(e_cl, r.lead)),
      _mm512_set1_epi64(64));
  __m512i q = _mm512_srlv_epi64(r.sig, s);
  const __m512i rem =
      _mm512_andnot_si512(_mm512_sllv_epi64(_mm512_set1_epi64(-1), s), r.sig);
  const __m512i half = _mm512_sllv_epi64(one, _mm512_sub_epi64(s, one));
  const __mmask8 up =
      _mm512_test_epi64_mask(s, s) &
      (_mm512_cmpgt_epu64_mask(rem, half) |
       (_mm512_cmpeq_epi64_mask(rem, half) & _mm512_test_epi64_mask(q, one)));
  q = _mm512_mask_add_epi64(q, up, q, one);
  // (biased exponent - 1) << 23 plus the significand with its hidden
  // bit: a carry out of the significand bumps the exponent, and a
  // subnormal (e_cl = -126) adds to zero.
  __m512i bits = _mm512_add_epi64(
      _mm512_slli_epi64(_mm512_add_epi64(e_cl, _mm512_set1_epi64(126)), 23), q);
  bits = _mm512_min_epu64(bits, _mm512_set1_epi64(0x7f800000));
  bits = _mm512_mask_or_epi64(bits, r.neg, bits, _mm512_set1_epi64(0x80000000));
  return _mm512_maskz_mov_epi64(r.nz, bits);
}

/// One strip row's chunk for every lane: decode the chunk-entry
/// registers in `bits`, run both steps (or the idealized single one)
/// over the sums, and return the new FP32 bits. Lanes that must exit
/// are added to `exits`.
M3XU_AVX512_INLINE __m512i lane_chunk(__m512i bits, const LaneSum& s0,
                                      const LaneSum& s1, __m512i t_lo,
                                      __m512i t_hi, __mmask8 have,
                                      const MicrokernelParams& p,
                                      const LaneRound& rc, __mmask8& exits) {
  __mmask8 special;
  LaneReg r = lane_decode(bits, special);
  exits |= special;
  if (p.per_step_rounding) {
    r = chunk_step(s0, t_lo, t_hi, have, r, rc, exits);
    r = chunk_step(s1, t_lo, t_hi, have, r, rc, exits);
  } else {
    r = chunk_step(add_sums(s0, s1), t_lo, t_hi, have, r, rc, exits);
  }
  return lane_encode(r, rc);
}

/// The row's per-lane prescan window bounds.
M3XU_AVX512_TARGET inline void lane_window(const PanelChunkMeta& am,
                                           const BChunkLanes& bl,
                                           __m512i& t_lo, __m512i& t_hi) {
  t_lo = _mm512_add_epi64(bl.min_exp, _mm512_set1_epi64(am.min_exp));
  t_hi = _mm512_add_epi64(bl.max_exp, _mm512_set1_epi64(am.max_exp + 23));
}

/// The kernel over a rows x cols strip (rows <= kStripRows, cols <= 8; a
/// partial strip masks the missing columns' lanes). Per K-chunk, B's
/// lanes are decoded once and every row of the strip runs against them;
/// the strip's C lanes stay in acc_ across chunks. FP32C is the two-stream
/// instance: per lane, the real stream pairs A slot t with B slot t and
/// the imaginary stream pairs it with B slot t^1 (with A's unflipped
/// signs), exactly the scalar build_pair pairings over decode_column's
/// two decodes; both streams share the column's prescan window. Each
/// FP32C difference is an `if constexpr` branch with both streams
/// written out: a loop over a runtime stream index around lane_chunk
/// stays rolled at -O2 and runs slower (DESIGN.md section 15).
///
/// Rows run in pairs (rows_chunk<2>; an odd last row alone): one pass
/// over B's slots builds both rows' sums, so each B slot vector is
/// loaded once for two rows, and both rows' lane_chunk calls run back
/// to back before either row's exits, so their rounding chains
/// overlap. A row pair whose lanes with terms all have prescan windows
/// of at most kNarrowSpan bits runs the narrow slot loop (add_field's
/// narrow form); any other takes the wide one.
template <typename PanelA>
class Avx512Block {
 public:
  using F = Family<PanelA>;
  static constexpr int S = F::kStreams;

  M3XU_AVX512_TARGET Avx512Block(const PanelA& a, int row0, int rows,
                                 const PanelBOf<PanelA>& b, int col0,
                                 int cols, const DpUnit& unit,
                                 const MicrokernelParams& p)
      : a_(a), row0_(row0), rows_(rows), b_(b), col0_(col0), cols_(cols),
        unit_(unit), p_(p), rc_(lane_round_consts(p.accum_prec)),
        lanes_(static_cast<__mmask8>((1u << cols) - 1)),
        nchunks_(panel_chunk_count(a.k, F::kChunk)) {}

  M3XU_AVX512_TARGET std::uint64_t run(CElemOf<PanelA>* c, int ldc) {
    for (int i = 0; i < rows_; ++i) {
      const CElemOf<PanelA>* row = c + static_cast<std::size_t>(i) * ldc;
      if constexpr (S == 2) {
        // A complex<float> is one u64 lane: im bits << 32 | re bits.
        const __m512i v = _mm512_maskz_loadu_epi32(
            static_cast<__mmask16>((1u << (2 * cols_)) - 1), row);
        acc_[0][i] = _mm512_and_si512(v, _mm512_set1_epi64(0xffffffff));
        acc_[1][i] = _mm512_srli_epi64(v, 32);
      } else {
        acc_[0][i] = _mm512_cvtepu32_epi64(
            _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(lanes_, row)));
      }
    }
    for (int ch = 0; ch < nchunks_; ++ch) {
      const int k0 = ch * F::kChunk;
      const int kc = std::min(F::kChunk, a_.k - k0);
      decode_b_lanes(b_, col0_, cols_, ch, kc, bl_);
      int i = 0;
      for (; i + 1 < rows_; i += 2) rows_chunk<2>(i, ch, k0, kc);
      if (i < rows_) rows_chunk<1>(i, ch, k0, kc);
    }
    for (int i = 0; i < rows_; ++i) {
      CElemOf<PanelA>* row = c + static_cast<std::size_t>(i) * ldc;
      if constexpr (S == 2) {
        _mm512_mask_storeu_epi64(
            row, lanes_,
            _mm512_or_si512(acc_[0][i], _mm512_slli_epi64(acc_[1][i], 32)));
      } else {
        _mm512_mask_storeu_epi32(
            row, lanes_,
            _mm512_castsi256_si512(_mm512_cvtepi64_epi32(acc_[0][i])));
      }
    }
    F::counters().add_blocks((rows_ + p_.mr - 1) / p_.mr, rows_, cols_,
                             nchunks_, fallbacks_, exits_);
    return fallbacks_;
  }

 private:
  /// Chunk `ch` of strip rows [i, i + R).
  template <int R>
  M3XU_AVX512_INLINE void rows_chunk(int i, int ch, int k0, int kc) {
    const PanelChunkMeta* am[R];
    ARowSlots<S> ar[R];
    __mmask8 have[R];
    unsigned live = 0;
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      const int row = row0_ + i + r;
      am[r] = &a_.meta[static_cast<std::size_t>(row) * nchunks_ + ch];
      // FP32C rows decode as 2 * kc (re, im) slots.
      decode_a_lanes(
          a_.words.data() + (static_cast<std::size_t>(row) * a_.k + k0) * S,
          S * kc, am[r]->min_exp, ar[r]);
      have[r] = finite_chunk(*am[r]) ? bl_.finite : 0;
      if (have[r] != 0) live |= ar[r].nz;
    }
    // The group is narrow when every lane with terms has a prescan
    // window of at most kNarrowSpan bits.
    __m512i t_lo[R], t_hi[R];
    __mmask8 wide = 0;
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      lane_window(*am[r], bl_, t_lo[r], t_hi[r]);
      wide |= _mm512_mask_cmpgt_epi64_mask(
          have[r], _mm512_sub_epi64(t_hi[r], t_lo[r]),
          _mm512_set1_epi64(kNarrowSpan));
    }
    // [row][stream][step].
    LaneSum sum[R][S][2] = {};
    if (wide == 0) {
      slot_passes<R, true>(ar, live, sum);
    } else {
      slot_passes<R, false>(ar, live, sum);
    }
    __m512i out[R][S];
    __mmask8 exits[R];
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      exits[r] = 0;
      out[r][0] = lane_chunk(acc_[0][i + r], sum[r][0][0], sum[r][0][1],
                             t_lo[r], t_hi[r], have[r], p_, rc_, exits[r]);
      if constexpr (S == 2) {
        out[r][1] = lane_chunk(acc_[1][i + r], sum[r][1][0], sum[r][1][1],
                               t_lo[r], t_hi[r], have[r], p_, rc_, exits[r]);
      }
    }
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      const __mmask8 ex = exits[r] & lanes_;
      if (ex != 0) redo_exits(i + r, ch, k0, kc, *am[r], ex, out[r]);
      acc_[0][i + r] = out[r][0];
      if constexpr (S == 2) acc_[1][i + r] = out[r][1];
    }
  }

  /// The slot loop: every stream's step sums for R rows. Zero slots
  /// contribute nothing: visit the union of the rows' nonzero ones (a
  /// slot zero in one row adds an exact zero there).
  template <int R, bool kNarrow>
  M3XU_AVX512_INLINE void slot_passes(const ARowSlots<S> (&ar)[R],
                                      unsigned live,
                                      LaneSum (&sum)[R][S][2]) const {
    for (unsigned l = live; l != 0; l &= l - 1) {
      const int t = __builtin_ctz(l);
#pragma GCC unroll 2
      for (int r = 0; r < R; ++r) {
        add_pair<kNarrow>(a_slot(ar[r], 0, t), bl_, t, sum[r][0][0],
                          sum[r][0][1]);
      }
    }
    if constexpr (S == 2) {
      // The imaginary stream (A slot t times B slot t^1) in a pass of
      // its own: the streams share no B slot, and one stream at a time
      // keeps both rows' sums in registers.
      for (unsigned l = live; l != 0; l &= l - 1) {
        const int t = __builtin_ctz(l);
#pragma GCC unroll 2
        for (int r = 0; r < R; ++r) {
          add_pair<kNarrow>(a_slot(ar[r], 1, t), bl_, t ^ 1, sum[r][1][0],
                            sum[r][1][1]);
        }
      }
    }
  }

  /// Re-runs each exiting lane's chunk on the scalar pair route from
  /// its chunk-entry registers (acc_, still unchanged), overwriting the
  /// lane in `out`.
  M3XU_AVX512_TARGET void redo_exits(int i, int ch, int k0, int kc,
                                     const PanelChunkMeta& am,
                                     __mmask8 exits, __m512i* out) {
    alignas(64) std::uint64_t entry[S][kLanes];
    alignas(64) std::uint64_t res[S][kLanes];
    for (int s = 0; s < S; ++s) {
      _mm512_store_si512(entry[s], acc_[s][i]);
      _mm512_store_si512(res[s], out[s]);
    }
    ElemSoA arow;
    decode_chunk(a_, row0_ + i, k0, kc, fill_exp(am), arow);
    for (int j = 0; j < cols_; ++j) {
      if (((exits >> j) & 1) == 0) continue;
      const PanelChunkMeta& bm =
          b_.meta[static_cast<std::size_t>(col0_ + j) * nchunks_ + ch];
      ElemSoA bc[S];
      decode_column<PanelA>(b_, col0_ + j, k0, kc, fill_exp(bm), bc);
      float v[S];
      for (int s = 0; s < S; ++s) {
        v[s] = float_from_bits(static_cast<std::uint32_t>(entry[s][j]));
      }
      fallbacks_ += mk_pair(MkVariant::kScalar, arow, am, bc, bm, a_,
                            row0_ + i, b_, col0_ + j, k0, kc, unit_, p_, v);
      for (int s = 0; s < S; ++s) res[s][j] = bits_of(v[s]);
      ++exits_;
    }
    for (int s = 0; s < S; ++s) out[s] = _mm512_load_si512(res[s]);
  }

  const PanelA& a_;
  const int row0_;
  const int rows_;
  const PanelBOf<PanelA>& b_;
  const int col0_;
  const int cols_;
  const DpUnit& unit_;
  const MicrokernelParams& p_;
  const LaneRound rc_;
  const __mmask8 lanes_;
  const int nchunks_;
  // FP32 bits, one column per u64 lane: acc_[0] the real (or only)
  // stream, acc_[1] FP32C's imaginary stream.
  __m512i acc_[S][kStripRows];
  BChunkLanes bl_;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t exits_ = 0;
};

template <typename PanelA>
M3XU_AVX512_TARGET std::uint64_t block_avx512(
    const PanelA& a, int row0, int rows, const PanelBOf<PanelA>& b,
    int col0, int cols, const DpUnit& unit, const MicrokernelParams& p,
    CElemOf<PanelA>* c, int ldc) {
  check_block(a, row0, rows, kStripRows, b, col0, cols, kLanes);
  return Avx512Block<PanelA>(a, row0, rows, b, col0, cols, unit, p).run(c,
                                                                         ldc);
}

#undef M3XU_AVX512_INLINE
#undef M3XU_AVX512_TARGET
#endif  // M3XU_ENABLE_SIMD

/// Resolves the variant once per strip and runs the matching body for a
/// rows x cols strip: the AVX-512 kernel takes it whole, the scalar and
/// AVX2 bodies walk it in p.mr x p.nr register blocks (the last one
/// partial).
template <typename PanelA>
std::uint64_t dispatch_strip(const PanelA& a, int row0,
                             const PanelBOf<PanelA>& b, int col0, int rows,
                             int cols, const DpUnit& unit,
                             const MicrokernelParams& p, CElemOf<PanelA>* c,
                             int ldc) {
  const MkVariant v = mk_variant_resolve(p.variant);
  M3XU_CHECK(mk_block_supported(p.mr, p.nr));
  M3XU_CHECK(rows >= 1 && rows <= kStripRows && cols >= 1 && cols <= p.nr);
  count_variant_blocks(v, (rows + p.mr - 1) / p.mr);
#ifdef M3XU_ENABLE_SIMD
  if (v == MkVariant::kAvx512) {
    return block_avx512(a, row0, rows, b, col0, cols, unit, p, c, ldc);
  }
#endif
  std::uint64_t fallbacks = 0;
  for (int i = 0; i < rows; i += p.mr) {
    const int r = std::min(p.mr, rows - i);
    CElemOf<PanelA>* ci = c + static_cast<std::size_t>(i) * ldc;
    fallbacks += p.mr == 4 ? block_scalar<PanelA, 4, 4>(a, row0 + i, r, b,
                                                        col0, cols, unit, p,
                                                        v, ci, ldc)
                           : block_scalar<PanelA, 8, 8>(a, row0 + i, r, b,
                                                        col0, cols, unit, p,
                                                        v, ci, ldc);
  }
  return fallbacks;
}

}  // namespace

std::uint64_t microkernel_strip(const PackedPanelFp32A& a, int row0,
                                const PackedPanelFp32B& b, int col0, int rows,
                                int cols, const DpUnit& unit,
                                const MicrokernelParams& p, float* c,
                                int ldc) {
  return dispatch_strip(a, row0, b, col0, rows, cols, unit, p, c, ldc);
}

std::uint64_t microkernel_strip(const PackedPanelFp32cA& a, int row0,
                                const PackedPanelFp32cB& b, int col0, int rows,
                                int cols, const DpUnit& unit,
                                const MicrokernelParams& p,
                                std::complex<float>* c, int ldc) {
  return dispatch_strip(a, row0, b, col0, rows, cols, unit, p, c, ldc);
}

}  // namespace m3xu::core
