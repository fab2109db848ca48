// Register-blocked microkernel for the packed M3XU datapath.
//
// The packed entry points (mxu.cpp) run every special-free,
// injector-free call through this kernel: it computes an MR x NR output
// block per pass over the panels' K, or a partial block (fewer rows
// and/or columns) at the right and bottom edges:
//
//   - A decode is hoisted once per block row per k-chunk and reused
//     across the block's columns; each B column decodes once and is
//     reused across the block's rows. The decode splits each panel
//     word into its two 12-bit parts in registers and recombines them
//     into one 64-bit word (they share a sign and sit 12 apart,
//     fp/split.hpp), so one 64x64->128 multiply
//     per operand pair yields all four partial products at disjoint
//     bit fields - both architectural steps' terms, including the
//     step-1 crossed order and the FP32C component pairings, fall out
//     of one product;
//   - streaming eligibility and the exact-rounding window bound come
//     from the panels' pack-time exponent prescan (PanelChunkMeta),
//     decided once per (row, chunk) / (col, chunk) instead of per dot;
//   - the scalar and AVX2 variants build terms over structure-of-arrays
//     slots with a fixed trip count and round one output at a time; the
//     AVX-512 variant makes the SIMD lanes the block's output columns,
//     so the exact step sums, window checks, rounding and FP32 encode
//     all run 8 columns per instruction (DESIGN.md section 15).
//
// Each route is written once - one scalar/AVX2 block template, one
// pair routine, one AVX-512 block template and one dispatcher - and
// instantiated for the FP32 and FP32C panel pairs. FP32C is the
// instance with two register streams per output (real and imaginary),
// as M3XU runs it on the FP32 datapath with a second register and the
// sign flip that subtracts AI*BI; its differences are compile-time
// branches on the stream count.
//
// Bit-identity: each architectural step still computes
// reg' = RNE_prec(reg + exact step sum), and chunk boundaries still
// pack the register to FP32, so results are bit-identical to the
// per-dot ExactAccumulator route (core/fused_round.hpp documents why).
// Any (i, j, chunk) the prescan cannot prove safe - wide exponent span,
// non-prec-exact register, Inf/NaN register - re-runs that chunk
// through the per-dot schedule over the chunk's words (the AVX-512
// kernel first hands such a lane back to the scalar pair path, which
// makes exactly that decision).
// Callers must keep injector-attached runs on the generic per-dot
// route: the microkernel has no fault hooks, by design (fault-site
// opportunity order is defined by the per-dot schedule).
#pragma once

#include <complex>
#include <cstdint>
#include <string_view>

#include "core/dp_unit.hpp"
#include "core/packed_panel.hpp"

namespace m3xu::core {

/// Default output-block shape (the smallest supported block; also the
/// shape the scalar variant defaults to, where decode amortization
/// matters less than register pressure).
inline constexpr int kMicroMr = 4;
inline constexpr int kMicroNr = 4;

/// Microkernel SIMD variant. kScalar and kAvx2 round one output at a
/// time (kAvx2 vectorizes only the term build); kAvx512 (AVX512F +
/// AVX512CD) runs the lanes-as-columns kernel: 8 output columns per
/// vector through the exact step sums, rounding and FP32 encode, with
/// partial blocks masked. Every variant takes partial blocks. kAuto
/// resolves to the widest variant the CPU supports at runtime
/// (__builtin_cpu_supports); the scalar path is always built and every
/// variant is bit-identical - dispatch is a pure throughput choice. The M3XU_MK_VARIANT environment variable
/// (scalar / avx2 / avx512) caps what kAuto resolves to, so CI can
/// force the non-SIMD path without touching configs.
enum class MkVariant : int { kAuto = 0, kScalar = 1, kAvx2 = 2, kAvx512 = 3 };

const char* mk_variant_name(MkVariant v);

/// Parses an M3XU_MK_VARIANT value: exactly "scalar", "avx2" or
/// "avx512". Anything else fails M3XU_CHECK_MSG naming the accepted
/// values, so a typo cannot silently leave dispatch uncapped.
MkVariant mk_variant_parse(std::string_view s);

/// True when the build compiled the variant in and the CPU supports it
/// at runtime. kScalar and kAuto are always available.
bool mk_variant_available(MkVariant v);

/// The variant a request actually dispatches to: kAuto picks the best
/// available (capped by M3XU_MK_VARIANT); a forced-but-unavailable
/// variant clamps down to the widest available one below it. The
/// result always satisfies mk_variant_available().
MkVariant mk_variant_resolve(MkVariant requested);

/// A rectangular register-block shape (MR x NR output accumulators per
/// pass over the panels' K). Bigger blocks amortize the per-chunk
/// operand decode over more reuses - the decode cost per output scales
/// as (MR+NR)/(MR*NR) - at the price of more live accumulator state.
struct MkBlockShape {
  int mr = kMicroMr;
  int nr = kMicroNr;
};

/// The template-instantiated shape set: 4x4 and 8x8.
bool mk_block_supported(int mr, int nr);

/// Resolves a configured shape: (0, 0) picks the per-CPU default (8x8
/// when any SIMD variant is active, 4x4 for scalar); anything else
/// must be a supported pair (M3XU_CHECK).
MkBlockShape mk_block_resolve(int mr, int nr);

/// Rounding + dispatch configuration threaded from M3xuConfig (the
/// microkernel is engine-independent so tests can drive it directly).
/// variant/mr/nr must already make sense together: mr/nr a supported
/// pair (callers go through mk_block_resolve), variant resolved per
/// block via mk_variant_resolve.
struct MicrokernelParams {
  bool per_step_rounding = true;
  int accum_prec = 48;
  MkVariant variant = MkVariant::kAuto;
  int mr = kMicroMr;
  int nr = kMicroNr;
};

/// True when any SIMD path is compiled in and the CPU supports it
/// (runtime-dispatched; the scalar path is always built).
bool microkernel_simd_active();

/// Computes the rows x cols block C += A*B at panel offset (row0, col0)
/// over the panels' full K. `c` points at the block's top-left output
/// element. Requires 1 <= rows <= p.mr and 1 <= cols <= p.nr (a partial
/// block at a tile edge is fine), row0+rows <= a.rows, col0+cols <=
/// b.cols, a.k == b.k, and special-free panels. Returns the number of
/// (element, K-chunk) pairs that fell back to the generic route (also
/// counted in mxu.fp32{,c}.microkernel.pair_fallbacks), so the caller
/// can attribute them to the request trace. Both overloads run the same
/// bodies: FP32C is their two-register-stream instance.
std::uint64_t microkernel_block(const PackedPanelFp32A& a, int row0,
                                const PackedPanelFp32B& b, int col0, int rows,
                                int cols, const DpUnit& unit,
                                const MicrokernelParams& p, float* c,
                                int ldc);

std::uint64_t microkernel_block(const PackedPanelFp32cA& a, int row0,
                                const PackedPanelFp32cB& b, int col0, int rows,
                                int cols, const DpUnit& unit,
                                const MicrokernelParams& p,
                                std::complex<float>* c, int ldc);

}  // namespace m3xu::core
