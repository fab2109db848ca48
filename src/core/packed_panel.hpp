// Pre-split operand panels for the M3XU GEMM hot path.
//
// The paper's data-assignment stage splits each FP32 operand into its
// 12-bit high/low parts *once* and holds the parts in per-step operand
// buffers (Fig 3a). The per-dot GEMM path re-runs that split for every
// (i, j, k-chunk) triple, so an A row-chunk is re-split n times and a B
// column is gathered and re-split m times. These panels do the split
// once per operand panel and lay the lane operands out so the
// dot-product units can stream a step's operand buffers directly from
// contiguous memory, with no per-element routing work left:
//
//   FP32 A row i:     [ah, al]  per element - step 0 and step 1 read
//                     the same A-side order (Eqs. 6/8);
//   FP32 B column j:  [bh, bl]  (step-0 like-part order) and
//                     [bl, bh]  (step-1 crossed order), both
//                     column-contiguous.
//
// FP32C panels additionally pre-route the four scalar product terms of
// the complex product (SIV-B), including the sign flip on the
// imaginary*imaginary lanes of the real part, so each of the four steps
// again streams from one contiguous array per side.
//
// Special (Inf/NaN) elements cannot be pre-split: the schedule emits an
// element-level bypass lane whose presence depends on the *pair* of
// operands meeting at a lane, not on either operand alone. Panels
// therefore also record per-element class operands plus a special flag,
// and the engine reassembles per-dot steps from the packed parts when a
// panel contains specials - or when a fault injector is attached, where
// the operand-buffer flip opportunities must fire in the exact per-dot
// order of DataAssignmentStage::schedule_*. Both paths are bit-identical
// to the schedule functions by construction (same lanes, same order,
// same rounding points); tests/core_packed_panel_test.cpp verifies it.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "core/lane_operand.hpp"

namespace m3xu::core {

/// K-elements per prescan chunk. These equal the instruction K of the
/// matching mode (shape_for(kFp32).k / shape_for(kFp32Complex).k - the
/// engine checks the match), so one metadata entry covers exactly one
/// MMA instruction's rounding interval.
inline constexpr int kPackChunkFp32 = 8;
inline constexpr int kPackChunkFp32c = 4;

/// Pack-time exponent prescan for one (row or column, k-chunk) pair:
/// exponent bounds over the chunk's finite lanes plus special/emptiness
/// flags. min_exp is the minimum *element anchor* - a hi lane counts as
/// exp2 - 12, the lsb weight of the element's combined 24-bit
/// significand - so min_a + min_b lower-bounds the lsb of any pair
/// product's combined 48-bit significand even when a lo part is zero.
/// max_exp is the plain maximum lane exp2 (hi lanes dominate), so
/// max_a + max_b + 23 upper-bounds any product's msb. The
/// register-blocked microkernel uses these to decide streaming
/// eligibility and the step-rounding window once per panel chunk instead
/// of re-deriving them per dot product.
struct PanelChunkMeta {
  /// At least one lane in the chunk is finite (min/max_exp valid).
  static constexpr std::uint8_t kHasFinite = 1;
  /// At least one element in the chunk is Inf/NaN (lanes are bypass
  /// zeros; the chunk must take the per-element special path).
  static constexpr std::uint8_t kHasSpecial = 2;

  std::int16_t min_exp = 0;  // anchors fit int16: |exp2 - 12| <= 161
  std::int16_t max_exp = 0;
  std::uint8_t flags = 0;
};

/// Chunk count of a k-extent panel at `chunk` elements per chunk.
inline int panel_chunk_count(int k, int chunk) {
  return (k + chunk - 1) / chunk;
}

/// Packed A panel for the FP32 mode: `rows` x `k` elements, split once.
struct PackedPanelFp32A {
  int rows = 0;
  int k = 0;
  bool has_special = false;
  /// Row-contiguous lane stream, 2 lanes per element: [ah, al].
  std::vector<LaneOperand> lanes;
  /// Per-element class/sign bypass operands (row-contiguous, 1/elem).
  std::vector<LaneOperand> cls;
  /// Per-element special flag (Inf/NaN exponent field), 1/elem.
  std::vector<std::uint8_t> special;
  /// Exponent prescan, row-major [row][chunk] at kPackChunkFp32
  /// elements per chunk.
  std::vector<PanelChunkMeta> meta;
};

/// Packed B panel for the FP32 mode: `k` x `cols` elements, stored
/// column-contiguous so a dot product streams one column.
struct PackedPanelFp32B {
  int k = 0;
  int cols = 0;
  bool has_special = false;
  /// Column-contiguous, 2 lanes per element in step-0 order: [bh, bl].
  std::vector<LaneOperand> like;
  /// Same elements in step-1 crossed order: [bl, bh].
  std::vector<LaneOperand> swapped;
  std::vector<LaneOperand> cls;
  std::vector<std::uint8_t> special;
  /// Exponent prescan, [col][chunk] at kPackChunkFp32 elements per
  /// chunk (the swapped order has the same lane multiset, so one
  /// prescan covers both steps).
  std::vector<PanelChunkMeta> meta;
};

/// Packed A panel for the FP32C mode. The complex product's four scalar
/// terms are pre-routed per step pair: the real-part steps read A as
/// [arh, arl, -aih, -ail] (the stage's sign flip on the imag*imag
/// lanes, SIV-B), the imaginary-part steps as [arh, arl, aih, ail].
struct PackedPanelFp32cA {
  int rows = 0;
  int k = 0;
  bool has_special = false;
  /// Row-contiguous, 4 lanes per element, real-part order (imag lanes
  /// negated): [arh, arl, -aih, -ail].
  std::vector<LaneOperand> real_lanes;
  /// Row-contiguous, 4 lanes per element, imag-part order (plain):
  /// [arh, arl, aih, ail].
  std::vector<LaneOperand> imag_lanes;
  /// Per-component class operands, 2 per element: [cls_re, cls_im].
  std::vector<LaneOperand> cls;
  /// Per-component special flags, 2 per element: [re, im].
  std::vector<std::uint8_t> special;
  /// Exponent prescan, [row][chunk] at kPackChunkFp32c elements per
  /// chunk, over real_lanes (imag_lanes share magnitudes/exponents).
  std::vector<PanelChunkMeta> meta;
};

/// Packed B panel for the FP32C mode, column-contiguous. One array per
/// (output part, step) so every step streams contiguously:
///   real_like  = [brh, brl, bih, bil]   (real part, step 0)
///   real_swap  = [brl, brh, bil, bih]   (real part, step 1)
///   imag_like  = [bih, bil, brh, brl]   (imag part, step 0)
///   imag_swap  = [bil, bih, brl, brh]   (imag part, step 1)
struct PackedPanelFp32cB {
  int k = 0;
  int cols = 0;
  bool has_special = false;
  std::vector<LaneOperand> real_like;
  std::vector<LaneOperand> real_swap;
  std::vector<LaneOperand> imag_like;
  std::vector<LaneOperand> imag_swap;
  /// Per-component class operands, 2 per element: [cls_re, cls_im].
  std::vector<LaneOperand> cls;
  /// Per-component special flags, 2 per element: [re, im].
  std::vector<std::uint8_t> special;
  /// Exponent prescan, [col][chunk] at kPackChunkFp32c elements per
  /// chunk, over real_like (the other orders are permutations of the
  /// same lanes).
  std::vector<PanelChunkMeta> meta;
};

// Pack functions reuse the output's buffers (resize, no shrink), so a
// caller that packs per block tile in a loop allocates only on growth.

void pack_fp32_a(const float* a, int lda, int rows, int k,
                 PackedPanelFp32A& out);
void pack_fp32_b(const float* b, int ldb, int k, int cols,
                 PackedPanelFp32B& out);
void pack_fp32c_a(const std::complex<float>* a, int lda, int rows, int k,
                  PackedPanelFp32cA& out);
void pack_fp32c_b(const std::complex<float>* b, int ldb, int k, int cols,
                  PackedPanelFp32cB& out);

}  // namespace m3xu::core
