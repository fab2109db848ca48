// Compact operand panels for the M3XU GEMM hot path.
//
// The paper's data-assignment stage splits each FP32 register operand
// into its 12-bit high and low parts at the datapath entry (Fig 3a). A
// panel therefore holds the operands exactly as staged - their 32-bit
// words - and the register-blocked microkernel splits each word into
// its parts in registers while it decodes a k-chunk:
//
//   FP32 A:   row-major [row][k], one word per element;
//   FP32 B:   row-major [k][col], one word per element (the layout the
//             tiled driver stages B in);
//   FP32C:    the same layouts with two words per element, re then im.
//
// Packing is a copy plus a pack-time exponent prescan per (row or
// column, k-chunk), which the microkernel uses to decide streaming
// eligibility and the step-rounding window once per panel chunk
// instead of per dot product.
//
// Special (Inf/NaN) elements take the element-level bypass, whose lanes
// depend on the *pair* of operands meeting at a lane, and fault
// injection must fire in the per-dot opportunity order. Panels holding
// specials, injector-attached engines and forced-generic engines
// therefore run each (i, j, k-chunk) through the per-dot schedule
// (M3xuEngine::mma_dot_fp32 / mma_dot_fp32c) over the panel's words:
// the same code as the per-dot route, so it is bit-identical by
// construction; tests/core_packed_panel_test.cpp verifies it.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace m3xu::core {

/// K-elements per prescan chunk. These equal the instruction K of the
/// matching mode (shape_for(kFp32).k / shape_for(kFp32Complex).k - the
/// engine checks the match), so one metadata entry covers exactly one
/// MMA instruction's rounding interval.
inline constexpr int kPackChunkFp32 = 8;
inline constexpr int kPackChunkFp32c = 4;

/// Lsb weights of a normal FP32 word's two parts (fp/split.hpp), as
/// biases on its exponent field E: the hi part (hidden 1 + top 11
/// fraction bits) has lsb weight 2^(E - kHiLsbBias), the lo part (low
/// 12 fraction bits) 2^(E - kLoLsbBias).
inline constexpr int kHiLsbBias = 127 + 11;
inline constexpr int kLoLsbBias = 127 + 23;

/// Pack-time exponent prescan for one (row or column, k-chunk) pair:
/// exponent bounds over the chunk's finite lanes plus special/emptiness
/// flags. min_exp is the minimum *element anchor* - a hi lane counts as
/// exp2 - 12, the lsb weight of the element's combined 24-bit
/// significand - so min_a + min_b lower-bounds the lsb of any pair
/// product's combined 48-bit significand even when a lo part is zero.
/// max_exp is the plain maximum lane exp2 (hi lanes dominate), so
/// max_a + max_b + 23 upper-bounds any product's msb. Zero and
/// subnormal values (flushed by the split) add no finite lane.
struct PanelChunkMeta {
  /// At least one lane in the chunk is finite (min/max_exp valid).
  static constexpr std::uint8_t kHasFinite = 1;
  /// At least one element in the chunk is Inf/NaN (the chunk must take
  /// the per-element special path).
  static constexpr std::uint8_t kHasSpecial = 2;

  std::int16_t min_exp = 0;  // anchors fit int16: |exp2 - 12| <= 161
  std::int16_t max_exp = 0;
  std::uint8_t flags = 0;
};

/// Chunk count of a k-extent panel at `chunk` elements per chunk.
inline int panel_chunk_count(int k, int chunk) {
  return (k + chunk - 1) / chunk;
}

/// Packed A panel for the FP32 mode: `rows` x `k` elements.
struct PackedPanelFp32A {
  int rows = 0;
  int k = 0;
  bool has_special = false;
  /// FP32 bit patterns, row-major [row][k].
  std::vector<std::uint32_t> words;
  /// Exponent prescan, row-major [row][chunk] at kPackChunkFp32
  /// elements per chunk.
  std::vector<PanelChunkMeta> meta;
};

/// Packed B panel for the FP32 mode: `k` x `cols` elements.
struct PackedPanelFp32B {
  int k = 0;
  int cols = 0;
  bool has_special = false;
  /// FP32 bit patterns, row-major [k][col].
  std::vector<std::uint32_t> words;
  /// Exponent prescan, [col][chunk] at kPackChunkFp32 elements per
  /// chunk.
  std::vector<PanelChunkMeta> meta;
};

/// Packed A panel for the FP32C mode: `rows` x `k` complex elements.
struct PackedPanelFp32cA {
  int rows = 0;
  int k = 0;
  bool has_special = false;
  /// FP32 bit patterns, row-major [row][k][re, im].
  std::vector<std::uint32_t> words;
  /// Exponent prescan over both components, [row][chunk] at
  /// kPackChunkFp32c elements per chunk.
  std::vector<PanelChunkMeta> meta;
};

/// Packed B panel for the FP32C mode: `k` x `cols` complex elements.
struct PackedPanelFp32cB {
  int k = 0;
  int cols = 0;
  bool has_special = false;
  /// FP32 bit patterns, row-major [k][col][re, im].
  std::vector<std::uint32_t> words;
  /// Exponent prescan over both components, [col][chunk] at
  /// kPackChunkFp32c elements per chunk.
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

// Operand registers of one dot-product chunk: elements [k0, k0 + kc)
// of A row `row` or B column `col`, as values (the per-dot schedule's
// inputs on the generic routes).

void panel_chunk(const PackedPanelFp32A& a, int row, int k0, int kc,
                 float* out);
void panel_chunk(const PackedPanelFp32B& b, int col, int k0, int kc,
                 float* out);
void panel_chunk(const PackedPanelFp32cA& a, int row, int k0, int kc,
                 std::complex<float>* out);
void panel_chunk(const PackedPanelFp32cB& b, int col, int k0, int kc,
                 std::complex<float>* out);

}  // namespace m3xu::core
