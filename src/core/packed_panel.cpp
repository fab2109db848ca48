#include "core/packed_panel.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::core {

namespace {

// Elements staged into packed words, by panel side (no-ops when
// M3XU_TELEMETRY=OFF). staged_bytes cross-checks derive from these.
telemetry::Counter pk_fp32_a("pack.fp32.a_elements");
telemetry::Counter pk_fp32_b("pack.fp32.b_elements");
telemetry::Counter pk_fp32c_a("pack.fp32c.a_elements");
telemetry::Counter pk_fp32c_b("pack.fp32c.b_elements");

/// Copies a row-major rows x cols block of T (one or two FP32 words per
/// element) into `out` as dense row-major words.
template <typename T>
void stage_words(const T* src, int ld, int rows, int cols,
                 std::vector<std::uint32_t>& out) {
  static_assert(sizeof(T) % sizeof(std::uint32_t) == 0);
  const std::size_t row_words =
      static_cast<std::size_t>(cols) * (sizeof(T) / sizeof(std::uint32_t));
  out.resize(row_words * static_cast<std::size_t>(rows));
  if (row_words == 0) return;
  for (int r = 0; r < rows; ++r) {
    std::memcpy(out.data() + static_cast<std::size_t>(r) * row_words,
                src + static_cast<std::size_t>(r) * ld,
                row_words * sizeof(std::uint32_t));
  }
}

/// One chunk's prescan, folded word by word: the biased exponent field
/// range of its normal words (each the exponent of both its parts),
/// plus the special flag. Zero and subnormal words split into two zero
/// parts (fp/split.hpp) and add nothing.
struct ChunkScan {
  int lo = 0xff;
  int hi = 0;
  std::uint8_t flags = 0;

  void add(std::uint32_t w) {
    const int e = static_cast<int>((w >> 23) & 0xff);
    if (e == 0xff) {
      flags |= PanelChunkMeta::kHasSpecial;
    } else if (e != 0) {
      lo = std::min(lo, e);
      hi = std::max(hi, e);
    }
  }

  /// min_exp is the lowest element anchor: a hi part's exp2 - 12, i.e.
  /// the lo part's lsb weight. max_exp is the highest hi-part exp2.
  PanelChunkMeta meta() const {
    PanelChunkMeta m;
    m.flags = flags;
    if (hi != 0) {
      m.flags |= PanelChunkMeta::kHasFinite;
      m.min_exp = static_cast<std::int16_t>(lo - kLoLsbBias);
      m.max_exp = static_cast<std::int16_t>(hi - kHiLsbBias);
    }
    return m;
  }
};

/// Prescans the chunks of one panel row (A) or column (B): element e
/// of the line is kWords consecutive words at src + e * stride. Returns
/// whether any chunk holds a special.
template <int kWords>
bool scan_line(const std::uint32_t* src, std::size_t stride, int k, int chunk,
               PanelChunkMeta* meta) {
  bool special = false;
  for (int c0 = 0, ci = 0; c0 < k; c0 += chunk, ++ci) {
    ChunkScan s;
    const int ce = std::min(k, c0 + chunk);
    for (int e = c0; e < ce; ++e) {
      for (int w = 0; w < kWords; ++w) {
        s.add(src[static_cast<std::size_t>(e) * stride + w]);
      }
    }
    meta[ci] = s.meta();
    special |= (s.flags & PanelChunkMeta::kHasSpecial) != 0;
  }
  return special;
}

/// Prescans every row of a row-major [rows][k] A panel.
template <int kWords>
bool scan_rows(const std::vector<std::uint32_t>& words, int rows, int k,
               int chunk, std::vector<PanelChunkMeta>& meta) {
  const int chunks = panel_chunk_count(k, chunk);
  meta.resize(static_cast<std::size_t>(rows) * chunks);
  bool special = false;
  for (int r = 0; r < rows; ++r) {
    special |= scan_line<kWords>(
        words.data() + static_cast<std::size_t>(r) * k * kWords, kWords, k,
        chunk, meta.data() + static_cast<std::size_t>(r) * chunks);
  }
  return special;
}

/// Prescans every column of a row-major [k][cols] B panel.
template <int kWords>
bool scan_cols(const std::vector<std::uint32_t>& words, int k, int cols,
               int chunk, std::vector<PanelChunkMeta>& meta) {
  const int chunks = panel_chunk_count(k, chunk);
  meta.resize(static_cast<std::size_t>(cols) * chunks);
  bool special = false;
  for (int j = 0; j < cols; ++j) {
    special |= scan_line<kWords>(
        words.data() + static_cast<std::size_t>(j) * kWords,
        static_cast<std::size_t>(cols) * kWords, k, chunk,
        meta.data() + static_cast<std::size_t>(j) * chunks);
  }
  return special;
}

}  // namespace

void pack_fp32_a(const float* a, int lda, int rows, int k,
                 PackedPanelFp32A& out) {
  M3XU_CHECK(rows >= 0 && k >= 0 && lda >= k);
  out.rows = rows;
  out.k = k;
  pk_fp32_a.add(static_cast<std::size_t>(rows) * k);
  stage_words(a, lda, rows, k, out.words);
  out.has_special = scan_rows<1>(out.words, rows, k, kPackChunkFp32, out.meta);
}

void pack_fp32_b(const float* b, int ldb, int k, int cols,
                 PackedPanelFp32B& out) {
  M3XU_CHECK(k >= 0 && cols >= 0 && ldb >= cols);
  out.k = k;
  out.cols = cols;
  pk_fp32_b.add(static_cast<std::size_t>(cols) * k);
  stage_words(b, ldb, k, cols, out.words);
  out.has_special = scan_cols<1>(out.words, k, cols, kPackChunkFp32, out.meta);
}

void pack_fp32c_a(const std::complex<float>* a, int lda, int rows, int k,
                  PackedPanelFp32cA& out) {
  M3XU_CHECK(rows >= 0 && k >= 0 && lda >= k);
  out.rows = rows;
  out.k = k;
  pk_fp32c_a.add(static_cast<std::size_t>(rows) * k);
  stage_words(a, lda, rows, k, out.words);
  out.has_special =
      scan_rows<2>(out.words, rows, k, kPackChunkFp32c, out.meta);
}

void pack_fp32c_b(const std::complex<float>* b, int ldb, int k, int cols,
                  PackedPanelFp32cB& out) {
  M3XU_CHECK(k >= 0 && cols >= 0 && ldb >= cols);
  out.k = k;
  out.cols = cols;
  pk_fp32c_b.add(static_cast<std::size_t>(cols) * k);
  stage_words(b, ldb, k, cols, out.words);
  out.has_special =
      scan_cols<2>(out.words, k, cols, kPackChunkFp32c, out.meta);
}

void panel_chunk(const PackedPanelFp32A& a, int row, int k0, int kc,
                 float* out) {
  const std::uint32_t* src =
      a.words.data() + static_cast<std::size_t>(row) * a.k + k0;
  for (int t = 0; t < kc; ++t) out[t] = float_from_bits(src[t]);
}

void panel_chunk(const PackedPanelFp32B& b, int col, int k0, int kc,
                 float* out) {
  const std::size_t stride = static_cast<std::size_t>(b.cols);
  const std::uint32_t* src = b.words.data() + k0 * stride + col;
  for (int t = 0; t < kc; ++t) out[t] = float_from_bits(src[t * stride]);
}

void panel_chunk(const PackedPanelFp32cA& a, int row, int k0, int kc,
                 std::complex<float>* out) {
  const std::uint32_t* src =
      a.words.data() + (static_cast<std::size_t>(row) * a.k + k0) * 2;
  for (int t = 0; t < kc; ++t) {
    out[t] = {float_from_bits(src[2 * t]), float_from_bits(src[2 * t + 1])};
  }
}

void panel_chunk(const PackedPanelFp32cB& b, int col, int k0, int kc,
                 std::complex<float>* out) {
  const std::size_t stride = static_cast<std::size_t>(b.cols) * 2;
  const std::uint32_t* src =
      b.words.data() + k0 * stride + static_cast<std::size_t>(col) * 2;
  for (int t = 0; t < kc; ++t) {
    out[t] = {float_from_bits(src[t * stride]),
              float_from_bits(src[t * stride + 1])};
  }
}

}  // namespace m3xu::core
