// Exact-window rounding primitives for the packed M3XU datapath.
//
// The register-blocked microkernel (microkernel.cpp) evaluates one
// architectural step as
//
//     reg' = RNE_prec(reg + sum_i (-1)^s_i * sig_i * 2^e_i)
//
// with the inner sum exact, so any exact evaluation order produces
// identical bits. These helpers implement the tail: extracting the
// magnitude of a local two's-complement window sum and rounding it to
// `prec` significand bits exactly like
// ExactAccumulator::round_to_precision (top-64 window + RNE with
// sticky). That is what makes the microkernel's scalar pair route - and
// the AVX-512 kernel, which replicates this tail per lane - bit-identical
// to the generic ExactAccumulator route by construction.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "fp/unpacked.hpp"

namespace m3xu::core::detail {

/// Final RNE of an extracted magnitude window to `prec` bits (value =
/// top64 * 2^(lead_exp - 63), plus sticky dust below). Mirrors
/// round_window + round_to_precision's tail; prec is in [24, 63] here,
/// so round_window's keep < 64 branch always applies.
inline void finish_round(std::uint64_t top64, bool st, bool negative,
                         int lead_exp, int prec, fp::Unpacked* out) {
  const int r = 64 - prec;
  std::uint64_t sig = top64 >> r;
  const std::uint64_t guard = (top64 >> (r - 1)) & 1;
  const bool sticky = st || (r > 1 && (top64 & low_mask(r - 1)) != 0);
  if (guard && (sticky || (sig & 1))) ++sig;
  if (sig >> prec) {
    sig >>= 1;
    ++lead_exp;
  }
  out->cls = fp::FpClass::kNormal;
  out->sign = negative;
  out->exp = lead_exp;
  out->sig = sig << (fp::Unpacked::kSigTop - (prec - 1));
}

/// RNE_prec of a 128-bit two's-complement sum whose bit 0 has weight
/// 2^lo. The caller guarantees the magnitude's leading bit is at
/// position <= 126 (window span checked before accumulating). A zero
/// sum yields exact +0 - the same bits ExactAccumulator produces for an
/// exactly cancelled (or empty) sum.
inline void round_sum128(unsigned __int128 sum, int lo, int prec,
                         fp::Unpacked* out) {
  const bool negative = (static_cast<std::uint64_t>(sum >> 64) >> 63) != 0;
  if (negative) sum = -sum;
  if (sum == 0) {
    *out = {};  // exact cancellation to zero
    return;
  }
  const std::uint64_t hi64 = static_cast<std::uint64_t>(sum >> 64);
  const std::uint64_t lo64 = static_cast<std::uint64_t>(sum);
  const int h = hi64 ? 64 + highest_bit(hi64) : highest_bit(lo64);
  std::uint64_t top64 = 0;
  bool st = false;
  const int lo_index = h - 63;  // in (-64, 63]: h <= 126 by the span check
  if (lo_index > 0) {
    top64 = static_cast<std::uint64_t>(sum >> lo_index);
    st = (lo64 & low_mask(lo_index)) != 0;
  } else {
    top64 = lo64 << -lo_index;
  }
  finish_round(top64, st, negative, lo + h, prec, out);
}

}  // namespace m3xu::core::detail
