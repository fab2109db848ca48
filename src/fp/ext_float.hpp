// Extended-precision accumulator-register model. M3XU accumulates
// partial sums in 48-bit-significand registers (paper SIV-A); the stock
// Tensor-Core baseline accumulates in FP32 (24-bit significand). Both
// are instances of ExtFloat with a configurable significand precision
// and an unbounded exponent (the register's exponent field is wide
// enough that it never saturates in practice).
#pragma once

#include "fp/exact_accumulator.hpp"
#include "fp/unpacked.hpp"

namespace m3xu::fp {

class ExtFloat {
 public:
  /// Significand precisions used by the hardware models.
  static constexpr int kM3xuAccumPrec = 48;
  static constexpr int kFp32AccumPrec = 24;
  static constexpr int kFp64AccumPrec = 53;

  /// Zero with the given precision.
  explicit ExtFloat(int prec);

  /// Rounds `u` to `prec` significand bits (RNE).
  static ExtFloat from_unpacked(const Unpacked& u, int prec);
  static ExtFloat from_float(float f, int prec);
  static ExtFloat from_double(double d, int prec);

  /// acc' = RNE_prec(acc + v), computed exactly then rounded once.
  ExtFloat plus(const Unpacked& v) const;

  /// acc' = RNE_prec(acc + sum), where `sum` is an exact accumulator
  /// holding e.g. one dot-product step's aligned partial products.
  /// This models the register update at the end of a step.
  ExtFloat plus_exact(const ExactAccumulator& sum) const;

  int prec() const { return prec_; }
  const Unpacked& value() const { return value_; }
  float to_float() const { return pack_to_float(value_); }
  double to_double() const { return pack_to_double(value_); }

 private:
  ExtFloat(Unpacked v, int prec) : value_(v), prec_(prec) {}

  Unpacked value_;
  int prec_;
};

/// Rounds an unpacked value's significand to `prec` bits (RNE),
/// renormalizing on carry-out. Specials and zero pass through.
Unpacked round_unpacked_to_precision(const Unpacked& u, int prec);

}  // namespace m3xu::fp
