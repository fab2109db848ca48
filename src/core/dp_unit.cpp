#include "core/dp_unit.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fault/injector.hpp"
#include "fp/ext_float.hpp"

namespace m3xu::core {

namespace {

/// 192-bit two's-complement accumulator for the fast path.
struct Local192 {
  std::uint64_t w[3] = {0, 0, 0};

  void add(bool sign, std::uint64_t sig, int shift) {
    // shift in [0, 120]; sig <= 62 bits.
    const int word = shift / 64;
    const int sh = shift % 64;
    std::uint64_t limb[3] = {0, 0, 0};
    limb[word] = sig << sh;
    if (sh != 0 && word + 1 < 3) limb[word + 1] = sig >> (64 - sh);
    if (!sign) {
      unsigned __int128 carry = 0;
      for (int i = 0; i < 3; ++i) {
        const unsigned __int128 t =
            static_cast<unsigned __int128>(w[i]) + limb[i] + carry;
        w[i] = static_cast<std::uint64_t>(t);
        carry = t >> 64;
      }
    } else {
      std::uint64_t borrow = 0;
      for (int i = 0; i < 3; ++i) {
        const unsigned __int128 t = static_cast<unsigned __int128>(w[i]) -
                                    limb[i] - borrow;
        w[i] = static_cast<std::uint64_t>(t);
        borrow = static_cast<std::uint64_t>(t >> 64) & 1;
      }
    }
  }

  bool negative() const { return (w[2] >> 63) != 0; }

  /// Pushes the value into the wide accumulator (3 limb adds).
  void flush(fp::ExactAccumulator& sum, int base_exp) const {
    std::uint64_t mag[3] = {w[0], w[1], w[2]};
    const bool sign = negative();
    if (sign) {
      std::uint64_t carry = 1;
      for (auto& word : mag) {
        const std::uint64_t inv = ~word;
        word = inv + carry;
        carry = word < inv ? 1 : 0;
      }
    }
    sum.add_scaled(sign, mag[0], base_exp);
    sum.add_scaled(sign, mag[1], base_exp + 64);
    sum.add_scaled(sign, mag[2], base_exp + 128);
  }
};

}  // namespace

void DpUnit::accumulate_dot(std::span<const LaneOperand> a,
                            std::span<const LaneOperand> b,
                            fp::ExactAccumulator& sum) const {
  M3XU_CHECK(a.size() == b.size());
  // First pass: specials and the product exponent window.
  struct Product {
    bool sign;
    std::uint64_t sig;
    int exp;
  };
  // Stack buffer for typical step widths; spill to the direct path for
  // very long lanes.
  constexpr std::size_t kMaxFast = 64;
  Product products[kMaxFast];
  std::size_t count = 0;
  int emin = 0, emax = 0;
  bool fast_ok = config_.enable_fast_path && a.size() <= kMaxFast;

  for (std::size_t i = 0; i < a.size(); ++i) {
    const LaneOperand& x = a[i];
    const LaneOperand& y = b[i];
    if (x.cls == LaneOperand::Cls::kFinite &&
        y.cls == LaneOperand::Cls::kFinite) {
      M3XU_DCHECK(x.sig != 0 && x.sig < (std::uint64_t{1} << config_.mult_bits));
      M3XU_DCHECK(y.sig != 0 && y.sig < (std::uint64_t{1} << config_.mult_bits));
      std::uint64_t p = x.sig * y.sig;  // mult_bits <= 31: fits
      if (config_.injector != nullptr) {
        p = config_.injector->corrupt(fault::Site::kPartialProduct, p,
                                      2 * config_.mult_bits);
      }
      const int e = x.exp2 + y.exp2;
      if (fast_ok) {
        if (count == 0) {
          emin = emax = e;
        } else {
          emin = std::min(emin, e);
          emax = std::max(emax, e);
        }
        products[count++] = {static_cast<bool>(x.sign ^ y.sign), p, e};
      } else {
        sum.add_scaled(x.sign ^ y.sign, p, e);
      }
      continue;
    }
    if (x.cls == LaneOperand::Cls::kNaN || y.cls == LaneOperand::Cls::kNaN) {
      sum.set_nan();
      continue;
    }
    if (x.cls == LaneOperand::Cls::kInf || y.cls == LaneOperand::Cls::kInf) {
      if (x.cls == LaneOperand::Cls::kZero ||
          y.cls == LaneOperand::Cls::kZero) {
        sum.set_nan();  // Inf * 0
      } else {
        fp::Unpacked inf;
        inf.cls = fp::FpClass::kInf;
        inf.sign = x.sign ^ y.sign;
        sum.add_unpacked(inf);
      }
      continue;
    }
    // At least one zero operand: contributes nothing.
  }
  if (!fast_ok || count == 0) {
    if (fast_ok) return;  // nothing buffered
    return;               // direct path already accumulated
  }
  // Fast path applies when the aligned products fit the 192-bit window
  // with headroom for carries (62-bit products + 120-bit span + log2 n).
  if (emax - emin <= 120) {
    Local192 local;
    for (std::size_t i = 0; i < count; ++i) {
      local.add(products[i].sign, products[i].sig, products[i].exp - emin);
    }
    local.flush(sum, emin);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    sum.add_scaled(products[i].sign, products[i].sig, products[i].exp);
  }
}

fp::Unpacked DpUnit::run_steps(std::span<const StepOperands> steps,
                               const fp::Unpacked& c, int prec,
                               bool per_step_rounding) const {
  const fault::FaultInjector* const inj = config_.injector;
  if (per_step_rounding) {
    fp::ExtFloat reg = fp::ExtFloat::from_unpacked(c, prec);
    for (const StepOperands& step : steps) {
      fp::ExactAccumulator sum;
      accumulate_dot(step.a, step.b, sum);
      reg = reg.plus_exact(sum);
      if (inj != nullptr) {
        reg = fp::ExtFloat::from_unpacked(
            inj->corrupt_unpacked(fault::Site::kAccumulator, reg.value(),
                                  prec),
            prec);
      }
    }
    return reg.value();
  }
  fp::ExactAccumulator sum;
  for (const StepOperands& step : steps) accumulate_dot(step.a, step.b, sum);
  sum.add_unpacked(c);
  const fp::Unpacked r = sum.round_to_precision(prec);
  return inj != nullptr
             ? inj->corrupt_unpacked(fault::Site::kAccumulator, r, prec)
             : r;
}

}  // namespace m3xu::core
