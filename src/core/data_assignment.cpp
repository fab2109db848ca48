#include "core/data_assignment.hpp"

#include "common/bits.hpp"
#include "common/check.hpp"
#include "fault/injector.hpp"
#include "fp/split.hpp"
#include "fp/unpacked.hpp"

namespace m3xu::core {

namespace {

struct Fp64Split {
  LaneOperand hi;
  LaneOperand lo;
};

/// Hardware split of an FP64 value into 27-bit high / 26-bit low parts
/// (SIV-C: "options like ... 32-bit multipliers"; we model the 27-bit
/// sub-multiplier needed for an exact two-way split of the 53-bit
/// significand). Subnormal inputs flush to zero like the FP32 path.
Fp64Split split_fp64_hw(double v) {
  const std::uint64_t b = bits_of(v);
  const bool sign = (b >> 63) != 0;
  const std::uint64_t exp_biased = (b >> 52) & 0x7ff;
  const std::uint64_t frac = b & low_mask(52);
  Fp64Split s;
  s.hi.sign = sign;
  s.lo.sign = sign;
  if (exp_biased == 0x7ff) {
    s.hi.cls = frac != 0 ? LaneOperand::Cls::kNaN : LaneOperand::Cls::kInf;
    return s;
  }
  if (exp_biased == 0) return s;  // zero or flushed subnormal
  const std::uint64_t m = (std::uint64_t{1} << 52) | frac;
  const int e = static_cast<int>(exp_biased) - 1023;
  s.hi.cls = LaneOperand::Cls::kFinite;
  s.hi.sig = m >> 26;  // 27 bits, hidden 1 at bit 26
  s.hi.exp2 = e - 26;
  const std::uint64_t lo_sig = m & low_mask(26);
  if (lo_sig != 0) {
    s.lo.cls = LaneOperand::Cls::kFinite;
    s.lo.sig = lo_sig;
    s.lo.exp2 = e - 52;
  }
  return s;
}

void push_pair(StepOperands& step, const LaneOperand& a,
               const LaneOperand& b) {
  step.a.push_back(a);
  step.b.push_back(b);
}

// --- Fault-injection hook ---------------------------------------------
//
// Each finite lane operand written into a step's buffers is one
// injection opportunity on its side's site. A flip that clears the
// whole significand field turns the operand into a zero lane (the
// dp unit requires sig != 0 for finite operands); special-bypass lanes
// keep their class placeholder untouched apart from the significand,
// which is irrelevant to Inf/NaN propagation.

void corrupt_lane(const fault::FaultInjector* injector, fault::Site site,
                  LaneOperand& op, int width) {
  if (op.cls != LaneOperand::Cls::kFinite) return;
  const std::uint64_t flipped = injector->corrupt(site, op.sig, width);
  if (flipped == op.sig) return;
  op.sig = flipped;
  if (op.sig == 0) op.cls = LaneOperand::Cls::kZero;
}

// --- Special-value handling -------------------------------------------
//
// A non-finite element cannot be decomposed into high/low parts (the
// cross lanes of Inf*Inf would see Inf*0 and spuriously produce NaN).
// Real hardware detects the all-ones exponent before the split and
// routes the element through a bypass; we model that by emitting a
// single element-level lane whose operands carry only the class and
// sign of the full values - exactly the information IEEE product
// special-casing needs.

bool f32_is_special(float v) {
  return ((bits_of(v) >> 23) & 0xff) == 0xff;
}

bool f64_is_special(double v) {
  return ((bits_of(v) >> 52) & 0x7ff) == 0x7ff;
}

LaneOperand class_operand_f32(float v) {
  const std::uint32_t b = bits_of(v);
  LaneOperand op;
  op.sign = (b >> 31) != 0;
  const std::uint32_t e = (b >> 23) & 0xff;
  const std::uint32_t frac = b & static_cast<std::uint32_t>(low_mask(23));
  if (e == 0xff) {
    op.cls = frac ? LaneOperand::Cls::kNaN : LaneOperand::Cls::kInf;
  } else if (e == 0) {
    op.cls = LaneOperand::Cls::kZero;  // zero, or subnormal (flushed)
  } else {
    // Magnitude is irrelevant on the special path; a unit placeholder
    // keeps the class/sign semantics.
    op.cls = LaneOperand::Cls::kFinite;
    op.sig = 1;
  }
  return op;
}

LaneOperand class_operand_f64(double v) {
  const std::uint64_t b = bits_of(v);
  LaneOperand op;
  op.sign = (b >> 63) != 0;
  const std::uint64_t e = (b >> 52) & 0x7ff;
  const std::uint64_t frac = b & low_mask(52);
  if (e == 0x7ff) {
    op.cls = frac ? LaneOperand::Cls::kNaN : LaneOperand::Cls::kInf;
  } else if (e == 0) {
    op.cls = LaneOperand::Cls::kZero;  // zero, or subnormal (flushed)
  } else {
    op.cls = LaneOperand::Cls::kFinite;
    op.sig = 1;
  }
  return op;
}

}  // namespace

void DataAssignmentStage::corrupt_step(const fault::FaultInjector* injector,
                                       StepOperands& step, int width) {
  if (injector == nullptr) return;
  for (LaneOperand& op : step.a) {
    corrupt_lane(injector, fault::Site::kOperandA, op, width);
  }
  for (LaneOperand& op : step.b) {
    corrupt_lane(injector, fault::Site::kOperandB, op, width);
  }
}

StepOperands DataAssignmentStage::schedule_passthrough(
    std::span<const float> a, std::span<const float> b,
    const fp::FloatFormat& fmt, const fault::FaultInjector* injector) {
  M3XU_CHECK(a.size() == b.size());
  StepOperands step;
  step.a.reserve(a.size());
  step.b.reserve(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float fa = fp::round_to_format(a[i], fmt);
    const float fb = fp::round_to_format(b[i], fmt);
    step.a.push_back(from_unpacked(fp::unpack(fa), fmt.sig_bits()));
    step.b.push_back(from_unpacked(fp::unpack(fb), fmt.sig_bits()));
  }
  corrupt_step(injector, step, fmt.sig_bits());
  return step;
}

std::array<StepOperands, 2> DataAssignmentStage::schedule_fp32(
    std::span<const float> a, std::span<const float> b,
    const fault::FaultInjector* injector) {
  M3XU_CHECK(a.size() == b.size());
  std::array<StepOperands, 2> steps;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (f32_is_special(a[i]) || f32_is_special(b[i])) {
      push_pair(steps[0], class_operand_f32(a[i]), class_operand_f32(b[i]));
      continue;
    }
    const fp::HwSplit sa = fp::split_fp32_hw(a[i]);
    const fp::HwSplit sb = fp::split_fp32_hw(b[i]);
    const LaneOperand ah = from_hw_part(sa.hi);
    const LaneOperand al = from_hw_part(sa.lo);
    const LaneOperand bh = from_hw_part(sb.hi);
    const LaneOperand bl = from_hw_part(sb.lo);
    // Step 0: like parts together (Eq. 6); step 1: B parts flipped
    // by the multiplexers (Eq. 8).
    push_pair(steps[0], ah, bh);
    push_pair(steps[0], al, bl);
    push_pair(steps[1], ah, bl);
    push_pair(steps[1], al, bh);
  }
  for (StepOperands& step : steps) corrupt_step(injector, step, kFp32PartBits);
  return steps;
}

DataAssignmentStage::ComplexSchedule DataAssignmentStage::schedule_fp32c(
    std::span<const std::complex<float>> a,
    std::span<const std::complex<float>> b,
    const fault::FaultInjector* injector) {
  M3XU_CHECK(a.size() == b.size());
  ComplexSchedule sched;
  // Emits one scalar product term x*y (optionally sign-flipped on the
  // x side, SIV-B) into a 2-step pair of operand streams: step s0 gets
  // the like-part lanes (Eq. 6), s1 the crossed lanes (Eq. 8). A term
  // with a non-finite factor takes the element-level special bypass.
  const auto emit_term = [](StepOperands& s0, StepOperands& s1, float x,
                            float y, bool negate_x) {
    if (f32_is_special(x) || f32_is_special(y)) {
      LaneOperand cx = class_operand_f32(x);
      if (negate_x) cx = cx.negated();
      push_pair(s0, cx, class_operand_f32(y));
      return;
    }
    const fp::HwSplit sx = fp::split_fp32_hw(x);
    const fp::HwSplit sy = fp::split_fp32_hw(y);
    LaneOperand xh = from_hw_part(sx.hi), xl = from_hw_part(sx.lo);
    const LaneOperand yh = from_hw_part(sy.hi), yl = from_hw_part(sy.lo);
    if (negate_x) {
      xh = xh.negated();
      xl = xl.negated();
    }
    push_pair(s0, xh, yh);
    push_pair(s0, xl, yl);
    push_pair(s1, xh, yl);
    push_pair(s1, xl, yh);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Real part: AR*BR - AI*BI (the stage flips the sign bit of the
    // imaginary*imaginary first input); imaginary part: AR*BI + AI*BR.
    emit_term(sched.real[0], sched.real[1], a[i].real(), b[i].real(), false);
    emit_term(sched.real[0], sched.real[1], a[i].imag(), b[i].imag(), true);
    emit_term(sched.imag[0], sched.imag[1], a[i].real(), b[i].imag(), false);
    emit_term(sched.imag[0], sched.imag[1], a[i].imag(), b[i].real(), false);
  }
  for (StepOperands& step : sched.real) {
    corrupt_step(injector, step, kFp32PartBits);
  }
  for (StepOperands& step : sched.imag) {
    corrupt_step(injector, step, kFp32PartBits);
  }
  return sched;
}

std::array<StepOperands, 4> DataAssignmentStage::schedule_fp64(
    std::span<const double> a, std::span<const double> b,
    const fault::FaultInjector* injector) {
  M3XU_CHECK(a.size() == b.size());
  std::array<StepOperands, 4> steps;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (f64_is_special(a[i]) || f64_is_special(b[i])) {
      push_pair(steps[0], class_operand_f64(a[i]), class_operand_f64(b[i]));
      continue;
    }
    const Fp64Split sa = split_fp64_hw(a[i]);
    const Fp64Split sb = split_fp64_hw(b[i]);
    // Four product classes, one per step: HH, LL, HL, LH.
    push_pair(steps[0], sa.hi, sb.hi);
    push_pair(steps[1], sa.lo, sb.lo);
    push_pair(steps[2], sa.hi, sb.lo);
    push_pair(steps[3], sa.lo, sb.hi);
  }
  for (StepOperands& step : steps) {
    corrupt_step(injector, step, DataAssignmentStage::kFp64PartBits);
  }
  return steps;
}

DataAssignmentStage::Complex64Schedule DataAssignmentStage::schedule_fp64c(
    std::span<const std::complex<double>> a,
    std::span<const std::complex<double>> b,
    const fault::FaultInjector* injector) {
  M3XU_CHECK(a.size() == b.size());
  Complex64Schedule sched;
  // One scalar product term x*y spread over the four HH/LL/HL/LH
  // steps, optionally sign-flipped on the x side.
  const auto emit_term = [](std::array<StepOperands, 4>& steps, double x,
                            double y, bool negate_x) {
    if (f64_is_special(x) || f64_is_special(y)) {
      LaneOperand cx = class_operand_f64(x);
      if (negate_x) cx = cx.negated();
      push_pair(steps[0], cx, class_operand_f64(y));
      return;
    }
    Fp64Split sx = split_fp64_hw(x);
    const Fp64Split sy = split_fp64_hw(y);
    if (negate_x) {
      sx.hi = sx.hi.negated();
      sx.lo = sx.lo.negated();
    }
    push_pair(steps[0], sx.hi, sy.hi);
    push_pair(steps[1], sx.lo, sy.lo);
    push_pair(steps[2], sx.hi, sy.lo);
    push_pair(steps[3], sx.lo, sy.hi);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    emit_term(sched.real, a[i].real(), b[i].real(), false);
    emit_term(sched.real, a[i].imag(), b[i].imag(), true);
    emit_term(sched.imag, a[i].real(), b[i].imag(), false);
    emit_term(sched.imag, a[i].imag(), b[i].real(), false);
  }
  for (StepOperands& step : sched.real) {
    corrupt_step(injector, step, DataAssignmentStage::kFp64PartBits);
  }
  for (StepOperands& step : sched.imag) {
    corrupt_step(injector, step, DataAssignmentStage::kFp64PartBits);
  }
  return sched;
}

}  // namespace m3xu::core
