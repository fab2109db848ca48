// Dot-product unit model (paper Fig 1 / Fig 3b).
//
// One *step* multiplies `lanes` operand pairs in parallel - each
// multiplier takes two `mult_bits`-wide significands - and feeds the
// aligned products into an adder tree. The model idealizes the adder
// tree + shifter network as an exact fixed-point sum (ExactAccumulator)
// so that the only roundings are the architecturally visible ones at
// the accumulation-register boundary.
//
// The per-product alignment shifts (0 / 12 / 24 bits for the FP32 mode,
// paper SIV-A) are folded into the operands' exp2 fields by the
// data-assignment stage.
#pragma once

#include <span>

#include "core/data_assignment.hpp"
#include "core/lane_operand.hpp"
#include "fp/exact_accumulator.hpp"
#include "fp/unpacked.hpp"

namespace m3xu::fault {
class FaultInjector;
}  // namespace m3xu::fault

namespace m3xu::core {

struct DpUnitConfig {
  int mult_bits = 12;  // multiplier significand width (M3XU: 11+1)
  // Sum products in a local 192-bit window when their exponents are
  // close (the common case), pushing three limbs into the wide
  // accumulator instead of one entry per product. Bit-identical to the
  // direct path (verified by tests); disable to force the direct path.
  bool enable_fast_path = true;
  // When non-null, every finite partial product (2*mult_bits wide) is
  // a single-bit-flip opportunity at Site::kPartialProduct before it
  // enters the adder tree. Null keeps the hot path fault-free.
  const fault::FaultInjector* injector = nullptr;
};

class DpUnit {
 public:
  explicit DpUnit(const DpUnitConfig& config) : config_(config) {}

  /// Accumulates sum += dot(a, b) exactly. a and b must have equal
  /// size; every finite operand's significand must fit mult_bits.
  /// IEEE special semantics: NaN operands poison the sum; Inf*0 is
  /// NaN; Inf*finite contributes a signed infinity.
  void accumulate_dot(std::span<const LaneOperand> a,
                      std::span<const LaneOperand> b,
                      fp::ExactAccumulator& sum) const;

  /// Runs one instruction's steps into an accumulation register of
  /// `prec` significand bits that starts at `c` (exact: C is narrower
  /// than the register). per_step_rounding rounds the register after
  /// every step (the 48-bit register datapath); otherwise the steps'
  /// exact sum rounds once (the idealized ablation). With an injector
  /// attached, each register write-back is one Site::kAccumulator flip
  /// opportunity on the `prec`-bit significand.
  fp::Unpacked run_steps(std::span<const StepOperands> steps,
                         const fp::Unpacked& c, int prec,
                         bool per_step_rounding) const;

  const DpUnitConfig& config() const { return config_; }

 private:
  DpUnitConfig config_;
};

}  // namespace m3xu::core
