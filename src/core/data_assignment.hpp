// The data-assignment stage (paper SIV-A/B, Fig 3): multiplexers and
// buffers that split incoming register operands into per-step lane
// streams for the dot-product units.
//
//  - Passthrough (FP16/BF16/TF32): one step; each input feeds one lane.
//  - FP32 (Fig 3a): each FP32 number splits into 12-bit high/low parts.
//    Step 0 pairs like parts (AH*BH, AL*BL - Eq. 6); step 1 flips the
//    assignment of the B parts (AH*BL, AL*BH - Eq. 8).
//  - FP32C (Fig 3c): four steps. Steps 0-1 compute the real part with
//    the sign bit of the imaginary*imaginary inputs flipped (the
//    subtraction of Eq. 9); steps 2-3 compute the imaginary part.
//  - FP64 (SIV-C): each double splits into 27-bit high/low parts; four
//    steps cover the HH / LL / HL / LH product classes with the same
//    swapping policy as FP32C but no sign flip.
#pragma once

#include <array>
#include <complex>
#include <span>
#include <vector>

#include "core/lane_operand.hpp"
#include "fp/format.hpp"

namespace m3xu::fault {
class FaultInjector;
}  // namespace m3xu::fault

namespace m3xu::core {

/// One step's lane streams for one output element's dot product.
struct StepOperands {
  std::vector<LaneOperand> a;
  std::vector<LaneOperand> b;
};

class DataAssignmentStage {
 public:
  // Every schedule function takes an optional fault injector; when
  // non-null, each finite lane operand's significand field is an
  // injection opportunity (sites kOperandA / kOperandB) after the
  // split/routing - modeling transient flips in the operand buffers.
  // The default null keeps the fault-free path untouched.

  /// FP16/BF16/TF32 passthrough: inputs are rounded to `fmt` (they
  /// arrive already in that format from registers) and fed directly.
  static StepOperands schedule_passthrough(
      std::span<const float> a, std::span<const float> b,
      const fp::FloatFormat& fmt,
      const fault::FaultInjector* injector = nullptr);

  /// FP32 two-step schedule over k elements.
  static std::array<StepOperands, 2> schedule_fp32(
      std::span<const float> a, std::span<const float> b,
      const fault::FaultInjector* injector = nullptr);

  /// FP32C four-step schedule. real[0..1] accumulate into the real
  /// output, imag[0..1] into the imaginary output.
  struct ComplexSchedule {
    std::array<StepOperands, 2> real;
    std::array<StepOperands, 2> imag;
  };
  static ComplexSchedule schedule_fp32c(
      std::span<const std::complex<float>> a,
      std::span<const std::complex<float>> b,
      const fault::FaultInjector* injector = nullptr);

  /// FP64 four-step schedule (27-bit sub-multipliers).
  static std::array<StepOperands, 4> schedule_fp64(
      std::span<const double> a, std::span<const double> b,
      const fault::FaultInjector* injector = nullptr);

  /// FP64 complex eight-step schedule (SIV-C: "this analogous approach
  /// easily extends to ... their complex counterparts"): four product
  /// classes per scalar term, two terms per output component, with the
  /// FP32C sign-flip on the imaginary*imaginary lanes of the real part.
  struct Complex64Schedule {
    std::array<StepOperands, 4> real;
    std::array<StepOperands, 4> imag;
  };
  static Complex64Schedule schedule_fp64c(
      std::span<const std::complex<double>> a,
      std::span<const std::complex<double>> b,
      const fault::FaultInjector* injector = nullptr);

  /// Width of the FP64 mode's significand parts (hidden 1 + 26 bits).
  static constexpr int kFp64PartBits = 27;

  /// Width of the FP32 mode's 12-bit significand fields (Fig 3a).
  static constexpr int kFp32PartBits = 12;

 private:
  /// Applies the operand-buffer fault hooks to one assembled step, in
  /// buffer order (all A lanes, then all B lanes). No-op when
  /// `injector` is null.
  static void corrupt_step(const fault::FaultInjector* injector,
                           StepOperands& step, int width);
};

}  // namespace m3xu::core
