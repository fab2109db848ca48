#include "core/mxu.hpp"

#include <array>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "core/fused_round.hpp"
#include "core/microkernel.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::core {

namespace {

// Route counters for the FP32/FP32c datapaths (no-ops when
// M3XU_TELEMETRY=OFF). "chunks" are kc_max-element dot fragments:
// fused = streaming fast path, fallback = streaming chunk the fused
// kernel rejected (wide exponent span / term overflow), generic =
// per-dot reassembly because the panel holds specials or an injector
// is attached. "elements" attribute whole C outputs to the route that
// produced them. Counts are accumulated in function-local variables
// and flushed once per call.
telemetry::Counter rt_fp32_fused("mxu.fp32.chunks.fused");
telemetry::Counter rt_fp32_fallback("mxu.fp32.chunks.fallback");
telemetry::Counter rt_fp32_generic("mxu.fp32.chunks.generic");
telemetry::Counter rt_fp32_edge("mxu.fp32.elements.edge");
telemetry::Counter rt_fp32_special("mxu.fp32.elements.bypass_special");
telemetry::Counter rt_fp32_inject("mxu.fp32.elements.bypass_injector");
telemetry::Counter rt_fp32_perdot("mxu.fp32.elements.perdot");
telemetry::Counter rt_fp32c_fused("mxu.fp32c.chunks.fused");
telemetry::Counter rt_fp32c_fallback("mxu.fp32c.chunks.fallback");
telemetry::Counter rt_fp32c_generic("mxu.fp32c.chunks.generic");
telemetry::Counter rt_fp32c_edge("mxu.fp32c.elements.edge");
telemetry::Counter rt_fp32c_special("mxu.fp32c.elements.bypass_special");
telemetry::Counter rt_fp32c_inject("mxu.fp32c.elements.bypass_injector");
telemetry::Counter rt_fp32c_perdot("mxu.fp32c.elements.perdot");

inline std::uint64_t area(int rows, int cols) {
  return static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
}

// Attributes non-fast-path route decisions to the active request
// trace, if one is installed on this thread (the tiled driver installs
// it around each tile). event_once keeps the per-request log bounded
// no matter how many panel calls the request issues.
inline void trace_route_decisions(const char* fallback_name,
                                  const char* generic_name,
                                  std::uint64_t n_fallback,
                                  std::uint64_t n_generic) {
  if (n_fallback == 0 && n_generic == 0) return;
  telemetry::TraceContext* const t = telemetry::current_trace_context();
  if (t == nullptr) return;
  if (n_fallback != 0) t->event_once(fallback_name);
  if (n_generic != 0) t->event_once(generic_name);
}

}  // namespace

MmaShape shape_for(MxuMode mode) {
  switch (mode) {
    case MxuMode::kFp16:
    case MxuMode::kBf16:
      return {16, 8, 16};
    case MxuMode::kTf32:
      return {16, 8, 8};
    case MxuMode::kFp32:
      return {16, 8, 8};  // half the FP16 K (Observation 1)
    case MxuMode::kFp32Complex:
      return {16, 8, 4};  // complex elements; quarter throughput
    case MxuMode::kFp64:
      return {16, 8, 4};
    case MxuMode::kFp64Complex:
      return {16, 8, 2};  // complex elements; 1/32 of the FP16 rate
  }
  return {0, 0, 0};
}

int steps_for(MxuMode mode) {
  switch (mode) {
    case MxuMode::kFp16:
    case MxuMode::kBf16:
    case MxuMode::kTf32:
      return 1;
    case MxuMode::kFp32:
      return 2;
    case MxuMode::kFp32Complex:
    case MxuMode::kFp64:
      return 4;
    case MxuMode::kFp64Complex:
      return 8;
  }
  return 0;
}

const char* mode_name(MxuMode mode) {
  switch (mode) {
    case MxuMode::kFp16:
      return "fp16";
    case MxuMode::kBf16:
      return "bf16";
    case MxuMode::kTf32:
      return "tf32";
    case MxuMode::kFp32:
      return "fp32";
    case MxuMode::kFp32Complex:
      return "fp32c";
    case MxuMode::kFp64:
      return "fp64";
    case MxuMode::kFp64Complex:
      return "fp64c";
  }
  return "?";
}

M3xuEngine::M3xuEngine(const M3xuConfig& config)
    : config_(config),
      dp12_(DpUnitConfig{/*mult_bits=*/12, /*enable_fast_path=*/true,
                         config.injector}),
      dp27_(DpUnitConfig{DataAssignmentStage::kFp64PartBits,
                         /*enable_fast_path=*/true, config.injector}) {
  M3XU_CHECK(config_.accum_prec >= 24 && config_.accum_prec <= 63);
  M3XU_CHECK(config_.fp64_accum_prec >= 53 && config_.fp64_accum_prec <= 63);
  M3XU_CHECK((config_.mk_mr == 0 && config_.mk_nr == 0) ||
             mk_block_supported(config_.mk_mr, config_.mk_nr));
}

namespace {

/// Views one scheduled step's owning buffers (per-dot path).
inline StepView view_of(const StepOperands& step) { return {step.a, step.b}; }

template <std::size_t kSteps>
std::array<StepView, kSteps> views_of(
    const std::array<StepOperands, kSteps>& steps) {
  std::array<StepView, kSteps> v;
  for (std::size_t i = 0; i < kSteps; ++i) v[i] = view_of(steps[i]);
  return v;
}

}  // namespace

template <int kSteps>
fp::Unpacked M3xuEngine::run_steps(const std::array<StepView, kSteps>& steps,
                                   const fp::Unpacked& c, const DpUnit& unit,
                                   int prec) const {
  if (config_.per_step_rounding) {
    // The accumulation register is initialized with C (exact: C is
    // FP32/FP64, narrower than the register) and rounded once per step.
    fp::ExtFloat reg = fp::ExtFloat::from_unpacked(c, prec);
    for (const StepView& step : steps) {
      fp::ExactAccumulator sum;
      unit.accumulate_dot(step.a, step.b, sum);
      reg = reg.plus_exact(sum);
      if (config_.injector != nullptr) {
        // Each step's register write-back is one flip opportunity on
        // the architectural `prec`-bit significand.
        reg = fp::ExtFloat::from_unpacked(
            config_.injector->corrupt_unpacked(fault::Site::kAccumulator,
                                               reg.value(), prec),
            prec);
      }
    }
    return reg.value();
  }
  // Idealized: one rounding per instruction.
  fp::ExactAccumulator sum;
  for (const StepView& step : steps) {
    unit.accumulate_dot(step.a, step.b, sum);
  }
  sum.add_unpacked(c);
  fp::Unpacked r = sum.round_to_precision(prec);
  if (config_.injector != nullptr) {
    r = config_.injector->corrupt_unpacked(fault::Site::kAccumulator, r,
                                           prec);
  }
  return r;
}

float M3xuEngine::mma_dot_fp32(std::span<const float> a,
                               std::span<const float> b, float c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp32).k);
  const auto steps = DataAssignmentStage::schedule_fp32(a, b, config_.injector);
  const fp::Unpacked r =
      run_steps<2>(views_of(steps), fp::unpack(c), dp12_, config_.accum_prec);
  return fp::pack_to_float(r);
}

float M3xuEngine::mma_dot_passthrough(std::span<const float> a,
                                      std::span<const float> b, float c,
                                      const fp::FloatFormat& fmt) const {
  const StepOperands step =
      DataAssignmentStage::schedule_passthrough(a, b, fmt, config_.injector);
  const std::array<StepView, 1> steps = {view_of(step)};
  // Stock Tensor-Core accumulation: FP32 registers.
  const fp::Unpacked r =
      run_steps<1>(steps, fp::unpack(c), dp12_, fp::ExtFloat::kFp32AccumPrec);
  return fp::pack_to_float(r);
}

std::complex<float> M3xuEngine::mma_dot_fp32c(
    std::span<const std::complex<float>> a,
    std::span<const std::complex<float>> b, std::complex<float> c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp32Complex).k);
  const auto sched = DataAssignmentStage::schedule_fp32c(a, b, config_.injector);
  const fp::Unpacked re = run_steps<2>(views_of(sched.real),
                                       fp::unpack(c.real()), dp12_,
                                       config_.accum_prec);
  const fp::Unpacked im = run_steps<2>(views_of(sched.imag),
                                       fp::unpack(c.imag()), dp12_,
                                       config_.accum_prec);
  return {fp::pack_to_float(re), fp::pack_to_float(im)};
}

double M3xuEngine::mma_dot_fp64(std::span<const double> a,
                                std::span<const double> b, double c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp64).k);
  const auto steps = DataAssignmentStage::schedule_fp64(a, b, config_.injector);
  const fp::Unpacked r = run_steps<4>(views_of(steps), fp::unpack(c), dp27_,
                                      config_.fp64_accum_prec);
  return fp::pack_to_double(r);
}

std::complex<double> M3xuEngine::mma_dot_fp64c(
    std::span<const std::complex<double>> a,
    std::span<const std::complex<double>> b, std::complex<double> c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp64Complex).k);
  const auto sched = DataAssignmentStage::schedule_fp64c(a, b, config_.injector);
  const fp::Unpacked re = run_steps<4>(views_of(sched.real),
                                       fp::unpack(c.real()), dp27_,
                                       config_.fp64_accum_prec);
  const fp::Unpacked im = run_steps<4>(views_of(sched.imag),
                                       fp::unpack(c.imag()), dp27_,
                                       config_.fp64_accum_prec);
  return {fp::pack_to_double(re), fp::pack_to_double(im)};
}

namespace {

/// Row-major index in 64-bit arithmetic: the `int` products row*ld
/// overflow once the virtual index crosses 2^31 (large leading
/// dimensions; regression-tested in core_packed_panel_test).
inline std::size_t idx(int row, int ld, int col) {
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(ld) +
         static_cast<std::size_t>(col);
}

/// Gathers a strided B column chunk into a contiguous fragment (models
/// the shared-memory -> register fragment load).
template <typename T>
void gather_column(const T* b, int ldb, int j, int k0, int kc, T* out) {
  for (int kk = 0; kk < kc; ++kk) out[kk] = b[idx(k0 + kk, ldb, j)];
}

}  // namespace

void M3xuEngine::gemm_fp32(int m, int n, int k, const float* a, int lda,
                           const float* b, int ldb, float* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp32).k;
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp32({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                           {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  rt_fp32_perdot.add(area(m, n));
}

void M3xuEngine::gemm_fp16(int m, int n, int k, const fp::Half* a, int lda,
                           const fp::Half* b, int ldb, float* c,
                           int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp16).k;
  std::vector<float> arow(static_cast<std::size_t>(kc_max));
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        for (int kk = 0; kk < kc; ++kk) {
          arow[kk] = a[idx(i, lda, k0 + kk)].to_float();
          bcol[kk] = b[idx(k0 + kk, ldb, j)].to_float();
        }
        acc = mma_dot_passthrough(
            {arow.data(), static_cast<std::size_t>(kc)},
            {bcol.data(), static_cast<std::size_t>(kc)}, acc, fp::kFp16);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

void M3xuEngine::gemm_bf16(int m, int n, int k, const fp::Bf16* a, int lda,
                           const fp::Bf16* b, int ldb, float* c,
                           int ldc) const {
  const int kc_max = shape_for(MxuMode::kBf16).k;
  std::vector<float> arow(static_cast<std::size_t>(kc_max));
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        for (int kk = 0; kk < kc; ++kk) {
          arow[kk] = a[idx(i, lda, k0 + kk)].to_float();
          bcol[kk] = b[idx(k0 + kk, ldb, j)].to_float();
        }
        acc = mma_dot_passthrough(
            {arow.data(), static_cast<std::size_t>(kc)},
            {bcol.data(), static_cast<std::size_t>(kc)}, acc, fp::kBf16);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

void M3xuEngine::gemm_tf32(int m, int n, int k, const float* a, int lda,
                           const float* b, int ldb, float* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kTf32).k;
  std::vector<float> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        // The stage rounds FP32 register contents to TF32 on ingest.
        acc = mma_dot_passthrough(
            {a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
            {bcol.data(), static_cast<std::size_t>(kc)}, acc, fp::kTf32);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

void M3xuEngine::gemm_fp32c(int m, int n, int k, const std::complex<float>* a,
                            int lda, const std::complex<float>* b, int ldb,
                            std::complex<float>* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp32Complex).k;
  std::vector<std::complex<float>> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::complex<float> acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp32c({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                            {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  rt_fp32c_perdot.add(area(m, n));
}

void M3xuEngine::gemm_fp64c(int m, int n, int k,
                            const std::complex<double>* a, int lda,
                            const std::complex<double>* b, int ldb,
                            std::complex<double>* c, int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp64Complex).k;
  std::vector<std::complex<double>> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::complex<double> acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp64c({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                            {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

// --- Packed-operand fast path -----------------------------------------
//
// Streaming case (no specials in either panel, no injector): each
// step's operand buffers are contiguous slices of the packed panels, so
// the inner loop is pointer arithmetic plus the fused step kernel below
// - no allocation, no split, no gather. Otherwise the steps are
// reassembled per dot from the packed lanes in the exact order of
// DataAssignmentStage::schedule_fp32/fp32c (element-level special
// bypass depends on the operand *pair*, and operand-buffer fault
// opportunities must fire in the per-dot order), into thread-local
// scratch reused across dots, and run through the generic run_steps.

namespace {

// --- Fused streaming step kernel --------------------------------------
//
// One architectural step of the streaming packed path computes exactly
//
//     reg' = RNE_prec(reg + sum_i (-1)^s_i * sig_i * 2^e_i)
//
// with the inner sum exact (DpUnit::accumulate_dot into an
// ExactAccumulator, then ExtFloat::plus_exact rounds once). Because
// every stage is exact up to the single final rounding, any exact
// evaluation order produces identical bits. This kernel evaluates the
// sum in a 256-bit local two's-complement window - the ExactAccumulator
// route costs a 576-byte zero-fill, two full-array copies, and a
// 72-word scan per step - and reports failure (the caller re-runs the
// chunk through the generic path) whenever the operand exponent span
// does not fit the window or a lane needs NaN/Inf handling.

struct StreamTerm {
  bool sign;
  std::uint64_t sig;  // nonzero product of two sub-32-bit significands
  int exp;            // weight of sig's least significant bit
};

constexpr int kMaxStreamTerms = 64;

/// Appends one step's finite-lane products to `terms` starting at
/// `count`. Returns the new count, or -1 when the step must take the
/// generic path (a NaN/Inf lane class or buffer overflow).
int collect_products(std::span<const LaneOperand> a,
                     std::span<const LaneOperand> b, StreamTerm* terms,
                     int count) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const LaneOperand& x = a[i];
    const LaneOperand& y = b[i];
    if (x.cls == LaneOperand::Cls::kFinite &&
        y.cls == LaneOperand::Cls::kFinite) {
      if (count == kMaxStreamTerms) return -1;
      terms[count++] = {static_cast<bool>(x.sign ^ y.sign), x.sig * y.sig,
                        x.exp2 + y.exp2};
      continue;
    }
    if (x.cls == LaneOperand::Cls::kNaN || y.cls == LaneOperand::Cls::kNaN ||
        x.cls == LaneOperand::Cls::kInf || y.cls == LaneOperand::Cls::kInf) {
      return -1;
    }
    // At least one kZero operand: the lane contributes nothing.
  }
  return count;
}

/// RNE_prec(c + sum of terms), bit-identical to accumulating into an
/// ExactAccumulator and calling round_to_precision(prec). Returns false
/// (out untouched) when the sum does not fit the local window. The
/// rounding tail (magnitude extraction + top-64 RNE) lives in
/// core/fused_round.hpp, shared with the register-blocked microkernel.
bool fused_round(const StreamTerm* terms, int count, const fp::Unpacked& c,
                 int prec, fp::Unpacked* out) {
  // A NaN/Inf register short-circuits just like the accumulator's
  // sticky flags (the step sum itself is finite). `c` may alias `*out`
  // (the per-step register), so read it before the clearing store.
  if (c.cls == fp::FpClass::kNaN) {
    *out = {};
    out->cls = fp::FpClass::kNaN;
    return true;
  }
  if (c.cls == fp::FpClass::kInf) {
    const bool sign = c.sign;
    *out = {};
    out->cls = fp::FpClass::kInf;
    out->sign = sign;
    return true;
  }
  // Exponent window of all addends: [lo, hi] in lsb-weight terms.
  // Product significands are below 2^48 (two sub-24-bit factors); the
  // +47 msb bound is cheaper than measuring each product's width and
  // only costs window slack.
  int lo = 0, hi = 0;
  bool any = false;
  for (int i = 0; i < count; ++i) {
    if (!any) {
      lo = terms[i].exp;
      hi = terms[i].exp;
      any = true;
    } else {
      lo = std::min(lo, terms[i].exp);
      hi = std::max(hi, terms[i].exp);
    }
  }
  hi += 47;
  std::uint64_t rsig = 0;
  int rexp = 0;
  if (c.cls == fp::FpClass::kNormal) {
    // The register holds a prec-bit value (rounded to prec every step;
    // the initial C has <= 24 <= prec significant bits).
    const int drop = fp::Unpacked::kSigTop - (prec - 1);
    if ((c.sig & low_mask(drop)) != 0) return false;
    rsig = c.sig >> drop;
    rexp = c.exp - (prec - 1);
    if (!any) {
      lo = rexp;
      hi = c.exp;
      any = true;
    } else {
      lo = std::min(lo, rexp);
      hi = std::max(hi, c.exp);
    }
  }
  if (!any) {
    *out = {};  // empty sum: exact zero (FpClass::kZero, + sign)
    return true;
  }
  // <= 65 addends each below 2^(hi-lo+1): the sum needs at most
  // hi-lo+8 bits plus a sign bit.
  if (hi - lo <= 118) {
    // The common benign-data case fits one 128-bit register.
    unsigned __int128 sum = 0;
    for (int i = 0; i < count; ++i) {
      const unsigned __int128 v = static_cast<unsigned __int128>(terms[i].sig)
                                  << (terms[i].exp - lo);
      sum = terms[i].sign ? sum - v : sum + v;
    }
    if (rsig != 0) {
      const unsigned __int128 v = static_cast<unsigned __int128>(rsig)
                                  << (rexp - lo);
      sum = c.sign ? sum - v : sum + v;
    }
    detail::round_sum128(sum, lo, prec, out);
    return true;
  }
  if (hi - lo > 240) return false;
  std::uint64_t w[4] = {0, 0, 0, 0};
  const auto add = [&w](bool sign, std::uint64_t sig, int shift) {
    std::uint64_t limb[4] = {0, 0, 0, 0};
    const int word = shift / 64;
    const int sh = shift % 64;
    limb[word] = sig << sh;
    if (sh != 0 && word + 1 < 4) limb[word + 1] = sig >> (64 - sh);
    if (!sign) {
      unsigned __int128 carry = 0;
      for (int i = 0; i < 4; ++i) {
        const unsigned __int128 t =
            static_cast<unsigned __int128>(w[i]) + limb[i] + carry;
        w[i] = static_cast<std::uint64_t>(t);
        carry = t >> 64;
      }
    } else {
      std::uint64_t borrow = 0;
      for (int i = 0; i < 4; ++i) {
        const unsigned __int128 t =
            static_cast<unsigned __int128>(w[i]) - limb[i] - borrow;
        w[i] = static_cast<std::uint64_t>(t);
        borrow = static_cast<std::uint64_t>(t >> 64) & 1;
      }
    }
  };
  for (int i = 0; i < count; ++i) {
    add(terms[i].sign, terms[i].sig, terms[i].exp - lo);
  }
  if (rsig != 0) add(c.sign, rsig, rexp - lo);
  // Magnitude of the two's-complement sum (as extract_top64 does).
  const bool negative = (w[3] >> 63) != 0;
  if (negative) {
    std::uint64_t carry = 1;
    for (auto& word : w) {
      const std::uint64_t inv = ~word;
      word = inv + carry;
      carry = word < inv ? 1 : 0;
    }
  }
  int top_word = 3;
  while (top_word >= 0 && w[top_word] == 0) --top_word;
  if (top_word < 0) {
    *out = {};  // exact cancellation to zero
    return true;
  }
  const int h = top_word * 64 + highest_bit(w[top_word]);
  // Top-64 window [h .. h-63] plus a sticky for everything below,
  // mirroring ExactAccumulator::extract_top64.
  std::uint64_t top64 = 0;
  bool st = false;
  const int lo_index = h - 63;
  if (lo_index >= 0) {
    const int wd = lo_index / 64;
    const int sh = lo_index % 64;
    top64 = w[wd] >> sh;
    if (sh != 0 && wd + 1 < 4) top64 |= w[wd + 1] << (64 - sh);
    if (sh != 0) st = (w[wd] & low_mask(sh)) != 0;
    for (int i = 0; i < wd; ++i) st = st || w[i] != 0;
  } else {
    top64 = w[0] << -lo_index;
  }
  detail::finish_round(top64, st, negative, lo + h, prec, out);
  return true;
}

/// Runs one chunk's steps through the fused kernel, replicating
/// run_steps' per-step (round after every step) or idealized (one
/// rounding per instruction) register semantics. Returns false when any
/// step needs the generic path; no state is modified in that case, so
/// the caller can re-run the whole chunk through run_steps.
template <std::size_t kSteps>
bool run_steps_fused(const std::array<StepView, kSteps>& steps,
                     const fp::Unpacked& c, bool per_step_rounding, int prec,
                     fp::Unpacked* out) {
  StreamTerm terms[kMaxStreamTerms];
  if (per_step_rounding) {
    fp::Unpacked reg = c;
    for (const StepView& step : steps) {
      const int count = collect_products(step.a, step.b, terms, 0);
      if (count < 0 || !fused_round(terms, count, reg, prec, &reg)) {
        return false;
      }
    }
    *out = reg;
    return true;
  }
  int count = 0;
  for (const StepView& step : steps) {
    count = collect_products(step.a, step.b, terms, count);
    if (count < 0) return false;
  }
  return fused_round(terms, count, c, prec, out);
}

}  // namespace

void M3xuEngine::gemm_fp32_prepacked(const PackedPanelFp32A& a, int row0,
                                     const PackedPanelFp32B& b, int col0,
                                     int m, int n, float* c, int ldc) const {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(row0 >= 0 && m >= 0 && row0 + m <= a.rows);
  M3XU_CHECK(col0 >= 0 && n >= 0 && col0 + n <= b.cols);
  const int k = a.k;
  const int kc_max = shape_for(MxuMode::kFp32).k;
  const bool streaming = !config_.force_generic &&
      config_.injector == nullptr && !a.has_special && !b.has_special;
  thread_local std::array<StepOperands, 2> scratch;
  std::uint64_t n_fused = 0, n_fallback = 0, n_generic = 0;
  // Per-element loop over output sub-range [i0,i1) x [j0,j1); the
  // microkernel covers MR x NR blocks (shape from mk_block_resolve) and
  // edge tiles fall through to this path unless the resolved variant
  // takes partial blocks.
  const auto run_range = [&](int i0, int i1, int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    const LaneOperand* arow =
        a.lanes.data() + static_cast<std::size_t>(row0 + i) * 2 * k;
    const std::size_t abase = static_cast<std::size_t>(row0 + i) * k;
    for (int j = j0; j < j1; ++j) {
      const LaneOperand* blike =
          b.like.data() + static_cast<std::size_t>(col0 + j) * 2 * k;
      const LaneOperand* bswap =
          b.swapped.data() + static_cast<std::size_t>(col0 + j) * 2 * k;
      const std::size_t bbase = static_cast<std::size_t>(col0 + j) * k;
      float acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        std::array<StepView, 2> steps;
        if (streaming) {
          const std::span<const LaneOperand> av{arow + 2 * k0,
                                                static_cast<std::size_t>(2 * kc)};
          steps[0] = {av, {blike + 2 * k0, static_cast<std::size_t>(2 * kc)}};
          steps[1] = {av, {bswap + 2 * k0, static_cast<std::size_t>(2 * kc)}};
          fp::Unpacked r;
          if (run_steps_fused<2>(steps, fp::unpack(acc),
                                 config_.per_step_rounding,
                                 config_.accum_prec, &r)) {
            ++n_fused;
            acc = fp::pack_to_float(r);
            continue;
          }
          ++n_fallback;
        } else {
          ++n_generic;
          for (StepOperands& s : scratch) {
            s.a.clear();
            s.b.clear();
          }
          for (int kk = 0; kk < kc; ++kk) {
            const std::size_t e = static_cast<std::size_t>(k0) + kk;
            if (a.special[abase + e] || b.special[bbase + e]) {
              scratch[0].a.push_back(a.cls[abase + e]);
              scratch[0].b.push_back(b.cls[bbase + e]);
              continue;
            }
            const LaneOperand& ah = arow[2 * e];
            const LaneOperand& al = arow[2 * e + 1];
            const LaneOperand& bh = blike[2 * e];
            const LaneOperand& bl = blike[2 * e + 1];
            scratch[0].a.push_back(ah);
            scratch[0].b.push_back(bh);
            scratch[0].a.push_back(al);
            scratch[0].b.push_back(bl);
            scratch[1].a.push_back(ah);
            scratch[1].b.push_back(bl);
            scratch[1].a.push_back(al);
            scratch[1].b.push_back(bh);
          }
          for (StepOperands& s : scratch) {
            DataAssignmentStage::corrupt_step(
                config_.injector, s, DataAssignmentStage::kFp32PartBits);
          }
          steps[0] = view_of(scratch[0]);
          steps[1] = view_of(scratch[1]);
        }
        acc = fp::pack_to_float(
            run_steps<2>(steps, fp::unpack(acc), dp12_, config_.accum_prec));
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  };
  if (streaming && config_.enable_microkernel && k > 0) {
    M3XU_CHECK(kc_max == kPackChunkFp32);
    const MkBlockShape blk = mk_block_resolve(config_.mk_mr, config_.mk_nr);
    const MicrokernelParams mp{config_.per_step_rounding, config_.accum_prec,
                               config_.mk_variant, blk.mr, blk.nr,
                               config_.mk_prefetch};
    // A variant whose kernel masks partial blocks covers the edges too;
    // otherwise full blocks run here and the edges per element below.
    const bool partial = mk_partial_blocks(mk_variant_resolve(mp.variant));
    const int mb = partial ? m : m - m % blk.mr;
    const int nb = partial ? n : n - n % blk.nr;
    for (int i = 0; i < mb; i += blk.mr) {
      for (int j = 0; j < nb; j += blk.nr) {
        microkernel_fp32_block(a, row0 + i, b, col0 + j,
                               std::min(blk.mr, mb - i),
                               std::min(blk.nr, nb - j), dp12_, mp,
                               c + idx(i, ldc, j), ldc);
      }
    }
    run_range(0, mb, nb, n);  // right edge
    run_range(mb, m, 0, n);   // bottom edge
    rt_fp32_edge.add(area(mb, n - nb) + area(m - mb, n));
    rt_fp32_fused.add(n_fused);
    rt_fp32_fallback.add(n_fallback);
    trace_route_decisions("core.fp32.route.fallback",
                          "core.fp32.route.generic", n_fallback, 0);
    return;
  }
  run_range(0, m, 0, n);
  if (config_.injector != nullptr) {
    rt_fp32_inject.add(area(m, n));
  } else if (a.has_special || b.has_special) {
    rt_fp32_special.add(area(m, n));
  }
  rt_fp32_fused.add(n_fused);
  rt_fp32_fallback.add(n_fallback);
  rt_fp32_generic.add(n_generic);
  trace_route_decisions("core.fp32.route.fallback",
                        "core.fp32.route.generic", n_fallback, n_generic);
}

void M3xuEngine::gemm_fp32c_prepacked(const PackedPanelFp32cA& a, int row0,
                                      const PackedPanelFp32cB& b, int col0,
                                      int m, int n, std::complex<float>* c,
                                      int ldc) const {
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(row0 >= 0 && m >= 0 && row0 + m <= a.rows);
  M3XU_CHECK(col0 >= 0 && n >= 0 && col0 + n <= b.cols);
  const int k = a.k;
  const int kc_max = shape_for(MxuMode::kFp32Complex).k;
  const bool streaming = !config_.force_generic &&
      config_.injector == nullptr && !a.has_special && !b.has_special;
  std::uint64_t n_fused = 0, n_fallback = 0, n_generic = 0;
  // Scratch step order matches schedule_fp32c: real[0..1], imag[0..1].
  thread_local std::array<StepOperands, 4> scratch;
  // Appends one scalar product term x*y to a step pair, with x's lanes
  // (and bypass class) already carrying any sign flip.
  const auto emit_term = [](StepOperands& s0, StepOperands& s1,
                            const LaneOperand* x, const LaneOperand* y,
                            bool special, const LaneOperand& xcls,
                            const LaneOperand& ycls) {
    if (special) {
      s0.a.push_back(xcls);
      s0.b.push_back(ycls);
      return;
    }
    s0.a.push_back(x[0]);
    s0.b.push_back(y[0]);
    s0.a.push_back(x[1]);
    s0.b.push_back(y[1]);
    s1.a.push_back(x[0]);
    s1.b.push_back(y[1]);
    s1.a.push_back(x[1]);
    s1.b.push_back(y[0]);
  };
  // Per-element loop over [i0,i1) x [j0,j1); edge tiles around the
  // microkernel's full blocks fall through to this path unless the
  // resolved variant takes partial blocks.
  const auto run_range = [&](int i0, int i1, int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    const std::size_t arow = static_cast<std::size_t>(row0 + i) * k;
    const LaneOperand* are = a.real_lanes.data() + 4 * arow;
    const LaneOperand* aim = a.imag_lanes.data() + 4 * arow;
    for (int j = j0; j < j1; ++j) {
      const std::size_t bcol = static_cast<std::size_t>(col0 + j) * k;
      std::complex<float> acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        std::array<StepView, 2> real_steps;
        std::array<StepView, 2> imag_steps;
        if (streaming) {
          const std::size_t off = static_cast<std::size_t>(4) * k0;
          const std::size_t len = static_cast<std::size_t>(4) * kc;
          const std::span<const LaneOperand> ar{are + off, len};
          const std::span<const LaneOperand> ai{aim + off, len};
          const LaneOperand* brl = b.real_like.data() + 4 * bcol + off;
          const LaneOperand* brs = b.real_swap.data() + 4 * bcol + off;
          const LaneOperand* bil = b.imag_like.data() + 4 * bcol + off;
          const LaneOperand* bis = b.imag_swap.data() + 4 * bcol + off;
          real_steps[0] = {ar, {brl, len}};
          real_steps[1] = {ar, {brs, len}};
          imag_steps[0] = {ai, {bil, len}};
          imag_steps[1] = {ai, {bis, len}};
          fp::Unpacked re, im;
          if (run_steps_fused<2>(real_steps, fp::unpack(acc.real()),
                                 config_.per_step_rounding,
                                 config_.accum_prec, &re) &&
              run_steps_fused<2>(imag_steps, fp::unpack(acc.imag()),
                                 config_.per_step_rounding,
                                 config_.accum_prec, &im)) {
            ++n_fused;
            acc = {fp::pack_to_float(re), fp::pack_to_float(im)};
            continue;
          }
          ++n_fallback;
        } else {
          ++n_generic;
          for (StepOperands& s : scratch) {
            s.a.clear();
            s.b.clear();
          }
          for (int kk = 0; kk < kc; ++kk) {
            const std::size_t ae = arow + k0 + kk;  // global element index
            const std::size_t al = static_cast<std::size_t>(4) * (k0 + kk);
            const std::size_t be = bcol + k0 + kk;
            const bool as_re = a.special[2 * ae] != 0;
            const bool as_im = a.special[2 * ae + 1] != 0;
            const bool bs_re = b.special[2 * be] != 0;
            const bool bs_im = b.special[2 * be + 1] != 0;
            // B component lanes in canonical [brh, brl, bih, bil] order.
            const LaneOperand* bre = b.real_like.data() + 4 * be;
            const LaneOperand* bim = bre + 2;
            // Term order matches schedule_fp32c: AR*BR, -AI*BI into the
            // real steps; AR*BI, AI*BR into the imaginary steps.
            emit_term(scratch[0], scratch[1], are + al, bre,
                      as_re || bs_re, a.cls[2 * ae], b.cls[2 * be]);
            emit_term(scratch[0], scratch[1], are + al + 2, bim,
                      as_im || bs_im, a.cls[2 * ae + 1].negated(),
                      b.cls[2 * be + 1]);
            emit_term(scratch[2], scratch[3], aim + al, bim,
                      as_re || bs_im, a.cls[2 * ae], b.cls[2 * be + 1]);
            emit_term(scratch[2], scratch[3], aim + al + 2, bre,
                      as_im || bs_re, a.cls[2 * ae + 1], b.cls[2 * be]);
          }
          for (StepOperands& s : scratch) {
            DataAssignmentStage::corrupt_step(
                config_.injector, s, DataAssignmentStage::kFp32PartBits);
          }
          real_steps[0] = view_of(scratch[0]);
          real_steps[1] = view_of(scratch[1]);
          imag_steps[0] = view_of(scratch[2]);
          imag_steps[1] = view_of(scratch[3]);
        }
        const fp::Unpacked re = run_steps<2>(real_steps, fp::unpack(acc.real()),
                                             dp12_, config_.accum_prec);
        const fp::Unpacked im = run_steps<2>(imag_steps, fp::unpack(acc.imag()),
                                             dp12_, config_.accum_prec);
        acc = {fp::pack_to_float(re), fp::pack_to_float(im)};
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  };
  if (streaming && config_.enable_microkernel && k > 0) {
    M3XU_CHECK(kc_max == kPackChunkFp32c);
    const MkBlockShape blk = mk_block_resolve(config_.mk_mr, config_.mk_nr);
    const MicrokernelParams mp{config_.per_step_rounding, config_.accum_prec,
                               config_.mk_variant, blk.mr, blk.nr,
                               config_.mk_prefetch};
    // A variant whose kernel masks partial blocks covers the edges too;
    // otherwise full blocks run here and the edges per element below.
    const bool partial = mk_partial_blocks(mk_variant_resolve(mp.variant));
    const int mb = partial ? m : m - m % blk.mr;
    const int nb = partial ? n : n - n % blk.nr;
    for (int i = 0; i < mb; i += blk.mr) {
      for (int j = 0; j < nb; j += blk.nr) {
        microkernel_fp32c_block(a, row0 + i, b, col0 + j,
                                std::min(blk.mr, mb - i),
                                std::min(blk.nr, nb - j), dp12_, mp,
                                c + idx(i, ldc, j), ldc);
      }
    }
    run_range(0, mb, nb, n);  // right edge
    run_range(mb, m, 0, n);   // bottom edge
    rt_fp32c_edge.add(area(mb, n - nb) + area(m - mb, n));
    rt_fp32c_fused.add(n_fused);
    rt_fp32c_fallback.add(n_fallback);
    trace_route_decisions("core.fp32c.route.fallback",
                          "core.fp32c.route.generic", n_fallback, 0);
    return;
  }
  run_range(0, m, 0, n);
  if (config_.injector != nullptr) {
    rt_fp32c_inject.add(area(m, n));
  } else if (a.has_special || b.has_special) {
    rt_fp32c_special.add(area(m, n));
  }
  rt_fp32c_fused.add(n_fused);
  rt_fp32c_fallback.add(n_fallback);
  rt_fp32c_generic.add(n_generic);
  trace_route_decisions("core.fp32c.route.fallback",
                        "core.fp32c.route.generic", n_fallback, n_generic);
}

void M3xuEngine::gemm_fp32_packed(int m, int n, int k, const float* a,
                                  int lda, const float* b, int ldb, float* c,
                                  int ldc) const {
  thread_local PackedPanelFp32A pa;
  thread_local PackedPanelFp32B pb;
  pack_fp32_a(a, lda, m, k, pa);
  pack_fp32_b(b, ldb, k, n, pb);
  gemm_fp32_prepacked(pa, 0, pb, 0, m, n, c, ldc);
}

void M3xuEngine::gemm_fp32c_packed(int m, int n, int k,
                                   const std::complex<float>* a, int lda,
                                   const std::complex<float>* b, int ldb,
                                   std::complex<float>* c, int ldc) const {
  thread_local PackedPanelFp32cA pa;
  thread_local PackedPanelFp32cB pb;
  pack_fp32c_a(a, lda, m, k, pa);
  pack_fp32c_b(b, ldb, k, n, pb);
  gemm_fp32c_prepacked(pa, 0, pb, 0, m, n, c, ldc);
}

void M3xuEngine::gemm_fp64(int m, int n, int k, const double* a, int lda,
                           const double* b, int ldb, double* c,
                           int ldc) const {
  const int kc_max = shape_for(MxuMode::kFp64).k;
  std::vector<double> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        gather_column(b, ldb, j, k0, kc, bcol.data());
        acc = mma_dot_fp64({a + idx(i, lda, k0), static_cast<std::size_t>(kc)},
                           {bcol.data(), static_cast<std::size_t>(kc)}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

}  // namespace m3xu::core
