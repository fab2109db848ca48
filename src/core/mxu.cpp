#include "core/mxu.hpp"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/microkernel.hpp"
#include "fault/injector.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::core {

namespace {

// Route counters for the FP32/FP32c datapaths (no-ops when
// M3XU_TELEMETRY=OFF). "chunks" are kc_max-element dot fragments:
// generic = per-dot instructions because the panel holds specials, an
// injector is attached, or the engine forces the generic route (the
// microkernel counts its own (element, chunk) pairs). "elements"
// attribute whole C outputs to the route that produced them. Counts
// are accumulated in function-local variables and flushed once per
// call.
struct RouteCounters {
  telemetry::Counter generic;
  telemetry::Counter special;
  telemetry::Counter inject;
  telemetry::Counter perdot;
};
RouteCounters rt_fp32{telemetry::Counter("mxu.fp32.chunks.generic"),
                      telemetry::Counter("mxu.fp32.elements.bypass_special"),
                      telemetry::Counter("mxu.fp32.elements.bypass_injector"),
                      telemetry::Counter("mxu.fp32.elements.perdot")};
RouteCounters rt_fp32c{telemetry::Counter("mxu.fp32c.chunks.generic"),
                       telemetry::Counter("mxu.fp32c.elements.bypass_special"),
                       telemetry::Counter("mxu.fp32c.elements.bypass_injector"),
                       telemetry::Counter("mxu.fp32c.elements.perdot")};

inline std::uint64_t area(int rows, int cols) {
  return static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
}

// Attributes non-microkernel route decisions to the active request
// trace, if one is installed on this thread (the tiled driver installs
// it around each tile): microkernel pairs that fell back to the generic
// route, and whole calls that took the generic route. event_once keeps
// the per-request log bounded no matter how many panel calls the
// request issues.
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
  M3XU_CHECK((config_.mk_mr == 0 && config_.mk_nr == 0) ||
             mk_block_supported(config_.mk_mr, config_.mk_nr));
}

float M3xuEngine::mma_dot_fp32(std::span<const float> a,
                               std::span<const float> b, float c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp32).k);
  const auto steps = DataAssignmentStage::schedule_fp32(a, b, config_.injector);
  const fp::Unpacked r = dp12_.run_steps(steps, fp::unpack(c),
                                         config_.accum_prec,
                                         config_.per_step_rounding);
  return fp::pack_to_float(r);
}

float M3xuEngine::mma_dot_passthrough(std::span<const float> a,
                                      std::span<const float> b, float c,
                                      const fp::FloatFormat& fmt) const {
  const std::array<StepOperands, 1> steps = {
      DataAssignmentStage::schedule_passthrough(a, b, fmt, config_.injector)};
  // Stock Tensor-Core accumulation: FP32 registers.
  const fp::Unpacked r =
      dp12_.run_steps(steps, fp::unpack(c), fp::ExtFloat::kFp32AccumPrec,
                      config_.per_step_rounding);
  return fp::pack_to_float(r);
}

std::complex<float> M3xuEngine::mma_dot_fp32c(
    std::span<const std::complex<float>> a,
    std::span<const std::complex<float>> b, std::complex<float> c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp32Complex).k);
  const auto sched = DataAssignmentStage::schedule_fp32c(a, b, config_.injector);
  const fp::Unpacked re =
      dp12_.run_steps(sched.real, fp::unpack(c.real()), config_.accum_prec,
                      config_.per_step_rounding);
  const fp::Unpacked im =
      dp12_.run_steps(sched.imag, fp::unpack(c.imag()), config_.accum_prec,
                      config_.per_step_rounding);
  return {fp::pack_to_float(re), fp::pack_to_float(im)};
}

double M3xuEngine::mma_dot_fp64(std::span<const double> a,
                                std::span<const double> b, double c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp64).k);
  const auto steps = DataAssignmentStage::schedule_fp64(a, b, config_.injector);
  const fp::Unpacked r =
      dp27_.run_steps(steps, fp::unpack(c), fp::ExtFloat::kFp64AccumPrec,
                      config_.per_step_rounding);
  return fp::pack_to_double(r);
}

std::complex<double> M3xuEngine::mma_dot_fp64c(
    std::span<const std::complex<double>> a,
    std::span<const std::complex<double>> b, std::complex<double> c) const {
  M3XU_CHECK(static_cast<int>(a.size()) <= shape_for(MxuMode::kFp64Complex).k);
  const auto sched = DataAssignmentStage::schedule_fp64c(a, b, config_.injector);
  const fp::Unpacked re =
      dp27_.run_steps(sched.real, fp::unpack(c.real()),
                      fp::ExtFloat::kFp64AccumPrec, config_.per_step_rounding);
  const fp::Unpacked im =
      dp27_.run_steps(sched.imag, fp::unpack(c.imag()),
                      fp::ExtFloat::kFp64AccumPrec, config_.per_step_rounding);
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

/// The register a stored element occupies: FP16 and BF16 widen to
/// float, every other type is its own register.
inline float reg_of(fp::Half x) { return x.to_float(); }
inline float reg_of(fp::Bf16 x) { return x.to_float(); }
template <typename T>
T reg_of(T x) {
  return x;
}

/// The flat per-dot loop behind every gemm_* entry: each output runs
/// its K in kc_max-element instruction chunks, gathering each chunk's A
/// row and B column into operand registers (the shared-memory ->
/// register fragment loads) and feeding them to `dot` with the running
/// accumulator.
template <typename TIn, typename TAcc, typename Dot>
void perdot_gemm(int m, int n, int k, int kc_max, const TIn* a, int lda,
                 const TIn* b, int ldb, TAcc* c, int ldc, const Dot& dot) {
  using Reg = decltype(reg_of(std::declval<TIn>()));
  std::vector<Reg> arow(static_cast<std::size_t>(kc_max));
  std::vector<Reg> bcol(static_cast<std::size_t>(kc_max));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      TAcc acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const int kc = std::min(kc_max, k - k0);
        for (int kk = 0; kk < kc; ++kk) {
          arow[kk] = reg_of(a[idx(i, lda, k0 + kk)]);
          bcol[kk] = reg_of(b[idx(k0 + kk, ldb, j)]);
        }
        const auto n_kc = static_cast<std::size_t>(kc);
        acc = dot(std::span<const Reg>(arow.data(), n_kc),
                  std::span<const Reg>(bcol.data(), n_kc), acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
}

}  // namespace

void M3xuEngine::gemm_fp32(int m, int n, int k, const float* a, int lda,
                           const float* b, int ldb, float* c, int ldc) const {
  perdot_gemm(m, n, k, shape_for(MxuMode::kFp32).k, a, lda, b, ldb, c, ldc,
              [this](auto x, auto y, float acc) {
                return mma_dot_fp32(x, y, acc);
              });
  rt_fp32.perdot.add(area(m, n));
}

void M3xuEngine::gemm_fp16(int m, int n, int k, const fp::Half* a, int lda,
                           const fp::Half* b, int ldb, float* c,
                           int ldc) const {
  perdot_gemm(m, n, k, shape_for(MxuMode::kFp16).k, a, lda, b, ldb, c, ldc,
              [this](auto x, auto y, float acc) {
                return mma_dot_passthrough(x, y, acc, fp::kFp16);
              });
}

void M3xuEngine::gemm_bf16(int m, int n, int k, const fp::Bf16* a, int lda,
                           const fp::Bf16* b, int ldb, float* c,
                           int ldc) const {
  perdot_gemm(m, n, k, shape_for(MxuMode::kBf16).k, a, lda, b, ldb, c, ldc,
              [this](auto x, auto y, float acc) {
                return mma_dot_passthrough(x, y, acc, fp::kBf16);
              });
}

void M3xuEngine::gemm_tf32(int m, int n, int k, const float* a, int lda,
                           const float* b, int ldb, float* c, int ldc) const {
  // The stage rounds FP32 register contents to TF32 on ingest.
  perdot_gemm(m, n, k, shape_for(MxuMode::kTf32).k, a, lda, b, ldb, c, ldc,
              [this](auto x, auto y, float acc) {
                return mma_dot_passthrough(x, y, acc, fp::kTf32);
              });
}

void M3xuEngine::gemm_fp32c(int m, int n, int k, const std::complex<float>* a,
                            int lda, const std::complex<float>* b, int ldb,
                            std::complex<float>* c, int ldc) const {
  perdot_gemm(m, n, k, shape_for(MxuMode::kFp32Complex).k, a, lda, b, ldb, c,
              ldc, [this](auto x, auto y, std::complex<float> acc) {
                return mma_dot_fp32c(x, y, acc);
              });
  rt_fp32c.perdot.add(area(m, n));
}

void M3xuEngine::gemm_fp64(int m, int n, int k, const double* a, int lda,
                           const double* b, int ldb, double* c,
                           int ldc) const {
  perdot_gemm(m, n, k, shape_for(MxuMode::kFp64).k, a, lda, b, ldb, c, ldc,
              [this](auto x, auto y, double acc) {
                return mma_dot_fp64(x, y, acc);
              });
}

void M3xuEngine::gemm_fp64c(int m, int n, int k,
                            const std::complex<double>* a, int lda,
                            const std::complex<double>* b, int ldb,
                            std::complex<double>* c, int ldc) const {
  perdot_gemm(m, n, k, shape_for(MxuMode::kFp64Complex).k, a, lda, b, ldb, c,
              ldc, [this](auto x, auto y, std::complex<double> acc) {
                return mma_dot_fp64c(x, y, acc);
              });
}

// --- Packed-operand path ----------------------------------------------
//
// Special-free, injector-free calls run the register-blocked
// microkernel over strips of kStripRows x NR, partial at the right and
// bottom edges (core/microkernel.hpp). Otherwise every (i, j, k-chunk) runs the
// per-dot instruction (mma_dot_fp32 / mma_dot_fp32c) over the panels'
// words: element-level special bypass depends on the operand *pair*,
// and operand-buffer fault opportunities must fire in the per-dot
// order, both of which the per-dot schedule gives by construction.

namespace {

/// The microkernel route applies: no specials in either panel (the
/// microkernel has no special-operand handling), no injector (it has no
/// fault hooks), the engine does not force the generic route, and there
/// is K to accumulate (an empty K leaves C as it is on either route).
bool microkernel_route(const M3xuConfig& cfg, bool a_special,
                       bool b_special, int k) {
  return !cfg.force_generic && cfg.injector == nullptr && !a_special &&
         !b_special && k > 0;
}

MicrokernelParams microkernel_params(const M3xuConfig& cfg) {
  const MkBlockShape blk = mk_block_resolve(cfg.mk_mr, cfg.mk_nr);
  return {cfg.per_step_rounding, cfg.accum_prec, cfg.mk_variant, blk.mr,
          blk.nr};
}

/// What the packed body reads per datapath, keyed by C's element type:
/// the instruction mode (its K is the panels' prescan chunk), the
/// per-dot instruction, the route counters and the trace event names.
template <typename T>
struct PackedFamily;

template <>
struct PackedFamily<float> {
  static constexpr MxuMode kMode = MxuMode::kFp32;
  static constexpr int kChunk = kPackChunkFp32;
  static constexpr auto kDot = &M3xuEngine::mma_dot_fp32;
  static constexpr const char* kFallbackEvent = "core.fp32.route.fallback";
  static constexpr const char* kGenericEvent = "core.fp32.route.generic";
  static RouteCounters& counters() { return rt_fp32; }
};

template <>
struct PackedFamily<std::complex<float>> {
  static constexpr MxuMode kMode = MxuMode::kFp32Complex;
  static constexpr int kChunk = kPackChunkFp32c;
  static constexpr auto kDot = &M3xuEngine::mma_dot_fp32c;
  static constexpr const char* kFallbackEvent = "core.fp32c.route.fallback";
  static constexpr const char* kGenericEvent = "core.fp32c.route.generic";
  static RouteCounters& counters() { return rt_fp32c; }
};

}  // namespace

template <typename PanelA, typename PanelB, typename T>
void M3xuEngine::gemm_prepacked(const PanelA& a, int row0, const PanelB& b,
                                int col0, int m, int n, T* c,
                                int ldc) const {
  using F = PackedFamily<T>;
  M3XU_CHECK(a.k == b.k);
  M3XU_CHECK(row0 >= 0 && m >= 0 && row0 + m <= a.rows);
  M3XU_CHECK(col0 >= 0 && n >= 0 && col0 + n <= b.cols);
  const int k = a.k;
  const int kc_max = shape_for(F::kMode).k;
  M3XU_CHECK(kc_max == F::kChunk);
  if (microkernel_route(config_, a.has_special, b.has_special, k)) {
    const MicrokernelParams mp = microkernel_params(config_);
    std::uint64_t n_fallback = 0;
    for (int i = 0; i < m; i += kStripRows) {
      for (int j = 0; j < n; j += mp.nr) {
        n_fallback += microkernel_strip(
            a, row0 + i, b, col0 + j, std::min(kStripRows, m - i),
            std::min(mp.nr, n - j), dp12_, mp, c + idx(i, ldc, j), ldc);
      }
    }
    trace_route_decisions(F::kFallbackEvent, F::kGenericEvent, n_fallback,
                          0);
    return;
  }
  T av[F::kChunk];
  T bv[F::kChunk];
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T acc = c[idx(i, ldc, j)];
      for (int k0 = 0; k0 < k; k0 += kc_max) {
        const auto kc = static_cast<std::size_t>(std::min(kc_max, k - k0));
        panel_chunk(a, row0 + i, k0, static_cast<int>(kc), av);
        panel_chunk(b, col0 + j, k0, static_cast<int>(kc), bv);
        acc = (this->*F::kDot)({av, kc}, {bv, kc}, acc);
      }
      c[idx(i, ldc, j)] = acc;
    }
  }
  const std::uint64_t n_generic =
      area(m, n) * static_cast<std::uint64_t>(panel_chunk_count(k, kc_max));
  RouteCounters& rt = F::counters();
  if (config_.injector != nullptr) {
    rt.inject.add(area(m, n));
  } else if (a.has_special || b.has_special) {
    rt.special.add(area(m, n));
  }
  rt.generic.add(n_generic);
  trace_route_decisions(F::kFallbackEvent, F::kGenericEvent, 0, n_generic);
}

void M3xuEngine::gemm_fp32_prepacked(const PackedPanelFp32A& a, int row0,
                                     const PackedPanelFp32B& b, int col0,
                                     int m, int n, float* c, int ldc) const {
  gemm_prepacked(a, row0, b, col0, m, n, c, ldc);
}

void M3xuEngine::gemm_fp32c_prepacked(const PackedPanelFp32cA& a, int row0,
                                      const PackedPanelFp32cB& b, int col0,
                                      int m, int n, std::complex<float>* c,
                                      int ldc) const {
  gemm_prepacked(a, row0, b, col0, m, n, c, ldc);
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

}  // namespace m3xu::core
