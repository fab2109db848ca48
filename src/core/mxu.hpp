// M3XU: the multi-mode matrix unit (the paper's contribution).
//
// One engine supports, on the *same* 12-bit multipliers:
//   - the baseline low-precision modes (FP16 / BF16 / TF32, one step),
//   - true IEEE FP32 MMA in two steps (SIV-A),
//   - FP32 complex MMA in four steps (SIV-B),
//   - FP64 MMA in four steps on 27-bit sub-multipliers (SIV-C).
//
// Arithmetic contract (see DESIGN.md S5): within one MMA instruction a
// dot-product unit's step sums its aligned partial products exactly
// (idealized adder tree); accumulation registers are ExtFloat with a
// configurable significand width (48 bits for M3XU, 24 for the stock
// Tensor-Core FP32 accumulate). Every partial product is exact, so the
// only error sources are the architecturally visible register
// roundings - the property behind the paper's "no additional error
// compared to conventional FP32 ALUs" claim, which the test suite
// verifies.
//
// GEMM-level entry points chunk K by the mode's instruction shape and
// round into the FP32 (or FP64) accumulator fragment per instruction,
// exactly like a CUTLASS mainloop issuing one mma.sync per K-chunk.
#pragma once

#include <complex>
#include <span>

#include "core/data_assignment.hpp"
#include "core/dp_unit.hpp"
#include "core/microkernel.hpp"
#include "core/packed_panel.hpp"
#include "fp/ext_float.hpp"
#include "fp/types.hpp"

namespace m3xu::core {

enum class MxuMode {
  kFp16,
  kBf16,
  kTf32,
  kFp32,
  kFp32Complex,
  kFp64,
  kFp64Complex,
};

/// Instruction-level MMA shape (mma.sync granularity on Ampere).
struct MmaShape {
  int m;
  int n;
  int k;
};

/// Shape of one MMA instruction in each mode. FP32 halves the K of the
/// FP16 instruction (Observation 1); FP32C/FP64 quarter it.
MmaShape shape_for(MxuMode mode);

/// Dot-product-unit steps one instruction takes (1 / 2 / 4).
int steps_for(MxuMode mode);

/// Human-readable mode name for harness output.
const char* mode_name(MxuMode mode);

struct M3xuConfig {
  /// true  = round into the accumulation register after every step
  ///         (faithful to the 48-bit register datapath);
  /// false = idealized single rounding per MMA instruction (ablation).
  bool per_step_rounding = true;
  /// Accumulation-register significand width for FP32/FP32C modes.
  /// The FP64 modes accumulate in FP64 registers
  /// (fp::ExtFloat::kFp64AccumPrec).
  int accum_prec = fp::ExtFloat::kM3xuAccumPrec;
  /// Force the packed entry points down the generic per-dot route
  /// (mma_dot_fp32{,c} over the panel words) instead of the
  /// register-blocked microkernel, even for special-free panels.
  /// Bit-identical by construction (same step schedule and rounding
  /// points); the tiled driver's recovery ladder uses it as the
  /// demotion rung below the microkernel. See docs/RESILIENCE.md.
  bool force_generic = false;
  /// Microkernel SIMD variant (core/microkernel.hpp). kAuto resolves
  /// to the widest variant the CPU supports; every variant is
  /// bit-identical, so this is a throughput / reproduction knob.
  MkVariant mk_variant = MkVariant::kAuto;
  /// Microkernel register-block shape. (0, 0) - the default - picks
  /// the per-CPU shape (mk_block_resolve); anything else must be a
  /// supported pair (4x4 / 8x8), checked at engine construction.
  int mk_mr = 0;
  int mk_nr = 0;
  /// Optional transient-fault injector (non-owning; must outlive the
  /// engine). Null - the default - keeps every datapath fault-free and
  /// the hot path unchanged. When set, the engine threads it through
  /// the data-assignment stage (operand sites), the dot-product units
  /// (partial-product site) and the accumulation-register updates
  /// (accumulator site). See docs/FAULT_INJECTION.md.
  const fault::FaultInjector* injector = nullptr;
};

class M3xuEngine {
 public:
  explicit M3xuEngine(const M3xuConfig& config = {});

  const M3xuConfig& config() const { return config_; }

  // --- Instruction-level dot products (one output element) -----------
  // k must not exceed shape_for(mode).k; tests drive these directly.

  /// FP32 mode: d = round_fp32(sum_k a[k]*b[k] + c) with exact products.
  float mma_dot_fp32(std::span<const float> a, std::span<const float> b,
                     float c) const;

  /// Passthrough modes (FP16/BF16/TF32 inputs as floats, FP32 accum).
  float mma_dot_passthrough(std::span<const float> a,
                            std::span<const float> b, float c,
                            const fp::FloatFormat& fmt) const;

  /// FP32C mode.
  std::complex<float> mma_dot_fp32c(std::span<const std::complex<float>> a,
                                    std::span<const std::complex<float>> b,
                                    std::complex<float> c) const;

  /// FP64 mode.
  double mma_dot_fp64(std::span<const double> a, std::span<const double> b,
                      double c) const;

  /// FP64 complex mode (8 steps).
  std::complex<double> mma_dot_fp64c(std::span<const std::complex<double>> a,
                                     std::span<const std::complex<double>> b,
                                     std::complex<double> c) const;

  // --- GEMM-level entry points: C <- A*B + C --------------------------
  // Row-major with leading dimensions; K is chunked by the mode's
  // instruction shape (each chunk is one MMA's rounding boundary).

  void gemm_fp32(int m, int n, int k, const float* a, int lda,
                 const float* b, int ldb, float* c, int ldc) const;
  void gemm_fp16(int m, int n, int k, const fp::Half* a, int lda,
                 const fp::Half* b, int ldb, float* c, int ldc) const;
  void gemm_bf16(int m, int n, int k, const fp::Bf16* a, int lda,
                 const fp::Bf16* b, int ldb, float* c, int ldc) const;
  void gemm_tf32(int m, int n, int k, const float* a, int lda,
                 const float* b, int ldb, float* c, int ldc) const;
  void gemm_fp32c(int m, int n, int k, const std::complex<float>* a, int lda,
                  const std::complex<float>* b, int ldb,
                  std::complex<float>* c, int ldc) const;
  void gemm_fp64(int m, int n, int k, const double* a, int lda,
                 const double* b, int ldb, double* c, int ldc) const;
  void gemm_fp64c(int m, int n, int k, const std::complex<double>* a,
                  int lda, const std::complex<double>* b, int ldb,
                  std::complex<double>* c, int ldc) const;

  // --- Packed-operand path (core/packed_panel.hpp) --------------------
  // Bit-identical to gemm_fp32 / gemm_fp32c - same step schedule, same
  // rounding points, same fault-opportunity order. Special-free,
  // injector-free calls run the register-blocked microkernel
  // (core/microkernel.hpp) over full and partial blocks, which splits
  // the panels' words in registers; everything else runs
  // mma_dot_fp32 / mma_dot_fp32c per (i, j, k-chunk) over the words.

  void gemm_fp32_packed(int m, int n, int k, const float* a, int lda,
                        const float* b, int ldb, float* c, int ldc) const;
  void gemm_fp32c_packed(int m, int n, int k, const std::complex<float>* a,
                         int lda, const std::complex<float>* b, int ldb,
                         std::complex<float>* c, int ldc) const;

  /// GEMM over panels packed by the caller (the tiled driver packs at
  /// stage time). Computes the [row0, row0+m) x [col0, col0+n) block of
  /// A*B over the panels' full shared K, accumulating into C.
  void gemm_fp32_prepacked(const PackedPanelFp32A& a, int row0,
                           const PackedPanelFp32B& b, int col0, int m, int n,
                           float* c, int ldc) const;
  void gemm_fp32c_prepacked(const PackedPanelFp32cA& a, int row0,
                            const PackedPanelFp32cB& b, int col0, int m,
                            int n, std::complex<float>* c, int ldc) const;

 private:
  /// The one body behind gemm_fp32{,c}_prepacked: the route decision,
  /// the microkernel walk or the generic per-dot walk, and the route
  /// counters and trace events of the panels' datapath.
  template <typename PanelA, typename PanelB, typename T>
  void gemm_prepacked(const PanelA& a, int row0, const PanelB& b, int col0,
                      int m, int n, T* c, int ldc) const;

  M3xuConfig config_;
  DpUnit dp12_;  // 12-bit multipliers (FP16..FP32C modes)
  DpUnit dp27_;  // 27-bit sub-multipliers (FP64 mode)
};

}  // namespace m3xu::core
