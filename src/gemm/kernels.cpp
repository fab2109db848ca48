#include "gemm/kernels.hpp"

#include <vector>

#include "common/thread_pool.hpp"
#include "core/packed_panel.hpp"
#include "fp/split.hpp"
#include "gemm/reference.hpp"
#include "telemetry/trace.hpp"

namespace m3xu::gemm {

namespace {

/// Partitions [0, rows) into blocks and runs fn(row_begin, row_count)
/// on the global pool. Blocks are fixed-size so results are identical
/// for any thread count.
void over_row_blocks(int rows,
                     const std::function<void(int, int)>& fn) {
  constexpr int kBlock = 32;
  const int blocks = (rows + kBlock - 1) / kBlock;
  parallel_for(static_cast<std::size_t>(blocks), [&](std::size_t b) {
    const int r0 = static_cast<int>(b) * kBlock;
    fn(r0, std::min(kBlock, rows - r0));
  });
}

void check_shapes(int am, int ak, int bk, int bn, int cm, int cn) {
  M3XU_CHECK(ak == bk);
  M3XU_CHECK(am == cm);
  M3XU_CHECK(bn == cn);
}

/// One TF32 Tensor-Core GEMM pass: C += A*B over row blocks.
void tf32_pass(const core::M3xuEngine& engine, const Matrix<float>& a,
               const Matrix<float>& b, Matrix<float>& c) {
  over_row_blocks(a.rows(), [&](int r0, int rc) {
    engine.gemm_tf32(rc, b.cols(), a.cols(), a.data() + r0 * a.ld(), a.ld(),
                     b.data(), b.ld(), c.data() + r0 * c.ld(), c.ld());
  });
}

void bf16_pass(const core::M3xuEngine& engine, const Matrix<float>& a,
               const Matrix<float>& b, Matrix<float>& c) {
  // Convert the (bf16-exact) float planes to BF16 storage fragments.
  Matrix<fp::Bf16> ab(a.rows(), a.cols());
  Matrix<fp::Bf16> bb(b.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) ab(i, j) = fp::Bf16::from_float(a(i, j));
  }
  for (int i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) bb(i, j) = fp::Bf16::from_float(b(i, j));
  }
  over_row_blocks(a.rows(), [&](int r0, int rc) {
    engine.gemm_bf16(rc, b.cols(), a.cols(), ab.data() + r0 * ab.ld(), ab.ld(),
                     bb.data(), bb.ld(), c.data() + r0 * c.ld(), c.ld());
  });
}

}  // namespace

const char* kernel_name(SgemmKernel k) {
  switch (k) {
    case SgemmKernel::kSimt:
      return "cutlass_simt_sgemm";
    case SgemmKernel::kTensorOp3xTf32:
      return "cutlass_tensorop_sgemm";
    case SgemmKernel::kTensorOp4xTf32:
      return "cutlass_tensorop_sgemm_4x";
    case SgemmKernel::kEehc3xBf16:
      return "EEHC_sgemm_fp32B";
    case SgemmKernel::kM3xu:
      return "m3xu_sgemm";
  }
  return "?";
}

const char* kernel_name(CgemmKernel k) {
  switch (k) {
    case CgemmKernel::kSimt:
      return "cutlass_simt_cgemm";
    case CgemmKernel::kTensorOp3xTf32:
      return "cutlass_tensorop_cgemm";
    case CgemmKernel::kM3xu:
      return "m3xu_cgemm";
  }
  return "?";
}

SplitMatrices split_matrix(const Matrix<float>& m, const fp::FloatFormat& fmt) {
  SplitMatrices s{Matrix<float>(m.rows(), m.cols()),
                  Matrix<float>(m.rows(), m.cols())};
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      const fp::SwSplit2 parts = fp::split_float_sw(m(i, j), fmt);
      s.hi(i, j) = parts.hi;
      s.lo(i, j) = parts.lo;
    }
  }
  return s;
}

ComplexPlanes planes(const Matrix<std::complex<float>>& m) {
  ComplexPlanes p{Matrix<float>(m.rows(), m.cols()),
                  Matrix<float>(m.rows(), m.cols())};
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      p.re(i, j) = m(i, j).real();
      p.im(i, j) = m(i, j).imag();
    }
  }
  return p;
}

void run_sgemm(SgemmKernel kernel, const core::M3xuEngine& engine,
               const Matrix<float>& a, const Matrix<float>& b,
               Matrix<float>& c) {
  check_shapes(a.rows(), a.cols(), b.rows(), b.cols(), c.rows(), c.cols());
  switch (kernel) {
    case SgemmKernel::kSimt:
      simt_sgemm(a, b, c);
      return;
    case SgemmKernel::kTensorOp3xTf32:
    case SgemmKernel::kTensorOp4xTf32: {
      const SplitMatrices sa = split_matrix(a, fp::kTf32);
      const SplitMatrices sb = split_matrix(b, fp::kTf32);
      // Small terms first (CUTLASS accumulates the dominant hi*hi last
      // to preserve its bits in the FP32 accumulator).
      if (kernel == SgemmKernel::kTensorOp4xTf32) {
        tf32_pass(engine, sa.lo, sb.lo, c);
      }
      tf32_pass(engine, sa.hi, sb.lo, c);
      tf32_pass(engine, sa.lo, sb.hi, c);
      tf32_pass(engine, sa.hi, sb.hi, c);
      return;
    }
    case SgemmKernel::kEehc3xBf16: {
      const SplitMatrices sa = split_matrix(a, fp::kBf16);
      const SplitMatrices sb = split_matrix(b, fp::kBf16);
      bf16_pass(engine, sa.hi, sb.lo, c);
      bf16_pass(engine, sa.lo, sb.hi, c);
      bf16_pass(engine, sa.hi, sb.hi, c);
      return;
    }
    case SgemmKernel::kM3xu: {
      // Packed fast path: B is packed once and shared read-only across
      // all row blocks; each block packs only its own A rows.
      const telemetry::ScopedTimer total_span("sgemm.m3xu");
      core::PackedPanelFp32B pb;
      {
        const telemetry::ScopedTimer span("sgemm.pack_b");
        core::pack_fp32_b(b.data(), b.ld(), b.rows(), b.cols(), pb);
      }
      over_row_blocks(a.rows(), [&](int r0, int rc) {
        const telemetry::ScopedTimer span("sgemm.row_block");
        core::PackedPanelFp32A pa;
        core::pack_fp32_a(a.data() + static_cast<std::size_t>(r0) * a.ld(),
                          a.ld(), rc, a.cols(), pa);
        engine.gemm_fp32_prepacked(
            pa, 0, pb, 0, rc, b.cols(),
            c.data() + static_cast<std::size_t>(r0) * c.ld(), c.ld());
      });
      return;
    }
  }
}

void run_cgemm(CgemmKernel kernel, const core::M3xuEngine& engine,
               const Matrix<std::complex<float>>& a,
               const Matrix<std::complex<float>>& b,
               Matrix<std::complex<float>>& c) {
  check_shapes(a.rows(), a.cols(), b.rows(), b.cols(), c.rows(), c.cols());
  switch (kernel) {
    case CgemmKernel::kSimt:
      simt_cgemm(a, b, c);
      return;
    case CgemmKernel::kTensorOp3xTf32: {
      // Complex GEMM as four real GEMMs (RR, II, RI, IR), each emulated
      // with the 3xTF32 scheme.
      const ComplexPlanes pa = planes(a);
      const ComplexPlanes pb = planes(b);
      ComplexPlanes pc = planes(c);
      Matrix<float> neg_ai(a.rows(), a.cols());
      for (int i = 0; i < a.rows(); ++i) {
        for (int j = 0; j < a.cols(); ++j) neg_ai(i, j) = -pa.im(i, j);
      }
      run_sgemm(SgemmKernel::kTensorOp3xTf32, engine, pa.re, pb.re, pc.re);
      run_sgemm(SgemmKernel::kTensorOp3xTf32, engine, neg_ai, pb.im, pc.re);
      run_sgemm(SgemmKernel::kTensorOp3xTf32, engine, pa.re, pb.im, pc.im);
      run_sgemm(SgemmKernel::kTensorOp3xTf32, engine, pa.im, pb.re, pc.im);
      for (int i = 0; i < c.rows(); ++i) {
        for (int j = 0; j < c.cols(); ++j) {
          c(i, j) = {pc.re(i, j), pc.im(i, j)};
        }
      }
      return;
    }
    case CgemmKernel::kM3xu: {
      const telemetry::ScopedTimer total_span("cgemm.m3xu");
      core::PackedPanelFp32cB pb;
      {
        const telemetry::ScopedTimer span("cgemm.pack_b");
        core::pack_fp32c_b(b.data(), b.ld(), b.rows(), b.cols(), pb);
      }
      over_row_blocks(a.rows(), [&](int r0, int rc) {
        const telemetry::ScopedTimer span("cgemm.row_block");
        core::PackedPanelFp32cA pa;
        core::pack_fp32c_a(a.data() + static_cast<std::size_t>(r0) * a.ld(),
                           a.ld(), rc, a.cols(), pa);
        engine.gemm_fp32c_prepacked(
            pa, 0, pb, 0, rc, b.cols(),
            c.data() + static_cast<std::size_t>(r0) * c.ld(), c.ld());
      });
      return;
    }
  }
}

void tensorop_hgemm(const core::M3xuEngine& engine, const Matrix<float>& a,
                    const Matrix<float>& b, Matrix<float>& c) {
  check_shapes(a.rows(), a.cols(), b.rows(), b.cols(), c.rows(), c.cols());
  Matrix<fp::Half> ah(a.rows(), a.cols());
  Matrix<fp::Half> bh(b.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) ah(i, j) = fp::Half::from_float(a(i, j));
  }
  for (int i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) bh(i, j) = fp::Half::from_float(b(i, j));
  }
  over_row_blocks(a.rows(), [&](int r0, int rc) {
    engine.gemm_fp16(rc, b.cols(), a.cols(), ah.data() + r0 * ah.ld(), ah.ld(),
                     bh.data(), bh.ld(), c.data() + r0 * c.ld(), c.ld());
  });
}

}  // namespace m3xu::gemm
