// Quantum-circuit simulation on the M3XU FP32C engine (one of the
// workloads the paper's introduction motivates: qubit states and gates
// are complex matrices).
//
// Builds a 5-qubit GHZ circuit and a 5-qubit QFT by composing full
// 32x32 gate unitaries with complex GEMMs on the engine, then applies
// them to basis states and checks the expected amplitude structure.
//
//   $ ./examples/quantum_sim
#include <cmath>
#include <complex>
#include <cstdio>
#include <vector>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"

using namespace m3xu;
using C = std::complex<float>;
using CMat = gemm::Matrix<C>;

namespace {

constexpr int kQubits = 5;
constexpr int kDim = 1 << kQubits;

CMat identity() {
  CMat m(kDim, kDim);
  m.fill({});
  for (int i = 0; i < kDim; ++i) m(i, i) = {1.0f, 0.0f};
  return m;
}

/// Lifts a 2x2 gate on `target` to the full register.
CMat one_qubit_gate(const C g[2][2], int target) {
  CMat m(kDim, kDim);
  m.fill({});
  const int bit = 1 << target;
  for (int col = 0; col < kDim; ++col) {
    const int b = (col & bit) ? 1 : 0;
    for (int a = 0; a < 2; ++a) {
      const int row = (col & ~bit) | (a ? bit : 0);
      m(row, col) = g[a][b];
    }
  }
  return m;
}

/// Controlled-phase gate between `control` and `target`.
CMat controlled_phase(int control, int target, double angle) {
  CMat m = identity();
  const int cb = 1 << control, tb = 1 << target;
  for (int i = 0; i < kDim; ++i) {
    if ((i & cb) && (i & tb)) {
      m(i, i) = {static_cast<float>(std::cos(angle)),
                 static_cast<float>(std::sin(angle))};
    }
  }
  return m;
}

CMat cnot(int control, int target) {
  CMat m(kDim, kDim);
  m.fill({});
  const int cb = 1 << control, tb = 1 << target;
  for (int col = 0; col < kDim; ++col) {
    const int row = (col & cb) ? (col ^ tb) : col;
    m(row, col) = {1.0f, 0.0f};
  }
  return m;
}

CMat hadamard(int target) {
  const float s = static_cast<float>(1.0 / std::sqrt(2.0));
  const C h[2][2] = {{{s, 0}, {s, 0}}, {{s, 0}, {-s, 0}}};
  return one_qubit_gate(h, target);
}

/// U = G * U via the M3XU complex GEMM.
void apply(const core::M3xuEngine& engine, const CMat& gate, CMat& u) {
  CMat out(kDim, kDim);
  out.fill({});
  engine.gemm_fp32c(kDim, kDim, kDim, gate.data(), kDim, u.data(), kDim,
                    out.data(), kDim);
  u = out;
}

std::vector<double> run(const CMat& u, int basis_state) {
  std::vector<double> probs(kDim);
  for (int i = 0; i < kDim; ++i) {
    probs[static_cast<std::size_t>(i)] = std::norm(
        std::complex<double>(u(i, basis_state)));
  }
  return probs;
}

}  // namespace

int main() {
  const core::M3xuEngine engine;

  // GHZ: H(0) then CNOT chain.
  CMat ghz = identity();
  apply(engine, hadamard(0), ghz);
  for (int q = 0; q + 1 < kQubits; ++q) apply(engine, cnot(q, q + 1), ghz);
  const auto ghz_probs = run(ghz, 0);
  std::printf("GHZ(|00000>): P(|0...0>) = %.6f, P(|1...1>) = %.6f\n",
              ghz_probs[0], ghz_probs[kDim - 1]);
  double ghz_other = 0.0;
  for (int i = 1; i < kDim - 1; ++i) ghz_other += ghz_probs[i];
  std::printf("             leakage to other states = %.2e\n", ghz_other);

  // QFT: Hadamards + controlled phases.
  CMat qft = identity();
  for (int q = kQubits - 1; q >= 0; --q) {
    apply(engine, hadamard(q), qft);
    for (int c = q - 1; c >= 0; --c) {
      apply(engine, controlled_phase(c, q, M_PI / (1 << (q - c))), qft);
    }
  }
  const auto qft_probs = run(qft, 5);  // arbitrary basis input
  double min_p = 1.0, max_p = 0.0;
  for (double p : qft_probs) {
    min_p = std::min(min_p, p);
    max_p = std::max(max_p, p);
  }
  std::printf("QFT(|00101>): amplitudes uniform, P in [%.6f, %.6f] "
              "(ideal %.6f)\n",
              min_p, max_p, 1.0 / kDim);

  const bool ok = std::fabs(ghz_probs[0] - 0.5) < 1e-4 &&
                  std::fabs(ghz_probs[kDim - 1] - 0.5) < 1e-4 &&
                  ghz_other < 1e-8 && max_p - min_p < 1e-4;
  std::printf("%s\n", ok ? "quantum simulation OK" : "FAILED");
  return ok ? 0 : 1;
}
