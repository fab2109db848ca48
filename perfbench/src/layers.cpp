#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/microkernel.hpp"
#include "core/packed_panel.hpp"

namespace perfbench {

using m3xu::gemm::Matrix;

void LayerReport::set(const std::string& name, double value,
                      std::size_t samples) {
  const bool known = std::any_of(list_.begin(), list_.end(),
                                 [&](const auto& e) { return e.first == name; });
  if (!known) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = {value, samples};
}

void LayerReport::emit_into(Result& r) const {
  for (const auto& [name, unit] : list_) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      r.add(name, 0.0, unit, 0);
    } else {
      r.add(name, it->second.first, unit, it->second.second);
    }
  }
}

namespace {

template <typename T>
struct CoreOps;

template <>
struct CoreOps<float> {
  using PanelA = m3xu::core::PackedPanelFp32A;
  using PanelB = m3xu::core::PackedPanelFp32B;
  static void pack_a(const float* p, int ld, int rows, int k, PanelA& out) {
    m3xu::core::pack_fp32_a(p, ld, rows, k, out);
  }
  static void pack_b(const float* p, int ld, int k, int cols, PanelB& out) {
    m3xu::core::pack_fp32_b(p, ld, k, cols, out);
  }
  static void mma(const m3xu::core::M3xuEngine& e, const PanelA& a, int row0,
                  const PanelB& b, int col0, int m, int n, float* c, int ldc) {
    e.gemm_fp32_prepacked(a, row0, b, col0, m, n, c, ldc);
  }
};

template <>
struct CoreOps<std::complex<float>> {
  using PanelA = m3xu::core::PackedPanelFp32cA;
  using PanelB = m3xu::core::PackedPanelFp32cB;
  static void pack_a(const std::complex<float>* p, int ld, int rows, int k,
                     PanelA& out) {
    m3xu::core::pack_fp32c_a(p, ld, rows, k, out);
  }
  static void pack_b(const std::complex<float>* p, int ld, int k, int cols,
                     PanelB& out) {
    m3xu::core::pack_fp32c_b(p, ld, k, cols, out);
  }
  static void mma(const m3xu::core::M3xuEngine& e, const PanelA& a, int row0,
                  const PanelB& b, int col0, int m, int n,
                  std::complex<float>* c, int ldc) {
    e.gemm_fp32c_prepacked(a, row0, b, col0, m, n, c, ldc);
  }
};

double since_s(std::uint64_t t0) {
  return static_cast<double>(wall_ns() - t0) * 1e-9;
}

template <typename T>
CoreReplay replay_once(const m3xu::core::M3xuEngine& engine,
                       const m3xu::gemm::TileConfig& cfg, const Matrix<T>& a,
                       const Matrix<T>& b) {
  using Ops = CoreOps<T>;
  const int m = a.rows(), n = b.cols(), k = a.cols();
  const m3xu::core::MkBlockShape blk = m3xu::core::mk_block_resolve(
      engine.config().mk_mr, engine.config().mk_nr);
  CoreReplay r;
  typename Ops::PanelA pa;
  typename Ops::PanelB pb;
  std::vector<T> a_stage, b_stage, frag;
  for (int bm = 0; bm < m; bm += cfg.block_m) {
    const int m_eff = std::min(cfg.block_m, m - bm);
    for (int bn = 0; bn < n; bn += cfg.block_n) {
      const int n_eff = std::min(cfg.block_n, n - bn);
      frag.assign(static_cast<std::size_t>(m_eff) * n_eff, T{});
      for (int k0 = 0; k0 < k; k0 += cfg.block_k) {
        const int kc = std::min(cfg.block_k, k - k0);
        a_stage.assign(static_cast<std::size_t>(m_eff) * cfg.block_k, T{});
        b_stage.assign(static_cast<std::size_t>(kc) * n_eff, T{});
        for (int i = 0; i < m_eff; ++i) {
          for (int kk = 0; kk < kc; ++kk) {
            a_stage[static_cast<std::size_t>(i) * cfg.block_k + kk] =
                a(bm + i, k0 + kk);
          }
        }
        for (int kk = 0; kk < kc; ++kk) {
          for (int j = 0; j < n_eff; ++j) {
            b_stage[static_cast<std::size_t>(kk) * n_eff + j] =
                b(k0 + kk, bn + j);
          }
        }
        std::uint64_t t0 = wall_ns();
        Ops::pack_a(a_stage.data(), cfg.block_k, m_eff, kc, pa);
        r.pack_a_s += since_s(t0);
        r.a_elems += static_cast<double>(m_eff) * kc;
        t0 = wall_ns();
        Ops::pack_b(b_stage.data(), n_eff, kc, n_eff, pb);
        r.pack_b_s += since_s(t0);
        r.b_elems += static_cast<double>(kc) * n_eff;
        for (int wm = 0; wm < m_eff; wm += cfg.warp_m) {
          const int wm_eff = std::min(cfg.warp_m, m_eff - wm);
          const int mb = wm_eff - wm_eff % blk.mr;
          for (int wn = 0; wn < n_eff; wn += cfg.warp_n) {
            const int wn_eff = std::min(cfg.warp_n, n_eff - wn);
            const int nb = wn_eff - wn_eff % blk.nr;
            T* c = frag.data() + static_cast<std::size_t>(wm) * n_eff + wn;
            if (mb > 0 && nb > 0) {
              t0 = wall_ns();
              Ops::mma(engine, pa, wm, pb, wn, mb, nb, c, n_eff);
              r.mk_s += since_s(t0);
              r.mk_macs += static_cast<double>(mb) * nb * kc;
            }
            if (mb < wm_eff || nb < wn_eff) {
              t0 = wall_ns();
              if (nb < wn_eff && mb > 0) {  // right strip
                Ops::mma(engine, pa, wm, pb, wn + nb, mb, wn_eff - nb, c + nb,
                         n_eff);
              }
              if (mb < wm_eff) {  // bottom strip, full width
                Ops::mma(engine, pa, wm + mb, pb, wn, wm_eff - mb, wn_eff,
                         c + static_cast<std::size_t>(mb) * n_eff, n_eff);
              }
              r.edge_s += since_s(t0);
              r.edge_macs += (static_cast<double>(wm_eff) * wn_eff -
                              static_cast<double>(mb) * nb) * kc;
            }
          }
        }
      }
    }
  }
  return r;
}

}  // namespace

template <typename T>
CoreReplay replay_core(const m3xu::core::M3xuEngine& engine,
                       const m3xu::gemm::TileConfig& tile, const Matrix<T>& a,
                       const Matrix<T>& b, double min_seconds) {
  std::vector<CoreReplay> reps;
  const std::uint64_t t0 = wall_ns();
  do {
    reps.push_back(replay_once(engine, tile, a, b));
  } while (since_s(t0) < min_seconds);
  const auto med = [&](double CoreReplay::*field) {
    std::vector<double> v;
    for (const CoreReplay& r : reps) v.push_back(r.*field);
    return median(v);
  };
  CoreReplay out = reps.front();  // counts are identical across reps
  out.pack_a_s = med(&CoreReplay::pack_a_s);
  out.pack_b_s = med(&CoreReplay::pack_b_s);
  out.mk_s = med(&CoreReplay::mk_s);
  out.edge_s = med(&CoreReplay::edge_s);
  return out;
}

template CoreReplay replay_core<float>(const m3xu::core::M3xuEngine&,
                                       const m3xu::gemm::TileConfig&,
                                       const Matrix<float>&,
                                       const Matrix<float>&, double);
template CoreReplay replay_core<std::complex<float>>(
    const m3xu::core::M3xuEngine&, const m3xu::gemm::TileConfig&,
    const Matrix<std::complex<float>>&, const Matrix<std::complex<float>>&,
    double);

void report_core(LayerReport& rep, const CoreReplay& r,
                 const m3xu::telemetry::Snapshot& before,
                 const m3xu::telemetry::Snapshot& after,
                 const std::string& p) {
  rep.set("core.pack_a_ns_per_elem", 1e9 * ratio(r.pack_a_s, r.a_elems), 1);
  rep.set("core.pack_b_ns_per_elem", 1e9 * ratio(r.pack_b_s, r.b_elems), 1);
  rep.set("core.mk_ns_per_mac", 1e9 * ratio(r.mk_s, r.mk_macs), 1);
  rep.set("core.edge_ns_per_mac", 1e9 * ratio(r.edge_s, r.edge_macs), 1);
  const auto d = [&](const std::string& name) {
    return static_cast<double>(after.counter_delta(before, name));
  };
  const double block = d(p + ".microkernel.block_elements");
  const double other = d(p + ".elements.edge") +
                       d(p + ".elements.bypass_special") +
                       d(p + ".elements.bypass_injector") +
                       d(p + ".elements.perdot");
  rep.set("core.block_element_rate", ratio(block, block + other),
          static_cast<std::size_t>(block + other));
  const double pairs = d(p + ".microkernel.pair_chunks");
  rep.set("core.pair_fallback_rate",
          ratio(d(p + ".microkernel.pair_fallbacks"), pairs),
          static_cast<std::size_t>(pairs));
}

void report_threadpool(LayerReport& rep,
                       const m3xu::telemetry::Snapshot& before,
                       const m3xu::telemetry::Snapshot& after,
                       std::size_t threads, std::uint64_t ops) {
  const double busy = static_cast<double>(
      after.counter_delta(before, "threadpool.worker_busy_ns"));
  const double wall = static_cast<double>(
      after.counter_delta(before, "threadpool.wall_ns"));
  rep.set("threadpool.utilization",
          ratio(busy, wall * static_cast<double>(threads)),
          static_cast<std::size_t>(
              after.counter_delta(before, "threadpool.tasks")));
  rep.set("threadpool.submit_wait_ms_per_op",
          1e-6 * ratio(static_cast<double>(hist_sum_delta(
                           before, after, "threadpool.submit_wait_ns")),
                       static_cast<double>(ops)),
          static_cast<std::size_t>(ops));
}

}  // namespace perfbench
