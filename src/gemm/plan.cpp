#include "gemm/plan.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/packed_panel.hpp"
#include "gemm/panel_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::gemm {

namespace {

// Plan lifecycle counters (no-ops with M3XU_TELEMETRY=OFF). compile /
// execute reconcile against the serving layer's plan-reuse counters;
// the b_panels pair measures how much pack work the private store
// absorbs, and b_refresh counts executes that brought different B
// bytes than the store held.
telemetry::Counter plan_compile_ctr("plan.compile");
telemetry::Counter plan_execute_ctr("plan.execute");
telemetry::Counter plan_prepack_ctr("plan.prepack_panels");
telemetry::Counter plan_b_hits_ctr("plan.b_panels.hits");
telemetry::Counter plan_b_misses_ctr("plan.b_panels.misses");
telemetry::Counter plan_b_refresh_ctr("plan.b_refresh");

/// Content identity of a B matrix for the plan-private store: a word
/// hash of its bytes (common/hash.hpp), so B bytes that differ in any
/// one 64-bit word always refresh the store. Never 0 (0 means "caching
/// off" to the driver), so a pathological hash still caches correctly.
template <typename T>
std::uint64_t fingerprint(const Matrix<T>& b) {
  WordHash w;
  w.mix_bytes(b.data(), b.size() * sizeof(T));
  return w.h != 0 ? w.h : 0x9e3779b97f4a7c15ull;
}

/// Plan-private prepacked-B store. Unlike the serving PackCache it is
/// unbounded (its working set is one matrix's panel grid, freed with
/// the plan) and unchecksummed (it is private mutable state of one
/// plan, not shared across trust domains). Entries are keyed with the
/// owning B's fingerprint as b_key, so concurrent executes against
/// different B matrices can never serve each other's panels; clearing
/// on a fingerprint change only bounds memory.
class LocalPanelStore final : public PanelCache {
 public:
  bool get_fp32(const PanelKey& key, core::PackedPanelFp32B* out) override {
    return get_impl(f32_, key, out);
  }
  bool get_fp32c(const PanelKey& key, core::PackedPanelFp32cB* out) override {
    return get_impl(f32c_, key, out);
  }
  void put_fp32(const PanelKey& key,
                const core::PackedPanelFp32B& panel) override {
    put_impl(f32_, key, panel);
  }
  void put_fp32c(const PanelKey& key,
                 const core::PackedPanelFp32cB& panel) override {
    put_impl(f32c_, key, panel);
  }

  /// Points the store at B contents `fp`; a change drops every held
  /// panel. Returns true when the store was retargeted (counted as a
  /// refresh by the caller), false when `fp` already matches.
  bool retarget(std::uint64_t fp) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (fp == current_fp_) return false;
    const bool had_panels = !f32_.empty() || !f32c_.empty();
    f32_.clear();
    f32c_.clear();
    current_fp_ = fp;
    return had_panels;
  }

  PlanPanelStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void count_refresh() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.refreshes;
  }

 private:
  template <typename Map, typename Panel>
  bool get_impl(Map& map, const PanelKey& key, Panel* out) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = map.find(key);
    if (it == map.end()) {
      ++stats_.misses;
      plan_b_misses_ctr.increment();
      return false;
    }
    *out = it->second;
    ++stats_.hits;
    plan_b_hits_ctr.increment();
    return true;
  }
  template <typename Map, typename Panel>
  void put_impl(Map& map, const PanelKey& key, const Panel& panel) {
    const std::lock_guard<std::mutex> lock(mu_);
    map[key] = panel;
  }

  mutable std::mutex mu_;
  std::uint64_t current_fp_ = 0;
  PlanPanelStats stats_;
  std::unordered_map<PanelKey, core::PackedPanelFp32B, PanelKeyHash> f32_;
  std::unordered_map<PanelKey, core::PackedPanelFp32cB, PanelKeyHash> f32c_;
};

}  // namespace

std::string plan_key_label(const PlanKey& key) {
  return std::string(key.cplx ? "cgemm." : "sgemm.") + std::to_string(key.m) +
         "x" + std::to_string(key.n) + "x" + std::to_string(key.k);
}

struct GemmPlan::Impl {
  PlanKey key;
  PlanOptions options;
  std::string label;
  // Engine set, constructed once. `dispatch` points into these
  // members; Impl lives behind a unique_ptr so plan moves never
  // invalidate the pointers.
  core::M3xuEngine engine;
  core::M3xuEngine clean;
  std::optional<core::M3xuEngine> route_generic;
  CompiledDispatch dispatch;
  mutable LocalPanelStore b_store;
  mutable std::atomic<std::uint64_t> executions{0};

  Impl(const core::M3xuConfig& engine_cfg, const core::M3xuConfig& clean_cfg,
       const PlanKey& k, const PlanOptions& opts)
      : key(k),
        options(opts),
        label(plan_key_label(k)),
        engine(engine_cfg),
        clean(clean_cfg) {}

  template <typename T>
  TiledGemmStats run(const ExecRails& rails, const Matrix<T>& a,
                     const Matrix<T>& b, Matrix<T>& c) const {
    constexpr bool kCplx = std::is_same_v<T, std::complex<float>>;
    M3XU_CHECK_MSG(key.cplx == kCplx,
                   "GemmPlan dtype mismatch: plan was compiled for the other "
                   "element type");
    M3XU_CHECK_MSG(a.rows() == key.m && a.cols() == key.k &&
                       b.rows() == key.k && b.cols() == key.n &&
                       c.rows() == key.m && c.cols() == key.n,
                   "GemmPlan shape mismatch: operands must match the "
                   "compiled PlanKey exactly");
    const telemetry::ScopedTimer span("plan.execute");

    // Per-execute rails over the frozen dispatch. The dispatch copy is
    // a handful of words; the engines behind it are not copied.
    CompiledDispatch d = dispatch;
    d.policy.quarantine = rails.quarantine;
    ExecConfig exec;
    exec.token = rails.token;
    exec.deadline_ms = rails.deadline_ms;
    exec.stall_ms = rails.stall_ms;
    exec.pool = rails.pool;
    exec.trace = rails.trace;
    if (rails.trace != nullptr) {
      rails.trace->event("plan.execute", -1, -1, label);
    }
    if (rails.b_cache != nullptr) {
      exec.b_cache = rails.b_cache;
      exec.b_key = rails.b_key;
    } else if (options.reuse_b_panels) {
      const std::uint64_t fp = fingerprint(b);
      if (b_store.retarget(fp)) {
        b_store.count_refresh();
        plan_b_refresh_ctr.increment();
      }
      exec.b_cache = &b_store;
      exec.b_key = fp;
    }
    validate_resilience_config(d.policy, exec);
    TiledGemmStats stats = tiled_execute(d, exec, a, b, c);
    executions.fetch_add(1, std::memory_order_relaxed);
    plan_execute_ctr.increment();
    return stats;
  }
};

GemmPlan::GemmPlan(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
GemmPlan::GemmPlan(GemmPlan&&) noexcept = default;
GemmPlan& GemmPlan::operator=(GemmPlan&&) noexcept = default;
GemmPlan::~GemmPlan() = default;

GemmPlan GemmPlan::compile(const core::M3xuConfig& engine_cfg,
                           const PlanKey& key, const PlanOptions& options) {
  const telemetry::ScopedTimer span("plan.compile");
  M3XU_CHECK_MSG(key.m > 0 && key.n > 0 && key.k > 0,
                 "PlanKey dimensions must be positive");
  const core::MmaShape shape = core::shape_for(
      key.cplx ? core::MxuMode::kFp32Complex : core::MxuMode::kFp32);
  validate_tile_config(options.tile, shape.k);
  // Rails are validated per execute; compile validates the frozen
  // policy against an empty rail set so a bad policy fails here.
  validate_resilience_config(options.policy, ExecConfig{});

  core::M3xuConfig clean_cfg = engine_cfg;
  clean_cfg.injector = nullptr;
  auto impl = std::make_unique<Impl>(engine_cfg, clean_cfg, key, options);
  // The quarantine is a per-execute rail; never freeze a caller's
  // pointer into the plan.
  impl->options.policy.quarantine = nullptr;
  if (impl->options.policy.demote) {
    core::M3xuConfig c_gen = engine_cfg;
    c_gen.force_generic = true;
    impl->route_generic.emplace(c_gen);
  }
  CompiledDispatch& d = impl->dispatch;
  d.tile = impl->options.tile;
  d.abft = impl->options.abft;
  d.policy = impl->options.policy;
  d.inst_m = shape.m;
  d.inst_n = shape.n;
  d.inst_k = shape.k;
  d.eps_chunk = eps_per_chunk(engine_cfg.accum_prec);
  d.engine = &impl->engine;
  d.clean = &impl->clean;
  d.route_generic =
      impl->route_generic.has_value() ? &*impl->route_generic : nullptr;
  plan_compile_ctr.increment();
  return GemmPlan(std::move(impl));
}

TiledGemmStats GemmPlan::execute(const Matrix<float>& a,
                                 const Matrix<float>& b,
                                 Matrix<float>& c) const {
  return impl_->run(ExecRails{}, a, b, c);
}

TiledGemmStats GemmPlan::execute(const Matrix<float>& a,
                                 const Matrix<float>& b, Matrix<float>& c,
                                 const ExecRails& rails) const {
  return impl_->run(rails, a, b, c);
}

TiledGemmStats GemmPlan::execute(const Matrix<std::complex<float>>& a,
                                 const Matrix<std::complex<float>>& b,
                                 Matrix<std::complex<float>>& c) const {
  return impl_->run(ExecRails{}, a, b, c);
}

TiledGemmStats GemmPlan::execute(const Matrix<std::complex<float>>& a,
                                 const Matrix<std::complex<float>>& b,
                                 Matrix<std::complex<float>>& c,
                                 const ExecRails& rails) const {
  return impl_->run(rails, a, b, c);
}

namespace {

/// Stages one (kc x n_eff) B slice exactly as the driver's mainloop
/// does (row-major, leading dimension n_eff) so prepacked panels are
/// bit-identical to mid-execute packs.
template <typename T, typename Panel, typename PackFn, typename PutFn>
void prepack_b_impl(const Matrix<T>& b, const TileConfig& tile, bool cplx,
                    std::uint64_t fp, const PackFn& pack, const PutFn& put) {
  const int k = b.rows(), n = b.cols();
  std::vector<T> b_stage;
  for (int bn = 0; bn < n; bn += tile.block_n) {
    const int n_eff = std::min(tile.block_n, n - bn);
    for (int k0 = 0; k0 < k; k0 += tile.block_k) {
      const int kc = std::min(tile.block_k, k - k0);
      b_stage.assign(static_cast<std::size_t>(kc) * n_eff, T{});
      for (int kk = 0; kk < kc; ++kk) {
        for (int j = 0; j < n_eff; ++j) {
          b_stage[static_cast<std::size_t>(kk) * n_eff + j] =
              b(k0 + kk, bn + j);
        }
      }
      Panel panel;
      pack(b_stage.data(), n_eff, kc, n_eff, panel);
      put(PanelKey{fp, k0, bn, kc, n_eff, cplx}, panel);
      plan_prepack_ctr.increment();
    }
  }
}

}  // namespace

void GemmPlan::prepack_b(const Matrix<float>& b) {
  M3XU_CHECK_MSG(!impl_->key.cplx, "GemmPlan dtype mismatch in prepack_b");
  M3XU_CHECK_MSG(b.rows() == impl_->key.k && b.cols() == impl_->key.n,
                 "GemmPlan shape mismatch: B must be k x n of the PlanKey");
  if (!impl_->options.reuse_b_panels) return;
  const std::uint64_t fp = fingerprint(b);
  impl_->b_store.retarget(fp);
  prepack_b_impl<float, core::PackedPanelFp32B>(
      b, impl_->options.tile, false, fp,
      [](const float* p, int ld, int kc, int cols,
         core::PackedPanelFp32B& out) {
        core::pack_fp32_b(p, ld, kc, cols, out);
      },
      [&](const PanelKey& key, const core::PackedPanelFp32B& panel) {
        impl_->b_store.put_fp32(key, panel);
      });
}

void GemmPlan::prepack_b(const Matrix<std::complex<float>>& b) {
  M3XU_CHECK_MSG(impl_->key.cplx, "GemmPlan dtype mismatch in prepack_b");
  M3XU_CHECK_MSG(b.rows() == impl_->key.k && b.cols() == impl_->key.n,
                 "GemmPlan shape mismatch: B must be k x n of the PlanKey");
  if (!impl_->options.reuse_b_panels) return;
  const std::uint64_t fp = fingerprint(b);
  impl_->b_store.retarget(fp);
  prepack_b_impl<std::complex<float>, core::PackedPanelFp32cB>(
      b, impl_->options.tile, true, fp,
      [](const std::complex<float>* p, int ld, int kc, int cols,
         core::PackedPanelFp32cB& out) {
        core::pack_fp32c_b(p, ld, kc, cols, out);
      },
      [&](const PanelKey& key, const core::PackedPanelFp32cB& panel) {
        impl_->b_store.put_fp32c(key, panel);
      });
}

const PlanKey& GemmPlan::key() const { return impl_->key; }
const TileConfig& GemmPlan::tile() const { return impl_->options.tile; }
const PlanOptions& GemmPlan::options() const { return impl_->options; }
const std::string& GemmPlan::label() const { return impl_->label; }
std::uint64_t GemmPlan::executions() const {
  return impl_->executions.load(std::memory_order_relaxed);
}
PlanPanelStats GemmPlan::panel_stats() const {
  return impl_->b_store.stats();
}

}  // namespace m3xu::gemm
