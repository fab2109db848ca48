#include "gemm/plan.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "core/packed_panel.hpp"
#include "gemm/panel_cache.hpp"
#include "gemm/run_tiled.hpp"
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

/// plan_grid's target balance bound, and the strip granularity: the
/// microkernel's widest register block is 8 columns (one AVX-512 lane
/// per column), so strips that start on multiples of 8 keep every
/// block but the matrix edge's full.
constexpr double kTargetBalance = 0.9;
constexpr int kStripUnit = 8;

/// `parts` near-equal strips of [0, extent) in kStripUnit units (the
/// first extent-units % parts strips get one unit more); the last
/// strip ends at extent.
std::vector<int> near_equal_strips(int extent, long parts) {
  const long units = (extent + kStripUnit - 1) / kStripUnit;
  std::vector<int> edges{0};
  for (long p = 0; p < parts; ++p) {
    const long take = units / parts + (p < units % parts ? 1 : 0);
    edges.push_back(static_cast<int>(
        std::min<long>(extent, edges.back() + take * kStripUnit)));
  }
  return edges;
}

/// Per-execute rails validation: nonsensical watchdog windows and a
/// keyless panel cache fail with a clear message instead of
/// misbehaving downstream.
void validate_rails(const ExecRails& rails) {
  M3XU_CHECK_MSG(rails.deadline_ms >= 0,
                 "ExecRails.deadline_ms must be >= 0 (0 disables the "
                 "deadline watchdog)");
  M3XU_CHECK_MSG(rails.stall_ms >= 0,
                 "ExecRails.stall_ms must be >= 0 (0 disables stall "
                 "detection)");
  M3XU_CHECK_MSG(rails.stall_ms == 0 || rails.deadline_ms > 0,
                 "ExecRails.stall_ms requires a nonzero deadline_ms: stall "
                 "detection without a wall-deadline backstop can absorb an "
                 "arbitrarily slow trickle of progress");
  M3XU_CHECK_MSG(rails.b_cache == nullptr || rails.b_key != 0,
                 "ExecRails.b_cache requires a nonzero b_key identifying "
                 "the B matrix contents");
}

}  // namespace

TileGrid plan_grid(const PlanKey& key, const TileConfig& tile,
                   std::size_t threads) {
  TileGrid uniform = TileGrid::uniform(key.m, key.n, tile);
  if (threads <= 1 || tile.block_m % kStripUnit != 0 ||
      tile.block_n % kStripUnit != 0 ||
      balance_bound(uniform, threads) >= kTargetBalance) {
    return uniform;
  }
  const long t = static_cast<long>(threads);
  const long gm0 = uniform.grid_m(), gn0 = uniform.grid_n();
  const long units_m = (key.m + kStripUnit - 1) / kStripUnit;
  const long units_n = (key.n + kStripUnit - 1) / kStripUnit;
  const double macs = static_cast<double>(key.m) * key.n * key.k *
                      (key.cplx ? 4.0 : 1.0);
  // Candidates: gm x gn near-equal strips, no strip above the block
  // (gm >= gm0, gn >= gn0), at most threads - 1 extra strips per
  // dimension and 4 extra tiles per thread, and - past the uniform
  // tile count - at least kMinTileMacs per tile. (gm0, gn0) itself is
  // always a candidate, so a small GEMM stays one tile.
  struct Pick {
    TileGrid grid;
    double bound = -1.0;
    double cost = 0.0;
    long tiles = 0;
  };
  // Order: reaching the target first; then, below it, the higher
  // bound; then the lower cost; then fewer tiles (ties go to the first
  // seen, which has fewer row strips).
  const auto rank = [](const Pick& p) {
    const bool ok = p.bound >= kTargetBalance;
    return std::make_tuple(!ok, ok ? 0.0 : -p.bound, p.cost, p.tiles);
  };
  Pick best;
  for (long gm = gm0; gm <= std::min(units_m, gm0 + t - 1); ++gm) {
    for (long gn = gn0; gn <= std::min(units_n, gn0 + t - 1); ++gn) {
      const long tiles = gm * gn;
      if (tiles > gm0 * gn0 &&
          (tiles > gm0 * gn0 + 4 * t || macs / tiles < kMinTileMacs)) {
        continue;
      }
      Pick c;
      c.grid = {near_equal_strips(key.m, gm), near_equal_strips(key.n, gn)};
      c.bound = balance_bound(c.grid, threads);
      // Per-thread cost per K step, in elements (times threads): the
      // greedy makespan (m*n / bound) plus the staged A + B traffic -
      // every column strip restages its row strip's A, every row strip
      // its column strip's B (and recomputes their ABFT column
      // checksums), at about the cost of one element's K step each.
      c.cost = static_cast<double>(key.m) * key.n / c.bound +
               static_cast<double>(gn * key.m + gm * key.n);
      c.tiles = tiles;
      if (rank(c) < rank(best)) best = std::move(c);
    }
  }
  return std::move(best.grid);
}

std::string plan_key_label(const PlanKey& key) {
  return std::string(key.cplx ? "cgemm." : "sgemm.") + std::to_string(key.m) +
         "x" + std::to_string(key.n) + "x" + std::to_string(key.k);
}

FrozenPlan::FrozenPlan(const core::M3xuConfig& engine_cfg,
                       const PlanKey& key, const PlanOptions& opts)
    : options(opts),
      shape(core::shape_for(key.cplx ? core::MxuMode::kFp32Complex
                                     : core::MxuMode::kFp32)),
      eps_chunk(eps_per_chunk(engine_cfg.accum_prec)),
      engine(engine_cfg),
      clean([&] {
        core::M3xuConfig cfg = engine_cfg;
        cfg.injector = nullptr;
        return cfg;
      }()) {
  if (options.policy.demote) {
    core::M3xuConfig cfg = engine_cfg;
    cfg.force_generic = true;
    route_generic.emplace(cfg);
  }
}

struct GemmPlan::Impl : FrozenPlan {
  PlanKey key;
  std::string label;
  mutable LocalPanelStore b_store;
  mutable std::atomic<std::uint64_t> executions{0};
  // plan_grid per pool thread count, computed on first use. Entries
  // are never erased, so returned references stay valid.
  mutable std::mutex grids_mu;
  mutable std::vector<std::pair<std::size_t, std::unique_ptr<const TileGrid>>>
      grids;

  const TileGrid& grid_for_threads(std::size_t threads) const {
    const std::lock_guard<std::mutex> lock(grids_mu);
    for (const auto& [t, g] : grids) {
      if (t == threads) return *g;
    }
    grids.emplace_back(threads, std::make_unique<const TileGrid>(plan_grid(
                                    key, options.tile, threads)));
    return *grids.back().second;
  }

  const TileGrid& grid_for(const ThreadPool* pool) const {
    return grid_for_threads(pool != nullptr
                                ? pool->thread_count()
                                : ThreadPool::global().thread_count());
  }

  Impl(const core::M3xuConfig& engine_cfg, const PlanKey& k,
       const PlanOptions& opts)
      : FrozenPlan(engine_cfg, k, opts), key(k), label(plan_key_label(k)) {}

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
    validate_rails(rails);
    const telemetry::ScopedTimer span("plan.execute");
    if (rails.trace != nullptr) {
      rails.trace->event("plan.execute", -1, -1, label);
    }
    // Without an external cache, B panels come from the plan's private
    // store, keyed by the fingerprint of these B bytes.
    ExecRails r = rails;
    if (r.b_cache == nullptr && options.reuse_b_panels) {
      const std::uint64_t fp = fingerprint(b);
      if (b_store.retarget(fp)) {
        b_store.count_refresh();
        plan_b_refresh_ctr.increment();
      }
      r.b_cache = &b_store;
      r.b_key = fp;
    }
    TiledGemmStats stats = run_tiled(*this, r, grid_for(r.pool), a, b, c);
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
  validate_resilience_config(options.abft, options.policy);
  auto impl = std::make_unique<Impl>(engine_cfg, key, options);
  plan_compile_ctr.increment();
  return GemmPlan(std::move(impl));
}

TiledGemmStats GemmPlan::execute(const Matrix<float>& a,
                                 const Matrix<float>& b, Matrix<float>& c,
                                 const ExecRails& rails) const {
  return impl_->run(rails, a, b, c);
}

TiledGemmStats GemmPlan::execute(const Matrix<std::complex<float>>& a,
                                 const Matrix<std::complex<float>>& b,
                                 Matrix<std::complex<float>>& c,
                                 const ExecRails& rails) const {
  return impl_->run(rails, a, b, c);
}

namespace {

/// Stages one (kc x n_eff) B slice per column strip of `grid` and
/// K-block exactly as the driver's mainloop does (row-major, leading
/// dimension n_eff) so prepacked panels are bit-identical to
/// mid-execute packs and carry the keys execute looks up.
template <typename T, typename Panel, typename PackFn, typename PutFn>
void prepack_b_impl(const Matrix<T>& b, const TileGrid& grid,
                    const TileConfig& tile, bool cplx, std::uint64_t fp,
                    const PackFn& pack, const PutFn& put) {
  const int k = b.rows();
  std::vector<T> b_stage;
  for (std::size_t j = 0; j + 1 < grid.cols.size(); ++j) {
    const int bn = grid.cols[j];
    const int n_eff = grid.cols[j + 1] - bn;
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
      b, impl_->grid_for(nullptr), impl_->options.tile, false, fp,
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
      b, impl_->grid_for(nullptr), impl_->options.tile, true, fp,
      [](const std::complex<float>* p, int ld, int kc, int cols,
         core::PackedPanelFp32cB& out) {
        core::pack_fp32c_b(p, ld, kc, cols, out);
      },
      [&](const PanelKey& key, const core::PackedPanelFp32cB& panel) {
        impl_->b_store.put_fp32c(key, panel);
      });
}

const TileGrid& GemmPlan::grid(const ThreadPool* pool) const {
  return impl_->grid_for(pool);
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
