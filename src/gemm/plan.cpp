#include "gemm/plan.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <tuple>
#include <type_traits>
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
// b_refresh counts executes that brought different B bytes than the
// private store held (its hits and misses count in panel_cache.*).
telemetry::Counter plan_compile_ctr("plan.compile");
telemetry::Counter plan_execute_ctr("plan.execute");
telemetry::Counter plan_prepack_ctr("plan.prepack_panels");
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

/// Per-execute rails validation: nonsensical deadline or stall windows
/// and a keyless panel cache fail with a clear message instead of
/// misbehaving downstream.
void validate_rails(const ExecRails& rails) {
  M3XU_CHECK_MSG(rails.deadline_ms >= 0,
                 "ExecRails.deadline_ms must be >= 0 (0 disables the "
                 "deadline)");
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
  // The private B store holds one B's panels at a time (retarget
  // clears it on a B-bytes change), so the LRU never bounds it. It is
  // unverified: a verified hit costs about as much as repacking the
  // panel, and the store is not shared across requests.
  mutable PanelCache b_store{std::numeric_limits<std::size_t>::max(),
                             /*verify=*/false};
  // Fingerprint of the B bytes b_store was last pointed at.
  mutable std::mutex b_mu;
  mutable std::uint64_t b_fp = 0;
  mutable std::atomic<std::uint64_t> refreshes{0};
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

  /// Points b_store at the B bytes with fingerprint `fp`; a change
  /// drops every held panel. Returns whether panels were dropped.
  /// Panel keys carry the fingerprint, so concurrent executes against
  /// different B never serve each other's panels: clearing only bounds
  /// memory.
  bool retarget(std::uint64_t fp) const {
    const std::lock_guard<std::mutex> lock(b_mu);
    if (fp == b_fp) return false;
    b_fp = fp;
    const bool had_panels = b_store.size() > 0;
    b_store.clear();
    return had_panels;
  }

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
      if (retarget(fp)) {
        refreshes.fetch_add(1, std::memory_order_relaxed);
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

  /// Fills b_store with every B panel of `b` for the global pool's
  /// grid. Stages one (kc x n_eff) B slice per column strip and K-block
  /// exactly as the driver's mainloop does (row-major, leading
  /// dimension n_eff), so prepacked panels are bit-identical to
  /// mid-execute packs and carry the keys execute looks up.
  template <typename T, typename Panel>
  void prepack(const Matrix<T>& b,
               void (*pack)(const T*, int, int, int, Panel&)) {
    constexpr bool kCplx = std::is_same_v<T, std::complex<float>>;
    M3XU_CHECK_MSG(key.cplx == kCplx, "GemmPlan dtype mismatch in prepack_b");
    M3XU_CHECK_MSG(b.rows() == key.k && b.cols() == key.n,
                   "GemmPlan shape mismatch: B must be k x n of the PlanKey");
    if (!options.reuse_b_panels) return;
    const std::uint64_t fp = fingerprint(b);
    retarget(fp);
    const TileGrid& grid = grid_for(nullptr);
    const int block_k = options.tile.block_k;
    std::vector<T> b_stage;
    for (std::size_t j = 0; j + 1 < grid.cols.size(); ++j) {
      const int bn = grid.cols[j];
      const int n_eff = grid.cols[j + 1] - bn;
      for (int k0 = 0; k0 < key.k; k0 += block_k) {
        const int kc = std::min(block_k, key.k - k0);
        b_stage.assign(static_cast<std::size_t>(kc) * n_eff, T{});
        for (int kk = 0; kk < kc; ++kk) {
          for (int jj = 0; jj < n_eff; ++jj) {
            b_stage[static_cast<std::size_t>(kk) * n_eff + jj] =
                b(k0 + kk, bn + jj);
          }
        }
        Panel panel;
        pack(b_stage.data(), n_eff, kc, n_eff, panel);
        b_store.put(PanelKey{fp, k0, bn, kc, n_eff, kCplx}, panel);
        plan_prepack_ctr.increment();
      }
    }
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
  validate_resilience_config(options.abft);
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

void GemmPlan::prepack_b(const Matrix<float>& b) {
  impl_->prepack(b, core::pack_fp32_b);
}

void GemmPlan::prepack_b(const Matrix<std::complex<float>>& b) {
  impl_->prepack(b, core::pack_fp32c_b);
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
  return {impl_->b_store.hits(), impl_->b_store.misses(),
          impl_->refreshes.load(std::memory_order_relaxed)};
}

}  // namespace m3xu::gemm
