// Compile-then-execute GEMM plans: the one way into the tiled driver.
//
// A GemmPlan compiles everything a tiled GEMM would otherwise re-derive
// per call - config validation, the mode's MMA instruction shape, the
// per-chunk rounding bound, a fault-free engine clone for ABFT
// recomputes, a route-forced clone for quarantined tiles, and - in
// serving workloads - the packed B panels of weights that never change
// - exactly once from (problem shape, dtype, PlanOptions), then
// executes many times with zero per-call re-derivation:
//
//   GemmPlan plan = GemmPlan::compile(engine_cfg, {m, n, k, cplx});
//   plan.execute(a, b, c);   // validated, cloned, prepacked already
//
// Execution is bit-identical to the flat engine loop for every route
// rung, grid and pool size - verified by tests across both dtypes.
//
// Frozen at compile: tile/ABFT/recovery configs (validated), engines,
// telemetry label, the B-panel store. Per pool thread count: the tile
// grid (plan_grid), so a lone GEMM fans out across whatever pool runs
// it. Per-execute (ExecRails, gemm/recovery.hpp): cancellation token,
// deadline and stall windows, the tenant's TileQuarantine, an
// external PanelCache, the pool and the request trace - everything
// that varies request-to-request in the serving layer.
//
// B-panel reuse: with PlanOptions.reuse_b_panels (default on) the plan
// owns a private B-panel store - a PanelCache (gemm/panel_cache.hpp)
// without checksums - keyed by a fingerprint of the B bytes. Repeat
// executes against the same B skip the pack step entirely; executing
// with a different B is detected by the fingerprint and repacks
// (counted in plan.b_refresh), never served stale. prepack_b()
// optionally fills the store at compile time so even the first execute
// skips packing. See docs/PLAN.md.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/recovery.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::gemm {

/// Immutable problem identity a plan is compiled for. execute() checks
/// its operands against this and rejects mismatches (a plan is not a
/// generic entry point).
struct PlanKey {
  int m = 0;
  int n = 0;
  int k = 0;
  bool cplx = false;  // false: sgemm (FP32), true: cgemm (FP32C)

  friend bool operator==(const PlanKey& a, const PlanKey& b) {
    return a.m == b.m && a.n == b.n && a.k == b.k && a.cplx == b.cplx;
  }
};

/// "sgemm.512x512x512" / "cgemm.192x192x192" - the telemetry span /
/// log label for one plan identity.
std::string plan_key_label(const PlanKey& key);

/// The plan's tile grid for a pool of `threads` workers - the one place
/// a grid is chosen (DESIGN.md section 15). It keeps the TileConfig's
/// uniform grid whenever that grid's balance_bound is >= 0.9 (so a
/// 1-thread pool always gets it). Otherwise it picks near-equal row
/// and column strips, none larger than block_m / block_n, with inner
/// boundaries on multiples of the 8-wide register block: among grids
/// reaching the 0.9 bound, the one with the least greedy makespan plus
/// staged operand traffic (the traffic term prefers column splits for
/// short, wide shapes and row splits for tall ones). Splitting past
/// the uniform tile count needs at least kMinTileMacs of work per
/// tile, so small GEMMs stay one tile.
TileGrid plan_grid(const PlanKey& key, const TileConfig& tile,
                   std::size_t threads);

/// Minimum multiply-accumulates per tile (complex ones count four) for
/// plan_grid to split a GEMM past its uniform tile count: twice the
/// wall cost of one fan-out, in microkernel MACs. On a 4-vCPU AVX-512
/// host a 4-tile fan-out onto an idle pool costs ~45 us beyond one
/// tile (p50; the last worker starts ~27 us after the call) and the
/// microkernel runs 1.4-2.5 ns/MAC, so 2 x 45 us is 36-64 k MACs; the
/// constant takes the top. A 32x128x128 GEMM still splits four ways
/// (131 k MACs per tile). DESIGN.md section 15.
inline constexpr double kMinTileMacs = 65536.0;

/// Everything a plan freezes beyond the problem identity.
struct PlanOptions {
  /// block_m / block_n are the largest tile a plan runs: plan_grid may
  /// split C finer to fill the pool. block_k and the warp tile apply
  /// as given.
  TileConfig tile;
  AbftConfig abft;
  RecoveryPolicy policy;
  /// Keep packed B panels across execute() calls in a plan-private
  /// store, guarded by a fingerprint of the B bytes (see file
  /// comment). Disable when every execute brings different weights and
  /// an external cache (ExecRails.b_cache) does the sharing instead.
  bool reuse_b_panels = true;
};

/// Pack/reuse statistics of a plan's private B-panel store: its
/// PanelCache's hits and misses, and the plan's refreshes.
struct PlanPanelStats {
  std::uint64_t hits = 0;      // packs skipped (panel served from store)
  std::uint64_t misses = 0;    // packs performed and published
  std::uint64_t refreshes = 0; // store invalidations on a B-bytes change
};

class GemmPlan {
 public:
  /// Compiles a plan: validates every config (validate_tile_config,
  /// validate_resilience_config - so invalid configs fail here, not
  /// mid-execute), freezes the MMA instruction shape and rounding
  /// bound, and constructs the engine set (primary from `engine_cfg`,
  /// fault-free clone, route-forced clone when the demotion ladder is
  /// on). O(1) in the problem size.
  static GemmPlan compile(const core::M3xuConfig& engine_cfg,
                          const PlanKey& key, const PlanOptions& options = {});

  GemmPlan(GemmPlan&&) noexcept;
  GemmPlan& operator=(GemmPlan&&) noexcept;
  GemmPlan(const GemmPlan&) = delete;
  GemmPlan& operator=(const GemmPlan&) = delete;
  ~GemmPlan();

  /// C <- A*B + C with the plan's frozen configuration. Operands must
  /// match key() exactly and the rails must be well-formed
  /// (M3XU_CHECK). Bit-identical to the flat engine loop on every pool.
  TiledGemmStats execute(const Matrix<float>& a, const Matrix<float>& b,
                         Matrix<float>& c, const ExecRails& rails = {}) const;
  TiledGemmStats execute(const Matrix<std::complex<float>>& a,
                         const Matrix<std::complex<float>>& b,
                         Matrix<std::complex<float>>& c,
                         const ExecRails& rails = {}) const;

  /// Packs every B panel of `b` into the plan's private store now, so
  /// the first execute() against this B skips packing too. No-op when
  /// reuse_b_panels is off. Panels follow grid() for the global pool -
  /// the grid execute() runs when ExecRails.pool is null - and are
  /// bit-identical to the ones the driver would pack mid-execute (same
  /// staging layout).
  void prepack_b(const Matrix<float>& b);
  void prepack_b(const Matrix<std::complex<float>>& b);

  /// The tile grid execute() runs on `pool` (null = the global pool):
  /// plan_grid for its thread count, computed once per thread count.
  /// Quarantine keys and panel keys follow it.
  const TileGrid& grid(const ThreadPool* pool = nullptr) const;

  const PlanKey& key() const;
  const TileConfig& tile() const;
  const PlanOptions& options() const;
  /// The telemetry/log label, e.g. "sgemm.512x512x512".
  const std::string& label() const;
  /// execute() calls completed on this plan (telemetry mirror:
  /// plan.execute).
  std::uint64_t executions() const;
  PlanPanelStats panel_stats() const;

 private:
  struct Impl;
  explicit GemmPlan(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace m3xu::gemm
