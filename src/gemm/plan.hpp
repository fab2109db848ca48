// Compile-then-execute GEMM plans.
//
// Every ad-hoc tiled_sgemm/tiled_cgemm call re-derives the same
// artifacts: config validation, the mode's MMA instruction shape, the
// per-chunk rounding bound, a fault-free engine clone for ABFT
// recompute, a route-forced clone for quarantined tiles, and - in
// serving workloads - the packed B panels of weights that never
// change. A GemmPlan compiles all of that exactly once from (problem
// shape, dtype, PlanOptions) and then executes many times with zero
// per-call re-derivation:
//
//   GemmPlan plan = GemmPlan::compile(engine_cfg, {m, n, k, cplx});
//   plan.execute(a, b, c);   // validated, cloned, prepacked already
//
// Execution is bit-identical to the ad-hoc path by construction: both
// run the same run_tiled core (gemm/tiled_driver.cpp) with the same
// frozen configs - verified by tests across every route rung and both
// dtypes.
//
// Frozen at compile: tile/ABFT/recovery configs (validated), engines,
// telemetry labels, the B-panel store. Per pool thread count: the tile
// grid (plan_grid), so a lone GEMM fans out across whatever pool runs
// it. Per-execute (ExecRails):
// cancellation token, deadline/stall watchdog windows, the tenant's
// TileQuarantine, and an external PanelCache - everything that varies
// request-to-request in the serving layer.
//
// B-panel reuse: with PlanOptions.reuse_b_panels (default on) the plan
// owns a private panel store keyed by a fingerprint of the B bytes.
// Repeat executes against the same B skip the pack step entirely;
// executing with a different B is detected by the fingerprint and
// repacks (counted in plan.b_refresh), never served stale. prepack_b()
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

/// Everything a plan freezes beyond the problem identity. The policy's
/// quarantine pointer is ignored (quarantine is a per-execute rail).
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

/// Per-execute guard rails - the request-scoped counterpart of the
/// frozen PlanOptions. Mirrors ExecConfig but adds the quarantine
/// (frozen policies cannot carry per-tenant state).
struct ExecRails {
  const CancellationToken* token = nullptr;
  std::int64_t deadline_ms = 0;
  std::int64_t stall_ms = 0;
  /// Per-tenant tile memory for this execute; may be null.
  TileQuarantine* quarantine = nullptr;
  /// External shared prepacked-B cache (e.g. the serving PackCache).
  /// Takes precedence over the plan's private store when non-null.
  PanelCache* b_cache = nullptr;
  std::uint64_t b_key = 0;
  /// Thread pool this execute partitions tiles across (non-owning;
  /// null = the global pool). Its thread count picks the plan's grid
  /// (plan_grid); bit-identical for every pool size.
  ThreadPool* pool = nullptr;
  /// Request-scoped trace this execute logs milestones into (non-
  /// owning; may be null). Forwarded to ExecConfig::trace.
  telemetry::TraceContext* trace = nullptr;
};

/// Pack/reuse statistics of a plan's private B-panel store.
struct PlanPanelStats {
  std::uint64_t hits = 0;      // packs skipped (panel served from store)
  std::uint64_t misses = 0;    // packs performed and published
  std::uint64_t refreshes = 0; // store invalidations on a B-bytes change
};

class GemmPlan {
 public:
  /// Compiles a plan: validates every config (through the same
  /// validators as the ad-hoc entry points, so invalid configs fail
  /// here, not mid-execute), freezes the MMA instruction shape and
  /// rounding bound, and constructs the engine set (primary from
  /// `engine_cfg`, fault-free clone, route-forced clone when the
  /// demotion ladder is on). O(1) in the problem size.
  static GemmPlan compile(const core::M3xuConfig& engine_cfg,
                          const PlanKey& key, const PlanOptions& options = {});

  GemmPlan(GemmPlan&&) noexcept;
  GemmPlan& operator=(GemmPlan&&) noexcept;
  GemmPlan(const GemmPlan&) = delete;
  GemmPlan& operator=(const GemmPlan&) = delete;
  ~GemmPlan();

  /// C <- A*B + C with the plan's frozen configuration. Operands must
  /// match key() exactly (M3XU_CHECK). Bit-identical to the ad-hoc
  /// driver with the same configs.
  TiledGemmStats execute(const Matrix<float>& a, const Matrix<float>& b,
                         Matrix<float>& c) const;
  TiledGemmStats execute(const Matrix<float>& a, const Matrix<float>& b,
                         Matrix<float>& c, const ExecRails& rails) const;
  TiledGemmStats execute(const Matrix<std::complex<float>>& a,
                         const Matrix<std::complex<float>>& b,
                         Matrix<std::complex<float>>& c) const;
  TiledGemmStats execute(const Matrix<std::complex<float>>& a,
                         const Matrix<std::complex<float>>& b,
                         Matrix<std::complex<float>>& c,
                         const ExecRails& rails) const;

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
