// Driver-private: run_tiled, the tiled driver's core, and the frozen
// plan state it reads. Only gemm/plan.cpp and gemm/tiled_driver.cpp
// include this header; everything else reaches the driver through
// GemmPlan (gemm/plan.hpp).
#pragma once

#include <optional>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/recovery.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::gemm {

/// Worst-case relative rounding error one K-chunk contributes to an
/// output element: half an output-format ULP from the FP32 pack plus
/// the per-step accumulation-register roundings (two steps at
/// 2^(1-accum_prec) each, folded into one term with headroom).
double eps_per_chunk(int accum_prec);

/// What GemmPlan::compile freezes for run_tiled: the validated
/// options, the mode's MMA instruction shape, the rounding bound per
/// K-chunk, and the engine set the tile loop needs. GemmPlan::Impl
/// derives from it, so these are the plan's own fields.
struct FrozenPlan {
  FrozenPlan(const core::M3xuConfig& engine_cfg, const PlanKey& key,
             const PlanOptions& opts);

  PlanOptions options;
  core::MmaShape shape;
  double eps_chunk;
  /// Primary datapath (may carry a fault injector).
  core::M3xuEngine engine;
  /// Fault-free clone: clean recomputes and the bottom scalar rung.
  core::M3xuEngine clean;
  /// Route-forced clone (force_generic) for quarantined tiles' initial
  /// passes; present exactly when options.policy.demote is set.
  std::optional<core::M3xuEngine> route_generic;
};

/// C <- A*B + C over `grid` (a plan_grid result, covering C exactly)
/// with the plan's frozen state and this execute's rails. Operand
/// shapes and rails are validated by the caller.
///
/// Dispatch: a grid of more than one tile fans out across the rails'
/// pool when the pool is idle; when another caller holds it, the
/// calling thread runs the tiles itself in tile order instead of
/// queueing (ThreadPool::try_parallel_for). Same grid, same panel
/// keys, same bits either way.
///
/// Guard: this is the one place the rails' token, deadline and stall
/// window are enforced - token and deadline at tile entry and before
/// every staged K-block, the deadline again at tile exit. On a grid
/// fanned out over the pool, a tile completion that ends a gap of at
/// least stall_ms since the previous one (or since the grid started)
/// is a stall, unless the deadline passed before the gap reached the
/// window. An abort throws CancelledError or DeadlineExceeded
/// (kDeadline / kStall) and bumps one gemm.guard.* counter. Aborts are
/// cooperative: a tile is stopped at its next checkpoint, and the
/// first exception stops every tile not yet started.
template <typename T>
TiledGemmStats run_tiled(const FrozenPlan& plan, const ExecRails& exec,
                         const TileGrid& grid, const Matrix<T>& a,
                         const Matrix<T>& b, Matrix<T>& c);

}  // namespace m3xu::gemm
