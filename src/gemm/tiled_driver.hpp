// Hierarchical tiled GEMM driver - the CUTLASS-style host-side
// structure a production M3XU library would ship: threadblock tiles
// staged through an explicit shared-memory buffer model, warp tiles
// carved from the block tile, and the engine's MMA instruction as the
// innermost level. Functionally it produces bit-identical results to
// the flat engine loop (same K-chunk rounding boundaries) - verified
// by tests - while exhibiting the data movement the timing simulator
// models.
//
// The driver can additionally run ABFT-guarded (algorithm-based fault
// tolerance): per threadblock tile it maintains column-checksum
// vectors in double precision, verifies the tile's output against a
// mode-aware ULP tolerance after the mainloop, and on mismatch
// recovers the tile through the RecoveryPolicy: the demotion ladder,
// which always settles, or bounded fault-free recomputes, which end
// in a structured AbftFailure instead of an abort when they run out.
// With AbftConfig.enable == false (the default) the driver is
// byte-for-byte the unguarded seed path. See docs/FAULT_INJECTION.md
// for the tolerance derivation.
//
// GemmPlan (gemm/plan.hpp) is the only way into the driver; this
// header holds the configs, stats and errors it shares with callers.
#pragma once

#include <complex>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/recovery.hpp"

namespace m3xu::gemm {

struct TileConfig {
  int block_m = 128;
  int block_n = 128;
  int block_k = 32;  // staged K-depth per mainloop iteration
  int warp_m = 64;   // warp tile within the block tile
  int warp_n = 32;

  bool valid() const {
    // Positivity first: the divisibility checks below are UB on a zero
    // warp tile, and the tile arrives from the caller (PlanOptions::tile,
    // ServerConfig::tile) unchecked. A validator must be safe on any input.
    if (block_m <= 0 || block_n <= 0 || block_k <= 0 || warp_m <= 0 ||
        warp_n <= 0) {
      return false;
    }
    return block_m % warp_m == 0 && block_n % warp_n == 0;
  }

  bool operator==(const TileConfig&) const = default;
};

/// The tile decomposition one driver call iterates: row strips
/// [rows[i], rows[i+1]) crossed with column strips [cols[j],
/// cols[j+1]). Tile t covers row strip t / grid_n() and column strip
/// t % grid_n(); that flat index is what TileQuarantine keys and trace
/// events carry. Any grid gives the same output bits: an M/N split
/// never changes an element's K order (DESIGN.md section 15).
struct TileGrid {
  std::vector<int> rows;  // 0 = rows.front() < ... < rows.back() = m
  std::vector<int> cols;  // 0 = cols.front() < ... < cols.back() = n

  long grid_m() const { return static_cast<long>(rows.size()) - 1; }
  long grid_n() const { return static_cast<long>(cols.size()) - 1; }
  long tiles() const { return grid_m() * grid_n(); }

  /// The TileConfig's fixed grid: block_m x block_n tiles, the last
  /// row and column strip holding the remainder. plan_grid keeps it on
  /// a 1-thread pool.
  static TileGrid uniform(int m, int n, const TileConfig& cfg);
};

/// Static balance bound of `grid` on `threads` workers: total tile
/// work (elements; K is common to every tile) over threads x the
/// makespan of a greedy schedule that hands each tile, in index order,
/// to the least-loaded worker - the pool's dynamic claiming on
/// equal-speed threads. 1.0 is perfect; a lone tile on 4 threads
/// reads 0.25. Measured scaling efficiency can only be lower.
double balance_bound(const TileGrid& grid, std::size_t threads);

/// ABFT guard configuration for the tiled driver.
struct AbftConfig {
  /// Off by default: the guarded path is opt-in and the unguarded path
  /// is bit-identical to the original driver.
  bool enable = false;
  /// Multiplier on the derived worst-case rounding bound. 1.0 already
  /// covers the bound with 2x headroom; raise it to trade detection
  /// sensitivity for fewer false alarms on adversarial inputs. Finite
  /// and >= 0; 0 flags every tile (tests use it to force detections).
  double tolerance_scale = 1.0;
  /// Fault-free recompute attempts per detected tile under the
  /// clean-recompute protocol (RecoveryPolicy::demote == false) before
  /// the driver gives up with AbftFailure. >= 1.
  int max_recompute = 2;
};

/// Thrown when a tile keeps failing its checksum after every clean
/// recompute (RecoveryPolicy::demote == false; the demotion ladder
/// always settles, so it never throws this). Carries the tile's grid
/// coordinates, the route attempted, and the recompute count, so
/// recovery reports and logs are actionable.
class AbftFailure : public std::runtime_error {
 public:
  AbftFailure(const std::string& what, long tile_row, long tile_col,
              Route route, int attempts)
      : std::runtime_error(what),
        tile_row_(tile_row),
        tile_col_(tile_col),
        route_(route),
        attempts_(attempts) {}

  /// Tile-grid coordinates of the failing threadblock tile (its row
  /// and column strip in the TileGrid the call ran); -1 when unknown.
  long tile_row() const { return tile_row_; }
  long tile_col() const { return tile_col_; }
  /// The route the recomputes ran on.
  Route route() const { return route_; }
  /// Recompute attempts spent before giving up.
  int attempts() const { return attempts_; }

 private:
  long tile_row_ = -1;
  long tile_col_ = -1;
  Route route_ = Route::kMicrokernel;
  int attempts_ = 0;
};

/// Counters the driver reports (cross-checked against the simulator's
/// traffic model in tests).
struct TiledGemmStats {
  long block_tiles = 0;       // threadblock tiles launched
  long mainloop_iterations = 0;  // summed over tiles
  double staged_bytes = 0.0;  // global -> staging traffic
  long mma_instructions = 0;  // engine MMA-shape invocations
  // ABFT counters; all zero when the guard is disabled or nothing
  // trips the checksum.
  long abft_tile_checks = 0;   // tiles verified
  long abft_detected = 0;      // tiles whose checksum tripped
  long abft_recomputed = 0;    // fault-free recomputes executed
  long abft_recovered = 0;     // tiles recovered by a passing recompute
  long abft_false_alarms = 0;  // deterministic reproduction => tolerance
                               // artifact, original result kept
  // What the recovery ladder did (all zero under the clean-recompute
  // protocol and on clean runs). See gemm/recovery.hpp.
  RecoveryReport recovery;
};

/// Config-only validation GemmPlan::compile runs (and GemmServer's
/// constructor, for every mode it may serve): tile shape sanity (via
/// TileConfig::valid()) and the K-chunk alignment that keeps the
/// hierarchy bit-identical to the flat loop. Fails through
/// M3XU_CHECK_MSG.
void validate_tile_config(const TileConfig& config, int inst_k);

/// ABFT validation, run at the same two places: a finite, non-negative
/// tolerance_scale (0 stays legal) and max_recompute >= 1. Fails
/// through M3XU_CHECK_MSG.
void validate_resilience_config(const AbftConfig& abft);

/// The per-column ABFT detection tolerance the guarded FP32 driver
/// uses for one threadblock tile spanning rows [bm, bm+m_eff) and all
/// of K, evaluated for column `j` of C. Exposed so the fault campaign
/// and the property tests can classify a deviation as
/// guaranteed-detectable (> 2x tolerance) or sub-tolerance. For the
/// campaign's single-tile geometry (on a 1-thread pool, where the
/// plan keeps the uniform grid) this is the whole-matrix column.
double abft_column_tolerance(const core::M3xuEngine& engine,
                             const TileConfig& config, const AbftConfig& abft,
                             const Matrix<float>& a, const Matrix<float>& b,
                             const Matrix<float>& c_in, int bm, int m_eff,
                             int j);

}  // namespace m3xu::gemm
