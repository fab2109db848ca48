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
// recomputes the tile fault-free (bounded retries, then a structured
// AbftFailure instead of an abort). With AbftConfig.enable == false
// (the default) the driver is byte-for-byte the unguarded seed path.
// See docs/FAULT_INJECTION.md for the tolerance derivation.
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
    // warp tile, and an autotuner search enumerates exactly that kind
    // of malformed candidate. A validator must be safe on any input.
    if (block_m <= 0 || block_n <= 0 || block_k <= 0 || warp_m <= 0 ||
        warp_n <= 0) {
      return false;
    }
    return block_m % warp_m == 0 && block_n % warp_n == 0;
  }
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
  /// row and column strip holding the remainder. The ad-hoc tiled_*
  /// entries run exactly this grid.
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
  /// sensitivity for fewer false alarms on adversarial inputs.
  double tolerance_scale = 1.0;
  /// Fault-free recompute attempts per detected tile before the driver
  /// gives up with AbftFailure.
  int max_recompute = 2;
};

/// Thrown when a tile keeps failing its checksum after the recovery
/// protocol is exhausted (legacy recomputes, or the full demotion
/// ladder under a RecoveryPolicy with Terminal::kThrow). Carries the
/// tile's grid coordinates, the last route attempted, and the total
/// recompute attempts, so recovery reports and logs are actionable.
class AbftFailure : public std::runtime_error {
 public:
  explicit AbftFailure(const std::string& what) : std::runtime_error(what) {}
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
  /// The last ladder rung the tile was attempted on.
  Route route() const { return route_; }
  /// Recompute attempts spent across all rungs before giving up.
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
  // Per-phase CPU seconds summed over tiles (across pool threads, so
  // they can exceed wall time). Fed by telemetry scoped timers: all
  // zero in M3XU_TELEMETRY=OFF builds.
  double stage_seconds = 0.0;     // global -> staging copies
  double pack_seconds = 0.0;      // lane-operand panel splits
  double mainloop_seconds = 0.0;  // warp-tile MMA loops
  double epilogue_seconds = 0.0;  // C fragment write-back
  double abft_seconds = 0.0;      // checksum verify + recompute
  // ABFT counters; all zero when the guard is disabled or nothing
  // trips the checksum.
  long abft_tile_checks = 0;   // tiles verified
  long abft_detected = 0;      // tiles whose checksum tripped
  long abft_recomputed = 0;    // fault-free recomputes executed
  long abft_recovered = 0;     // tiles recovered by a passing recompute
  long abft_false_alarms = 0;  // deterministic reproduction => tolerance
                               // artifact, original result kept
  // What the recovery ladder did (all zero in legacy mode and on clean
  // runs). See gemm/recovery.hpp.
  RecoveryReport recovery;
};

/// C <- A*B + C through the tile hierarchy on the M3XU FP32 mode.
/// Runs the TileConfig's uniform grid (TileGrid::uniform), distributed
/// over the global thread pool.
TiledGemmStats tiled_sgemm(const core::M3xuEngine& engine,
                           const TileConfig& config, const Matrix<float>& a,
                           const Matrix<float>& b, Matrix<float>& c);

/// ABFT-guarded variant. With abft.enable the per-tile checksums are
/// verified and failing tiles are recomputed on a fault-free clone of
/// the engine (same arithmetic config, injector stripped).
TiledGemmStats tiled_sgemm(const core::M3xuEngine& engine,
                           const TileConfig& config, const AbftConfig& abft,
                           const Matrix<float>& a, const Matrix<float>& b,
                           Matrix<float>& c);

/// Complex variant on the FP32C mode.
TiledGemmStats tiled_cgemm(const core::M3xuEngine& engine,
                           const TileConfig& config,
                           const Matrix<std::complex<float>>& a,
                           const Matrix<std::complex<float>>& b,
                           Matrix<std::complex<float>>& c);

TiledGemmStats tiled_cgemm(const core::M3xuEngine& engine,
                           const TileConfig& config, const AbftConfig& abft,
                           const Matrix<std::complex<float>>& a,
                           const Matrix<std::complex<float>>& b,
                           Matrix<std::complex<float>>& c);

/// Resilient variants: ABFT detection feeds the RecoveryPolicy's
/// retry-then-demote ladder (gemm/recovery.hpp) instead of the legacy
/// clean-recompute-or-throw protocol, and the ExecConfig threads a
/// cooperative CancellationToken plus the ThreadPool watchdog through
/// the tile loop. With the default policy every transient fault
/// recovers bit-exactly (the terminal scalar rung runs fault-free);
/// stats.recovery reports what the ladder did.
TiledGemmStats tiled_sgemm(const core::M3xuEngine& engine,
                           const TileConfig& config, const AbftConfig& abft,
                           const RecoveryPolicy& policy,
                           const ExecConfig& exec, const Matrix<float>& a,
                           const Matrix<float>& b, Matrix<float>& c);

TiledGemmStats tiled_cgemm(const core::M3xuEngine& engine,
                           const TileConfig& config, const AbftConfig& abft,
                           const RecoveryPolicy& policy,
                           const ExecConfig& exec,
                           const Matrix<std::complex<float>>& a,
                           const Matrix<std::complex<float>>& b,
                           Matrix<std::complex<float>>& c);

/// Per-call-invariant state the compile-then-execute plan layer
/// (gemm/plan.hpp) freezes once: validated configs, the mode's MMA
/// instruction shape, the rounding bound per K-chunk, and the engine
/// set the driver otherwise re-derives and re-constructs on every call
/// (fault-free clone for ABFT recompute, route-forced clone for
/// quarantined tiles' initial passes). All engine pointers are
/// non-owning; the owner (GemmPlan, or a stack frame in the ad-hoc
/// entries) must keep them alive across the execute call.
struct CompiledDispatch {
  TileConfig tile;
  AbftConfig abft;
  RecoveryPolicy policy;
  int inst_m = 0;
  int inst_n = 0;
  int inst_k = 0;
  double eps_chunk = 0.0;
  /// Primary datapath (may carry a fault injector).
  const core::M3xuEngine* engine = nullptr;
  /// Fault-free clone: ABFT recompute and the terminal scalar rung.
  const core::M3xuEngine* clean = nullptr;
  /// Route-forced clone (force_generic) for quarantined tiles' initial
  /// passes; must be non-null when policy.demote is true, ignored
  /// otherwise.
  const core::M3xuEngine* route_generic = nullptr;
};

/// Worst-case relative rounding error one K-chunk contributes to an
/// output element: half an output-format ULP from the FP32 pack plus
/// the per-step accumulation-register roundings (two steps at
/// 2^(1-accum_prec) each, folded into one term with headroom). The
/// plan layer freezes this into CompiledDispatch.eps_chunk at compile.
double eps_per_chunk(int accum_prec);

/// Config-only validation shared by the ad-hoc entries and plan
/// compile: tile shape sanity (via TileConfig::valid()) and the
/// K-chunk alignment that keeps the hierarchy bit-identical to the
/// flat loop. Fails through M3XU_CHECK_MSG.
void validate_tile_config(const TileConfig& config, int inst_k);

/// Resilience-knob validation shared by the policy-taking entries and
/// plan compile (see tiled_driver.cpp for the rationale per check).
void validate_resilience_config(const RecoveryPolicy& policy,
                                const ExecConfig& exec);

/// Executes one GEMM through a pre-compiled dispatch with zero
/// per-call re-derivation: no config validation beyond the operand
/// shape and grid checks, no engine clone construction, no
/// eps/instruction-shape lookups. The driver iterates `grid` (the
/// plan's choice for the pool; it must cover C exactly) and is
/// bit-identical to the ad-hoc tiled_sgemm/tiled_cgemm for every grid
/// by construction (same run_tiled core). The ExecConfig carries the
/// per-execute guard rails (token, deadline, B-panel cache, pool).
///
/// Dispatch: a grid of more than one tile fans out across the pool
/// when the pool is idle; when another caller holds it, the calling
/// thread runs the tiles itself in tile order instead of queueing
/// (ThreadPool::try_parallel_for). Same grid, same panel keys, same
/// bits either way.
TiledGemmStats tiled_execute(const CompiledDispatch& dispatch,
                             const ExecConfig& exec, const TileGrid& grid,
                             const Matrix<float>& a, const Matrix<float>& b,
                             Matrix<float>& c);

TiledGemmStats tiled_execute(const CompiledDispatch& dispatch,
                             const ExecConfig& exec, const TileGrid& grid,
                             const Matrix<std::complex<float>>& a,
                             const Matrix<std::complex<float>>& b,
                             Matrix<std::complex<float>>& c);

/// The per-column ABFT detection tolerance the guarded FP32 driver
/// uses for one threadblock tile spanning rows [bm, bm+m_eff) and all
/// of K, evaluated for column `j` of C. Exposed so the fault campaign
/// and the property tests can classify a deviation as
/// guaranteed-detectable (> 2x tolerance) or sub-tolerance. For the
/// campaign's single-tile geometry this is the whole-matrix column.
double abft_column_tolerance(const core::M3xuEngine& engine,
                             const TileConfig& config, const AbftConfig& abft,
                             const Matrix<float>& a, const Matrix<float>& b,
                             const Matrix<float>& c_in, int bm, int m_eff,
                             int j);

}  // namespace m3xu::gemm
