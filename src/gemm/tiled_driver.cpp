#include "gemm/tiled_driver.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/packed_panel.hpp"
#include "fault/injector.hpp"
#include "gemm/panel_cache.hpp"
#include "gemm/run_tiled.hpp"
#include "telemetry/stopwatch.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::gemm {

double eps_per_chunk(int accum_prec) {
  return std::ldexp(1.0, -24) + std::ldexp(1.0, 2 - accum_prec);
}

namespace {

/// Root of the per-tile retry injector seeds (the demotion ladder in
/// run_tiled explains why they are per tile).
constexpr std::uint64_t kRetrySeed = 0x5eedbed5ull;

// ABFT outcome counters, mirroring the TiledGemmStats fields so fault
// recovery shows up in the process-wide metrics export (no-ops when
// M3XU_TELEMETRY=OFF).
telemetry::Counter abft_checks_ctr("abft.tile_checks");
telemetry::Counter abft_detected_ctr("abft.detected");
telemetry::Counter abft_recomputed_ctr("abft.recomputed");
telemetry::Counter abft_recovered_ctr("abft.recovered");
telemetry::Counter abft_false_alarms_ctr("abft.false_alarms");
// Recovery-ladder counters, mirroring RecoveryReport (the per-route
// breakdown lives in the stats; telemetry carries the aggregates).
telemetry::Counter rec_retries_ctr("recovery.retries");
telemetry::Counter rec_demotions_ctr("recovery.demotions");
telemetry::Counter rec_recovered_ctr("recovery.recovered");
telemetry::Counter rec_quarantined_ctr("recovery.quarantined");
telemetry::Counter rec_quarantine_hits_ctr("recovery.quarantine_hits");
telemetry::Counter rec_alloc_fallbacks_ctr("recovery.alloc_fallbacks");

// Grid dispatch: GEMMs whose tiles fanned out across an idle pool,
// GEMMs that found the pool held by another caller and ran their tiles
// inline, and the static balance bound of every grid run, in per-mille
// (the histogram's sum / count is the mean bound).
telemetry::Counter grid_fanout_ctr("gemm.grid.fanout");
telemetry::Counter grid_inline_busy_ctr("gemm.grid.inline_busy");
telemetry::Histogram grid_balance_hist("gemm.grid.balance");
// ExecRails guard outcomes: executes run with a time limit, and every
// aborted execute once, by cause. Clean guarded runs bump watches only
// - the zero-false-positive checks assert on exactly these counters.
telemetry::Counter guard_watches_ctr("gemm.guard.watches");
telemetry::Counter guard_cancellations_ctr("gemm.guard.cancellations");
telemetry::Counter guard_deadline_ctr("gemm.guard.deadline_fired");
telemetry::Counter guard_stalls_ctr("gemm.guard.stalls_detected");

long instr_count(int m_eff, int n_eff, int kc, int inst_m, int inst_n,
                 int inst_k) {
  return static_cast<long>((m_eff + inst_m - 1) / inst_m) *
         ((n_eff + inst_n - 1) / inst_n) * ((kc + inst_k - 1) / inst_k);
}

// --- ABFT support -----------------------------------------------------
//
// Checksums accumulate in double (complex<double> for the FP32C mode):
// the 2^-53 checksum rounding is ~2^29 below the 2^-24 output-rounding
// scale the tolerance must cover, so the check arithmetic itself never
// trips the guard. See docs/FAULT_INJECTION.md for the derivation.

/// FP32 pack roundings each output element undergoes across the
/// mainloop (one per instruction K-chunk; the driver's block_k staging
/// preserves the engine's chunk boundaries).
long chunk_roundings(int k, int block_k, int inst_k) {
  long chunks = 0;
  for (int k0 = 0; k0 < k; k0 += block_k) {
    const int kc = std::min(block_k, k - k0);
    chunks += (kc + inst_k - 1) / inst_k;
  }
  return chunks;
}

template <typename T>
struct ChecksumTraits;

template <>
struct ChecksumTraits<float> {
  using Acc = double;
  static Acc widen(float v) { return v; }
  static double mag(float v) { return std::fabs(static_cast<double>(v)); }
  static double residual(Acc v) { return std::fabs(v); }
};

template <>
struct ChecksumTraits<std::complex<float>> {
  using Acc = std::complex<double>;
  static Acc widen(std::complex<float> v) {
    return {static_cast<double>(v.real()), static_cast<double>(v.imag())};
  }
  static double mag(std::complex<float> v) { return std::abs(widen(v)); }
  static double residual(Acc v) { return std::abs(v); }
};

/// How one recovery attempt on a detected tile ended.
enum class Attempt {
  kRecovered,   // the recompute passed the checksum
  kFalseAlarm,  // it failed with the previous attempt's bits: a
                // tolerance artifact of this input, not a fault
  kFailed,      // it failed with new bits
};

/// Packed-path glue per element type: staged panels are packed once per
/// mainloop iteration (at the stage step, where the shared-memory model
/// already touches every element) and every warp tile streams the
/// packed fragments through the engine's prepacked GEMM. perdot() is
/// the unpacked route over the same staged buffers - bit-identical (the
/// per-dot flat loop uses the same K-chunk rounding boundaries), used
/// by the kScalarReference rung and the allocation-failure fallback.
template <typename T>
struct PackedOps;

template <>
struct PackedOps<float> {
  using PanelA = core::PackedPanelFp32A;
  using PanelB = core::PackedPanelFp32B;
  static constexpr bool kCplx = false;
  static void pack_a(const float* p, int ld, int rows, int k, PanelA& out) {
    core::pack_fp32_a(p, ld, rows, k, out);
  }
  static void pack_b(const float* p, int ld, int k, int cols, PanelB& out) {
    core::pack_fp32_b(p, ld, k, cols, out);
  }
  static void mma(const core::M3xuEngine& engine, const PanelA& a, int row0,
                  const PanelB& b, int col0, int m, int n, float* c,
                  int ldc) {
    engine.gemm_fp32_prepacked(a, row0, b, col0, m, n, c, ldc);
  }
  static void perdot(const core::M3xuEngine& engine, const float* a, int lda,
                     const float* b, int ldb, int m, int n, int k, float* c,
                     int ldc) {
    engine.gemm_fp32(m, n, k, a, lda, b, ldb, c, ldc);
  }
};

template <>
struct PackedOps<std::complex<float>> {
  using PanelA = core::PackedPanelFp32cA;
  using PanelB = core::PackedPanelFp32cB;
  static constexpr bool kCplx = true;
  static void pack_a(const std::complex<float>* p, int ld, int rows, int k,
                     PanelA& out) {
    core::pack_fp32c_a(p, ld, rows, k, out);
  }
  static void pack_b(const std::complex<float>* p, int ld, int k, int cols,
                     PanelB& out) {
    core::pack_fp32c_b(p, ld, k, cols, out);
  }
  static void mma(const core::M3xuEngine& engine, const PanelA& a, int row0,
                  const PanelB& b, int col0, int m, int n,
                  std::complex<float>* c, int ldc) {
    engine.gemm_fp32c_prepacked(a, row0, b, col0, m, n, c, ldc);
  }
  static void perdot(const core::M3xuEngine& engine,
                     const std::complex<float>* a, int lda,
                     const std::complex<float>* b, int ldb, int m, int n,
                     int k, std::complex<float>* c, int ldc) {
    engine.gemm_fp32c(m, n, k, a, lda, b, ldb, c, ldc);
  }
};

/// kStagedPanel fault hook: one bit-flip opportunity per staged scalar
/// (real and imaginary parts count separately), applied after the
/// stage copy so the corruption models a bad shared-memory cell rather
/// than bad global memory.
void corrupt_staged_value(const fault::FaultInjector& inj, float& v) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  v = std::bit_cast<float>(static_cast<std::uint32_t>(
      inj.corrupt(fault::Site::kStagedPanel, bits, 32)));
}

void corrupt_staged_value(const fault::FaultInjector& inj,
                          std::complex<float>& v) {
  float re = v.real();
  float im = v.imag();
  corrupt_staged_value(inj, re);
  corrupt_staged_value(inj, im);
  v = {re, im};
}

}  // namespace

/// Shared implementation over the element type, driven entirely by the
/// plan's frozen state: GemmPlan owns the validated configs and every
/// engine the tile loop needs - primary (possibly fault-injected),
/// fault-free clone for clean recomputes and the bottom scalar rung,
/// and the route-forced clone for quarantined tiles' initial passes.
/// Nothing config-derived is computed here, so a plan amortizes it all
/// across executes.
template <typename T>
TiledGemmStats run_tiled(const FrozenPlan& plan, const ExecRails& exec,
                         const TileGrid& grid, const Matrix<T>& a,
                         const Matrix<T>& b, Matrix<T>& c) {
  using Traits = ChecksumTraits<T>;
  using Acc = typename Traits::Acc;
  const TileConfig& cfg = plan.options.tile;
  const AbftConfig& abft = plan.options.abft;
  const RecoveryPolicy& policy = plan.options.policy;
  const int inst_m = plan.shape.m, inst_n = plan.shape.n,
            inst_k = plan.shape.k;
  const double eps_chunk = plan.eps_chunk;
  const core::M3xuEngine& engine = plan.engine;
  const core::M3xuEngine& clean = plan.clean;
  // K-chunk boundaries must coincide with the engine's instruction
  // chunking for bit-identical results vs the flat loop.
  const int k = a.cols();
  const long grid_n = grid.grid_n();
  const long chunks = chunk_roundings(k, cfg.block_k, inst_k);
  // The guard checkpoint (run_tiled.hpp). The deadline counts from
  // this call's start; a token-only execute reads no clock.
  const std::uint64_t start_ns = exec.deadline_ms > 0 ? telemetry::now_ns() : 0;
  const std::uint64_t deadline_ns =
      exec.deadline_ms > 0
          ? start_ns + static_cast<std::uint64_t>(exec.deadline_ms) * 1'000'000
          : 0;
  const std::uint64_t stall_ns =
      static_cast<std::uint64_t>(exec.stall_ms) * 1'000'000;
  // The latest tile completion (the grid's start before the first):
  // the stall window's heartbeat.
  std::atomic<std::uint64_t> last_done_ns{start_ns};
  const auto throw_deadline = [&] {
    throw DeadlineExceeded("GEMM exceeded its deadline of " +
                           std::to_string(exec.deadline_ms) + " ms");
  };
  // Tile entry and every staged K-block.
  const auto check_rails = [&] {
    if (exec.token != nullptr) exec.token->check();
    if (deadline_ns != 0 && telemetry::now_ns() >= deadline_ns) {
      throw_deadline();
    }
  };
  // Tile exit: the stall window on a fanned-out grid (`pooled`) - a
  // gap that reached it before the deadline is a stall even if it ends
  // past the deadline - then the deadline. stall_ms requires a
  // deadline (validated per execute), so an execute without one reads
  // no clock here.
  const auto check_tile_done = [&](bool pooled) {
    if (deadline_ns == 0) return;
    const std::uint64_t now = telemetry::now_ns();
    if (pooled && stall_ns != 0) {
      // Concurrent completions may swap in slightly out of order; a
      // negative gap is no stall.
      const std::uint64_t last = last_done_ns.exchange(now);
      if (now > last && now - last >= stall_ns &&
          last + stall_ns < deadline_ns) {
        throw DeadlineExceeded("GEMM stalled: no tile completed for " +
                                   std::to_string(exec.stall_ms) + " ms",
                               CancelReason::kStall);
      }
    }
    if (now >= deadline_ns) throw_deadline();
  };
  // Tile partitioning runs on the caller-selected pool (null = the
  // process-wide default). Tiles are independent and each tile's
  // K-chunk schedule is fixed, so the result is bit-identical for
  // every pool size, schedule and grid.
  ThreadPool& pool = exec.pool != nullptr ? *exec.pool : ThreadPool::global();

  // kMicrokernel is the engine's natural preference; the scalar rung
  // bypasses packing entirely, so route config is moot there.
  const auto initial_engine = [&](Route r) -> const core::M3xuEngine& {
    return r == Route::kGenericPerDot ? *plan.route_generic : engine;
  };

  std::mutex stats_mu;
  TiledGemmStats stats;
  stats.block_tiles = grid.tiles();
  if (exec.trace != nullptr) {
    exec.trace->event("exec.start", grid.tiles(), static_cast<long>(k));
  }

  // ABFT column-checksum ingredients: asum/amag depend only on a tile's
  // row strip (sum over its A rows), so the first tile of each strip
  // to reach its check computes them once for the whole strip instead
  // of once per tile - an O(grid_n) saving on the O(m_eff * k) scan -
  // inside the same pool claim as the tiles. Cached values are
  // bit-identical to a per-tile recompute (same summation order), so
  // detection behavior is unchanged.
  const std::size_t strips_m = abft.enable ? grid.rows.size() - 1 : 0;
  std::vector<std::vector<Acc>> row_asum(strips_m);
  std::vector<std::vector<double>> row_amag(strips_m);
  std::vector<std::once_flag> row_once(strips_m);
  const auto row_sums = [&](std::size_t r) {
    const int bm = grid.rows[r];
    const int m_eff = grid.rows[r + 1] - bm;
    std::vector<Acc>& asum = row_asum[r];
    std::vector<double>& amag = row_amag[r];
    asum.assign(static_cast<std::size_t>(k), Acc{});
    amag.assign(static_cast<std::size_t>(k), 0.0);
    for (int i = 0; i < m_eff; ++i) {
      for (int kk = 0; kk < k; ++kk) {
        asum[kk] += Traits::widen(a(bm + i, kk));
        amag[kk] += Traits::mag(a(bm + i, kk));
      }
    }
  };

  // How the grid ran, logged once before the first tile's work.
  const double bound = balance_bound(grid, pool.thread_count());
  std::once_flag dispatch_logged;
  const auto log_dispatch = [&](const char* how) {
    grid_balance_hist.record(
        static_cast<std::uint64_t>(std::lround(bound * 1000.0)));
    if (exec.trace != nullptr) {
      char detail[48];
      std::snprintf(detail, sizeof(detail), "%s bound=%.3f", how, bound);
      exec.trace->event("exec.grid", grid.grid_m(), grid_n, detail);
    }
  };
  const bool fan_out = grid.tiles() > 1 && pool.thread_count() > 1;
  const char* const how = fan_out ? "fanout" : "serial";

  const auto run_tile = [&](std::size_t t, bool pooled) {
    check_rails();
    std::call_once(dispatch_logged, log_dispatch, how);
    const long tile_row = static_cast<long>(t) / grid_n;
    const long tile_col = static_cast<long>(t) % grid_n;
    // Request-scoped tracing: `trace` gets tile-level milestones, and
    // installing it as the thread-local context lets the core route
    // dispatch attribute route decisions to this request.
    telemetry::TraceContext* const trace = exec.trace;
    const telemetry::TraceContextScope trace_scope(trace);
    const int bm = grid.rows[static_cast<std::size_t>(tile_row)];
    const int bn = grid.cols[static_cast<std::size_t>(tile_col)];
    const int m_eff = grid.rows[static_cast<std::size_t>(tile_row) + 1] - bm;
    const int n_eff = grid.cols[static_cast<std::size_t>(tile_col) + 1] - bn;
    // The C fragment's initial contents (kept for ABFT recompute).
    std::vector<T> c_in(static_cast<std::size_t>(m_eff) * n_eff);
    for (int i = 0; i < m_eff; ++i) {
      for (int j = 0; j < n_eff; ++j) {
        c_in[static_cast<std::size_t>(i) * n_eff + j] = c(bm + i, bn + j);
      }
    }
    TiledGemmStats local;

    // One pass of the tile mainloop into `frag` (which must hold the
    // initial C fragment). Traffic counters accumulate into `counters`
    // on the first pass only; ABFT recomputes are tracked separately.
    // `route` picks the datapath rung; kScalarReference skips packing
    // and runs the staged buffers through the flat per-dot GEMM
    // (bit-identical K-chunk boundaries). `allow_cache` gates the
    // shared prepacked-B cache: only the initial pass may use it -
    // ladder retries and recomputes always repack locally so recovery
    // never depends on a cached panel's integrity.
    const auto compute_tile = [&](const core::M3xuEngine& eng, Route route,
                                  std::vector<T>& frag,
                                  TiledGemmStats* counters,
                                  bool allow_cache) {
      const fault::FaultInjector* inj = eng.config().injector;
      // kWorkerStall: one opportunity per tile pass. The injected
      // delay is finite, so the next checkpoint can convert it into a
      // clean abort instead of an indefinite hang.
      if (inj != nullptr && inj->trigger(fault::Site::kWorkerStall)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(inj->stall_duration_ms));
      }
      // Staging buffers (the shared-memory model) and their packed
      // panels, packed once per mainloop iteration. They
      // are thread_local so a worker reuses its allocations across
      // tiles (grow-only): every slot a pass reads is written by that
      // pass's stage/pack step first, so stale contents from a prior
      // tile are unreachable, and each worker owns its buffers - no
      // shared mutable state across the tile grid.
      thread_local std::vector<T> a_stage;
      thread_local std::vector<T> b_stage;
      thread_local typename PackedOps<T>::PanelA a_panel;
      thread_local typename PackedOps<T>::PanelB b_panel;
      const std::size_t a_need = static_cast<std::size_t>(m_eff) * cfg.block_k;
      const std::size_t b_need = static_cast<std::size_t>(cfg.block_k) * n_eff;
      if (a_stage.size() < a_need) a_stage.resize(a_need);
      if (b_stage.size() < b_need) b_stage.resize(b_need);
      for (int k0 = 0; k0 < k; k0 += cfg.block_k) {
        check_rails();
        const int kc = std::min(cfg.block_k, k - k0);
        // The B panel for this (K-block, column block) is shared by every
        // tile row and every request with the same b_key, so the packed
        // route consults the cache first. Never with an injector
        // attached: corrupted staging must not be published into shared
        // state.
        const bool cacheable = route != Route::kScalarReference &&
                               allow_cache && exec.b_cache != nullptr &&
                               exec.b_key != 0 && inj == nullptr;
        // A cacheable K-block stages B only where it is read: packed on
        // a cache miss, or run per-dot when packing fails.
        bool b_staged = false;
        const auto stage_b = [&] {
          for (int kk = 0; kk < kc; ++kk) {
            for (int j = 0; j < n_eff; ++j) {
              b_stage[static_cast<std::size_t>(kk) * n_eff + j] =
                  b(k0 + kk, bn + j);
            }
          }
          b_staged = true;
        };
        {
          // Stage the A and B panels (cp.async in the real kernel).
          const telemetry::ScopedTimer span("tile.stage");
          for (int i = 0; i < m_eff; ++i) {
            for (int kk = 0; kk < kc; ++kk) {
              a_stage[static_cast<std::size_t>(i) * cfg.block_k + kk] =
                  a(bm + i, k0 + kk);
            }
          }
          if (!cacheable) stage_b();
        }
        if (inj != nullptr) {
          for (int i = 0; i < m_eff; ++i) {
            for (int kk = 0; kk < kc; ++kk) {
              corrupt_staged_value(
                  *inj, a_stage[static_cast<std::size_t>(i) * cfg.block_k +
                                kk]);
            }
          }
          for (int kk = 0; kk < kc; ++kk) {
            for (int j = 0; j < n_eff; ++j) {
              corrupt_staged_value(
                  *inj, b_stage[static_cast<std::size_t>(kk) * n_eff + j]);
            }
          }
        }
        // Packed-panel staging can fail to allocate (for real, or via
        // the kAllocFailure domain). The K-block then degrades to the
        // unpacked per-dot route over the staged buffers instead of
        // crashing the GEMM - same bits, slower path.
        bool packed = false;
        if (route != Route::kScalarReference) {
          const bool alloc_failed =
              inj != nullptr && inj->trigger(fault::Site::kAllocFailure);
          if (!alloc_failed) {
            try {
              const telemetry::ScopedTimer span("tile.pack");
              PackedOps<T>::pack_a(a_stage.data(), cfg.block_k, m_eff, kc,
                                   a_panel);
              bool b_cached = false;
              if (cacheable) {
                const PanelKey key{exec.b_key, k0,   bn,
                                   kc,         n_eff, PackedOps<T>::kCplx};
                b_cached = exec.b_cache->get(key, &b_panel);
                if (trace != nullptr) {
                  trace->event(b_cached ? "pack.cache.hit" : "pack.cache.miss",
                               static_cast<long>(t), k0);
                }
                if (!b_cached) {
                  stage_b();
                  PackedOps<T>::pack_b(b_stage.data(), n_eff, kc, n_eff,
                                       b_panel);
                  exec.b_cache->put(key, b_panel);
                }
              } else {
                PackedOps<T>::pack_b(b_stage.data(), n_eff, kc, n_eff,
                                     b_panel);
              }
              packed = true;
            } catch (const std::bad_alloc&) {
              packed = false;
            }
          }
          if (!packed) {
            if (!b_staged) stage_b();
            ++local.recovery.alloc_fallbacks;
            if (trace != nullptr) {
              trace->event("recovery.alloc_fallback", static_cast<long>(t),
                           k0);
            }
          }
        }
        if (counters != nullptr) {
          counters->staged_bytes +=
              static_cast<double>(m_eff + n_eff) * kc * sizeof(T);
          ++counters->mainloop_iterations;
        }
        // Warp tiles over the block tile.
        const telemetry::ScopedTimer span("tile.mainloop");
        for (int wm = 0; wm < m_eff; wm += cfg.warp_m) {
          const int wm_eff = std::min(cfg.warp_m, m_eff - wm);
          for (int wn = 0; wn < n_eff; wn += cfg.warp_n) {
            const int wn_eff = std::min(cfg.warp_n, n_eff - wn);
            T* frag_ptr =
                frag.data() + static_cast<std::size_t>(wm) * n_eff + wn;
            if (packed) {
              PackedOps<T>::mma(eng, a_panel, wm, b_panel, wn, wm_eff,
                                wn_eff, frag_ptr, n_eff);
            } else {
              PackedOps<T>::perdot(
                  eng,
                  a_stage.data() + static_cast<std::size_t>(wm) * cfg.block_k,
                  cfg.block_k, b_stage.data() + wn, n_eff, wm_eff, wn_eff,
                  kc, frag_ptr, n_eff);
            }
            if (counters != nullptr) {
              counters->mma_instructions +=
                  instr_count(wm_eff, wn_eff, kc, inst_m, inst_n, inst_k);
            }
          }
        }
      }
    };

    // Quarantined tiles start directly on their recorded rung.
    Route start_route = Route::kMicrokernel;
    if (policy.demote && exec.quarantine != nullptr) {
      Route q = start_route;
      if (exec.quarantine->lookup(static_cast<long>(t), &q)) {
        start_route = q;
        ++local.recovery.quarantine_hits;
        if (trace != nullptr) {
          trace->event("recovery.quarantine_hit", static_cast<long>(t),
                       static_cast<long>(start_route));
        }
      }
    }

    std::vector<T> c_frag = c_in;
    compute_tile(initial_engine(start_route), start_route, c_frag, &local,
                 /*allow_cache=*/true);

    if (abft.enable) {
      const telemetry::ScopedTimer span("tile.abft");
      ++local.abft_tile_checks;
      // Column checksums over the tile: expected_j = sum_i C_in[i][j]
      // + sum_k (sum_i A[i][k]) * B[k][j], and the magnitude sum that
      // scales the rounding tolerance. asum/amag come from the
      // per-row-strip cache (computed here by the strip's first tile).
      const std::size_t strip = static_cast<std::size_t>(tile_row);
      std::call_once(row_once[strip], row_sums, strip);
      const std::vector<Acc>& asum = row_asum[strip];
      const std::vector<double>& amag = row_amag[strip];
      std::vector<Acc> expected(static_cast<std::size_t>(n_eff), Acc{});
      std::vector<double> tol(static_cast<std::size_t>(n_eff), 0.0);
      for (int j = 0; j < n_eff; ++j) {
        Acc e{};
        double mag = 0.0;
        for (int i = 0; i < m_eff; ++i) {
          e += Traits::widen(c_in[static_cast<std::size_t>(i) * n_eff + j]);
          mag += Traits::mag(c_in[static_cast<std::size_t>(i) * n_eff + j]);
        }
        for (int kk = 0; kk < k; ++kk) {
          e += asum[kk] * Traits::widen(b(kk, bn + j));
          mag += amag[kk] * Traits::mag(b(kk, bn + j));
        }
        expected[j] = e;
        tol[j] = abft.tolerance_scale * static_cast<double>(chunks) *
                 eps_chunk * mag;
      }
      // Negated <= so a NaN residual (e.g. a staged-panel flip that
      // manufactured an Inf/NaN) counts as a detection, not a silent
      // escape.
      const auto verify = [&](const std::vector<T>& frag) {
        for (int j = 0; j < n_eff; ++j) {
          Acc actual{};
          for (int i = 0; i < m_eff; ++i) {
            actual += Traits::widen(frag[static_cast<std::size_t>(i) * n_eff + j]);
          }
          if (!(Traits::residual(actual - expected[j]) <= tol[j])) {
            return false;
          }
        }
        return true;
      };
      if (!verify(c_frag)) {
        ++local.abft_detected;
        if (trace != nullptr) {
          trace->event("abft.detect", static_cast<long>(t),
                       static_cast<long>(start_route));
        }
        // One recovery attempt, shared by both protocols: recompute the
        // tile from its initial C on (eng, route) and classify it. A
        // settled attempt (recovered, or a false alarm whose bits are
        // kept) becomes the tile's result; a failed one becomes the
        // bits the next attempt is compared against.
        std::vector<T> prev = c_frag;
        const auto attempt = [&](const core::M3xuEngine& eng,
                                 Route route) -> Attempt {
          std::vector<T> redo = c_in;
          compute_tile(eng, route, redo, nullptr, /*allow_cache=*/false);
          ++local.abft_recomputed;
          if (verify(redo)) {
            c_frag = std::move(redo);
            ++local.abft_recovered;
            return Attempt::kRecovered;
          }
          if (std::memcmp(redo.data(), prev.data(),
                          redo.size() * sizeof(T)) == 0) {
            c_frag = std::move(redo);
            ++local.abft_false_alarms;
            return Attempt::kFalseAlarm;
          }
          prev = std::move(redo);
          return Attempt::kFailed;
        };
        Attempt outcome = Attempt::kFailed;
        if (!policy.demote) {
          // Clean-recompute protocol: bounded recomputes on the
          // fault-free clone, then AbftFailure.
          const int attempts = abft.max_recompute;
          for (int i = 0; i < attempts && outcome == Attempt::kFailed; ++i) {
            outcome = attempt(clean, Route::kMicrokernel);
            if (trace != nullptr) {
              trace->event("abft.recompute", static_cast<long>(t), i);
            }
          }
          if (outcome == Attempt::kFailed) {
            throw AbftFailure(
                "ABFT: tile at (" + std::to_string(bm) + "," +
                    std::to_string(bn) +
                    ") failed its column checksum after " +
                    std::to_string(attempts) +
                    " fault-free recomputes (tolerance_scale=" +
                    std::to_string(abft.tolerance_scale) + ")",
                tile_row, tile_col, Route::kMicrokernel, attempts);
          }
        } else {
          // Demotion ladder. A retry on a faulty rung re-runs the tile
          // on the *primary* datapath forced to that route (transient
          // faults clear on re-execution); the bottom scalar rung runs
          // on the fault-free clone.
          //
          // Retry determinism: the primary injector's opportunity
          // counters are shared across tiles, so retries through it
          // would depend on thread interleaving. Each tile instead
          // gets a private injector seeded from
          // Rng(kRetrySeed ^ primary seed).split(tile) - a pure
          // function of (seeds, tile index).
          std::optional<fault::FaultInjector> retry_inj;
          core::M3xuConfig retry_base = engine.config();
          if (retry_base.injector != nullptr) {
            retry_inj.emplace(Rng(kRetrySeed ^ retry_base.injector->seed())
                                  .split(static_cast<std::uint64_t>(t))
                                  .seed(),
                              retry_base.injector->rates());
            retry_inj->stall_duration_ms =
                retry_base.injector->stall_duration_ms;
            retry_base.injector = &*retry_inj;
          }
          core::M3xuConfig retry_gen = retry_base;
          retry_gen.force_generic = true;
          const core::M3xuEngine retry_eng(retry_base);
          const core::M3xuEngine retry_eng_generic(retry_gen);
          const auto retry_engine = [&](Route r) -> const core::M3xuEngine& {
            return r == Route::kGenericPerDot ? retry_eng_generic : retry_eng;
          };
          Route rung = start_route;
          for (;;) {
            const bool scalar = rung == Route::kScalarReference;
            for (int i = 0; i < (scalar ? 2 : 1) && outcome == Attempt::kFailed;
                 ++i) {
              if (trace != nullptr) {
                trace->event("recovery.retry", static_cast<long>(t),
                             static_cast<long>(rung));
              }
              outcome = attempt(scalar ? clean : retry_engine(rung), rung);
              ++local.recovery.retries;
              if (outcome == Attempt::kRecovered) {
                ++local.recovery.recovered_on[static_cast<int>(rung)];
                if (trace != nullptr) {
                  trace->event("recovery.recovered", static_cast<long>(t),
                               static_cast<long>(rung));
                }
              } else if (outcome == Attempt::kFalseAlarm &&
                         trace != nullptr) {
                trace->event("abft.false_alarm", static_cast<long>(t),
                             static_cast<long>(rung));
              }
            }
            if (outcome != Attempt::kFailed || scalar) break;
            rung = static_cast<Route>(static_cast<int>(rung) + 1);
            ++local.recovery.demotions;
            ++local.recovery.demoted_to[static_cast<int>(rung)];
            if (trace != nullptr) {
              trace->event("recovery.demote", static_cast<long>(t),
                           static_cast<long>(rung), route_name(rung));
            }
          }
          // The scalar rung always settles: its two attempts run on the
          // deterministic fault-free clone, so the second either passes
          // the checksum or reproduces the first one's bits.
          if (outcome == Attempt::kRecovered &&
              static_cast<int>(rung) > static_cast<int>(start_route) &&
              exec.quarantine != nullptr) {
            if (exec.quarantine->demote(static_cast<long>(t), rung)) {
              ++local.recovery.quarantined;
              if (trace != nullptr) {
                trace->event("recovery.quarantined", static_cast<long>(t),
                             static_cast<long>(rung));
              }
            }
          }
        }
      }
    }

    {
      const telemetry::ScopedTimer span("tile.epilogue");
      for (int i = 0; i < m_eff; ++i) {
        for (int j = 0; j < n_eff; ++j) {
          c(bm + i, bn + j) = c_frag[static_cast<std::size_t>(i) * n_eff + j];
        }
      }
    }
    abft_checks_ctr.add(static_cast<std::uint64_t>(local.abft_tile_checks));
    abft_detected_ctr.add(static_cast<std::uint64_t>(local.abft_detected));
    abft_recomputed_ctr.add(
        static_cast<std::uint64_t>(local.abft_recomputed));
    abft_recovered_ctr.add(static_cast<std::uint64_t>(local.abft_recovered));
    abft_false_alarms_ctr.add(
        static_cast<std::uint64_t>(local.abft_false_alarms));
    const RecoveryReport& rec = local.recovery;
    rec_retries_ctr.add(static_cast<std::uint64_t>(rec.retries));
    rec_demotions_ctr.add(static_cast<std::uint64_t>(rec.demotions));
    long recovered = 0;
    for (int r = 0; r < kRouteCount; ++r) recovered += rec.recovered_on[r];
    rec_recovered_ctr.add(static_cast<std::uint64_t>(recovered));
    rec_quarantined_ctr.add(static_cast<std::uint64_t>(rec.quarantined));
    rec_quarantine_hits_ctr.add(
        static_cast<std::uint64_t>(rec.quarantine_hits));
    rec_alloc_fallbacks_ctr.add(
        static_cast<std::uint64_t>(rec.alloc_fallbacks));
    check_tile_done(pooled);
    const std::lock_guard<std::mutex> lock(stats_mu);
    stats.mainloop_iterations += local.mainloop_iterations;
    stats.staged_bytes += local.staged_bytes;
    stats.mma_instructions += local.mma_instructions;
    stats.abft_tile_checks += local.abft_tile_checks;
    stats.abft_detected += local.abft_detected;
    stats.abft_recomputed += local.abft_recomputed;
    stats.abft_recovered += local.abft_recovered;
    stats.abft_false_alarms += local.abft_false_alarms;
    stats.recovery.retries += rec.retries;
    stats.recovery.demotions += rec.demotions;
    for (int r = 0; r < kRouteCount; ++r) {
      stats.recovery.recovered_on[r] += rec.recovered_on[r];
      stats.recovery.demoted_to[r] += rec.demoted_to[r];
    }
    stats.recovery.quarantined += rec.quarantined;
    stats.recovery.quarantine_hits += rec.quarantine_hits;
    stats.recovery.alloc_fallbacks += rec.alloc_fallbacks;
  };

  // Fan out only onto an idle pool: checking and claiming it are one
  // step, and a pool held by another request means this caller runs
  // its own tiles in tile order instead of queueing behind it. A guard
  // abort is the first exception a tile throws; it is counted here,
  // once per execute.
  const auto tiles = static_cast<std::size_t>(grid.tiles());
  if (deadline_ns != 0) guard_watches_ctr.increment();
  try {
    if (pool.try_parallel_for(tiles, 1,
                              [&](std::size_t t) { run_tile(t, fan_out); })) {
      if (fan_out) grid_fanout_ctr.increment();
    } else {
      grid_inline_busy_ctr.increment();
      std::call_once(dispatch_logged, log_dispatch, "inline_busy");
      for (std::size_t t = 0; t < tiles; ++t) run_tile(t, false);
    }
  } catch (const DeadlineExceeded& e) {
    (e.reason() == CancelReason::kStall ? guard_stalls_ctr : guard_deadline_ctr)
        .increment();
    throw;
  } catch (const CancelledError&) {
    guard_cancellations_ctr.increment();
    throw;
  }
  if (exec.trace != nullptr) {
    exec.trace->event("exec.done", grid.tiles(),
                      static_cast<long>(stats.abft_detected));
  }
  return stats;
}

template TiledGemmStats run_tiled<float>(const FrozenPlan&, const ExecRails&,
                                         const TileGrid&, const Matrix<float>&,
                                         const Matrix<float>&, Matrix<float>&);
template TiledGemmStats run_tiled<std::complex<float>>(
    const FrozenPlan&, const ExecRails&, const TileGrid&,
    const Matrix<std::complex<float>>&, const Matrix<std::complex<float>>&,
    Matrix<std::complex<float>>&);

TileGrid TileGrid::uniform(int m, int n, const TileConfig& cfg) {
  const auto strips = [](int extent, int block) {
    std::vector<int> edges;
    for (int e = 0; e < extent; e += block) edges.push_back(e);
    edges.push_back(extent);
    return edges;
  };
  return {strips(m, cfg.block_m), strips(n, cfg.block_n)};
}

double balance_bound(const TileGrid& grid, std::size_t threads) {
  std::vector<double> load(std::max<std::size_t>(1, threads), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < grid.rows.size(); ++i) {
    for (std::size_t j = 0; j + 1 < grid.cols.size(); ++j) {
      const double work = static_cast<double>(grid.rows[i + 1] - grid.rows[i]) *
                          (grid.cols[j + 1] - grid.cols[j]);
      *std::min_element(load.begin(), load.end()) += work;
      total += work;
    }
  }
  const double makespan = *std::max_element(load.begin(), load.end());
  return makespan > 0.0
             ? total / (static_cast<double>(load.size()) * makespan)
             : 1.0;
}

void validate_tile_config(const TileConfig& config, int inst_k) {
  M3XU_CHECK_MSG(config.valid(),
                 "TileConfig invalid: block_m/block_n/block_k/warp_m/warp_n "
                 "must be positive and block_m/block_n divisible by "
                 "warp_m/warp_n");
  M3XU_CHECK_MSG(config.block_k % inst_k == 0,
                 "TileConfig.block_k must be a multiple of the mode's MMA "
                 "instruction K so chunk rounding boundaries line up");
}

/// Catch nonsensical resilience knobs where they enter (plan compile,
/// server construction) with a clear message instead of downstream
/// misbehavior: a NaN or negative tolerance that fails every checksum,
/// a recompute budget below one silently becoming one attempt.
void validate_resilience_config(const AbftConfig& abft) {
  M3XU_CHECK_MSG(std::isfinite(abft.tolerance_scale) &&
                     abft.tolerance_scale >= 0.0,
                 "AbftConfig.tolerance_scale must be finite and >= 0");
  M3XU_CHECK_MSG(abft.max_recompute >= 1,
                 "AbftConfig.max_recompute must be >= 1");
}

double abft_column_tolerance(const core::M3xuEngine& engine,
                             const TileConfig& config, const AbftConfig& abft,
                             const Matrix<float>& a, const Matrix<float>& b,
                             const Matrix<float>& c_in, int bm, int m_eff,
                             int j) {
  const int inst_k = core::shape_for(core::MxuMode::kFp32).k;
  const int k = a.cols();
  const long chunks = chunk_roundings(k, config.block_k, inst_k);
  double mag = 0.0;
  for (int i = 0; i < m_eff; ++i) {
    mag += std::fabs(static_cast<double>(c_in(bm + i, j)));
  }
  for (int kk = 0; kk < k; ++kk) {
    double acol = 0.0;
    for (int i = 0; i < m_eff; ++i) {
      acol += std::fabs(static_cast<double>(a(bm + i, kk)));
    }
    mag += acol * std::fabs(static_cast<double>(b(kk, j)));
  }
  return abft.tolerance_scale * static_cast<double>(chunks) *
         eps_per_chunk(engine.config().accum_prec) * mag;
}

}  // namespace m3xu::gemm
