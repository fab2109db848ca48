// Recovery policy for the resilient tiled GEMM driver: the existing
// route hierarchy doubles as a degradation ladder.
//
// Every route computes bit-identical results by construction (same
// step schedule, same rounding points - verified by the tiled tests),
// so demoting a tile trades only throughput, never numerics:
//
//   kMicrokernel      register-blocked packed microkernel (fastest)
//   kGenericPerDot    per-dot instructions over the packed panel words
//   kScalarReference  plain per-dot gemm over the staged buffers
//                     (no packing at all - also the allocation-failure
//                     fallback)
//
// On an ABFT detection the driver retries the tile once on its rung,
// then demotes one rung and retries again, always down to
// kScalarReference. The bottom rung runs twice on the fault-free engine
// clone (the "trusted scalar unit"), whose deterministic reproduction
// either passes the checksum or proves the mismatch is a tolerance
// artifact - so every detection settles. Persistent offenders can be
// remembered in a TileQuarantine (ExecRails::quarantine) so later calls
// start them on a lower rung directly. See docs/RESILIENCE.md.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/cancellation.hpp"

namespace m3xu {
class ThreadPool;
}

namespace m3xu::telemetry {
class TraceContext;  // see telemetry/trace_context.hpp
}

namespace m3xu::gemm {

class PanelCache;  // see gemm/panel_cache.hpp

/// One rung of the demotion ladder, fastest first. Higher enum values
/// are *lower* rungs.
enum class Route : int {
  kMicrokernel = 0,
  kGenericPerDot = 1,
  kScalarReference = 2,
};

inline constexpr int kRouteCount = 3;

const char* route_name(Route route);

/// Thread-safe per-tile route memory shared across driver calls: a
/// tile that had to demote records its landing rung, and later GEMMs
/// over the same grid start that tile there instead of re-walking the
/// ladder. Keyed by flat tile index (row * grid_n + col), so reuse a
/// quarantine only across calls with the same tile grid.
///
/// The tracked-tile set is bounded: at most `capacity` entries, with
/// least-recently-touched eviction (a lookup hit or a demote both
/// refresh an entry). A long-lived server can therefore share one
/// quarantine per tenant indefinitely - cold entries age out instead
/// of growing the map without limit. Evictions are counted here and in
/// the recovery.quarantine_evictions telemetry counter.
class TileQuarantine {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit TileQuarantine(std::size_t capacity = kDefaultCapacity);

  /// Looks up the quarantined rung for `tile`. Returns false (and
  /// leaves *route untouched) when the tile is not quarantined. A hit
  /// refreshes the entry's LRU position.
  bool lookup(long tile, Route* route) const;

  /// Quarantines `tile` at `route`. Only ever lowers (a recorded rung
  /// is never raised back up). Returns true when the entry is new or
  /// was lowered. May evict the least-recently-touched entry when the
  /// quarantine is at capacity.
  bool demote(long tile, Route route);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped by LRU eviction since construction (clear() does
  /// not count).
  std::uint64_t evictions() const;
  void clear();

 private:
  struct Entry {
    Route route;
    std::list<long>::iterator lru_it;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
  // Front = most recently touched. splice() moves nodes without
  // invalidating the iterators stored in tiles_.
  mutable std::list<long> lru_;
  std::unordered_map<long, Entry> tiles_;
};

/// How the driver recovers a tile whose ABFT checksum fails. The ladder
/// itself is fixed - one attempt per faulty rung, two on the fault-free
/// scalar rung - so the one choice is which protocol runs.
struct RecoveryPolicy {
  /// true walks the demotion ladder. false runs the clean-recompute
  /// protocol instead: up to AbftConfig::max_recompute recomputes on
  /// the fault-free clone, then AbftFailure - no ladder, no quarantine.
  /// Every recompute is fault-free, so a transient fault recovers
  /// bit-exactly; a ladder retry runs the primary datapath again and
  /// can pick up a new flip below the checksum tolerance
  /// (docs/FAULT_INJECTION.md).
  bool demote = true;
};

/// Per-execute guard rails: the request-scoped counterpart of a plan's
/// frozen PlanOptions (gemm/plan.hpp), read by the driver's tile loop.
/// token, deadline_ms and stall_ms are enforced in one place, the
/// driver's guard checkpoint (gemm/tiled_driver.cpp), which counts
/// every abort once in gemm.guard.* telemetry. All default-off:
/// default rails leave the driver byte-identical to the unguarded
/// path.
struct ExecRails {
  /// Cooperative cancellation, polled at tile entry and per staged
  /// K-block.
  const CancellationToken* token = nullptr;
  /// Wall deadline for the execute, in ms (0 = none), counted from the
  /// execute's start. Checked where the token is and again at tile
  /// exit: once it has elapsed the execute throws DeadlineExceeded
  /// (kDeadline).
  std::int64_t deadline_ms = 0;
  /// No-progress window, in ms (0 = none): a tile that completes after
  /// a gap this long since the previous completion aborts the execute
  /// with DeadlineExceeded (kStall); only a grid fanned out over the
  /// pool checks it. Requires a nonzero deadline_ms as a backstop
  /// (validated per execute).
  std::int64_t stall_ms = 0;
  /// Per-tenant tile memory for this execute (non-owning; may be
  /// null). Read and written only by the demotion ladder.
  TileQuarantine* quarantine = nullptr;
  /// Optional shared prepacked-B cache (non-owning; may be null), e.g.
  /// the GemmServer's; takes precedence over a plan's private store
  /// (another PanelCache). Only consulted when b_key is nonzero and
  /// the engine carries no fault injector - injected staged-panel
  /// corruption must never enter a cache shared across requests.
  /// Ladder retries always repack locally, so a corrupted cached panel
  /// cannot defeat recovery.
  PanelCache* b_cache = nullptr;
  /// Caller-assigned identity of the B matrix contents for cache keys
  /// (0 = caching disabled for this call). Callers must guarantee two
  /// calls share a b_key only when their B bytes are identical.
  std::uint64_t b_key = 0;
  /// Thread pool the driver partitions the tile grid across (non-
  /// owning; null = ThreadPool::global()). Its thread count picks the
  /// plan's grid (plan_grid); results are bit-identical for every pool
  /// size - tiles are independent and each tile's K-chunk schedule is
  /// fixed - so this only chooses where the work runs (benchmark
  /// thread sweeps, per-tenant pools, deterministic fault replay).
  ThreadPool* pool = nullptr;
  /// Optional request-scoped trace (non-owning; may be null). The
  /// driver logs tile-level milestones - pack-cache hits, ABFT
  /// detections, ladder retries/demotions, quarantine activity - into
  /// it and installs it as the active thread-local context around each
  /// tile so the core route dispatch can attribute route decisions to
  /// the request.
  telemetry::TraceContext* trace = nullptr;
};

/// What the recovery layer did during one driver call. Folded into
/// TiledGemmStats and mirrored into telemetry recovery.* counters.
struct RecoveryReport {
  long retries = 0;          // recompute attempts driven by the ladder
  long demotions = 0;        // rung steps taken (summed over tiles)
  long recovered_on[kRouteCount] = {};  // recoveries by landing rung
  long demoted_to[kRouteCount] = {};    // rung arrivals (ladder steps)
  long quarantined = 0;      // tiles newly added/lowered in quarantine
  long quarantine_hits = 0;  // tiles that started on a quarantined rung
  long alloc_fallbacks = 0;  // staged K-blocks that lost their packed
                             // panels (bad_alloc or injected) and ran
                             // the unpacked per-dot fallback
};

}  // namespace m3xu::gemm
