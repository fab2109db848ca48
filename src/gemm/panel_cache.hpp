// The prepacked-B panel cache: an LRU of packed B panels with
// checksummed entries, and the one store the tiled driver reads packed
// B panels from.
//
// Many GEMMs run against few B matrices (serving weights, a plan
// executed against the same B), and the pack step re-splits the same B
// panel for every tile row and every call that touches it. A
// PanelCache lets the driver reuse a previously packed B panel keyed by
// (B identity, K-block, column block): tiles in the same column of the
// grid - and requests against the same weights - coalesce onto one
// pack. Two kinds of instance exist: the GemmServer's cache, shared
// across tenants (verify on), and each GemmPlan's private store
// (verify off, unbounded, one B at a time; see gemm/plan.hpp).
//
// The driver only consults a cache when ExecRails::b_key is nonzero
// AND the executing engine carries no fault injector: injected
// staged-panel corruption must never be published into a cache shared
// across requests (it would turn one transient fault into a persistent
// cross-request one). Ladder retries always repack locally for the
// same reason, so recovery is never at the mercy of a cached panel.
//
// With verify on, every entry carries a checksum computed at insertion
// and re-verified on every hit: a corrupted cached panel (chaos benches
// flip bits via corrupt_one(), and any real memory fault looks the
// same) is detected, dropped, and counted in
// panel_cache.corrupt_dropped - the caller repacks from source bytes
// instead of serving the corruption to every request that shares the
// panel. The checksum is a word hash (common/hash.hpp) over the whole
// compact panel - dims, has_special, operand words and prescan entries
// - so a flipped bit anywhere in it, including in the prescan that
// picks the microkernel's rounding window, is caught. See
// docs/SERVING.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/hash.hpp"
#include "core/packed_panel.hpp"

namespace m3xu::gemm {

/// Identity of one packed B panel: which B matrix (caller-assigned
/// key), which K-block x column-block slice of it, and the panel's
/// dimensions. The driver packs staged B slices of exactly (kc x cols)
/// at matrix offset (k0, col0).
struct PanelKey {
  std::uint64_t b_key = 0;  // ExecRails::b_key of the owning matrix
  int k0 = 0;               // K offset of the staged slice
  int col0 = 0;             // column offset of the staged slice
  int kc = 0;               // staged K extent
  int cols = 0;             // staged column extent
  bool cplx = false;        // fp32c panel (distinct key space)

  friend bool operator==(const PanelKey& a, const PanelKey& b) {
    return a.b_key == b.b_key && a.k0 == b.k0 && a.col0 == b.col0 &&
           a.kc == b.kc && a.cols == b.cols && a.cplx == b.cplx;
  }
};

/// PanelKey hash for the cache's unordered map.
struct PanelKeyHash {
  std::size_t operator()(const PanelKey& k) const {
    const auto pair = [](int lo, int hi) {
      return static_cast<std::uint32_t>(lo) |
             std::uint64_t{static_cast<std::uint32_t>(hi)} << 32;
    };
    WordHash w;
    w.mix(k.b_key);
    w.mix(pair(k.k0, k.col0));
    w.mix(pair(k.kc, k.cols));
    w.mix(static_cast<std::uint64_t>(k.cplx));
    return static_cast<std::size_t>(w.h);
  }
};

/// LRU prepacked-B panel cache (see file comment). Every method is
/// safe to call concurrently from driver worker threads.
class PanelCache {
 public:
  /// `capacity` = max cached panels (LRU eviction past it). `verify`
  /// checksums entries at put and re-checks them on every get;
  /// disabling trades the integrity guarantee for lookup speed.
  explicit PanelCache(std::size_t capacity, bool verify = true);

  /// On a verified hit, copies the cached panel into *out and returns
  /// true. Returns false on a miss or when the entry fails its checksum
  /// (the entry is dropped so the repacked panel replaces it).
  bool get(const PanelKey& key, core::PackedPanelFp32B* out);
  bool get(const PanelKey& key, core::PackedPanelFp32cB* out);

  /// Publishes a freshly packed panel (copied in).
  void put(const PanelKey& key, const core::PackedPanelFp32B& panel);
  void put(const PanelKey& key, const core::PackedPanelFp32cB& panel);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  // Lifetime totals (also mirrored into panel_cache.* telemetry).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::uint64_t corrupt_dropped() const;

  /// Fault hook for tests and the chaos bench: flips one bit inside
  /// some cached panel of `b_key` without updating its checksum,
  /// modeling a memory fault in the shared cache. `index` picks the
  /// panel item: operand words count first (a significand bit flips),
  /// then prescan entries (a min_exp bit flips). Returns false when no
  /// entry of `b_key` has that item.
  bool corrupt_one(std::uint64_t b_key, std::size_t index = 0);

  /// Drops every entry; the lifetime totals keep counting.
  void clear();

 private:
  struct Entry {
    // Exactly one panel is populated, selected by key.cplx.
    core::PackedPanelFp32B f32;
    core::PackedPanelFp32cB f32c;
    std::uint64_t checksum = 0;
    std::list<PanelKey>::iterator lru_it;
  };

  template <typename Panel, Panel Entry::*Member>
  bool get_impl(const PanelKey& key, Panel* out);
  template <typename Panel, Panel Entry::*Member>
  void put_impl(const PanelKey& key, const Panel& panel);

  const std::size_t capacity_;
  const bool verify_;
  mutable std::mutex mu_;
  std::list<PanelKey> lru_;  // front = most recently used
  std::unordered_map<PanelKey, Entry, PanelKeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
};

}  // namespace m3xu::gemm
