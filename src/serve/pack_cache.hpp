// LRU prepacked-B panel cache with checksummed entries - the concrete
// gemm::PanelCache the GemmServer shares across tenants.
//
// Serving traffic is many GEMMs against few B matrices (weights), so
// the driver's per-(K-block, column-block) B packs coalesce: the first
// request packs, everyone after hits. Because the cache is shared
// mutable state on the result path, every entry carries a checksum
// computed at insertion and re-verified on every hit: a corrupted
// cached panel (bench chaos mode flips bits via corrupt_one(), and any
// real memory fault looks the same) is detected, dropped, and counted
// in serve.pack_cache.corrupt_dropped - the caller repacks from source
// bytes instead of serving the corruption to every request that shares
// the panel.
//
// The checksum is a word hash (common/hash.hpp) over the whole compact
// panel - dims, has_special, operand words and prescan entries - so a
// flipped bit anywhere in it, including in the prescan that picks the
// microkernel's rounding window, is caught. See docs/SERVING.md.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/packed_panel.hpp"
#include "gemm/panel_cache.hpp"

namespace m3xu::serve {

class PackCache final : public gemm::PanelCache {
 public:
  /// `capacity` = max cached panels (LRU eviction past it). `verify`
  /// re-checksums entries on every get; disabling trades the integrity
  /// guarantee for lookup speed (tests and the chaos bench keep it on).
  explicit PackCache(std::size_t capacity, bool verify = true);

  bool get_fp32(const gemm::PanelKey& key,
                core::PackedPanelFp32B* out) override;
  bool get_fp32c(const gemm::PanelKey& key,
                 core::PackedPanelFp32cB* out) override;
  void put_fp32(const gemm::PanelKey& key,
                const core::PackedPanelFp32B& panel) override;
  void put_fp32c(const gemm::PanelKey& key,
                 const core::PackedPanelFp32cB& panel) override;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  // Lifetime totals (also mirrored into serve.pack_cache.* telemetry).
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

  void clear();

 private:
  struct Entry {
    // Exactly one panel is populated, selected by key.cplx.
    core::PackedPanelFp32B f32;
    core::PackedPanelFp32cB f32c;
    std::uint64_t checksum = 0;
    std::list<gemm::PanelKey>::iterator lru_it;
  };

  template <typename Panel, Panel Entry::*Member>
  bool get_impl(const gemm::PanelKey& key, Panel* out);
  template <typename Panel, Panel Entry::*Member>
  void put_impl(const gemm::PanelKey& key, const Panel& panel);

  const std::size_t capacity_;
  const bool verify_;
  mutable std::mutex mu_;
  std::list<gemm::PanelKey> lru_;  // front = most recently used
  std::unordered_map<gemm::PanelKey, Entry, gemm::PanelKeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
};

}  // namespace m3xu::serve
