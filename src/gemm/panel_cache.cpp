#include "gemm/panel_cache.hpp"

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::gemm {

namespace {

telemetry::Counter cache_hits_ctr("panel_cache.hits");
telemetry::Counter cache_misses_ctr("panel_cache.misses");
telemetry::Counter cache_evictions_ctr("panel_cache.evictions");
telemetry::Counter cache_corrupt_ctr("panel_cache.corrupt_dropped");

/// Word hash over every field of a compact B panel: dims, has_special,
/// the operand words, and each prescan entry's min_exp, max_exp and
/// flags (packed into one word; the struct's padding byte is left out).
template <typename Panel>
std::uint64_t checksum_panel(const Panel& p) {
  WordHash w;
  w.mix(static_cast<std::uint32_t>(p.k) |
        std::uint64_t{static_cast<std::uint32_t>(p.cols)} << 32);
  w.mix(static_cast<std::uint64_t>(p.has_special));
  w.mix(p.words.size());
  w.mix_bytes(p.words.data(), p.words.size() * sizeof(std::uint32_t));
  w.mix(p.meta.size());
  for (const core::PanelChunkMeta& m : p.meta) {
    w.mix(static_cast<std::uint16_t>(m.min_exp) |
          std::uint64_t{static_cast<std::uint16_t>(m.max_exp)} << 16 |
          std::uint64_t{m.flags} << 32);
  }
  return w.h;
}

/// corrupt_one's flip: item `index` of the words-then-prescan order.
template <typename Panel>
bool flip_item(Panel& p, std::size_t index) {
  if (index < p.words.size()) {
    p.words[index] ^= 1u << 7;
    return true;
  }
  index -= p.words.size();
  if (index < p.meta.size()) {
    p.meta[index].min_exp = static_cast<std::int16_t>(p.meta[index].min_exp ^ 1);
    return true;
  }
  return false;
}

}  // namespace

PanelCache::PanelCache(std::size_t capacity, bool verify)
    : capacity_(capacity), verify_(verify) {
  M3XU_CHECK_MSG(capacity_ > 0, "PanelCache capacity must be positive");
}

template <typename Panel, Panel PanelCache::Entry::*Member>
bool PanelCache::get_impl(const PanelKey& key, Panel* out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    cache_misses_ctr.increment();
    return false;
  }
  Entry& entry = it->second;
  if (verify_ && checksum_panel(entry.*Member) != entry.checksum) {
    // A corrupted panel must never be served: drop the entry so the
    // caller's repack replaces it, and make the event visible.
    lru_.erase(entry.lru_it);
    entries_.erase(it);
    ++corrupt_dropped_;
    cache_corrupt_ctr.increment();
    ++misses_;
    cache_misses_ctr.increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  *out = entry.*Member;
  ++hits_;
  cache_hits_ctr.increment();
  return true;
}

template <typename Panel, Panel PanelCache::Entry::*Member>
void PanelCache::put_impl(const PanelKey& key, const Panel& panel) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Without verify nothing ever reads the checksum.
  const std::uint64_t checksum = verify_ ? checksum_panel(panel) : 0;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Replacement (e.g. repack after a corruption drop raced another
    // packer): refresh in place.
    it->second.*Member = panel;
    it->second.checksum = checksum;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (entries_.size() >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
    cache_evictions_ctr.increment();
  }
  lru_.push_front(key);
  Entry entry;
  entry.*Member = panel;
  entry.checksum = checksum;
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
}

bool PanelCache::get(const PanelKey& key, core::PackedPanelFp32B* out) {
  return get_impl<core::PackedPanelFp32B, &Entry::f32>(key, out);
}

bool PanelCache::get(const PanelKey& key, core::PackedPanelFp32cB* out) {
  return get_impl<core::PackedPanelFp32cB, &Entry::f32c>(key, out);
}

void PanelCache::put(const PanelKey& key,
                     const core::PackedPanelFp32B& panel) {
  put_impl<core::PackedPanelFp32B, &Entry::f32>(key, panel);
}

void PanelCache::put(const PanelKey& key,
                     const core::PackedPanelFp32cB& panel) {
  put_impl<core::PackedPanelFp32cB, &Entry::f32c>(key, panel);
}

std::size_t PanelCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t PanelCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t PanelCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::uint64_t PanelCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}
std::uint64_t PanelCache::corrupt_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return corrupt_dropped_;
}

bool PanelCache::corrupt_one(std::uint64_t b_key, std::size_t index) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    if (key.b_key != b_key) continue;
    if (key.cplx ? flip_item(entry.f32c, index) : flip_item(entry.f32, index)) {
      return true;
    }
  }
  return false;
}

void PanelCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

}  // namespace m3xu::gemm
