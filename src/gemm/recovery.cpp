#include "gemm/recovery.hpp"

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::gemm {

namespace {
telemetry::Counter quarantine_evictions_ctr("recovery.quarantine_evictions");
}  // namespace

const char* route_name(Route route) {
  switch (route) {
    case Route::kMicrokernel:
      return "microkernel";
    case Route::kGenericPerDot:
      return "generic_perdot";
    case Route::kScalarReference:
      return "scalar_reference";
  }
  return "?";
}

TileQuarantine::TileQuarantine(std::size_t capacity) : capacity_(capacity) {
  M3XU_CHECK_MSG(capacity_ > 0,
                 "TileQuarantine capacity must be positive (a zero-capacity "
                 "quarantine could never record anything)");
}

bool TileQuarantine::lookup(long tile, Route* route) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tiles_.find(tile);
  if (it == tiles_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  *route = it->second.route;
  return true;
}

bool TileQuarantine::demote(long tile, Route route) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tiles_.find(tile);
  if (it != tiles_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    if (static_cast<int>(route) > static_cast<int>(it->second.route)) {
      it->second.route = route;
      return true;
    }
    return false;
  }
  if (tiles_.size() >= capacity_) {
    const long victim = lru_.back();
    lru_.pop_back();
    tiles_.erase(victim);
    ++evictions_;
    quarantine_evictions_ctr.increment();
  }
  lru_.push_front(tile);
  tiles_.emplace(tile, Entry{route, lru_.begin()});
  return true;
}

std::size_t TileQuarantine::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tiles_.size();
}

std::uint64_t TileQuarantine::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void TileQuarantine::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  tiles_.clear();
  lru_.clear();
}

}  // namespace m3xu::gemm
