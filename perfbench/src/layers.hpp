// Per-layer measurement for the traced run: the per-layer report, a
// core-call replay that times the packed-panel and microkernel
// entry points single-threaded on a workload's own operands, and
// telemetry-counter shares of the mxu route counters.
#pragma once

#include <complex>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/mxu.hpp"
#include "gemm/matrix.hpp"
#include "gemm/tiled_driver.hpp"
#include "harness.hpp"

namespace perfbench {

/// Collects per-layer values by name, then appends every metric of
/// BENCHMARK.json's per_layer list (`Args::per_layer`) to a Result in
/// that order. A layer a workload does not exercise reads 0 (README.md
/// lists which apply where); setting a name the list lacks aborts.
class LayerReport {
 public:
  explicit LayerReport(
      const std::vector<std::pair<std::string, std::string>>& list)
      : list_(list) {}
  void set(const std::string& name, double value, std::size_t samples);
  void emit_into(Result& r) const;

 private:
  const std::vector<std::pair<std::string, std::string>>& list_;
  std::map<std::string, std::pair<double, std::size_t>> values_;
};

/// Timings of the core calls one execute issues, replayed in the tiled
/// driver's order from the plan's TileConfig: per (tile, K-block) stage
/// and pack the A block and the B block, then per warp tile one
/// microkernel call over the register-block-multiple interior and
/// per-element calls over the edge strips.
struct CoreReplay {
  double pack_a_s = 0.0;
  double pack_b_s = 0.0;
  double mk_s = 0.0;
  double edge_s = 0.0;
  double a_elems = 0.0;
  double b_elems = 0.0;
  double mk_macs = 0.0;
  double edge_macs = 0.0;
};

/// Replays repeatedly (at least once, until `min_seconds` have passed)
/// and returns the per-field medians.
template <typename T>
CoreReplay replay_core(const m3xu::core::M3xuEngine& engine,
                       const m3xu::gemm::TileConfig& tile,
                       const m3xu::gemm::Matrix<T>& a,
                       const m3xu::gemm::Matrix<T>& b, double min_seconds);

/// Reports core.* metrics: the replay rates plus the mxu route-counter
/// shares over [before, after) for the dtype prefix ("mxu.fp32" or
/// "mxu.fp32c").
void report_core(LayerReport& rep, const CoreReplay& replay,
                 const m3xu::telemetry::Snapshot& before,
                 const m3xu::telemetry::Snapshot& after,
                 const std::string& mxu_prefix);

/// Reports threadpool.* metrics over [before, after) for `ops`
/// operations on a pool of `threads` threads.
void report_threadpool(LayerReport& rep,
                       const m3xu::telemetry::Snapshot& before,
                       const m3xu::telemetry::Snapshot& after,
                       std::size_t threads, std::uint64_t ops);

}  // namespace perfbench
