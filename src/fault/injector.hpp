// Deterministic single-bit fault injection for the M3XU datapath
// model (see docs/FAULT_INJECTION.md).
//
// A FaultInjector decides, at each *opportunity* (one value passing
// one injection site), whether to flip one bit. The decision for
// opportunity n at a site is a pure function of (seed, site, n), so
// two injectors constructed with the same seed and rates replay
// identical fault sites over identical call sequences - the property
// the campaign runner and the determinism tests rely on. Counters are
// atomic, so injection is thread-safe; bit-exact replay additionally
// requires a deterministic call order (serial execution or a
// single-tile grid in the tiled driver).
//
// Sites (threaded through core/data_assignment, core/dp_unit and
// core/mxu behind null-by-default pointers; the fault-free hot path
// never sees the hooks):
//   kOperandA / kOperandB - a lane operand's significand in the
//     data-assignment buffers, after split/routing;
//   kPartialProduct       - one 2*mult_bits-wide multiplier output
//     inside the dot-product unit, before the adder tree;
//   kAccumulator          - the accumulation register's significand
//     after a step's register update.
//
// System-level domains (threaded through the tiled GEMM driver; see
// docs/RESILIENCE.md):
//   kStagedPanel  - one bit of a staged A/B panel element (the
//     shared-memory buffer model), flipped after the stage copy;
//   kAllocFailure - a boolean event: packed-panel staging "fails to
//     allocate" and the driver must take its unpacked fallback;
//   kWorkerStall  - a boolean event: the worker computing a tile
//     sleeps for stall_duration_ms (exercises the deadline and stall
//     checks).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "fp/unpacked.hpp"

namespace m3xu::fault {

enum class Site : int {
  kOperandA = 0,
  kOperandB = 1,
  kPartialProduct = 2,
  kAccumulator = 3,
  kStagedPanel = 4,
  kAllocFailure = 5,
  kWorkerStall = 6,
};

inline constexpr int kSiteCount = 7;
/// The first kDatapathSiteCount sites are the engine-datapath ones;
/// sites at and beyond this index are system-level domains handled by
/// the tiled driver rather than the arithmetic model.
inline constexpr int kDatapathSiteCount = 4;

const char* site_name(Site site);

/// Per-opportunity bit-flip (or event-trigger) probabilities, one per
/// site.
struct SiteRates {
  double operand_a = 0.0;
  double operand_b = 0.0;
  double partial_product = 0.0;
  double accumulator = 0.0;
  double staged_panel = 0.0;
  double alloc_failure = 0.0;
  double worker_stall = 0.0;

  double rate(Site site) const;
  /// The four *datapath* sites at the same rate (system-level domains
  /// stay zero - existing campaigns and tests sweep the arithmetic
  /// model only; enable driver domains explicitly).
  static SiteRates uniform(double rate);
  /// Only `site` active, the rest zero.
  static SiteRates only(Site site, double rate);
};

/// One injected flip, for determinism tests and campaign reports.
struct FaultRecord {
  Site site;
  std::uint64_t event;  // per-site opportunity index
  int bit;              // flipped bit, LSB-relative within the field

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

class FaultInjector {
 public:
  FaultInjector(std::uint64_t seed, const SiteRates& rates);

  /// Flips the sampled bit of `value` (a `width`-bit field); returns
  /// `value` unchanged when this opportunity does not fault.
  std::uint64_t corrupt(Site site, std::uint64_t value, int width) const;

  /// Flips a bit among the top `prec` significand bits of a normalized
  /// value (the accumulation register's architectural significand),
  /// renormalizing afterwards; a flip that clears the whole significand
  /// yields zero. Zero/Inf/NaN register contents pass through (no
  /// significand datapath to corrupt) but still consume the
  /// opportunity, keeping replay aligned.
  fp::Unpacked corrupt_unpacked(Site site, const fp::Unpacked& value,
                                int prec) const;

  /// Boolean event sites (kAllocFailure, kWorkerStall): consumes one
  /// opportunity and returns whether the event fires. Fired events are
  /// recorded in the log like bit flips (bit 0 of a 1-bit field), so
  /// replay determinism covers them too.
  bool trigger(Site site) const;

  /// How long an injected kWorkerStall sleeps the worker, in
  /// milliseconds. Plain field: configure before handing the injector
  /// to an engine.
  int stall_duration_ms = 25;

  std::uint64_t seed() const { return seed_; }
  const SiteRates& rates() const { return rates_; }

  /// Opportunities seen / faults injected so far, per site and total.
  std::uint64_t opportunities(Site site) const;
  std::uint64_t injected(Site site) const;
  std::uint64_t total_injected() const;

  /// The first kLogCap injected flips, in injection order.
  std::vector<FaultRecord> log() const;

  static constexpr std::size_t kLogCap = 4096;

 private:
  /// Draws the decision for the next opportunity at `site`: the bit to
  /// flip in [0, width), or -1 for no fault. `*event_out` receives the
  /// opportunity index consumed.
  int sample(Site site, int width, std::uint64_t* event_out) const;
  void record(Site site, std::uint64_t event, int bit) const;

  std::uint64_t seed_;
  SiteRates rates_;
  mutable std::array<std::atomic<std::uint64_t>, kSiteCount> opportunities_;
  mutable std::array<std::atomic<std::uint64_t>, kSiteCount> injected_;
  mutable std::mutex log_mu_;
  mutable std::vector<FaultRecord> log_;
};

}  // namespace m3xu::fault
