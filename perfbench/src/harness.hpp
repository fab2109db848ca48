// Shared benchmark plumbing: command-line arguments, order statistics,
// the host fingerprint, process CPU/RSS readings, the bit-exact output
// gate, the ABFT-detection check, BENCHMARK.json reading, and result
// emission (human table, one detail JSON line, one result JSON line).
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_rev = "unknown";
  std::string root = ".";
  /// BENCHMARK.json's per_layer list, {name, unit} in report order;
  /// filled for traced runs before the workload starts.
  std::vector<std::pair<std::string, std::string>> per_layer;
};

/// Parses a whole JSON file; nullopt when it is missing or malformed.
std::optional<m3xu::telemetry::JsonValue> read_json_file(
    const std::string& path);

/// Quantile with linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// The q-quantile when at least ten samples lie beyond it; otherwise
/// the highest quantile, not below the median, that has ten beyond it
/// (a tail read from fewer samples is one outlier). `*used` receives
/// the quantile actually taken.
double tail_quantile(const std::vector<double>& v, double q, double* used);

/// Monotonic wall clock, nanoseconds (the library's now_ns() epoch, so
/// request trace timestamps compare directly).
std::uint64_t wall_ns();
/// Process CPU time (all threads), seconds.
double process_cpu_s();
/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Pins the calling thread to one CPU of its affinity mask after
/// another, each time next() is called; restores the mask on
/// destruction. A no-op where the mask cannot be read.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;
  void next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

struct Host {
  int nproc = 0;
  std::string mk_variant;
  std::string mk_block;
  std::size_t pool_threads = 0;
  int executors = 0;
  double load1_start = 0.0;
  double load1_end = 0.0;
  /// Share of a core each of nproc spinning probe threads received at
  /// start; well below 1 means other work competed for the cores.
  double cpu_probe_share = 0.0;
  /// Median loop rate of those threads, millions of iterations per
  /// second: a speed fingerprint to set beside the timings of a run.
  double cpu_probe_mloops = 0.0;
  /// Share of all CPU ticks the hypervisor stole during the run.
  double steal_share = 0.0;
  double steal0 = 0.0, ticks0 = 0.0;  // counters at start
  bool loaded = false;
  std::string compiler;
  std::string git_rev;
};

/// Fingerprints the host at run start and, in finish_host(), at run
/// end; prints a warning to stderr and sets `loaded` when the cores were
/// contended.
Host probe_host(const Args& args);
void finish_host(Host& host);

/// Bit-for-bit comparison of `n` elements (float or complex<float>).
template <typename T>
bool bits_equal(const T* got, const T* want, std::size_t n) {
  return std::memcmp(got, want, n * sizeof(T)) == 0;
}

/// Flips one bit of one output word in a copy of `out` and confirms the
/// gate rejects it: the run's proof that its correctness check can
/// fail. Returns true when the corrupted copy was rejected.
template <typename T>
bool gate_trips(const std::vector<T>& out, const std::vector<T>& want,
                std::uint64_t word) {
  std::vector<T> bad = out;
  std::uint32_t bits = 0;
  float* f = reinterpret_cast<float*>(bad.data());
  const std::size_t idx = word % (bad.size() * sizeof(T) / sizeof(float));
  std::memcpy(&bits, f + idx, sizeof(bits));
  bits ^= 1u;
  std::memcpy(f + idx, &bits, sizeof(bits));
  return !bits_equal(bad.data(), want.data(), bad.size());
}

/// ABFT tile detections (`abft.detected`) between two snapshots. On
/// the benchmark's clean inputs every one is a false detection, and a
/// run with any is not correct.
std::uint64_t abft_detections(const m3xu::telemetry::Snapshot& before,
                              const m3xu::telemetry::Snapshot& after);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_bits = 0;
  bool gate_tripped = false;
  /// ABFT detections over the whole run (setup and every phase).
  std::uint64_t abft_detected = 0;
  std::vector<Metric> metrics;
  /// Reported but not bounded: printed in the table and the detail
  /// line, never in the result line.
  std::vector<Metric> info;
  /// Free-form notes for the detail line (constants, quantiles used).
  std::vector<std::pair<std::string, std::string>> notes;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  /// Adds tail_quantile(v, q) * scale to `info` and notes the quantile
  /// used.
  void add_tail(const std::string& name, const std::vector<double>& v,
                double q, const std::string& unit, double scale);
  bool correct() const {
    return wrong_bits == 0 && gate_tripped && abft_detected == 0;
  }
};

/// Prints the human table, then the detail JSON line, then the result
/// JSON line (always last). Returns the process exit code: 0 when the
/// run was correct, 1 otherwise.
int emit(const Result& r, const Host& host);

/// Delta of a histogram's sum (e.g. summed nanoseconds) between two
/// telemetry snapshots.
std::uint64_t hist_sum_delta(const m3xu::telemetry::Snapshot& before,
                             const m3xu::telemetry::Snapshot& after,
                             const char* name);

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace perfbench
