#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/thread_pool.hpp"
#include "core/microkernel.hpp"
#include "telemetry/stopwatch.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_quantile(const std::vector<double>& v, double q, double* used) {
  const double n = static_cast<double>(v.size());
  *used = n > 0 ? std::max(0.5, std::min(q, 1.0 - 10.0 / n)) : q;
  return quantile(v, *used);
}

void Result::add_tail(const std::string& name, const std::vector<double>& v,
                      double q, const std::string& unit, double scale) {
  double used = q;
  const double value = tail_quantile(v, q, &used);
  info.push_back({name, value * scale, unit, v.size()});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.4g", 100.0 * used);
  notes.push_back({name + ".quantile", buf});
}

std::uint64_t wall_ns() { return m3xu::telemetry::now_ns(); }

CoreRotation::CoreRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CoreRotation::~CoreRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CoreRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[at_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// A run is flagged when its host was contended: the start-up probe got
// less than this share of a core, or the hypervisor stole more than
// this share of the CPU time during the run.
constexpr double kLoadedProbeShare = 0.7;
constexpr double kLoadedStealShare = 0.05;

double load1() {
  double l[1] = {0.0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

// Aggregate CPU tick counters of the host as this kernel sees them:
// {steal, total}. Steal is time a virtual CPU was ready but the
// hypervisor ran something else. {0, 0} where /proc/stat is absent.
std::pair<double, double> steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Spins one thread per core for a short window; sets the median share
// of wall time each thread got on a core and the median loop rate each
// thread reached (a core shared with other work runs the loop slower
// even when the thread keeps its share).
void cpu_probe(int threads, double* share, double* rate) {
  constexpr double kWindowS = 0.2;
  std::vector<double> shares(static_cast<std::size_t>(threads), 0.0);
  std::vector<double> rates(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> spinners;
  for (int t = 0; t < threads; ++t) {
    spinners.emplace_back([&shares, &rates, t] {
      const double c0 = thread_cpu_s();
      const m3xu::telemetry::Stopwatch sw;
      volatile std::uint64_t sink = 0;
      while (sw.seconds() < kWindowS) sink = sink + 1;
      const double secs = sw.seconds();
      shares[static_cast<std::size_t>(t)] = (thread_cpu_s() - c0) / secs;
      rates[static_cast<std::size_t>(t)] = 1e-6 * static_cast<double>(sink) / secs;
    });
  }
  for (auto& s : spinners) s.join();
  *share = median(shares);
  *rate = median(rates);
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Minimal one-line JSON string escaping (names and notes are ASCII).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Host probe_host(const Args& args) {
  Host h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.load1_start = load1();
  std::tie(h.steal0, h.ticks0) = steal_ticks();
  cpu_probe(std::max(1, h.nproc), &h.cpu_probe_share, &h.cpu_probe_mloops);
  // A contended host hands the probe threads visibly less than a core.
  h.loaded = h.cpu_probe_share < kLoadedProbeShare;
  const m3xu::core::MkVariant v =
      m3xu::core::mk_variant_resolve(m3xu::core::MkVariant::kAuto);
  h.mk_variant = m3xu::core::mk_variant_name(v);
  const m3xu::core::MkBlockShape blk = m3xu::core::mk_block_resolve(0, 0);
  h.mk_block = std::to_string(blk.mr) + "x" + std::to_string(blk.nr);
  h.pool_threads = m3xu::ThreadPool::global().thread_count();
  h.compiler = compiler_id();
  h.git_rev = args.git_rev;
  if (h.loaded) {
    std::fprintf(stderr,
                 "perfbench: WARNING host is loaded at start (cpu probe "
                 "share %.2f, load1 %.2f); results are flagged\n",
                 h.cpu_probe_share, h.load1_start);
  }
  return h;
}

void finish_host(Host& host) {
  host.load1_end = load1();
  const auto [steal, ticks] = steal_ticks();
  host.steal_share = ratio(steal - host.steal0, ticks - host.ticks0);
  if (host.steal_share > kLoadedStealShare) {
    host.loaded = true;
    std::fprintf(stderr,
                 "perfbench: WARNING the hypervisor stole %.1f%% of CPU time "
                 "during the run; results are flagged\n",
                 100.0 * host.steal_share);
  }
}

std::optional<m3xu::telemetry::JsonValue> read_json_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return m3xu::telemetry::JsonValue::parse(ss.str());
}

std::uint64_t abft_detections(const m3xu::telemetry::Snapshot& before,
                              const m3xu::telemetry::Snapshot& after) {
  return after.counter_delta(before, "abft.detected");
}

std::uint64_t hist_sum_delta(const m3xu::telemetry::Snapshot& before,
                             const m3xu::telemetry::Snapshot& after,
                             const char* name) {
  const auto* a = after.histogram(name);
  const auto* b = before.histogram(name);
  const std::uint64_t sa = a != nullptr ? a->sum : 0;
  const std::uint64_t sb = b != nullptr ? b->sum : 0;
  return sa > sb ? sa - sb : 0;
}

int emit(const Result& r, const Host& host) {
  std::printf("perfbench %s seed=%llu trace=%d\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed), r.trace ? 1 : 0);
  std::printf("host: nproc=%d mk=%s block=%s pool=%zu executors=%d "
              "load1=%.2f->%.2f cpu_probe=%.2f@%.1fM/s steal=%.1f%%%s "
              "compiler=%s rev=%s\n",
              host.nproc, host.mk_variant.c_str(), host.mk_block.c_str(),
              host.pool_threads, host.executors, host.load1_start,
              host.load1_end, host.cpu_probe_share, host.cpu_probe_mloops,
              100.0 * host.steal_share, host.loaded ? " LOADED" : "", host.compiler.c_str(),
              host.git_rev.c_str());
  std::printf("%-36s %16s %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : r.metrics) {
    std::printf("%-36s %16.6g %-8s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const Metric& m : r.info) {
    std::printf("%-36s %16.6g %-8s %8zu  (unbounded)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  const double failed_share =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("attempted=%llu failed=%llu failed_share=%.6g wrong_bits=%llu "
              "gate_selftest=%s abft_detected=%llu correct=%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), failed_share,
              static_cast<unsigned long long>(r.wrong_bits),
              r.gate_tripped ? "tripped" : "NOT-TRIPPED",
              static_cast<unsigned long long>(r.abft_detected),
              r.correct() ? "true" : "false");

  // Detail line: everything compare mode and a reader need beyond the
  // result line (which the contract fixes to four keys).
  std::string d = "{\"perfbench\":{\"workload\":" + quoted(r.workload) +
                  ",\"seed\":" + std::to_string(r.seed) +
                  ",\"trace\":" + (r.trace ? "1" : "0") +
                  ",\"failed_share\":" + num(failed_share) +
                  ",\"wrong_bits\":" + std::to_string(r.wrong_bits) +
                  ",\"gate_selftest\":" + (r.gate_tripped ? "true" : "false") +
                  ",\"abft_detected\":" + std::to_string(r.abft_detected) +
                  ",\"samples\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    d += (i ? "," : "") + quoted(r.metrics[i].name) + ":" +
         std::to_string(r.metrics[i].samples);
  }
  d += "},\"host\":{\"nproc\":" + std::to_string(host.nproc) +
       ",\"mk_variant\":" + quoted(host.mk_variant) +
       ",\"mk_block\":" + quoted(host.mk_block) +
       ",\"pool_threads\":" + std::to_string(host.pool_threads) +
       ",\"executors\":" + std::to_string(host.executors) +
       ",\"load1_start\":" + num(host.load1_start) +
       ",\"load1_end\":" + num(host.load1_end) +
       ",\"cpu_probe_share\":" + num(host.cpu_probe_share) +
       ",\"cpu_probe_mloops_per_s\":" + num(host.cpu_probe_mloops) +
       ",\"steal_share\":" + num(host.steal_share) +
       ",\"loaded\":" + (host.loaded ? "true" : "false") +
       ",\"compiler\":" + quoted(host.compiler) +
       ",\"git_rev\":" + quoted(host.git_rev) + "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    const Metric& m = r.info[i];
    d += (i ? "," : "") + quoted(m.name) + ":{\"value\":" + num(m.value) +
         ",\"unit\":" + quoted(m.unit) +
         ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  d += "},\"notes\":{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    d += (i ? "," : "") + quoted(r.notes[i].first) + ":" +
         quoted(r.notes[i].second);
  }
  d += "}}}";
  std::printf("%s\n", d.c_str());

  std::string line = "{\"correct\":" + std::string(r.correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    line += (i ? "," : "") + quoted(m.name) + ":{\"value\":" +
            num(std::isfinite(m.value) ? m.value : 0.0) +
            ",\"unit\":" + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

}  // namespace perfbench
