// Compare mode: reads two directories of saved untraced run outputs
// (stdout of `run.py --workload ... --trace 0`, one file per run),
// pairs runs by workload and seed, and for every end-to-end metric in
// BENCHMARK.json prints each side's median and quartiles, the pair wins
// and a verdict:
//
//   improved    B wins at least nine tenths of at least ten pairs and
//               the medians differ by more than A's quartile spread;
//   worse       B's median is worse than A's by more than the bound;
//   unresolved  fewer than ten pairs, or either side's quartile spread
//               exceeds the bound (unless every B run beats every A
//               run);
//   unchanged   otherwise.
//
// Quartiles use the exclusive method of Python's
// statistics.quantiles(values, n=4).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using m3xu::telemetry::JsonValue;

struct MetricSpec {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

// workload -> seed -> metric -> value
using RunSet = std::map<std::string, std::map<std::uint64_t, std::map<std::string, double>>>;

RunSet load_dir(const std::string& dir) {
  RunSet set;
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
    if (lines.size() < 2) continue;
    const auto result = JsonValue::parse(lines.back());
    const auto detail = JsonValue::parse(lines[lines.size() - 2]);
    const JsonValue* info = detail ? detail->find("perfbench") : nullptr;
    if (!result || info == nullptr) {
      std::fprintf(stderr, "compare: skipping %s (no result lines)\n",
                   path.c_str());
      continue;
    }
    if (info->find("trace") == nullptr || info->find("trace")->as_int() != 0) {
      continue;  // end-to-end metrics come from untraced runs only
    }
    const JsonValue* correct = result->find("correct");
    if (correct == nullptr || !correct->as_bool()) {
      std::fprintf(stderr, "compare: %s is an incorrect run; skipped\n",
                   path.c_str());
      continue;
    }
    const std::string workload = info->find("workload")->as_string();
    const std::uint64_t seed = info->find("seed")->as_uint();
    const JsonValue* metrics = result->find("metrics");
    if (metrics == nullptr) continue;
    for (const auto& [name, m] : metrics->members()) {
      if (const JsonValue* v = m.find("value")) {
        set[workload][seed][name] = v->as_double();
      }
    }
  }
  return set;
}

std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 0) return {0, 0, 0};
  if (ld == 1) return {v[0], v[0], v[0]};
  std::vector<double> q;
  const long m = ld + 1, n = 4;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    q.push_back((v[j - 1] * static_cast<double>(n - delta) +
                 v[j] * static_cast<double>(delta)) /
                static_cast<double>(n));
  }
  return q;
}

}  // namespace

int run_compare(const std::string& bench_json, const std::string& dir_a,
                const std::string& dir_b) {
  const auto bench = read_json_file(bench_json);
  const JsonValue* e2e = bench ? bench->find("end_to_end") : nullptr;
  if (e2e == nullptr || !e2e->is_array()) {
    std::fprintf(stderr, "compare: cannot read end_to_end from %s\n",
                 bench_json.c_str());
    return 2;
  }
  std::vector<MetricSpec> specs;
  for (std::size_t i = 0; i < e2e->size(); ++i) {
    const JsonValue& m = e2e->at(i);
    const JsonValue* name = m.find("name");
    const JsonValue* better = m.find("better");
    const JsonValue* bound = m.find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr) continue;
    specs.push_back({name->as_string(), better->as_string() == "lower",
                     bound->as_double()});
  }
  const RunSet a = load_dir(dir_a);
  const RunSet b = load_dir(dir_b);
  std::printf("%-14s %-16s %5s %24s %24s %9s %8s  %s\n", "workload", "metric",
              "pairs", "A median [q1, q3]", "B median [q1, q3]", "B/A/pairs",
              "delta", "verdict");
  int worse = 0;
  for (const auto& [workload, runs_a] : a) {
    const auto it_b = b.find(workload);
    if (it_b == b.end()) continue;
    for (const MetricSpec& s : specs) {
      std::vector<double> va, vb, pa, pb;
      for (const auto& [seed, m] : runs_a) {
        const auto ma = m.find(s.name);
        if (ma != m.end()) va.push_back(ma->second);
      }
      for (const auto& [seed, m] : it_b->second) {
        const auto mb = m.find(s.name);
        if (mb != m.end()) vb.push_back(mb->second);
        const auto ra = runs_a.find(seed);
        if (ra == runs_a.end() || mb == m.end()) continue;
        const auto ma = ra->second.find(s.name);
        if (ma == ra->second.end()) continue;
        pa.push_back(ma->second);
        pb.push_back(mb->second);
      }
      if (va.empty() || vb.empty()) continue;
      const auto better = [&](double x, double y) {
        return s.lower_is_better ? x < y : x > y;
      };
      std::size_t b_wins = 0, a_wins = 0;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (better(pb[i], pa[i])) ++b_wins;
        if (better(pa[i], pb[i])) ++a_wins;
      }
      const std::vector<double> qa = quartiles(va), qb = quartiles(vb);
      const double med_a = qa[1], med_b = qb[1];
      const double iqr_a = qa[2] - qa[0], iqr_b = qb[2] - qb[0];
      const double gain = s.lower_is_better ? med_a - med_b : med_b - med_a;
      const double rel = med_a != 0.0 ? gain / std::fabs(med_a) : 0.0;
      const bool all_b_better =
          better(s.lower_is_better ? *std::max_element(vb.begin(), vb.end())
                                   : *std::min_element(vb.begin(), vb.end()),
                 s.lower_is_better ? *std::min_element(va.begin(), va.end())
                                   : *std::max_element(va.begin(), va.end()));
      const std::size_t n = pa.size();
      const char* verdict = "unchanged";
      if (n < 10) {
        verdict = "unresolved";
      } else if (10 * b_wins >= 9 * n && std::fabs(med_b - med_a) > iqr_a &&
                 gain > 0) {
        verdict = "improved";
      } else if (-rel > s.bound) {
        verdict = "worse";
        ++worse;
      } else if ((iqr_a > s.bound * std::fabs(med_a) ||
                  iqr_b > s.bound * std::fabs(med_b)) &&
                 !all_b_better) {
        verdict = "unresolved";
      }
      char ca[64], cb[64], wins[32];
      std::snprintf(ca, sizeof(ca), "%.4g [%.4g, %.4g]", med_a, qa[0], qa[2]);
      std::snprintf(cb, sizeof(cb), "%.4g [%.4g, %.4g]", med_b, qb[0], qb[2]);
      std::snprintf(wins, sizeof(wins), "%zu/%zu/%zu", b_wins, a_wins, n);
      std::printf("%-14s %-16s %5zu %24s %24s %9s %+7.2f%%  %s\n",
                  workload.c_str(), s.name.c_str(), n, ca, cb, wins,
                  100.0 * rel, verdict);
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace perfbench
