// m3xu_bench: the repository benchmark.
//
//   m3xu_bench --workload <sgemm_large|cgemm_stream|serve_mixed>
//              --seed <n> --seconds <s> --trace <0|1>
//   m3xu_bench --selftest
//   m3xu_bench --calibrate [--seconds <s>]
//   m3xu_bench --compare <dir_a> <dir_b>
//
// A workload run prints a human table, a detail JSON line and, last,
// the result JSON line. See README.md for the metrics.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m3xu_bench --workload <sgemm_large|cgemm_stream|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1>\n"
               "       m3xu_bench --selftest\n"
               "       m3xu_bench --calibrate [--seconds <s>]\n"
               "       m3xu_bench --compare <dir_a> <dir_b>\n");
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_seconds(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !(v > 0.0) || v > 120.0) return false;
  *out = v;
  return true;
}

// Reads BENCHMARK.json's per_layer {name, unit} list into args.
bool load_per_layer(Args* args) {
  const std::string path = args->root + "/BENCHMARK.json";
  const auto bench = read_json_file(path);
  const m3xu::telemetry::JsonValue* list =
      bench ? bench->find("per_layer") : nullptr;
  if (list == nullptr || !list->is_array()) {
    std::fprintf(stderr, "m3xu_bench: cannot read per_layer from %s\n",
                 path.c_str());
    return false;
  }
  for (std::size_t i = 0; i < list->size(); ++i) {
    const m3xu::telemetry::JsonValue* name = list->at(i).find("name");
    const m3xu::telemetry::JsonValue* unit = list->at(i).find("unit");
    if (name == nullptr || unit == nullptr) return false;
    args->per_layer.emplace_back(name->as_string(), unit->as_string());
  }
  return !args->per_layer.empty();
}

}  // namespace

int run_selftest() {
  using m3xu::gemm::Matrix;
  m3xu::Rng rng(20240);
  Matrix<float> a(40, 72), b(72, 36), c(40, 36);
  m3xu::gemm::fill_random(a, rng);
  m3xu::gemm::fill_random(b, rng);
  const m3xu::gemm::GemmPlan plan =
      m3xu::gemm::GemmPlan::compile({}, {40, 36, 72, false});
  plan.execute(a, b, c);
  m3xu::core::M3xuConfig cfg;
  cfg.force_generic = true;
  std::vector<float> want(c.size(), 0.0f);
  m3xu::core::M3xuEngine(cfg).gemm_fp32_packed(40, 36, 72, a.data(), 72,
                                               b.data(), 36, want.data(), 36);
  const std::vector<float> got(c.data(), c.data() + c.size());
  const bool accepts = bits_equal(got.data(), want.data(), got.size());
  const bool trips = gate_trips(got, want, rng.next_u64());
  std::printf("gate accepts the plan output: %s\n", accepts ? "yes" : "NO");
  std::printf("gate rejects one flipped output word: %s\n",
              trips ? "yes" : "NO");

  // The ABFT check of a run: the same GEMM with ABFT on, on an engine
  // that injects transient faults, detects (and recovers) tiles; a run
  // that saw any detection must not report correct.
  const m3xu::fault::FaultInjector inj(37,
                                       m3xu::fault::SiteRates::uniform(1e-3));
  m3xu::core::M3xuConfig faulty;
  faulty.injector = &inj;
  m3xu::gemm::PlanOptions opts;
  opts.abft.enable = true;
  const auto before = m3xu::telemetry::snapshot();
  m3xu::gemm::GemmPlan::compile(faulty, {40, 36, 72, false}, opts)
      .execute(a, b, c);
  Result probe;
  probe.gate_tripped = true;
  probe.abft_detected = abft_detections(before, m3xu::telemetry::snapshot());
  const bool abft_trips = !probe.correct();
  std::printf("run check rejects ABFT detections (%llu under injected "
              "faults): %s\n",
              static_cast<unsigned long long>(probe.abft_detected),
              abft_trips ? "yes" : "NO");
  return accepts && trips && abft_trips ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool selftest = false, calibrate = false;
  std::vector<std::string> compare_dirs;
  bool have_workload = false, have_seconds = false;
  const std::vector<std::string> argl(argv + 1, argv + argc);
  for (std::size_t i = 0; i < argl.size(); ++i) {
    std::string key = argl[i], val;
    const std::size_t eq = key.find('=');
    const bool inline_val = eq != std::string::npos;
    if (inline_val) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    const auto take = [&](std::string* out) {
      if (inline_val) {
        *out = val;
        return true;
      }
      if (i + 1 >= argl.size()) return false;
      *out = argl[++i];
      return true;
    };
    std::string v;
    if (key == "--selftest") {
      selftest = true;
    } else if (key == "--calibrate") {
      calibrate = true;
    } else if (key == "--compare") {
      if (i + 2 >= argl.size()) return usage();
      compare_dirs = {argl[i + 1], argl[i + 2]};
      i += 2;
    } else if (key == "--workload") {
      if (!take(&args.workload)) return usage();
      have_workload = true;
    } else if (key == "--seed") {
      if (!take(&v) || !parse_u64(v, &args.seed)) return usage();
    } else if (key == "--seconds") {
      if (!take(&v) || !parse_seconds(v, &args.seconds)) return usage();
      have_seconds = true;
    } else if (key == "--trace") {
      if (!take(&v) || (v != "0" && v != "1")) return usage();
      args.trace = v == "1";
    } else if (key == "--git-rev") {
      if (!take(&args.git_rev)) return usage();
    } else if (key == "--root") {
      if (!take(&args.root)) return usage();
    } else {
      std::fprintf(stderr, "m3xu_bench: unknown argument %s\n", key.c_str());
      return usage();
    }
  }
  if (selftest) return run_selftest();
  if (calibrate) {
    if (!have_seconds) args.seconds = 10.0;
    return run_calibrate(args);
  }
  if (!compare_dirs.empty()) {
    return run_compare(args.root + "/BENCHMARK.json", compare_dirs[0],
                       compare_dirs[1]);
  }
  if (!have_workload) return usage();

  Result (*fn)(const Args&, Host&) = nullptr;
  if (args.workload == "sgemm_large") fn = run_sgemm_large;
  if (args.workload == "cgemm_stream") fn = run_cgemm_stream;
  if (args.workload == "serve_mixed") fn = run_serve_mixed;
  if (fn == nullptr) {
    std::fprintf(stderr, "m3xu_bench: unknown workload %s\n",
                 args.workload.c_str());
    return usage();
  }
  if (args.trace && !load_per_layer(&args)) return 2;
  Host host = probe_host(args);
  const auto before = m3xu::telemetry::snapshot();
  Result r = fn(args, host);
  r.abft_detected = abft_detections(before, m3xu::telemetry::snapshot());
  finish_host(host);
  return emit(r, host);
}
