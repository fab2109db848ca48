// GEMM throughput baseline across the two M3XU routes: per-dot
// (re-running the data-assignment split inside the (i, j, k-chunk)
// loop) and the packed register-blocked microkernel (operand words
// packed once per panel and split in registers, MR x NR output blocks -
// partial at the edges - with pack-time exponent prescan). Emits BENCH_gemm.json so later changes have a perf
// trajectory to regress against; also verifies both routes produce
// bit-identical C before reporting. Timing, JSON emission, and route
// attribution all go through src/telemetry: each case brackets its
// timed reps with registry snapshots, and the counter deltas become the
// "route_hit_rates" section of the report (all-zero rates in
// M3XU_TELEMETRY=OFF builds).
//
// Flags: --m/--n/--k sgemm geometry (default 512^3), --cm/--cn/--ck
// cgemm geometry (default 192^3, per-dot complex is ~4x the scalar
// cost), --reps timed repetitions per case (median reported with
// min/max and the coefficient of variation),
// --warmup untimed repetitions per case, --seed, --out=path (default
// BENCH_gemm.json), --trace=path for a Chrome trace_event JSON of the
// run, --metrics=path for the standalone telemetry metrics export,
// --json-only to suppress the human-readable table, --threads=N to
// size the global pool (must win the race to the first pool use, so it
// is applied straight from flag parsing), --thread-sweep=1,2,4 to
// additionally run the microkernel route through the threaded tiled
// driver on a dedicated pool per listed size - each point is gated
// bitwise against the single-threaded per-dot reference and recorded
// as a "thread_scaling" curve (seconds / GFLOP/s / speedup vs the
// single-thread point) labeled with the microkernel variant that
// actually ran - and to run the per-dot route once per listed size,
// untimed, at a small geometry, gated bitwise against the flat engine
// loop ("perdot_pool_gate"), --plan to
// additionally benchmark the compile-then-execute GemmPlan layer:
// compile+prepack cost, first-execute cost, repeat-execute median,
// whether repeat executes amortize compilation, and a bit-identity
// check of the plan result against the per-dot reference (folded into
// the exit gate).
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/microkernel.hpp"
#include "core/mxu.hpp"
#include "gemm/kernels.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/stopwatch.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

using namespace m3xu;

namespace {

/// The pre-packed-path kM3xu kernel route: fixed 32-row blocks on the
/// global pool, each calling the per-dot engine GEMM.
template <typename T, typename GemmFn>
void per_dot_row_blocks(int m, const GemmFn& gemm) {
  constexpr int kBlock = 32;
  const int blocks = (m + kBlock - 1) / kBlock;
  parallel_for(static_cast<std::size_t>(blocks), [&](std::size_t b) {
    const int r0 = static_cast<int>(b) * kBlock;
    gemm(r0, std::min(kBlock, m - r0));
  });
}

/// Spread of one measurement's timed reps: min / median / max seconds
/// and the coefficient of variation (sample standard deviation over
/// the mean; 0 for a single rep).
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double cv = 0.0;
};

Spread summarize(std::vector<double> times) {
  Spread s;
  if (times.empty()) return s;
  std::sort(times.begin(), times.end());
  // Median: middle sample, or mean of the middle two for even reps.
  const std::size_t h = times.size() / 2;
  s.median = times.size() % 2 != 0 ? times[h]
                                   : 0.5 * (times[h - 1] + times[h]);
  s.min = times.front();
  s.max = times.back();
  if (times.size() > 1) {
    double mean = 0.0;
    for (const double t : times) mean += t;
    mean /= static_cast<double>(times.size());
    double var = 0.0;
    for (const double t : times) var += (t - mean) * (t - mean);
    var /= static_cast<double>(times.size() - 1);
    s.cv = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  }
  return s;
}

/// Writes a spread's fields next to a measurement's median "seconds".
void write_spread(telemetry::JsonWriter& w, const Spread& s) {
  w.key("seconds_min").value(s.min, 6);
  w.key("seconds_max").value(s.max, 6);
  w.key("seconds_cv").value(s.cv, 4);
}

struct Case {
  std::string name;
  int m, n, k;
  int reps;
  double seconds;  // median of reps
  Spread spread;
  double gflops;
  // Registry snapshots bracketing the timed reps; the delta attributes
  // engine routes (microkernel blocks, pair fallbacks, SIMD variant) to
  // this case.
  telemetry::Snapshot before, after;
};

template <typename Fn>
Case time_case(const std::string& name, int m, int n, int k,
               double flops_per_mnk, int reps, int warmup, const Fn& fn) {
  for (int r = 0; r < warmup; ++r) fn();
  Case out;
  out.before = telemetry::snapshot();
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const telemetry::Stopwatch sw;
    fn();
    times.push_back(sw.seconds());
  }
  out.after = telemetry::snapshot();
  out.spread = summarize(std::move(times));
  const double med = out.spread.median;
  const double flops = flops_per_mnk * static_cast<double>(m) * n * k;
  out.name = name;
  out.m = m;
  out.n = n;
  out.k = k;
  out.reps = reps;
  out.seconds = med;
  out.gflops = flops / med / 1e9;
  return out;
}

std::uint64_t delta(const Case& c, std::string_view counter) {
  return c.after.counter_delta(c.before, counter);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// One dtype's GemmPlan measurements (--plan mode).
struct PlanReport {
  double compile_seconds = 0.0;        // GemmPlan::compile + prepack_b
  double first_execute_seconds = 0.0;  // first execute (panels prepacked)
  double repeat_execute_seconds = 0.0; // median of the timed reps
  bool amortized = false;  // repeat execute < compile + first execute
  bool bit_identical = true;  // plan result == per-dot reference
};

void write_plan_report(telemetry::JsonWriter& w, const PlanReport& rep) {
  w.begin_object();
  w.key("compile_seconds").value(rep.compile_seconds, 6);
  w.key("first_execute_seconds").value(rep.first_execute_seconds, 6);
  w.key("repeat_execute_seconds").value(rep.repeat_execute_seconds, 6);
  w.key("compile_plus_first_execute_seconds")
      .value(rep.compile_seconds + rep.first_execute_seconds, 6);
  w.kv("amortized", rep.amortized);
  w.kv("bit_identical", rep.bit_identical);
  w.end_object();
}

/// Compiles a default-config plan for (m, n, k), prepacks B, and
/// measures compile / first-execute / repeat-execute, gating the plan
/// result bitwise against the per-dot reference `c_ref`.
template <typename T>
PlanReport run_plan_case(const std::string& name, int m, int n, int k,
                         bool cplx, double flops_per_mnk, int reps,
                         int warmup, const gemm::Matrix<T>& a,
                         const gemm::Matrix<T>& b,
                         const gemm::Matrix<T>& c_ref,
                         std::vector<Case>& cases) {
  PlanReport rep;
  const telemetry::Stopwatch compile_sw;
  gemm::GemmPlan plan =
      gemm::GemmPlan::compile(core::M3xuConfig{}, {m, n, k, cplx});
  plan.prepack_b(b);
  rep.compile_seconds = compile_sw.seconds();

  gemm::Matrix<T> c_plan(m, n);
  c_plan.fill(T{});
  const telemetry::Stopwatch first_sw;
  plan.execute(a, b, c_plan);
  rep.first_execute_seconds = first_sw.seconds();
  rep.bit_identical =
      std::memcmp(c_plan.data(), c_ref.data(), c_plan.size() * sizeof(T)) ==
      0;

  cases.push_back(time_case(name, m, n, k, flops_per_mnk, reps, warmup, [&] {
    c_plan.fill(T{});
    plan.execute(a, b, c_plan);
  }));
  rep.repeat_execute_seconds = cases.back().seconds;
  rep.bit_identical =
      rep.bit_identical &&
      std::memcmp(c_plan.data(), c_ref.data(), c_plan.size() * sizeof(T)) ==
          0;
  rep.amortized = rep.repeat_execute_seconds <
                  rep.compile_seconds + rep.first_execute_seconds;
  return rep;
}

/// Route attribution for one precision family ("fp32" or "fp32c") of
/// the microkernel case: the share of its output elements register
/// blocks covered, and how often a block pair degraded to the generic
/// fallback.
void write_route_rates(telemetry::JsonWriter& w, const std::string& family,
                       const std::string& json_prefix, const Case& micro) {
  const std::uint64_t block_elems =
      delta(micro, "mxu." + family + ".microkernel.block_elements");
  const std::uint64_t outputs = static_cast<std::uint64_t>(micro.reps) *
                                static_cast<std::uint64_t>(micro.m) *
                                static_cast<std::uint64_t>(micro.n);
  const std::uint64_t pairs =
      delta(micro, "mxu." + family + ".microkernel.pair_chunks");
  const std::uint64_t pair_falls =
      delta(micro, "mxu." + family + ".microkernel.pair_fallbacks");
  w.key(json_prefix + "_microkernel_block_element_rate")
      .value(ratio(block_elems, outputs), 6);
  w.key(json_prefix + "_microkernel_pair_fallback_rate")
      .value(ratio(pair_falls, pairs), 6);
  // Which SIMD variant the microkernel case actually dispatched to:
  // argmax of the per-variant block counters ("none" when telemetry is
  // off or no register block ran).
  const char* variant = "none";
  std::uint64_t variant_blocks = 0;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    const std::uint64_t v =
        delta(micro, std::string("mk.variant.") + name + ".blocks");
    if (v > variant_blocks) {
      variant_blocks = v;
      variant = name;
    }
  }
  w.kv(json_prefix + "_microkernel_variant", variant);
}

/// One measured point of a thread-scaling curve.
struct SweepPoint {
  int threads = 0;
  double seconds = 0.0;  // median of reps
  Spread spread;
  double gflops = 0.0;
  double speedup = 0.0;  // vs the curve's single-thread point
};

struct SweepCurve {
  std::string name;  // e.g. "sgemm_microkernel"
  std::vector<SweepPoint> points;
};

std::vector<int> parse_counts(const std::string& csv) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok = csv.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const int v = std::atoi(tok.c_str());
    if (v > 0) out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Thread-scaling sweep for one dtype: the microkernel route's plan
/// runs through the threaded tiled driver on a dedicated pool per
/// listed size (ExecRails.pool), and every point is gated bitwise
/// against the single-threaded per-dot reference - the scaling curve is
/// a perf report, never a results fork.
template <typename T>
void run_thread_sweep(const std::string& prefix, int m, int n, int k,
                      bool cplx, double flops_per_mnk,
                      const std::vector<int>& counts, int reps, int warmup,
                      const gemm::Matrix<T>& a, const gemm::Matrix<T>& b,
                      const gemm::Matrix<T>& c_ref,
                      std::vector<SweepCurve>& curves, bool& bit_identical) {
  const double flops = flops_per_mnk * static_cast<double>(m) * n * k;
  const gemm::GemmPlan plan =
      gemm::GemmPlan::compile(core::M3xuConfig{}, {m, n, k, cplx});
  SweepCurve curve;
  curve.name = prefix + "_microkernel";
  gemm::Matrix<T> c(m, n);
  for (const int t : counts) {
    ThreadPool pool(static_cast<std::size_t>(t));
    gemm::ExecRails rails;
    rails.pool = &pool;
    const auto run = [&] {
      c.fill(T{});
      plan.execute(a, b, c, rails);
    };
    for (int wu = 0; wu < warmup; ++wu) run();
    std::vector<double> times;
    for (int rep = 0; rep < std::max(1, reps); ++rep) {
      const telemetry::Stopwatch sw;
      run();
      times.push_back(sw.seconds());
    }
    const Spread spread = summarize(std::move(times));
    const double med = spread.median;
    bit_identical =
        bit_identical &&
        std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(T)) == 0;
    SweepPoint pt;
    pt.threads = t;
    pt.seconds = med;
    pt.spread = spread;
    pt.gflops = flops / med / 1e9;
    curve.points.push_back(pt);
  }
  // Speedup relative to the curve's own threads == 1 point (first
  // point when the sweep list omits 1).
  double base = curve.points.front().seconds;
  for (const SweepPoint& pt : curve.points) {
    if (pt.threads == 1) base = pt.seconds;
  }
  for (SweepPoint& pt : curve.points) pt.speedup = base / pt.seconds;
  curves.push_back(std::move(curve));
}

/// The per-dot route's pool gate for one dtype. The per-dot route is
/// the bit-identity reference, not a perf subject, so it runs untimed
/// at the bench_smoke geometry: a force_generic plan executes once on a
/// dedicated pool per listed size, and each result must equal the flat
/// engine loop on the same operands bit for bit.
template <typename T>
bool perdot_pool_gate(int m, int n, int k, const std::vector<int>& counts,
                      const core::M3xuEngine& engine, Rng& rng) {
  constexpr bool kComplex = std::is_same_v<T, std::complex<float>>;
  gemm::Matrix<T> a(m, k), b(k, n), c_ref(m, n), c(m, n);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  c_ref.fill(T{});
  if constexpr (kComplex) {
    engine.gemm_fp32c(m, n, k, a.data(), a.ld(), b.data(), b.ld(),
                      c_ref.data(), c_ref.ld());
  } else {
    engine.gemm_fp32(m, n, k, a.data(), a.ld(), b.data(), b.ld(),
                     c_ref.data(), c_ref.ld());
  }
  core::M3xuConfig perdot_cfg;
  perdot_cfg.force_generic = true;
  const gemm::GemmPlan plan =
      gemm::GemmPlan::compile(perdot_cfg, {m, n, k, kComplex});
  bool same = true;
  for (const int t : counts) {
    ThreadPool pool(static_cast<std::size_t>(t));
    gemm::ExecRails rails;
    rails.pool = &pool;
    c.fill(T{});
    plan.execute(a, b, c, rails);
    same = same &&
           std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(T)) == 0;
  }
  return same;
}

/// The per-dot pool gate's geometry: bench_smoke's, whose sizes are
/// not multiples of any tile or register-block shape.
constexpr int kGateM = 100, kGateN = 90, kGateK = 96;
constexpr int kGateCm = 45, kGateCn = 45, kGateCk = 48;

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int m = static_cast<int>(cli.get_int("m", 512));
  const int n = static_cast<int>(cli.get_int("n", 512));
  const int k = static_cast<int>(cli.get_int("k", 512));
  const int cm = static_cast<int>(cli.get_int("cm", 192));
  const int cn = static_cast<int>(cli.get_int("cn", 192));
  const int ck = static_cast<int>(cli.get_int("ck", 192));
  const int reps = static_cast<int>(cli.get_int("reps", 1));
  const int warmup = static_cast<int>(cli.get_int("warmup", 0));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 12345));
  const std::string out = cli.get("out", "BENCH_gemm.json");
  const std::string trace_path = cli.get("trace", "");
  const std::string metrics_path = cli.get("metrics", "");
  const bool plan_mode = cli.get_bool("plan", false);
  const int threads_flag = static_cast<int>(cli.get_int("threads", 0));
  const std::vector<int> sweep_counts = parse_counts(cli.get("thread-sweep", ""));

  // Must precede the first ThreadPool::global() use anywhere in the
  // process; configure_global is a no-op once the pool exists.
  if (threads_flag > 0) {
    ThreadPool::configure_global(static_cast<std::size_t>(threads_flag));
  }

  const telemetry::Snapshot run_before = telemetry::snapshot();
  Rng rng(seed);
  // Per-dot and microkernel routes share the default engine (the
  // per-dot entry points never reach the microkernel).
  const core::M3xuEngine engine;
  std::vector<Case> cases;
  std::vector<SweepCurve> curves;
  bool bit_identical = true;
  std::optional<PlanReport> plan_sgemm, plan_cgemm;
  // Own operand stream, so the gate leaves the timed cases' inputs as
  // they are.
  Rng gate_rng(seed + 1);
  bool perdot_gate = true;

  {
    gemm::Matrix<float> a(m, k), b(k, n);
    gemm::Matrix<float> c_perdot(m, n), c_micro(m, n);
    gemm::fill_random(a, rng);
    gemm::fill_random(b, rng);
    cases.push_back(time_case(
        "m3xu_sgemm_perdot", m, n, k, 2.0, reps, warmup, [&] {
          c_perdot.fill(0.0f);
          per_dot_row_blocks<float>(m, [&](int r0, int rc) {
            engine.gemm_fp32(rc, n, k,
                             a.data() + static_cast<std::size_t>(r0) * a.ld(),
                             a.ld(), b.data(), b.ld(),
                             c_perdot.data() +
                                 static_cast<std::size_t>(r0) * c_perdot.ld(),
                             c_perdot.ld());
          });
        }));
    cases.push_back(time_case(
        "m3xu_sgemm_microkernel", m, n, k, 2.0, reps, warmup, [&] {
          c_micro.fill(0.0f);
          gemm::run_sgemm(gemm::SgemmKernel::kM3xu, engine, a, b, c_micro);
        }));
    bit_identical = bit_identical &&
                    std::memcmp(c_perdot.data(), c_micro.data(),
                                c_perdot.size() * sizeof(float)) == 0;
    if (plan_mode) {
      plan_sgemm = run_plan_case<float>("m3xu_sgemm_plan", m, n, k, false,
                                        2.0, reps, warmup, a, b, c_perdot,
                                        cases);
      bit_identical = bit_identical && plan_sgemm->bit_identical;
    }
    if (!sweep_counts.empty()) {
      run_thread_sweep<float>("sgemm", m, n, k, false, 2.0, sweep_counts,
                              reps, warmup, a, b, c_perdot, curves,
                              bit_identical);
      perdot_gate = perdot_pool_gate<float>(kGateM, kGateN, kGateK,
                                            sweep_counts, engine, gate_rng) &&
                    perdot_gate;
    }
  }

  {
    gemm::Matrix<std::complex<float>> a(cm, ck), b(ck, cn);
    gemm::Matrix<std::complex<float>> c_perdot(cm, cn), c_micro(cm, cn);
    gemm::fill_random(a, rng);
    gemm::fill_random(b, rng);
    // 8 real flops per complex multiply-add.
    cases.push_back(time_case(
        "m3xu_cgemm_perdot", cm, cn, ck, 8.0, reps, warmup, [&] {
          c_perdot.fill({});
          per_dot_row_blocks<std::complex<float>>(cm, [&](int r0, int rc) {
            engine.gemm_fp32c(
                rc, cn, ck, a.data() + static_cast<std::size_t>(r0) * a.ld(),
                a.ld(), b.data(), b.ld(),
                c_perdot.data() + static_cast<std::size_t>(r0) * c_perdot.ld(),
                c_perdot.ld());
          });
        }));
    cases.push_back(time_case(
        "m3xu_cgemm_microkernel", cm, cn, ck, 8.0, reps, warmup, [&] {
          c_micro.fill({});
          gemm::run_cgemm(gemm::CgemmKernel::kM3xu, engine, a, b, c_micro);
        }));
    bit_identical =
        bit_identical &&
        std::memcmp(c_perdot.data(), c_micro.data(),
                    c_perdot.size() * sizeof(std::complex<float>)) == 0;
    if (plan_mode) {
      plan_cgemm = run_plan_case<std::complex<float>>(
          "m3xu_cgemm_plan", cm, cn, ck, true, 8.0, reps, warmup, a, b,
          c_perdot, cases);
      bit_identical = bit_identical && plan_cgemm->bit_identical;
    }
    if (!sweep_counts.empty()) {
      // 8 real flops per complex multiply-add, same convention as the
      // cgemm cases above.
      run_thread_sweep<std::complex<float>>("cgemm", cm, cn, ck, true, 8.0,
                                            sweep_counts, reps, warmup, a, b,
                                            c_perdot, curves, bit_identical);
      perdot_gate = perdot_pool_gate<std::complex<float>>(
                        kGateCm, kGateCn, kGateCk, sweep_counts, engine,
                        gate_rng) &&
                    perdot_gate;
    }
  }
  bit_identical = bit_identical && perdot_gate;

  // Look route cases up by name: with --plan the vector also carries
  // the plan cases, so fixed indices would misattribute.
  const auto find_case = [&cases](const char* name) -> const Case& {
    for (const Case& c : cases) {
      if (c.name == name) return c;
    }
    std::fprintf(stderr, "missing case %s\n", name);
    std::abort();
  };
  const Case& sgemm_perdot = find_case("m3xu_sgemm_perdot");
  const Case& sgemm_micro = find_case("m3xu_sgemm_microkernel");
  const Case& cgemm_perdot = find_case("m3xu_cgemm_perdot");
  const Case& cgemm_micro = find_case("m3xu_cgemm_microkernel");
  const double sgemm_speedup = sgemm_perdot.seconds / sgemm_micro.seconds;
  const double cgemm_speedup = cgemm_perdot.seconds / cgemm_micro.seconds;

  const telemetry::Environment env = telemetry::collect_environment();
  const telemetry::Snapshot run_after = telemetry::snapshot();
  const std::size_t threads = ThreadPool::global().thread_count();
  const bool simd = core::microkernel_simd_active();
  const char* variant_name =
      core::mk_variant_name(core::mk_variant_resolve(core::MkVariant::kAuto));
  // Whole-run pool utilization: busy worker-nanoseconds over wall
  // nanoseconds summed across every parallel_for (any pool), scaled by
  // the global pool width. > 1 is possible when dedicated sweep pools
  // are wider than the global pool; 0 with telemetry off.
  const double pool_util =
      ratio(run_after.counter_delta(run_before, "threadpool.worker_busy_ns"),
            run_after.counter_delta(run_before, "threadpool.wall_ns") *
                static_cast<std::uint64_t>(threads));

  if (!cli.get_bool("json-only", false)) {
    std::printf("== GEMM baseline: per-dot vs microkernel ==\n");
    std::printf("%-24s %6s %6s %6s %10s %10s\n", "case", "m", "n", "k",
                "seconds", "GFLOP/s");
    for (const Case& c : cases) {
      std::printf("%-24s %6d %6d %6d %10.3f %10.3f\n", c.name.c_str(), c.m,
                  c.n, c.k, c.seconds, c.gflops);
    }
    std::printf("\nsgemm: microkernel %.2fx over per-dot\ncgemm: microkernel "
                "%.2fx over per-dot\nbit-identical: %s   simd: %s   threads: "
                "%zu\n\n",
                sgemm_speedup, cgemm_speedup, bit_identical ? "yes" : "NO",
                variant_name, threads);
    for (const SweepCurve& curve : curves) {
      std::printf("scaling %-20s", curve.name.c_str());
      for (const SweepPoint& pt : curve.points) {
        std::printf("  t=%d %.3fs (%.2fx)", pt.threads, pt.seconds,
                    pt.speedup);
      }
      std::printf("\n");
    }
    if (!curves.empty()) {
      std::printf("per-dot pool gate (%dx%dx%d / %dx%dx%d, untimed): %s\n\n",
                  kGateM, kGateN, kGateK, kGateCm, kGateCn, kGateCk,
                  perdot_gate ? "bit-identical" : "MISMATCH");
    }
    if (plan_sgemm.has_value() && plan_cgemm.has_value()) {
      std::printf("plan: sgemm compile %.3fs + first %.3fs, repeat %.3fs "
                  "(%samortized)\nplan: cgemm compile %.3fs + first %.3fs, "
                  "repeat %.3fs (%samortized)\n\n",
                  plan_sgemm->compile_seconds,
                  plan_sgemm->first_execute_seconds,
                  plan_sgemm->repeat_execute_seconds,
                  plan_sgemm->amortized ? "" : "NOT ",
                  plan_cgemm->compile_seconds,
                  plan_cgemm->first_execute_seconds,
                  plan_cgemm->repeat_execute_seconds,
                  plan_cgemm->amortized ? "" : "NOT ");
    }
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "gemm_baseline");
  w.kv("reps", reps);
  w.kv("warmup", warmup);
  w.kv("seed", seed);
  w.kv("timing", "median_of_reps with min/max/cv spread");
  w.key("environment").begin_object();
  w.kv("threads", static_cast<std::uint64_t>(threads));
  w.kv("compiler", env.compiler);
  w.kv("git_rev", env.git_rev);
  w.kv("git_dirty", env.git_dirty);
  w.kv("microkernel_simd", simd);
  w.kv("microkernel_variant", variant_name);
  w.kv("telemetry_enabled", static_cast<bool>(M3XU_TELEMETRY_ENABLED));
  w.end_object();
  w.key("cases").begin_array();
  for (const Case& c : cases) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("m", c.m);
    w.kv("n", c.n);
    w.kv("k", c.k);
    w.key("seconds").value(c.seconds, 6);
    write_spread(w, c.spread);
    w.key("gflops").value(c.gflops, 6);
    w.end_object();
  }
  w.end_array();
  w.key("sgemm_speedup_microkernel_vs_perdot").value(sgemm_speedup, 4);
  w.key("cgemm_speedup_microkernel_vs_perdot").value(cgemm_speedup, 4);
  w.key("route_hit_rates").begin_object();
  write_route_rates(w, "fp32", "sgemm", sgemm_micro);
  write_route_rates(w, "fp32c", "cgemm", cgemm_micro);
  w.key("threadpool_utilization").value(pool_util, 6);
  w.end_object();
  if (!curves.empty()) {
    w.key("thread_scaling").begin_object();
    w.kv("microkernel_variant", variant_name);
    w.key("curves").begin_array();
    for (const SweepCurve& curve : curves) {
      w.begin_object();
      w.kv("case", curve.name);
      w.key("points").begin_array();
      for (const SweepPoint& pt : curve.points) {
        w.begin_object();
        w.kv("threads", pt.threads);
        w.key("seconds").value(pt.seconds, 6);
        write_spread(w, pt.spread);
        w.key("gflops").value(pt.gflops, 6);
        w.key("speedup_vs_single_thread").value(pt.speedup, 4);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("perdot_pool_gate").begin_object();
    w.key("sgemm_mnk").begin_array();
    for (const int d : {kGateM, kGateN, kGateK}) w.value(d);
    w.end_array();
    w.key("cgemm_mnk").begin_array();
    for (const int d : {kGateCm, kGateCn, kGateCk}) w.value(d);
    w.end_array();
    w.key("threads").begin_array();
    for (const int t : sweep_counts) w.value(t);
    w.end_array();
    w.kv("bit_identical", perdot_gate);
    w.end_object();
    w.end_object();
  }
  if (plan_sgemm.has_value() && plan_cgemm.has_value()) {
    w.key("plan").begin_object();
    w.key("sgemm");
    write_plan_report(w, *plan_sgemm);
    w.key("cgemm");
    write_plan_report(w, *plan_cgemm);
    w.end_object();
  }
  w.kv("bit_identical", bit_identical);
  w.end_object();
  const std::string json = w.str() + "\n";

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_gemm_baseline: cannot write %s\n",
                 out.c_str());
    return 2;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());

  if (!trace_path.empty() && !telemetry::write_trace_json(trace_path)) {
    std::fprintf(stderr, "bench_gemm_baseline: cannot write %s\n",
                 trace_path.c_str());
    return 2;
  }
  if (!metrics_path.empty() &&
      !telemetry::write_snapshot_json(metrics_path)) {
    std::fprintf(stderr, "bench_gemm_baseline: cannot write %s\n",
                 metrics_path.c_str());
    return 2;
  }
  return bit_identical ? 0 : 1;
}
