// Chaos soak over the resilient tiled GEMM driver: a randomized stream
// of guarded GEMMs with seeded multi-domain fault injection, verifying
// after every trial that recovery restored a trustworthy result. One
// domain per fault class:
//
//   datapath (operand_a/b, partial_product, accumulator) and
//   staged_panel - single-tile geometry on a 1-thread pool so every
//     corruption replays and is classifiable against the ABFT
//     tolerance; the guarded run must detect every guaranteed-
//     detectable corruption and leave no supra-tolerance deviation in
//     its output (zero SDC escapes);
//   alloc_failure - multi-tile SGEMM/CGEMM with injected packed-panel
//     allocation failures on a 1-thread pool (the uniform grid fixes
//     the fallback count); the per-dot fallback must be bit-exact;
//   worker_stall  - injected worker sleeps; the GEMM must complete
//     bit-exactly (no deadline or stall window, so the stall only
//     costs time);
//   cancellation  - a timer thread latches a CancellationToken mid
//     GEMM; the call either completes bit-exactly or throws
//     CancelledError - nothing else;
//   watchdog      - stalls injected at rate 1 under a tight deadline /
//     stall window; the call must abort with DeadlineExceeded;
//   clean_guarded - fully guarded clean runs (token + generous
//     deadline + stall window): bit-exact, zero ABFT detections, and
//     zero gemm.guard.* abort counter deltas (no false positives).
//
// Flags: --quick (CI-sized trial counts), --seed, --trials (per-site
// override), --json=path (coverage table; default stdout).
//
// Every GEMM runs through a GemmPlan under the default recovery ladder;
// references are the flat engine loop.
//
// Exit status: nonzero on any escape, non-bit-exact clean-domain
// result, unrecovered detection, missing expected abort, or guard
// false positive.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancellation.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

using namespace m3xu;

namespace {

template <typename T>
void fill(Rng& rng, gemm::Matrix<T>& mat) {
  for (int i = 0; i < mat.rows(); ++i) {
    for (int j = 0; j < mat.cols(); ++j) {
      if constexpr (std::is_same_v<T, float>) {
        mat(i, j) = rng.scaled_float();
      } else {
        mat(i, j) = {rng.scaled_float(), rng.scaled_float()};
      }
    }
  }
}

/// The fault-free reference: the flat engine loop, which every tiled
/// route matches bit for bit.
template <typename T>
gemm::Matrix<T> flat_ref(const gemm::Matrix<T>& a, const gemm::Matrix<T>& b,
                         const gemm::Matrix<T>& c0) {
  const core::M3xuEngine clean{core::M3xuConfig{}};
  gemm::Matrix<T> ref = c0;
  if constexpr (std::is_same_v<T, float>) {
    clean.gemm_fp32(a.rows(), b.cols(), a.cols(), a.data(), a.ld(), b.data(),
                    b.ld(), ref.data(), ref.ld());
  } else {
    clean.gemm_fp32c(a.rows(), b.cols(), a.cols(), a.data(), a.ld(),
                     b.data(), b.ld(), ref.data(), ref.ld());
  }
  return ref;
}

/// Rails on a 1-thread pool: the plan keeps the TileConfig's uniform
/// grid and runs its tiles in order, so a fresh injector with the same
/// seed replays the same faults on the same tiles.
gemm::ExecRails one_thread() {
  static ThreadPool pool(1);
  gemm::ExecRails rails;
  rails.pool = &pool;
  return rails;
}

/// Per-domain soak tally, serialized into the JSON coverage table.
struct DomainStats {
  std::string name;
  long trials = 0;
  long faults = 0;            // injector flips/events across trials
  long corrupting = 0;        // trials with a guaranteed-detectable dev
  long detected = 0;          // trials where the ABFT guard tripped
  long recovered_bitexact = 0;  // detected trials restored bit-exactly
  long escapes = 0;           // corrupting && !detected (SDC)
  long unrecovered = 0;       // supra-tolerance deviation in the output
  long bitexact_failures = 0;   // clean-semantics domains only
  long alloc_fallbacks = 0;
  long retries = 0;
  long demotions = 0;
  long cancelled = 0;         // CancelledError outcomes
  long deadline_aborts = 0;   // DeadlineExceeded outcomes
  long missing_aborts = 0;    // watchdog domain trials that finished
  long false_positives = 0;   // guard counters bumped on clean runs
  // Trace timeline (TraceContext JSON) of the first detected trial,
  // embedded in the coverage table so one soak artifact shows the
  // detection -> ladder -> recovery causality end to end.
  std::string timeline_json;
  bool failed() const {
    return escapes > 0 || unrecovered > 0 || bitexact_failures > 0 ||
           missing_aborts > 0 || false_positives > 0;
  }
};

/// Soak trial geometry: the detect-capable domains stay single-tile so
/// abft_column_tolerance classifies whole-matrix columns; the system
/// domains use a multi-tile grid to exercise the pool.
struct Geometry {
  int m, n, k;
  gemm::TileConfig tile;
};

Geometry single_tile() {
  Geometry g{48, 48, 96, {}};
  g.tile.block_m = 48;
  g.tile.block_n = 48;
  g.tile.block_k = 32;
  g.tile.warp_m = 16;
  g.tile.warp_n = 16;
  return g;
}

Geometry multi_tile() {
  Geometry g{96, 96, 64, {}};
  g.tile.block_m = 32;
  g.tile.block_n = 32;
  g.tile.block_k = 32;
  g.tile.warp_m = 16;
  g.tile.warp_n = 16;
  return g;
}

gemm::AbftConfig soak_abft() {
  gemm::AbftConfig abft;
  abft.enable = true;
  return abft;
}

/// The plan for one soak geometry on `engine` (which carries the
/// trial's injector, if any), under the default recovery ladder. Every
/// soak GEMM brings a fresh B, so the plan keeps no B panels.
gemm::GemmPlan soak_plan(const core::M3xuConfig& engine, const Geometry& g,
                         const gemm::AbftConfig& abft, bool cplx = false) {
  gemm::PlanOptions options;
  options.tile = g.tile;
  options.abft = abft;
  options.reuse_b_panels = false;
  return gemm::GemmPlan::compile(engine, {g.m, g.n, g.k, cplx}, options);
}

/// Detect-capable domains (datapath sites + staged panels): classify
/// the raw damage unguarded, then require the guarded resilient run to
/// detect every guaranteed-detectable corruption and emit an output
/// with no supra-tolerance deviation left.
void soak_detect_domain(DomainStats& d, fault::Site site, double rate,
                        int trials, const Rng& root) {
  const Geometry g = single_tile();
  const gemm::AbftConfig abft = soak_abft();
  const core::M3xuEngine clean{core::M3xuConfig{}};
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = root.split(static_cast<std::uint64_t>(trial));
    gemm::Matrix<float> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
    fill(rng, a);
    fill(rng, b);
    fill(rng, c0);
    const gemm::Matrix<float> ref = flat_ref(a, b, c0);

    const fault::SiteRates rates = fault::SiteRates::only(site, rate);
    const std::uint64_t inj_seed = rng.seed() ^ 0xc4a05c4a05ull;

    // Unguarded pass classifies the raw damage against the guard's
    // published tolerance (same protocol as the fault campaign).
    const fault::FaultInjector raw_inj(inj_seed, rates);
    core::M3xuConfig raw_cfg;
    raw_cfg.injector = &raw_inj;
    gemm::Matrix<float> raw = c0;
    soak_plan(raw_cfg, g, gemm::AbftConfig{}).execute(a, b, raw, one_thread());
    d.faults += static_cast<long>(raw_inj.total_injected());
    std::vector<double> limit(static_cast<std::size_t>(g.n), 0.0);
    bool corrupting = false;
    for (int j = 0; j < g.n; ++j) {
      limit[j] = 2.0 * gemm::abft_column_tolerance(clean, g.tile, abft, a, b,
                                                   c0, 0, g.m, j);
      for (int i = 0; i < g.m && !corrupting; ++i) {
        const double dev = std::fabs(static_cast<double>(raw(i, j)) -
                                     static_cast<double>(ref(i, j)));
        if (!(dev <= limit[j])) corrupting = true;
      }
    }
    d.corrupting += corrupting ? 1 : 0;

    // Guarded resilient pass: fresh injector, same seed, same flips.
    const fault::FaultInjector inj(inj_seed, rates);
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    gemm::Matrix<float> fixed = c0;
    telemetry::TraceContext trace("soak", d.name);
    gemm::ExecRails rails = one_thread();
    rails.trace = &trace;
    const gemm::TiledGemmStats stats =
        soak_plan(cfg, g, abft).execute(a, b, fixed, rails);
    const bool detected = stats.abft_detected > 0;
    if (detected && d.timeline_json.empty()) {
      d.timeline_json = trace.to_json();
    }
    d.detected += detected ? 1 : 0;
    d.retries += stats.recovery.retries;
    d.demotions += stats.recovery.demotions;
    if (corrupting && !detected) ++d.escapes;
    if (detected && bitwise_equal(fixed, ref)) ++d.recovered_bitexact;
    // Regardless of the detect outcome the delivered result must not
    // carry a guaranteed-detectable deviation.
    for (int j = 0; j < g.n; ++j) {
      bool bad = false;
      for (int i = 0; i < g.m; ++i) {
        const double dev = std::fabs(static_cast<double>(fixed(i, j)) -
                                     static_cast<double>(ref(i, j)));
        if (!(dev <= limit[j])) {
          bad = true;
          break;
        }
      }
      if (bad) {
        ++d.unrecovered;
        break;
      }
    }
    ++d.trials;
  }
}

/// Allocation-failure domain: every injected panel loss must fall back
/// to the per-dot route bit-exactly, on both element types.
void soak_alloc_domain(DomainStats& d, int trials, const Rng& root) {
  const Geometry g = multi_tile();
  const gemm::AbftConfig abft = soak_abft();
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = root.split(static_cast<std::uint64_t>(trial));
    const fault::SiteRates rates =
        fault::SiteRates::only(fault::Site::kAllocFailure, 0.25);
    const fault::FaultInjector inj(rng.seed() ^ 0xa110cull, rates);
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    if (trial % 2 == 0) {
      gemm::Matrix<float> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
      fill(rng, a);
      fill(rng, b);
      fill(rng, c0);
      const gemm::Matrix<float> ref = flat_ref(a, b, c0);
      gemm::Matrix<float> out = c0;
      const gemm::TiledGemmStats stats =
          soak_plan(cfg, g, abft).execute(a, b, out, one_thread());
      d.alloc_fallbacks += stats.recovery.alloc_fallbacks;
      if (!bitwise_equal(out, ref)) ++d.bitexact_failures;
    } else {
      using C = std::complex<float>;
      gemm::Matrix<C> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
      fill(rng, a);
      fill(rng, b);
      fill(rng, c0);
      const gemm::Matrix<C> ref = flat_ref(a, b, c0);
      gemm::Matrix<C> out = c0;
      const gemm::TiledGemmStats stats =
          soak_plan(cfg, g, abft, /*cplx=*/true)
              .execute(a, b, out, one_thread());
      d.alloc_fallbacks += stats.recovery.alloc_fallbacks;
      if (!bitwise_equal(out, ref)) ++d.bitexact_failures;
    }
    d.faults += static_cast<long>(inj.total_injected());
    ++d.trials;
  }
}

/// Worker-stall domain without time limits: injected sleeps must only
/// cost time, never bits.
void soak_stall_domain(DomainStats& d, int trials, const Rng& root) {
  const Geometry g = multi_tile();
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = root.split(static_cast<std::uint64_t>(trial));
    gemm::Matrix<float> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
    fill(rng, a);
    fill(rng, b);
    fill(rng, c0);
    const gemm::Matrix<float> ref = flat_ref(a, b, c0);
    fault::FaultInjector inj(rng.seed() ^ 0x57a11ull,
                             fault::SiteRates::only(fault::Site::kWorkerStall,
                                                    0.2));
    inj.stall_duration_ms = 2;
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    gemm::Matrix<float> out = c0;
    soak_plan(cfg, g, soak_abft()).execute(a, b, out);
    d.faults += static_cast<long>(inj.total_injected());
    if (!bitwise_equal(out, ref)) ++d.bitexact_failures;
    ++d.trials;
  }
}

/// Cancellation domain: a timer thread latches the token mid-GEMM. The
/// only acceptable outcomes are CancelledError or a bit-exact result.
void soak_cancel_domain(DomainStats& d, int trials, const Rng& root) {
  const Geometry g = multi_tile();
  const gemm::GemmPlan plan = soak_plan(core::M3xuConfig{}, g, soak_abft());
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = root.split(static_cast<std::uint64_t>(trial));
    gemm::Matrix<float> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
    fill(rng, a);
    fill(rng, b);
    fill(rng, c0);
    const gemm::Matrix<float> ref = flat_ref(a, b, c0);
    CancellationToken token;
    const auto delay =
        std::chrono::microseconds(200 + 300 * (trial % 5));
    std::thread canceller([&] {
      std::this_thread::sleep_for(delay);
      token.request_cancel("chaos soak cancel");
    });
    gemm::ExecRails rails;
    rails.token = &token;
    gemm::Matrix<float> out = c0;
    try {
      plan.execute(a, b, out, rails);
      if (!bitwise_equal(out, ref)) ++d.bitexact_failures;
    } catch (const CancelledError&) {
      ++d.cancelled;
    }
    canceller.join();
    ++d.trials;
  }
}

/// Watchdog domain: stalls injected at rate 1 under a tight stall
/// window and deadline - the call must abort with DeadlineExceeded.
void soak_watchdog_domain(DomainStats& d, int trials, const Rng& root) {
  const Geometry g = multi_tile();
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = root.split(static_cast<std::uint64_t>(trial));
    gemm::Matrix<float> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
    fill(rng, a);
    fill(rng, b);
    fill(rng, c0);
    fault::FaultInjector inj(rng.seed() ^ 0xdead11ull,
                             fault::SiteRates::only(fault::Site::kWorkerStall,
                                                    1.0));
    inj.stall_duration_ms = 50;
    core::M3xuConfig cfg;
    cfg.injector = &inj;
    const gemm::GemmPlan plan = soak_plan(cfg, g, soak_abft());
    gemm::ExecRails rails;
    rails.stall_ms = 20;
    rails.deadline_ms = 150;
    gemm::Matrix<float> out = c0;
    try {
      plan.execute(a, b, out, rails);
      ++d.missing_aborts;
    } catch (const DeadlineExceeded&) {
      ++d.deadline_aborts;
    }
    ++d.trials;
  }
}

/// Clean guarded domain: with no faults and generous limits, a guarded
/// run must be bit-exact and must not bump a single guard-abort
/// counter (zero false positives).
void soak_clean_domain(DomainStats& d, int trials, const Rng& root) {
  const Geometry g = multi_tile();
  const gemm::GemmPlan plan = soak_plan(core::M3xuConfig{}, g, soak_abft());
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng = root.split(static_cast<std::uint64_t>(trial));
    gemm::Matrix<float> a(g.m, g.k), b(g.k, g.n), c0(g.m, g.n);
    fill(rng, a);
    fill(rng, b);
    fill(rng, c0);
    const gemm::Matrix<float> ref = flat_ref(a, b, c0);
    CancellationToken token;  // never cancelled
    gemm::ExecRails rails;
    rails.token = &token;
    rails.deadline_ms = 60'000;
    rails.stall_ms = 60'000;
    const telemetry::Snapshot before = telemetry::snapshot();
    gemm::Matrix<float> out = c0;
    const gemm::TiledGemmStats stats = plan.execute(a, b, out, rails);
    const telemetry::Snapshot after = telemetry::snapshot();
    if (!bitwise_equal(out, ref)) ++d.bitexact_failures;
    if (stats.abft_detected > 0) ++d.false_positives;
    d.false_positives += static_cast<long>(
        after.counter_delta(before, "gemm.guard.cancellations") +
        after.counter_delta(before, "gemm.guard.deadline_fired") +
        after.counter_delta(before, "gemm.guard.stalls_detected"));
    ++d.trials;
  }
}

std::string coverage_json(const std::vector<DomainStats>& domains,
                          std::uint64_t seed, bool quick,
                          const telemetry::Snapshot& before,
                          const telemetry::Snapshot& after) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("seed", seed).kv("quick", quick);
  w.key("domains").begin_array();
  for (const DomainStats& d : domains) {
    w.begin_object()
        .kv("name", d.name)
        .kv("trials", d.trials)
        .kv("faults", d.faults)
        .kv("corrupting", d.corrupting)
        .kv("detected", d.detected)
        .kv("recovered_bitexact", d.recovered_bitexact)
        .kv("escapes", d.escapes)
        .kv("unrecovered", d.unrecovered)
        .kv("bitexact_failures", d.bitexact_failures)
        .kv("alloc_fallbacks", d.alloc_fallbacks)
        .kv("retries", d.retries)
        .kv("demotions", d.demotions)
        .kv("cancelled", d.cancelled)
        .kv("deadline_aborts", d.deadline_aborts)
        .kv("missing_aborts", d.missing_aborts)
        .kv("false_positives", d.false_positives)
        .kv("pass", !d.failed());
    if (!d.timeline_json.empty()) {
      w.key("timeline_sample").raw(d.timeline_json);
    }
    w.end_object();
  }
  w.end_array();
  // Process-wide recovery/guard counter deltas across the whole soak,
  // so the JSON doubles as a telemetry integration check.
  w.key("telemetry").begin_object();
  for (const char* name :
       {"recovery.retries", "recovery.demotions", "recovery.recovered",
        "recovery.alloc_fallbacks", "recovery.quarantined", "abft.detected",
        "abft.recovered", "abft.false_alarms",
        "gemm.guard.cancellations", "gemm.guard.watches",
        "gemm.guard.deadline_fired", "gemm.guard.stalls_detected"}) {
    w.kv(name, after.counter_delta(before, name));
  }
  w.end_object();
  bool pass = true;
  for (const DomainStats& d : domains) pass = pass && !d.failed();
  w.kv("pass", pass);
  w.end_object();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 0x50a4c4a05ll));
  const int detect_trials =
      static_cast<int>(cli.get_int("trials", quick ? 6 : 16));
  const int sys_trials = quick ? 4 : 10;
  const Rng root{seed};

  const telemetry::Snapshot before = telemetry::snapshot();
  std::vector<DomainStats> domains;
  std::uint64_t stream = 0;
  const auto domain_rng = [&] { return root.split(stream++); };

  const struct {
    fault::Site site;
    double rate;
  } detect_sites[] = {
      {fault::Site::kOperandA, 1e-3},      {fault::Site::kOperandB, 1e-3},
      {fault::Site::kPartialProduct, 1e-3}, {fault::Site::kAccumulator, 1e-3},
      {fault::Site::kStagedPanel, 1e-4},
  };
  for (const auto& ds : detect_sites) {
    DomainStats d;
    d.name = fault::site_name(ds.site);
    soak_detect_domain(d, ds.site, ds.rate, detect_trials, domain_rng());
    domains.push_back(d);
  }
  {
    DomainStats d;
    d.name = "alloc_failure";
    soak_alloc_domain(d, sys_trials, domain_rng());
    domains.push_back(d);
  }
  {
    DomainStats d;
    d.name = "worker_stall";
    soak_stall_domain(d, sys_trials, domain_rng());
    domains.push_back(d);
  }
  {
    DomainStats d;
    d.name = "cancellation";
    soak_cancel_domain(d, sys_trials, domain_rng());
    domains.push_back(d);
  }
  {
    DomainStats d;
    d.name = "watchdog";
    soak_watchdog_domain(d, quick ? 2 : 3, domain_rng());
    domains.push_back(d);
  }
  {
    DomainStats d;
    d.name = "clean_guarded";
    soak_clean_domain(d, quick ? 2 : 5, domain_rng());
    domains.push_back(d);
  }
  const telemetry::Snapshot after = telemetry::snapshot();

  std::printf("== Chaos soak: resilient tiled GEMM (seed=0x%llx%s) ==\n",
              static_cast<unsigned long long>(seed), quick ? ", quick" : "");
  std::printf("%-16s %7s %7s %9s %9s %9s %8s %7s %6s\n", "domain", "trials",
              "faults", "corrupt", "detected", "recovered", "escapes",
              "retries", "pass");
  bool pass = true;
  for (const DomainStats& d : domains) {
    std::printf("%-16s %7ld %7ld %9ld %9ld %9ld %8ld %7ld %6s\n",
                d.name.c_str(), d.trials, d.faults, d.corrupting, d.detected,
                d.recovered_bitexact, d.escapes, d.retries,
                d.failed() ? "FAIL" : "ok");
    pass = pass && !d.failed();
  }

  const std::string json = coverage_json(domains, seed, quick, before, after);
  const std::string json_path = cli.get("json", "");
  if (json_path.empty()) {
    std::printf("%s", json.c_str());
  } else {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_chaos_soak: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::printf("\nchaos soak: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
