// Serving benchmark + chaos gate for the multi-tenant GemmServer.
//
// Clean mode drives an open-loop Poisson arrival stream followed by
// bursty closed-loop rounds against a fault-free server and reports
// p50/p99/p999 latency (exact, from per-request samples, with the
// telemetry histogram's order-of-magnitude readout alongside), goodput,
// shed rate, and pack-cache effectiveness. Gate: every request ends
// kOk with a bit-identical result.
//
// Chaos mode soaks the server across ten fault domains:
//
//   operand_a, operand_b, partial_product, accumulator, staged_panel -
//     datapath injection through the server's engine; kOk results must
//     carry no supra-tolerance deviation vs the golden result (the
//     ABFT detectability bar; undetectable sub-tolerance residue is
//     benign by construction), kFailed must carry a structured error;
//   alloc_failure - injected packed-panel allocation failures; kOk
//     results must be bit-identical (the per-dot fallback is exact);
//   worker_stall  - injected worker sleeps with no deadline; requests
//     must still complete kOk bit-identical (stalls cost time, not
//     bits);
//   user_cancel   - tenants cancel in-flight requests; outcomes are
//     exactly {kOk bit-identical, kCancelled};
//   deadline      - tight per-request deadlines over a stalling engine;
//     outcomes are {kDeadlineExceeded, kFailed structured, kOk};
//   shed          - an overload burst against a tiny queue under the
//     evict-lowest-priority policy, with periodic shared-pack-cache
//     corruption; outcomes are {kOk bit-identical, kShed}, at least
//     one request must shed, and corrupted panels must be repacked
//     (never served).
//
// Every submission must end in exactly one terminal status from its
// domain's allowed set - anything else (wrong bits, missing error,
// non-terminal handle, unexpected status) is a violation and the
// process exits nonzero.
//
// Both modes also run a closed-loop tracing-overhead A/B (identical
// serving bursts against two long-lived servers differing only in
// ServerConfig::trace_requests, paired back-to-back per round, the
// median per-round process-CPU ratio compared against the <= 2%
// telemetry budget) and, in chaos
// mode, attach per-request timelines: failed/expired requests embed
// their TraceContext event log in the JSON artifact.
//
// Flags: --mode=clean|chaos|both (default both), --quick (CI sizes),
// --seed, --json=path (schema-versioned metrics artifact; default
// stdout), --metrics-dump=prefix (write the JSON metrics document to
// <prefix>.json at exit and read it back; exits 2 unless it parses
// with the current schema_version and its counters and histograms).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"
#include "serve/server.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

using namespace m3xu;
using serve::RequestHandle;
using serve::RequestStatus;

namespace {

constexpr int kStatusCount = 8;  // RequestStatus values span 0..7

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads), in milliseconds. The tracing
/// overhead A/B uses this instead of wall time: on a shared/1-core
/// host, container preemption adds several percent of wall-clock
/// noise per burst but no CPU time, and every serving thread blocks
/// on condition variables (no spinning), so CPU time isolates the
/// cost actually added by instrumentation.
double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

/// One tenant's fixed workload: operands, the clean-engine golden
/// result, and (single-tile geometries only) the per-column ABFT
/// tolerance bar used to judge datapath-domain outputs.
struct Tenant {
  std::string name;
  gemm::Matrix<float> a{1, 1}, b{1, 1}, c0{1, 1}, golden{1, 1};
  std::uint64_t b_key = 0;
  std::vector<double> limit;
};

struct Geometry {
  int m, n, k;
  gemm::TileConfig tile;
};

Geometry single_tile() { return {48, 48, 96, {48, 48, 32, 16, 16}}; }
Geometry multi_tile() { return {96, 96, 64, {32, 32, 32, 16, 16}}; }

std::vector<Tenant> make_tenants(int count, const Geometry& g,
                                 std::uint64_t seed, bool with_limits) {
  const core::M3xuEngine clean{core::M3xuConfig{}};
  gemm::AbftConfig abft;
  abft.enable = true;
  std::vector<Tenant> tenants;
  const Rng root{seed};
  for (int t = 0; t < count; ++t) {
    Rng rng = root.split(static_cast<std::uint64_t>(t));
    Tenant tn;
    tn.name = "tenant-" + std::to_string(t);
    tn.b_key = 0x7e000 + static_cast<std::uint64_t>(t) + (seed << 20);
    tn.a = gemm::Matrix<float>(g.m, g.k);
    tn.b = gemm::Matrix<float>(g.k, g.n);
    tn.c0 = gemm::Matrix<float>(g.m, g.n);
    fill_random(tn.a, rng);
    fill_random(tn.b, rng);
    fill_random(tn.c0, rng);
    tn.golden = tn.c0;
    clean.gemm_fp32(g.m, g.n, g.k, tn.a.data(), tn.a.ld(), tn.b.data(),
                    tn.b.ld(), tn.golden.data(), tn.golden.ld());
    if (with_limits) {
      tn.limit.resize(static_cast<std::size_t>(g.n));
      for (int j = 0; j < g.n; ++j) {
        tn.limit[static_cast<std::size_t>(j)] =
            2.0 * gemm::abft_column_tolerance(clean, g.tile, abft, tn.a, tn.b,
                                              tn.c0, 0, g.m, j);
      }
    }
    tenants.push_back(std::move(tn));
  }
  return tenants;
}

enum class BitGate { kExact, kTolerance };

/// Per-mode/domain outcome tally plus the violation ledger.
struct Tally {
  long counts[kStatusCount] = {};
  long violations = 0;
  std::vector<std::string> notes;  // first few violation descriptions
  // A few failed/deadline requests kept alive so their per-request
  // trace timelines can be embedded in the JSON artifact.
  std::vector<RequestHandle> trace_samples;

  void violate(const std::string& what) {
    ++violations;
    if (notes.size() < 8) notes.push_back(what);
  }
  long total() const {
    long t = 0;
    for (long c : counts) t += c;
    return t;
  }
  long ok() const { return counts[static_cast<int>(RequestStatus::kOk)]; }
  long of(RequestStatus s) const { return counts[static_cast<int>(s)]; }
};

/// Expected outcome set for one domain. `allow` is indexed by status.
struct Expect {
  bool allow[kStatusCount] = {};
  BitGate gate = BitGate::kExact;

  static Expect of(std::initializer_list<RequestStatus> statuses,
                   BitGate gate = BitGate::kExact) {
    Expect e;
    e.gate = gate;
    for (RequestStatus s : statuses) e.allow[static_cast<int>(s)] = true;
    return e;
  }
};

/// Waits the request out and enforces the serving contract: a terminal
/// status from the allowed set, bit-correct kOk output, structured
/// kFailed.
void settle(const RequestHandle& req, const Tenant& tenant, const Expect& e,
            Tally& tally) {
  req->wait();
  const RequestStatus s = req->status();
  ++tally.counts[static_cast<int>(s) % kStatusCount];
  if ((s == RequestStatus::kFailed || s == RequestStatus::kDeadlineExceeded) &&
      req->trace() != nullptr && tally.trace_samples.size() < 2) {
    tally.trace_samples.push_back(req);
  }
  if (!serve::is_terminal(s)) {
    tally.violate(tenant.name + ": non-terminal status after wait()");
    return;
  }
  if (!e.allow[static_cast<int>(s)]) {
    tally.violate(tenant.name + ": unexpected terminal status " +
                  serve::request_status_name(s) + " (" + req->error() + ")");
    return;
  }
  switch (s) {
    case RequestStatus::kOk: {
      const gemm::Matrix<float>& out = req->result_f32();
      if (e.gate == BitGate::kExact) {
        if (!bitwise_equal(out, tenant.golden)) {
          tally.violate(tenant.name + ": kOk result not bit-identical");
        }
      } else {
        for (int j = 0; j < out.cols(); ++j) {
          const double limit = tenant.limit[static_cast<std::size_t>(j)];
          for (int i = 0; i < out.rows(); ++i) {
            const double dev =
                std::fabs(static_cast<double>(out(i, j)) -
                          static_cast<double>(tenant.golden(i, j)));
            if (!(dev <= limit)) {
              tally.violate(tenant.name +
                            ": kOk result has supra-tolerance deviation");
              return;
            }
          }
        }
      }
      break;
    }
    case RequestStatus::kFailed:
      if (req->error().empty()) {
        tally.violate(tenant.name + ": kFailed without a structured error");
      }
      break;
    default:
      break;  // kDeadlineExceeded / kShed / kCancelled carry their reason
  }
}

// ---------------------------------------------------------------------------
// Clean mode
// ---------------------------------------------------------------------------

struct CleanResult {
  Tally tally;
  std::vector<double> latency_ms;
  double wall_s = 0;
  double goodput_rps = 0;
  double shed_rate = 0;
  long poisson_requests = 0;
  long burst_requests = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))));
  return sorted[idx - 1];
}

CleanResult run_clean(bool quick, std::uint64_t seed) {
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(3, g, seed ^ 0xc1ea7ull, false);

  serve::ServerConfig cfg;
  cfg.executors = 3;
  cfg.queue_capacity = 512;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  serve::GemmServer server(cfg);

  // Calibrate the Poisson rate off one measured service time so the
  // open-loop stream runs near (but under) saturation on any machine.
  const double t0 = now_ms();
  {
    gemm::PlanOptions options;
    options.tile = g.tile;
    const gemm::GemmPlan plan = gemm::GemmPlan::compile(
        core::M3xuConfig{}, {g.m, g.n, g.k, false}, options);
    gemm::Matrix<float> warm = tenants[0].c0;
    plan.execute(tenants[0].a, tenants[0].b, warm);
  }
  const double service_ms = std::max(0.5, now_ms() - t0);
  const double mean_gap_ms = service_ms / static_cast<double>(cfg.executors);

  CleanResult result;
  struct Pending {
    RequestHandle req;
    const Tenant* tenant;
    double submit_ms;
    bool observed = false;
  };
  std::vector<Pending> pending;
  const Expect expect = Expect::of({RequestStatus::kOk});
  const auto poll = [&] {
    for (Pending& p : pending) {
      if (!p.observed && p.req->done()) {
        p.observed = true;
        result.latency_ms.push_back(now_ms() - p.submit_ms);
      }
    }
  };

  Rng arrivals{seed ^ 0xa441ull};
  const double wall_start = now_ms();

  // Phase 1: open-loop Poisson arrivals (exponential gaps).
  const int poisson_n = quick ? 24 : 120;
  for (int i = 0; i < poisson_n; ++i) {
    const double u = std::max(1e-12, 1.0 - arrivals.next_double());
    const double gap_ms = std::min(50.0, -mean_gap_ms * std::log(u));
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(gap_ms));
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    opts.b_key = t.b_key;
    pending.push_back({server.submit_sgemm(t.a, t.b, t.c0, opts), &t,
                       now_ms()});
    ++result.poisson_requests;
    poll();
  }

  // Phase 2: bursty closed-loop rounds - submit a burst, drain it.
  const int bursts = quick ? 2 : 6;
  const int burst_size = 10;
  for (int round = 0; round < bursts; ++round) {
    std::vector<std::size_t> burst;
    for (int i = 0; i < burst_size; ++i) {
      const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
      serve::RequestOptions opts;
      opts.tenant = t.name;
      opts.b_key = t.b_key;
      pending.push_back({server.submit_sgemm(t.a, t.b, t.c0, opts), &t,
                         now_ms()});
      burst.push_back(pending.size() - 1);
      ++result.burst_requests;
    }
    for (std::size_t idx : burst) {
      pending[idx].req->wait();
      poll();
    }
  }

  // Drain everything and enforce the clean gate.
  for (Pending& p : pending) {
    settle(p.req, *p.tenant, expect, result.tally);
    if (!p.observed) {
      p.observed = true;
      result.latency_ms.push_back(now_ms() - p.submit_ms);
    }
  }
  result.wall_s = (now_ms() - wall_start) / 1e3;
  result.goodput_rps =
      result.wall_s > 0
          ? static_cast<double>(result.tally.ok()) / result.wall_s
          : 0.0;
  result.shed_rate =
      result.tally.total() > 0
          ? static_cast<double>(result.tally.of(RequestStatus::kShed)) /
                static_cast<double>(result.tally.total())
          : 0.0;
  result.cache_hits = server.pack_cache().hits();
  result.cache_misses = server.pack_cache().misses();
  std::sort(result.latency_ms.begin(), result.latency_ms.end());
  server.shutdown();
  return result;
}

// ---------------------------------------------------------------------------
// Tracing overhead
// ---------------------------------------------------------------------------

struct OverheadResult {
  double traced_ms = 0;    // trimmed total CPU ms across kept rounds, tracing on
  double untraced_ms = 0;  // trimmed total CPU ms across kept rounds, tracing off
  double ratio = 1.0;      // traced / untraced
  long requests = 0;
};

/// Closed-loop A/B: two long-lived servers, identical except for
/// trace_requests, measured in process CPU time (see cpu_ms).
///
/// Each round runs one tiny burst against each arm back-to-back
/// (order alternating by round parity). Adjacency is the point: the
/// dominant noise on a shared host is multiplicative - CPU frequency
/// drift makes the *same* work cost more or fewer CPU-seconds from
/// one moment to the next - and two samples taken milliseconds apart
/// see the same frequency, so each round's on/off ratio is clean even
/// when its absolute times are not. The gate is the MEDIAN of the
/// per-round ratios: a preempted or cache-cold round corrupts only
/// its own ratio, and the median discards any minority of corrupted
/// rounds no matter how large their individual errors - unlike summed
/// totals, which a few badly inflated samples in one arm can tilt.
/// The reported CPU totals exclude rounds where either arm's sample
/// sits far above its arm's median (dropped as a pair, keeping the
/// arms balanced). The telemetry budget for full request tracing is
/// <= 2% on this scenario.
OverheadResult run_overhead(bool quick, std::uint64_t seed) {
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed ^ 0x0abull, false);
  const int rounds = quick ? 48 : 96;
  const int per_round = 2;  // one request per tenant, both executors busy

  OverheadResult r;
  const auto make_server = [&](bool traced) {
    serve::ServerConfig cfg;
    cfg.executors = 2;
    cfg.queue_capacity = 256;
    cfg.tile = g.tile;
    cfg.abft.enable = true;
    cfg.trace_requests = traced;
    return std::make_unique<serve::GemmServer>(cfg);
  };
  const std::unique_ptr<serve::GemmServer> server_off = make_server(false);
  const std::unique_ptr<serve::GemmServer> server_on = make_server(true);
  const auto burst = [&](serve::GemmServer& server) {
    const double t0 = cpu_ms();
    std::vector<RequestHandle> handles;
    handles.reserve(static_cast<std::size_t>(per_round));
    for (int i = 0; i < per_round; ++i) {
      const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
      serve::RequestOptions opts;
      opts.tenant = t.name;
      opts.b_key = t.b_key;
      handles.push_back(server.submit_sgemm(t.a, t.b, t.c0, opts));
    }
    for (const RequestHandle& h : handles) h->wait();
    r.requests += per_round;
    return cpu_ms() - t0;
  };

  burst(*server_off);  // warm-up both arms: allocator, pack cache path
  burst(*server_on);
  std::vector<double> on, off;
  on.reserve(static_cast<std::size_t>(rounds));
  off.reserve(static_cast<std::size_t>(rounds));
  for (int p = 0; p < rounds; ++p) {
    double t_on, t_off;
    if (p % 2 == 0) {
      t_off = burst(*server_off);
      t_on = burst(*server_on);
    } else {
      t_on = burst(*server_on);
      t_off = burst(*server_off);
    }
    on.push_back(t_on);
    off.push_back(t_off);
  }
  const auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double med_on = median_of(on);
  const double med_off = median_of(off);
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(rounds));
  double total_on = 0;
  double total_off = 0;
  for (int p = 0; p < rounds; ++p) {
    const std::size_t i = static_cast<std::size_t>(p);
    if (off[i] > 0) ratios.push_back(on[i] / off[i]);
    // A preempted round resumes with cold caches and burns extra CPU
    // time; it shows up as a sample far above its arm's median. Keep
    // the reported totals paired and like-for-like by dropping the
    // whole round.
    if (on[i] > 1.25 * med_on || off[i] > 1.25 * med_off) continue;
    total_on += on[i];
    total_off += off[i];
  }
  r.traced_ms = total_on;
  r.untraced_ms = total_off;
  r.ratio = ratios.empty() ? 1.0 : median_of(ratios);
  server_off->shutdown();
  server_on->shutdown();
  return r;
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

struct DomainResult {
  std::string name;
  Tally tally;
  bool required_seen = true;  // domain-specific must-happen outcome
};

/// Datapath domains: the server's engine injects faults at `site`; the
/// resilience stack must keep every delivered result inside the ABFT
/// detectability bar.
DomainResult chaos_datapath(fault::Site site, double rate, int requests,
                            std::uint64_t seed) {
  DomainResult d;
  d.name = fault::site_name(site);
  const Geometry g = single_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed, true);

  const fault::FaultInjector inj(seed ^ 0xda7aull,
                                 fault::SiteRates::only(site, rate));
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  cfg.engine.injector = &inj;
  cfg.retry_backoff_ms = 0;
  serve::GemmServer server(cfg);

  const Expect expect =
      Expect::of({RequestStatus::kOk, RequestStatus::kFailed},
                 BitGate::kTolerance);
  std::vector<std::pair<RequestHandle, const Tenant*>> handles;
  for (int i = 0; i < requests; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    handles.emplace_back(server.submit_sgemm(t.a, t.b, t.c0, opts), &t);
  }
  for (auto& [req, tenant] : handles) settle(req, *tenant, expect, d.tally);
  server.shutdown();
  return d;
}

/// Alloc-failure domain: lost packed panels must fall back bit-exactly.
DomainResult chaos_alloc(int requests, std::uint64_t seed) {
  DomainResult d;
  d.name = "alloc_failure";
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed, false);
  const fault::FaultInjector inj(
      seed ^ 0xa110cull,
      fault::SiteRates::only(fault::Site::kAllocFailure, 0.25));
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  cfg.engine.injector = &inj;
  serve::GemmServer server(cfg);

  const Expect expect = Expect::of({RequestStatus::kOk});
  std::vector<std::pair<RequestHandle, const Tenant*>> handles;
  for (int i = 0; i < requests; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    handles.emplace_back(server.submit_sgemm(t.a, t.b, t.c0, opts), &t);
  }
  for (auto& [req, tenant] : handles) settle(req, *tenant, expect, d.tally);
  server.shutdown();
  return d;
}

/// Worker-stall domain (no deadline): stalls cost time, never bits.
DomainResult chaos_stall(int requests, std::uint64_t seed) {
  DomainResult d;
  d.name = "worker_stall";
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed, false);
  fault::FaultInjector inj(
      seed ^ 0x57a11ull,
      fault::SiteRates::only(fault::Site::kWorkerStall, 0.2));
  inj.stall_duration_ms = 2;
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  cfg.engine.injector = &inj;
  serve::GemmServer server(cfg);

  const Expect expect = Expect::of({RequestStatus::kOk});
  std::vector<std::pair<RequestHandle, const Tenant*>> handles;
  for (int i = 0; i < requests; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    handles.emplace_back(server.submit_sgemm(t.a, t.b, t.c0, opts), &t);
  }
  for (auto& [req, tenant] : handles) settle(req, *tenant, expect, d.tally);
  server.shutdown();
  return d;
}

/// User-cancel domain: outcomes are exactly {kOk bit-identical,
/// kCancelled} - a cancelled request must never deliver wrong bits.
DomainResult chaos_cancel(int requests, std::uint64_t seed) {
  DomainResult d;
  d.name = "user_cancel";
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed, false);
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  serve::GemmServer server(cfg);

  Rng rng{seed ^ 0xca9ce1ull};
  const Expect expect =
      Expect::of({RequestStatus::kOk, RequestStatus::kCancelled});
  std::vector<std::pair<RequestHandle, const Tenant*>> handles;
  bool sent_cancel = false;
  for (int i = 0; i < requests; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    RequestHandle req = server.submit_sgemm(t.a, t.b, t.c0, opts);
    if (rng.next_below(100) < 60) {
      // The first cancel goes out at once, so at least one lands while
      // its request is queued or running however fast requests finish;
      // the others wait a random delay and may arrive after completion.
      const auto delay = std::chrono::microseconds(rng.next_below(2000));
      if (sent_cancel) std::this_thread::sleep_for(delay);
      sent_cancel = true;
      req->cancel("chaos tenant cancel");
    }
    handles.emplace_back(std::move(req), &t);
  }
  for (auto& [req, tenant] : handles) settle(req, *tenant, expect, d.tally);
  d.required_seen = d.tally.of(RequestStatus::kCancelled) > 0;
  server.shutdown();
  return d;
}

/// Deadline domain: a stalling engine under tight wall deadlines. A
/// request either beats the deadline (kOk), exceeds it, or exhausts
/// its stall retries (kFailed, structured).
DomainResult chaos_deadline(int requests, std::uint64_t seed) {
  DomainResult d;
  d.name = "deadline";
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed, false);
  fault::FaultInjector inj(
      seed ^ 0xdead11ull,
      fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 30;
  serve::ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  cfg.engine.injector = &inj;
  cfg.stall_ms = 10;
  cfg.max_attempts = 2;
  cfg.retry_backoff_ms = 0;
  serve::GemmServer server(cfg);

  const Expect expect =
      Expect::of({RequestStatus::kOk, RequestStatus::kDeadlineExceeded,
                  RequestStatus::kFailed});
  std::vector<std::pair<RequestHandle, const Tenant*>> handles;
  for (int i = 0; i < requests; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    opts.deadline_ms = 60;
    handles.emplace_back(server.submit_sgemm(t.a, t.b, t.c0, opts), &t);
  }
  for (auto& [req, tenant] : handles) settle(req, *tenant, expect, d.tally);
  d.required_seen = d.tally.of(RequestStatus::kDeadlineExceeded) +
                        d.tally.of(RequestStatus::kFailed) >
                    0;
  server.shutdown();
  return d;
}

/// Shed domain: an overload burst against a tiny queue, plus periodic
/// shared-pack-cache corruption. Losers shed explicitly; winners must
/// still produce bit-identical results even when their cached panels
/// were corrupted underneath them.
DomainResult chaos_shed(int requests, std::uint64_t seed) {
  DomainResult d;
  d.name = "shed";
  const Geometry g = multi_tile();
  std::vector<Tenant> tenants = make_tenants(2, g, seed, false);
  serve::ServerConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 4;
  cfg.admission = serve::AdmissionPolicy::kEvictLowestPriority;
  cfg.tile = g.tile;
  cfg.abft.enable = true;
  serve::GemmServer server(cfg);

  Rng rng{seed ^ 0x5eedull};
  const Expect expect = Expect::of({RequestStatus::kOk, RequestStatus::kShed});
  std::vector<std::pair<RequestHandle, const Tenant*>> handles;
  for (int i = 0; i < requests; ++i) {
    const Tenant& t = tenants[static_cast<std::size_t>(i) % tenants.size()];
    serve::RequestOptions opts;
    opts.tenant = t.name;
    opts.b_key = t.b_key;
    opts.priority = static_cast<int>(rng.next_below(10));
    handles.emplace_back(server.submit_sgemm(t.a, t.b, t.c0, opts), &t);
    if (i % 7 == 3) server.pack_cache().corrupt_one(t.b_key);
  }
  for (auto& [req, tenant] : handles) settle(req, *tenant, expect, d.tally);
  d.required_seen = d.tally.of(RequestStatus::kShed) > 0;
  server.shutdown();
  return d;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void json_tally(telemetry::JsonWriter& w, const Tally& t) {
  w.key("counts").begin_object();
  for (int s = 0; s < kStatusCount; ++s) {
    if (t.counts[s] > 0) {
      w.kv(serve::request_status_name(static_cast<RequestStatus>(s)),
           t.counts[s]);
    }
  }
  w.end_object();
  w.kv("violations", t.violations);
  if (!t.notes.empty()) {
    w.key("violation_notes").begin_array();
    for (const std::string& n : t.notes) w.value(n);
    w.end_array();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 0x5e41ll));
  const std::string mode = cli.get("mode", "both");
  const bool run_clean_mode = mode == "both" || mode == "clean";
  const bool run_chaos_mode = mode == "both" || mode == "chaos";

  const telemetry::Snapshot before = telemetry::snapshot();
  bool pass = true;

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "serving").kv("schema_version", 1);
  w.kv("seed", seed).kv("quick", quick).kv("mode", mode);

  std::printf("== GemmServer serving bench (seed=0x%llx%s) ==\n",
              static_cast<unsigned long long>(seed), quick ? ", quick" : "");

  if (run_clean_mode) {
    CleanResult clean = run_clean(quick, seed);
    const double p50 = percentile(clean.latency_ms, 50.0);
    const double p99 = percentile(clean.latency_ms, 99.0);
    const double p999 = percentile(clean.latency_ms, 99.9);
    pass = pass && clean.tally.violations == 0;
    std::printf(
        "clean: %ld requests (%ld poisson + %ld burst) in %.2fs | "
        "p50 %.2fms p99 %.2fms p999 %.2fms | goodput %.1f req/s | "
        "shed %.1f%% | cache %llu hits / %llu misses | violations %ld\n",
        clean.tally.total(), clean.poisson_requests, clean.burst_requests,
        clean.wall_s, p50, p99, p999, clean.goodput_rps,
        100.0 * clean.shed_rate,
        static_cast<unsigned long long>(clean.cache_hits),
        static_cast<unsigned long long>(clean.cache_misses),
        clean.tally.violations);

    w.key("clean").begin_object();
    w.kv("poisson_requests", clean.poisson_requests)
        .kv("burst_requests", clean.burst_requests)
        .kv("wall_s", clean.wall_s)
        .kv("latency_ms_p50", p50)
        .kv("latency_ms_p99", p99)
        .kv("latency_ms_p999", p999)
        .kv("goodput_rps", clean.goodput_rps)
        .kv("shed_rate", clean.shed_rate)
        .kv("pack_cache_hits", clean.cache_hits)
        .kv("pack_cache_misses", clean.cache_misses);
    json_tally(w, clean.tally);
    // The telemetry histogram's order-of-magnitude percentile readout,
    // for cross-checking exporter pipelines against exact samples.
    const telemetry::Snapshot snap = telemetry::snapshot();
    if (const auto* h = snap.histogram("serve.request_latency_ns")) {
      w.kv("telemetry_latency_ns_p50", h->percentile(50.0))
          .kv("telemetry_latency_ns_p99", h->percentile(99.0))
          .kv("telemetry_latency_ns_p999", h->percentile(99.9));
    }
    w.kv("pass", clean.tally.violations == 0);
    w.end_object();
  }

  {
    const OverheadResult o = run_overhead(quick, seed);
    std::printf(
        "tracing overhead: traced %.2f vs untraced %.2f CPU ms (trimmed "
        "paired totals) | ratio %.4f (median of per-round ratios, budget "
        "1.02)\n",
        o.traced_ms, o.untraced_ms, o.ratio);
    w.key("tracing_overhead").begin_object();
    w.kv("requests", o.requests)
        .kv("traced_cpu_ms", o.traced_ms)
        .kv("untraced_cpu_ms", o.untraced_ms)
        .kv("overhead_ratio", o.ratio)
        .kv("budget_ratio", 1.02)
        .kv("within_budget", o.ratio <= 1.02);
    w.end_object();
  }

  if (run_chaos_mode) {
    const int dp = quick ? 3 : 10;   // datapath requests per domain
    const int sys = quick ? 6 : 20;  // system-domain requests
    std::vector<DomainResult> domains;
    std::uint64_t stream = 0;
    const Rng root{seed};
    const auto s = [&] { return root.split(stream++).seed(); };
    domains.push_back(
        chaos_datapath(fault::Site::kOperandA, 1e-3, dp, s()));
    domains.push_back(
        chaos_datapath(fault::Site::kOperandB, 1e-3, dp, s()));
    domains.push_back(
        chaos_datapath(fault::Site::kPartialProduct, 1e-3, dp, s()));
    domains.push_back(
        chaos_datapath(fault::Site::kAccumulator, 1e-3, dp, s()));
    domains.push_back(
        chaos_datapath(fault::Site::kStagedPanel, 1e-4, dp, s()));
    domains.push_back(chaos_alloc(sys, s()));
    domains.push_back(chaos_stall(quick ? 4 : 10, s()));
    domains.push_back(chaos_cancel(sys, s()));
    domains.push_back(chaos_deadline(quick ? 4 : 10, s()));
    domains.push_back(chaos_shed(quick ? 16 : 40, s()));

    std::printf("%-16s %9s %5s %6s %7s %6s %6s %11s %5s\n", "domain",
                "requests", "ok", "shed", "cancel", "ddl", "fail",
                "violations", "pass");
    w.key("chaos").begin_object();
    w.key("domains").begin_array();
    for (const DomainResult& d : domains) {
      const bool dpass = d.tally.violations == 0 && d.required_seen;
      pass = pass && dpass;
      std::printf("%-16s %9ld %5ld %6ld %7ld %6ld %6ld %11ld %5s\n",
                  d.name.c_str(), d.tally.total(), d.tally.ok(),
                  d.tally.of(RequestStatus::kShed),
                  d.tally.of(RequestStatus::kCancelled),
                  d.tally.of(RequestStatus::kDeadlineExceeded),
                  d.tally.of(RequestStatus::kFailed), d.tally.violations,
                  dpass ? "ok" : "FAIL");
      w.begin_object().kv("name", d.name).kv("requests", d.tally.total());
      json_tally(w, d.tally);
      w.kv("required_outcome_seen", d.required_seen).kv("pass", dpass);
      if (!d.tally.trace_samples.empty()) {
        // Per-request timelines of failed/expired requests:
        // admission -> ABFT detections -> ladder walk -> terminal.
        w.key("timeline_samples").begin_array();
        for (const RequestHandle& r : d.tally.trace_samples) {
          r->trace()->write_json(w);
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  // Serving-counter deltas across the whole run: the JSON artifact
  // doubles as a telemetry integration check. panel_cache.* counts
  // every PanelCache in the process, so it includes the private store
  // of the clean mode's rate-calibration plan.
  const telemetry::Snapshot after = telemetry::snapshot();
  w.key("telemetry").begin_object();
  for (const char* name :
       {"serve.requests.submitted", "serve.requests.ok",
        "serve.requests.deadline_exceeded", "serve.requests.shed",
        "serve.requests.cancelled", "serve.requests.failed",
        "serve.requests.retries", "serve.shed.rejected",
        "serve.shed.evicted", "panel_cache.hits",
        "panel_cache.misses", "panel_cache.corrupt_dropped",
        "recovery.quarantine_evictions", "threadpool.submissions_queued",
        "cancel.user", "cancel.deadline", "cancel.shed", "cancel.stall"}) {
    w.kv(name, after.counter_delta(before, name));
  }
  w.end_object();
  w.kv("pass", pass);
  w.end_object();

  const std::string json = w.str() + "\n";
  const std::string json_path = cli.get("json", "");
  if (json_path.empty()) {
    std::printf("%s", json.c_str());
  } else {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_serving: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  // Optional metrics dump (the CI metrics steps): the process's JSON
  // metrics document, read back from disk so a malformed or
  // incomplete document fails the run.
  const std::string metrics_prefix = cli.get("metrics-dump", "");
  if (!metrics_prefix.empty()) {
    const std::string snap_path = metrics_prefix + ".json";
    if (!telemetry::write_snapshot_json(snap_path)) {
      std::fprintf(stderr, "bench_serving: cannot write metrics dump %s\n",
                   snap_path.c_str());
      return 2;
    }
    std::ifstream in(snap_path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::optional<telemetry::JsonValue> doc =
        telemetry::JsonValue::parse(text.str());
    const telemetry::JsonValue* version =
        doc.has_value() ? doc->find("schema_version") : nullptr;
    if (version == nullptr ||
        version->as_int(-1) != telemetry::kExpositionSchemaVersion ||
        doc->find("counters") == nullptr ||
        doc->find("histograms") == nullptr) {
      std::fprintf(stderr,
                   "bench_serving: metrics dump %s does not read back as a "
                   "schema %d document with counters and histograms\n",
                   snap_path.c_str(), telemetry::kExpositionSchemaVersion);
      return 2;
    }
    std::printf("metrics dump: %s (schema %d, read back ok)\n",
                snap_path.c_str(), telemetry::kExpositionSchemaVersion);
  }

  std::printf("\nserving bench: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
