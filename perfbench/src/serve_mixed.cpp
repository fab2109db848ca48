// serve_mixed: open-loop Poisson arrivals at a fixed rate against one
// GemmServer (ABFT on, executors = nproc - 1, every other ServerConfig
// field at its default, including request tracing and the shared
// PackCache). Four tenants send FP32 32x128x128 requests with a fresh A
// from a per-tenant ring; three in four reuse the tenant's weights
// through b_key (PackCache reads), one in four brings a new B under a
// unique b_key (a miss, an insert, and LRU pressure).
//
// Short requests make admission, queueing, plan lookup, cache traffic,
// ABFT verify and resolution a large share of each request, and the
// shared/fresh split shows whether a batching or cache change helps one
// class at the other's expense.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm/plan.hpp"
#include "layers.hpp"
#include "serve/pack_cache.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using m3xu::gemm::Matrix;
using m3xu::serve::GemmServer;
using m3xu::serve::RequestHandle;
using m3xu::serve::RequestStatus;

constexpr int kTenants = 4;
constexpr int kM = 32, kN = 128, kK = 128;
constexpr int kARing = 4;       // A operands per tenant
constexpr int kFreshRing = 2;   // contents behind the unique fresh b_keys
constexpr double kFreshShare = 0.25;
// Fixed offered load and latency limit, set once from the capacity the
// parent commit measured on a 4-core VM (`m3xu_bench --calibrate`:
// 200-220 completed requests/s at saturation). Never re-derived from
// the build under test. The rate is a third of that rather than half:
// at 105/s (~55% utilisation) queueing multiplied every slowdown of the
// shared host into 2x latency swings between runs of the same build.
constexpr double kRateRps = 70.0;
constexpr double kLatencyLimitMs = 100.0;
// A set-up (server construction + one warm-up per tenant) takes about
// 60 ms; it is repeated at least kSetupReps times and until kSetupMinS
// has passed, and setup_s is the median.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupMinS = 0.6;
// A request not observed this long after the phase's last send is
// abandoned (counted failed) so a hung server cannot hang the run.
constexpr std::int64_t kDrainLimitMs = 30'000;

std::string tenant_name(int t) { return "tenant" + std::to_string(t); }

struct Planned {
  std::uint64_t due_offset_ns = 0;
  int tenant = 0;
  int a_idx = 0;
  int b_sel = 0;  // 0 = the tenant's shared weights, 1.. = fresh ring
};

struct Record {
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t obs_ns = 0;
  bool ok = false;
  bool exact = false;
  bool fresh = false;
  std::uint64_t submit_ts = 0, dequeue_ts = 0, exec_start_ts = 0,
                exec_done_ts = 0;
  std::size_t events = 0;
  std::uint64_t dropped = 0;
};

struct Pending {
  RequestHandle handle;
  std::size_t index = 0;
};

// Waiters block on each request's completion condition variable, so a
// completion is observed within one thread wake-up, not a polling step.
class WaiterPool {
 public:
  WaiterPool(int threads, std::vector<Record>& records,
             const std::function<bool(std::size_t, const RequestHandle&)>& check,
             std::uint64_t give_up_ns)
      : records_(records), check_(check), give_up_ns_(give_up_ns) {
    for (int t = 0; t < threads; ++t) workers_.emplace_back([this] { loop(); });
  }
  ~WaiterPool() { finish(); }
  WaiterPool(const WaiterPool&) = delete;
  WaiterPool& operator=(const WaiterPool&) = delete;

  void push(RequestHandle h, std::size_t index) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({std::move(h), index});
    }
    cv_.notify_one();
  }

  void finish() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

 private:
  void loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      const std::uint64_t now = wall_ns();
      const std::int64_t budget_ms =
          now < give_up_ns_
              ? static_cast<std::int64_t>((give_up_ns_ - now) / 1'000'000) + 1
              : 1;
      Record& rec = records_[p.index];
      if (!p.handle->wait_for(budget_ms)) {
        p.handle->cancel("benchmark drain limit");
        p.handle->wait();
      }
      rec.obs_ns = wall_ns();
      rec.ok = p.handle->status() == RequestStatus::kOk;
      rec.exact = rec.ok && check_(p.index, p.handle);
      if (const auto* trace = p.handle->trace()) {
        const auto events = trace->events();
        rec.events = events.size();
        rec.dropped = trace->dropped();
        for (const auto& e : events) {
          const std::string_view name = e.name;
          if (name == "request.submit") rec.submit_ts = e.ts_ns;
          if (name == "request.dequeue") rec.dequeue_ts = e.ts_ns;
          if (name == "exec.start") rec.exec_start_ts = e.ts_ns;
          if (name == "exec.done") rec.exec_done_ts = e.ts_ns;
        }
      }
    }
  }

  std::vector<Record>& records_;
  const std::function<bool(std::size_t, const RequestHandle&)>& check_;
  const std::uint64_t give_up_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  std::vector<std::thread> workers_;
};

struct PhaseResult {
  std::vector<Planned> plan;
  std::vector<Record> records;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t backlog_max = 0;
};

class ServeWorkload {
 public:
  ServeWorkload(const Args& args, Host& host) : args_(args), host_(host) {
    executors_ = std::max(1, host.nproc - 1);
    host_.executors = executors_;
    cfg_.executors = executors_;
    cfg_.abft.enable = true;
  }

  Result run() {
    make_inputs();
    make_references();
    Result r;
    r.workload = "serve_mixed";
    r.seed = args_.seed;
    r.trace = args_.trace;
    setup(r);
    r.notes.push_back({"rate_rps", std::to_string(kRateRps)});
    r.notes.push_back({"latency_limit_ms", std::to_string(kLatencyLimitMs)});
    if (!args_.trace) {
      const PhaseResult ph = phase(*server_, args_.seconds, 1);
      tally(r, ph);
      report_end_to_end(r, ph);
    } else {
      run_traced(r);
    }
    server_.reset();
    return r;
  }

  int calibrate() {
    make_inputs();
    make_references();
    Result scratch;
    setup(scratch);
    const int clients = executors_ + 1;
    std::atomic<std::uint64_t> done{0};
    std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
    const std::uint64_t t0 = wall_ns();
    const std::uint64_t end = t0 + static_cast<std::uint64_t>(args_.seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        m3xu::Rng rng(args_.seed + 1000 + static_cast<std::uint64_t>(c));
        while (wall_ns() < end) {
          const Planned p{0, static_cast<int>(rng.next_below(kTenants)),
                          static_cast<int>(rng.next_below(kARing)),
                          rng.next_double() < kFreshShare ? 1 : 0};
          const std::uint64_t s = wall_ns();
          RequestHandle h = submit(*server_, p);
          h->wait();
          lat[static_cast<std::size_t>(c)].push_back(
              static_cast<double>(wall_ns() - s) * 1e-6);
          ++done;
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs = static_cast<double>(wall_ns() - t0) * 1e-9;
    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::printf("serve_mixed capacity: %.1f requests/s with %d closed-loop "
                "clients (%llu requests, latency p50 %.2f ms p99 %.2f ms)\n",
                static_cast<double>(done.load()) / secs, clients,
                static_cast<unsigned long long>(done.load()), median(all),
                quantile(all, 0.99));
    server_.reset();
    return 0;
  }

 private:
  std::size_t ref_index(int tenant, int a_idx, int b_sel) const {
    return (static_cast<std::size_t>(tenant) * kARing + a_idx) *
               (1 + kFreshRing) + b_sel;
  }
  const Matrix<float>& b_for(int tenant, int b_sel) const {
    return bs_[static_cast<std::size_t>(tenant) * (1 + kFreshRing) + b_sel];
  }
  const Matrix<float>& a_for(int tenant, int a_idx) const {
    return as_[static_cast<std::size_t>(tenant) * kARing + a_idx];
  }

  void make_inputs() {
    m3xu::Rng rng(args_.seed);
    for (int t = 0; t < kTenants; ++t) {
      for (int b = 0; b < 1 + kFreshRing; ++b) {
        bs_.emplace_back(kK, kN);
        m3xu::gemm::fill_random(bs_.back(), rng);
      }
      for (int a = 0; a < kARing; ++a) {
        as_.emplace_back(kM, kK);
        m3xu::gemm::fill_random(as_.back(), rng);
      }
    }
    gate_word_ = rng.next_u64();
    schedule_rng_ = m3xu::Rng(rng.next_u64());
  }

  // Per-dot engine route (force_generic) for every (tenant, A, B)
  // combination the schedule can draw, outside timing and setup.
  void make_references() {
    m3xu::core::M3xuConfig cfg;
    cfg.force_generic = true;
    const m3xu::core::M3xuEngine generic(cfg);
    refs_.assign(static_cast<std::size_t>(kTenants) * kARing * (1 + kFreshRing),
                 std::vector<float>(static_cast<std::size_t>(kM) * kN, 0.0f));
    m3xu::ThreadPool pool(static_cast<std::size_t>(host_.nproc));
    pool.parallel_for(refs_.size(), 1, [&](std::size_t i) {
      const int b_sel = static_cast<int>(i % (1 + kFreshRing));
      const int a_idx = static_cast<int>((i / (1 + kFreshRing)) % kARing);
      const int tenant = static_cast<int>(i / ((1 + kFreshRing) * kARing));
      generic.gemm_fp32_packed(kM, kN, kK, a_for(tenant, a_idx).data(), kK,
                               b_for(tenant, b_sel).data(), kN,
                               refs_[i].data(), kN);
    });
  }

  // Tenant weights share b_key tenant + 1; every fresh B gets a key of
  // its own, so it always misses the PackCache.
  m3xu::serve::RequestOptions options_for(const Planned& p) {
    m3xu::serve::RequestOptions opts;
    opts.tenant = tenant_name(p.tenant);
    opts.b_key = p.b_sel == 0 ? static_cast<std::uint64_t>(p.tenant) + 1
                              : next_fresh_key_++;
    return opts;
  }

  RequestHandle submit(GemmServer& server, const Planned& p) {
    return server.submit_sgemm(Matrix<float>(a_for(p.tenant, p.a_idx)),
                                 Matrix<float>(b_for(p.tenant, p.b_sel)),
                                 Matrix<float>(kM, kN), options_for(p));
  }

  bool exact(const Planned& p, const RequestHandle& h) const {
    const auto& want = refs_[ref_index(p.tenant, p.a_idx, p.b_sel)];
    return bits_equal(h->result_f32().data(), want.data(), want.size());
  }

  // A server on `cfg` after one warm-up request per tenant (plan
  // compile, shared-weights packs into the PackCache); the warm-up
  // handles are left in `warm`.
  std::unique_ptr<GemmServer> start_server(
      const m3xu::serve::ServerConfig& cfg, std::vector<RequestHandle>& warm) {
    auto server = std::make_unique<GemmServer>(cfg);
    for (int t = 0; t < kTenants; ++t) {
      warm.push_back(submit(*server, {0, t, 0, 0}));
      warm.back()->wait();
    }
    return server;
  }

  // Counts every warm-up that did not end kOk bit-exact as wrong.
  void check_warm(const std::vector<RequestHandle>& warm, Result& r) const {
    for (int t = 0; t < kTenants; ++t) {
      const RequestHandle& h = warm[static_cast<std::size_t>(t)];
      if (h->status() != RequestStatus::kOk || !exact({0, t, 0, 0}, h)) {
        ++r.wrong_bits;
      }
    }
  }

  // start_server() on the workload's config, repeated; the last server
  // is kept. The first warm-up output feeds the gate self-test.
  void setup(Result& r) {
    const std::uint64_t start = wall_ns();
    while (setup_s_.size() < kSetupReps ||
           static_cast<double>(wall_ns() - start) * 1e-9 < kSetupMinS) {
      server_.reset();
      std::vector<RequestHandle> warm;
      const std::uint64_t t0 = wall_ns();
      server_ = start_server(cfg_, warm);
      setup_s_.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
      check_warm(warm, r);
      if (setup_s_.size() == 1) {
        const auto& out = warm.front()->result_f32();
        const std::vector<float> got(out.data(), out.data() + out.size());
        r.gate_tripped = gate_trips(got, refs_[ref_index(0, 0, 0)], gate_word_);
      }
    }
  }

  // One open-loop phase: `seconds` of Poisson arrivals at kRateRps. The
  // arrival count is fixed at rate x seconds and the arrival times are
  // that many uniform order statistics over the phase (a Poisson process
  // conditioned on its count), so every seed offers the same load.
  PhaseResult phase(GemmServer& server, double seconds, std::uint64_t stream) {
    PhaseResult ph;
    m3xu::Rng rng = schedule_rng_.split(stream);
    const std::size_t n =
        std::max<std::size_t>(1, static_cast<std::size_t>(kRateRps * seconds));
    std::vector<double> gaps(n + 1);
    double total = 0.0;
    for (double& g : gaps) {
      g = -std::log(1.0 - rng.next_double());
      total += g;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += gaps[i];
      Planned p;
      p.due_offset_ns = static_cast<std::uint64_t>(acc / total * seconds * 1e9);
      p.tenant = static_cast<int>(rng.next_below(kTenants));
      p.a_idx = static_cast<int>(rng.next_below(kARing));
      p.b_sel = rng.next_double() < kFreshShare
                    ? 1 + static_cast<int>(rng.next_below(kFreshRing))
                    : 0;
      ph.plan.push_back(p);
    }
    ph.records.resize(n);
    const std::function<bool(std::size_t, const RequestHandle&)> check =
        [&](std::size_t i, const RequestHandle& h) {
          return exact(ph.plan[i], h);
        };
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = wall_ns() + 1'000'000;  // first due in >= 1 ms
    const std::uint64_t give_up =
        t0 + static_cast<std::uint64_t>(seconds * 1e9) + kDrainLimitMs * 1'000'000ull;
    {
      WaiterPool waiters(executors_, ph.records, check, give_up);
      for (std::size_t i = 0; i < n; ++i) {
        const Planned& p = ph.plan[i];
        m3xu::serve::RequestOptions opts = options_for(p);
        Matrix<float> a(a_for(p.tenant, p.a_idx));
        Matrix<float> b(b_for(p.tenant, p.b_sel));
        Matrix<float> c(kM, kN);
        Record& rec = ph.records[i];
        rec.fresh = p.b_sel != 0;
        rec.due_ns = t0 + p.due_offset_ns;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(rec.due_ns)));
        ph.backlog_max = std::max(ph.backlog_max, server.queued());
        rec.sent_ns = wall_ns();
        waiters.push(server.submit_sgemm(std::move(a), std::move(b),
                                           std::move(c), std::move(opts)),
                     i);
      }
      waiters.finish();
    }
    std::uint64_t last = t0;
    for (const Record& rec : ph.records) last = std::max(last, rec.obs_ns);
    ph.wall_s = static_cast<double>(last - t0) * 1e-9;
    ph.cpu_s = process_cpu_s() - cpu0;
    return ph;
  }

  static void tally(Result& r, const PhaseResult& ph) {
    for (const Record& rec : ph.records) {
      ++r.attempted;
      if (!rec.exact) ++r.failed;
      if (rec.ok && !rec.exact) ++r.wrong_bits;
    }
  }

  // Latency from the scheduled send time to the waiter's observation.
  // A request that did not end kOk bit-exact ranks as the slowest: it
  // reads the whole phase's duration, which bounds every observed one.
  static std::vector<double> latencies_ms(const PhaseResult& ph) {
    std::vector<double> v;
    for (const Record& rec : ph.records) {
      v.push_back(rec.exact ? static_cast<double>(rec.obs_ns - rec.due_ns) * 1e-6
                            : ph.wall_s * 1e3);
    }
    return v;
  }

  static double span_ms(std::uint64_t from, std::uint64_t to) {
    return from != 0 && to >= from ? static_cast<double>(to - from) * 1e-6 : 0.0;
  }

  void report_end_to_end(Result& r, const PhaseResult& ph) const {
    const std::size_t n = ph.records.size();
    const std::vector<double> lat = latencies_ms(ph);
    std::vector<double> exec_s;
    std::size_t good = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Record& rec = ph.records[i];
      if (rec.exact && lat[i] <= kLatencyLimitMs) ++good;
      if (rec.exact) exec_s.push_back(1e-3 * span_ms(rec.exec_start_ts, rec.exec_done_ts));
    }
    r.add("setup_s", median(setup_s_), "s", setup_s_.size());
    r.add("gemm_s_p50", median(exec_s), "s", exec_s.size());
    r.add("latency_ms_p50", median(lat), "ms", n);
    r.add("goodput_rps", static_cast<double>(good) / ph.wall_s, "1/s", n);
    r.add("cpu_ms_per_op", 1e3 * ph.cpu_s / static_cast<double>(n), "ms", n);
    r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    // Tails are reported, not bounded: on a shared VM a few host stalls
    // per run set them, and they swing 1.3-2x between runs of one build.
    r.add_tail("gemm_s_p90", exec_s, 0.9, "s", 1.0);
    r.add_tail("latency_ms_p90", lat, 0.9, "ms", 1.0);
    r.add_tail("latency_ms_p99", lat, 0.99, "ms", 1.0);
  }

  // The untraced half sends the same load to a second server with
  // request tracing off (ServerConfig::trace_requests, the library's
  // runtime switch); the traced half goes to the workload's server.
  void run_traced(Result& r) {
    PhaseResult plain;
    {
      m3xu::serve::ServerConfig untraced_cfg = cfg_;
      untraced_cfg.trace_requests = false;
      std::vector<RequestHandle> warm;
      const std::unique_ptr<GemmServer> untraced =
          start_server(untraced_cfg, warm);
      check_warm(warm, r);
      plain = phase(*untraced, args_.seconds / 2, 1);
    }
    tally(r, plain);
    const auto snap0 = m3xu::telemetry::snapshot();
    m3xu::serve::PackCache& cache = server_->pack_cache();
    const std::uint64_t h0 = cache.hits(), m0 = cache.misses(),
                        e0 = cache.evictions();
    const PhaseResult traced = phase(*server_, args_.seconds / 2, 2);
    const auto snap1 = m3xu::telemetry::snapshot();
    const double hits = static_cast<double>(cache.hits() - h0);
    const double misses = static_cast<double>(cache.misses() - m0);
    const double evictions = static_cast<double>(cache.evictions() - e0);
    tally(r, traced);
    const double n = static_cast<double>(traced.records.size());
    const std::size_t ns = traced.records.size();

    LayerReport rep(args_.per_layer);
    report_threadpool(rep, snap0, snap1, host_.pool_threads, ns);

    std::vector<double> queue_ms, dispatch_ms, exec_shared, exec_fresh,
        resolve_ms, lag_ms;
    double events = 0.0, dropped = 0.0;
    for (const Record& rec : traced.records) {
      lag_ms.push_back(static_cast<double>(rec.sent_ns - rec.due_ns) * 1e-6);
      events += static_cast<double>(rec.events);
      dropped += static_cast<double>(rec.dropped);
      if (!rec.exact) continue;
      queue_ms.push_back(span_ms(rec.submit_ts, rec.dequeue_ts));
      dispatch_ms.push_back(span_ms(rec.dequeue_ts, rec.exec_start_ts));
      (rec.fresh ? exec_fresh : exec_shared)
          .push_back(span_ms(rec.exec_start_ts, rec.exec_done_ts));
      resolve_ms.push_back(span_ms(rec.exec_done_ts, rec.obs_ns));
    }
    rep.set("serve.queue_wait_ms_p50", median(queue_ms), queue_ms.size());
    rep.set("serve.queue_wait_ms_p99", quantile(queue_ms, 0.99), queue_ms.size());
    rep.set("serve.dispatch_ms_p50", median(dispatch_ms), dispatch_ms.size());
    rep.set("serve.exec_ms_p50.shared", median(exec_shared), exec_shared.size());
    rep.set("serve.exec_ms_p50.fresh", median(exec_fresh), exec_fresh.size());
    rep.set("serve.resolve_ms_p50", median(resolve_ms), resolve_ms.size());
    rep.set("serve.pack_cache_hit_rate", ratio(hits, hits + misses),
            static_cast<std::size_t>(hits + misses));
    rep.set("serve.pack_cache_evictions_per_req", ratio(evictions, n), ns);
    const double reused =
        static_cast<double>(snap1.counter_delta(snap0, "serve.plan.reused"));
    const double compiled =
        static_cast<double>(snap1.counter_delta(snap0, "serve.plan.compiled"));
    rep.set("serve.plan_reuse_rate", ratio(reused, reused + compiled),
            static_cast<std::size_t>(reused + compiled));
    rep.set("serve.backlog_max", static_cast<double>(traced.backlog_max), ns);
    rep.set("serve.retries_per_req",
            ratio(static_cast<double>(
                      snap1.counter_delta(snap0, "serve.requests.retries")),
                  n),
            ns);
    rep.set("telemetry.trace_events_per_req", ratio(events, n), ns);
    rep.set("telemetry.trace_dropped", dropped, ns);
    rep.set("bench.send_lag_ms_p99", quantile(lag_ms, 0.99), ns);
    rep.set("gemm.abft_checks_per_op",
            ratio(static_cast<double>(
                      snap1.counter_delta(snap0, "abft.tile_checks")),
                  n),
            ns);
    rep.set("gemm.abft_detected",
            static_cast<double>(snap1.counter_delta(snap0, "abft.detected")),
            ns);
    rep.set("bench.trace_overhead_ratio",
            ratio(median(latencies_ms(traced)), median(latencies_ms(plain))),
            ns);

    const CoreReplay replay =
        replay_core(m3xu::core::M3xuEngine(cfg_.engine), cfg_.tile,
                    a_for(0, 0), b_for(0, 0), 0.5);
    report_core(rep, replay, snap0, snap1, "mxu.fp32");
    report_plan_layers(r, rep, replay);
    rep.emit_into(r);
  }

  // The request shape through a plan compiled with the server's own
  // options, outside the server: compile time, one execute on a
  // 1-thread pool and on the default pool (shared-weights class: B
  // panels served from a warm PackCache, so the core time excludes
  // pack_b), and the driver's self time.
  void report_plan_layers(Result& r, LayerReport& rep,
                          const CoreReplay& replay) {
    m3xu::gemm::PlanOptions opts;
    opts.tile = cfg_.tile;
    opts.abft = cfg_.abft;
    opts.policy = cfg_.recovery;
    opts.reuse_b_panels = false;
    const m3xu::gemm::PlanKey key{kM, kN, kK, false};
    std::vector<double> compile_s;
    std::optional<m3xu::gemm::GemmPlan> plan;
    for (int rep_i = 0; rep_i < 7; ++rep_i) {
      plan.reset();
      const std::uint64_t t0 = wall_ns();
      plan.emplace(m3xu::gemm::GemmPlan::compile(cfg_.engine, key, opts));
      compile_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    }
    m3xu::serve::PackCache cache(cfg_.pack_cache_entries,
                                 cfg_.pack_cache_verify);
    const auto timed = [&](m3xu::ThreadPool* pool) {
      m3xu::gemm::ExecRails rails;
      rails.pool = pool;
      rails.b_cache = &cache;
      rails.b_key = 1;
      std::vector<double> v;
      const std::uint64_t start = wall_ns();
      do {
        Matrix<float> c(kM, kN);
        const std::uint64_t t0 = wall_ns();
        plan->execute(a_for(0, 0), b_for(0, 0), c, rails);
        v.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
        const auto& want = refs_[ref_index(0, 0, 0)];
        if (!bits_equal(c.data(), want.data(), want.size())) ++r.wrong_bits;
      } while (wall_ns() - start < 500'000'000ull);
      return v;
    };
    m3xu::ThreadPool single(1);
    timed(&single);  // warms the cache: later executes are hits
    const std::vector<double> t1 = timed(&single);
    const std::vector<double> tn = timed(nullptr);
    const double exec_1t = median(t1);
    rep.set("gemm.compile_s", median(compile_s), compile_s.size());
    rep.set("gemm.execute_1t_s", exec_1t, t1.size());
    rep.set("gemm.scaling_eff",
            ratio(exec_1t, static_cast<double>(host_.pool_threads) * median(tn)),
            tn.size());
    rep.set("gemm.driver_self_s",
            exec_1t - (replay.pack_a_s + replay.mk_s + replay.edge_s),
            t1.size());
  }

  const Args& args_;
  Host& host_;
  int executors_ = 1;
  m3xu::serve::ServerConfig cfg_;
  std::vector<Matrix<float>> as_, bs_;
  std::vector<std::vector<float>> refs_;
  std::uint64_t gate_word_ = 0;
  m3xu::Rng schedule_rng_;
  std::vector<double> setup_s_;
  std::unique_ptr<GemmServer> server_;
  std::atomic<std::uint64_t> next_fresh_key_{1ull << 40};
};

}  // namespace

Result run_serve_mixed(const Args& args, Host& host) {
  return ServeWorkload(args, host).run();
}

int run_calibrate(const Args& args) {
  Host host = probe_host(args);
  return ServeWorkload(args, host).calibrate();
}

}  // namespace perfbench
