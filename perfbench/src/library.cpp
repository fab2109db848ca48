// Closed-loop library workloads: one caller executing one GemmPlan.
//
//   sgemm_large   FP32 512x512x512, B prepacked at setup (weights-
//                 stationary), A from a small seeded ring. 16 tiles of
//                 128x128 over the default pool: microkernel and thread
//                 pool dominate. Verified on a seeded row sample that
//                 touches every tile row (a full per-dot reference of
//                 512^3 would take ~30 s per ring entry).
//   cgemm_stream  FP32C 228x228x96 with a fresh (A, B) pair from a
//                 seeded ring on every call: complex microkernel, the
//                 per-element edge route (228 = 128 + 100, and 100 is
//                 not a multiple of the register block), and the plan's
//                 B fingerprint / refresh / repack on every call. Four
//                 tiles over the default pool: a single 100x100 tile
//                 ran on one core and its median followed that core's
//                 speed on a shared VM (run medians split 74-96 ms and
//                 112-124 ms). Verified in full.
#include <algorithm>
#include <complex>
#include <optional>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "gemm/plan.hpp"
#include "layers.hpp"
#include "telemetry/trace_context.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using m3xu::gemm::GemmPlan;
using m3xu::gemm::Matrix;

// A set-up (compile + prepack_b) takes about 5 ms on cgemm_stream and
// 17 ms on sgemm_large; it is repeated at least kSetupReps times and
// until kSetupMinS has passed, each time on the next core, and setup_s
// is the median. On a shared VM each core alternates, for seconds at a
// time, between a fast and a ~1.6x slower state; repeated on one core
// the cgemm_stream set-up read whichever state that core was in
// (ten-run spread 0.31 of the median).
constexpr std::size_t kSetupReps = 7;
constexpr double kSetupMinS = 1.0;

struct LibSpec {
  const char* name;
  int m, n, k;
  int ring;              // distinct A (and, when b_per_call, B) operands
  bool b_per_call;       // a new B on every call (else one prepacked B)
  int rows_per_tile_row; // 0 = verify every row
};

template <typename T>
struct RefOps;

template <>
struct RefOps<float> {
  static constexpr bool kCplx = false;
  static constexpr const char* kMxu = "mxu.fp32";
  static void perdot(const m3xu::core::M3xuEngine& e, int m, int n, int k,
                     const float* a, const float* b, float* c) {
    e.gemm_fp32_packed(m, n, k, a, k, b, n, c, n);
  }
};

template <>
struct RefOps<std::complex<float>> {
  static constexpr bool kCplx = true;
  static constexpr const char* kMxu = "mxu.fp32c";
  static void perdot(const m3xu::core::M3xuEngine& e, int m, int n, int k,
                     const std::complex<float>* a,
                     const std::complex<float>* b, std::complex<float>* c) {
    e.gemm_fp32c_packed(m, n, k, a, k, b, n, c, n);
  }
};

struct PhaseStats {
  std::vector<double> op_s;
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

template <typename T>
class LibraryWorkload {
 public:
  LibraryWorkload(const Args& args, const LibSpec& spec, Host& host)
      : args_(args), spec_(spec), host_(host) {}

  Result run() {
    make_inputs();
    make_references();
    setup();
    Result r;
    r.workload = spec_.name;
    r.seed = args_.seed;
    r.trace = args_.trace;
    check_gate(r);
    if (!args_.trace) {
      const PhaseStats ph = timed_phase(args_.seconds, false);
      tally(r, ph);
      report_end_to_end(r, ph);
    } else {
      run_traced(r);
    }
    return r;
  }

 private:
  const Matrix<T>& a_of(std::size_t op) const { return as_[op % as_.size()]; }
  const Matrix<T>& b_of(std::size_t op) const { return bs_[op % bs_.size()]; }
  std::size_t ref_of(std::size_t op) const { return op % refs_.size(); }

  void make_inputs() {
    m3xu::Rng rng(args_.seed);
    const int nb = spec_.b_per_call ? spec_.ring : 1;
    for (int i = 0; i < nb; ++i) {
      bs_.emplace_back(spec_.k, spec_.n);
      m3xu::gemm::fill_random(bs_.back(), rng);
    }
    for (int i = 0; i < spec_.ring; ++i) {
      as_.emplace_back(spec_.m, spec_.k);
      m3xu::gemm::fill_random(as_.back(), rng);
    }
    const m3xu::gemm::TileConfig tile;  // the plan's default tiling
    if (spec_.rows_per_tile_row == 0) {
      for (int i = 0; i < spec_.m; ++i) rows_.push_back(i);
    } else {
      for (int bm = 0; bm < spec_.m; bm += tile.block_m) {
        const int span = std::min(tile.block_m, spec_.m - bm);
        std::vector<int> picks;
        while (static_cast<int>(picks.size()) <
               std::min(spec_.rows_per_tile_row, span)) {
          const int row = bm + static_cast<int>(rng.next_below(span));
          if (std::find(picks.begin(), picks.end(), row) == picks.end()) {
            picks.push_back(row);
          }
        }
        std::sort(picks.begin(), picks.end());
        rows_.insert(rows_.end(), picks.begin(), picks.end());
      }
    }
    gate_word_ = rng.next_u64();
  }

  // Per-dot engine route (force_generic), outside every timed phase and
  // outside setup_s: refs_[i] holds the checked rows of A_i * B_i.
  void make_references() {
    m3xu::core::M3xuConfig cfg;
    cfg.force_generic = true;
    const m3xu::core::M3xuEngine generic(cfg);
    const std::size_t n = static_cast<std::size_t>(spec_.n);
    const std::size_t k = static_cast<std::size_t>(spec_.k);
    refs_.assign(static_cast<std::size_t>(spec_.ring),
                 std::vector<T>(rows_.size() * n, T{}));
    constexpr std::size_t kRowsPerJob = 8;
    const std::size_t chunks = (rows_.size() + kRowsPerJob - 1) / kRowsPerJob;
    m3xu::ThreadPool pool(static_cast<std::size_t>(host_.nproc));
    pool.parallel_for(refs_.size() * chunks, 1, [&](std::size_t job) {
      const std::size_t op = job / chunks;
      const std::size_t r0 = (job % chunks) * kRowsPerJob;
      const std::size_t r1 = std::min(rows_.size(), r0 + kRowsPerJob);
      std::vector<T> a_rows((r1 - r0) * k);
      for (std::size_t r = r0; r < r1; ++r) {
        const T* src = a_of(op).data() + static_cast<std::size_t>(rows_[r]) * k;
        std::copy(src, src + k, a_rows.begin() + (r - r0) * k);
      }
      RefOps<T>::perdot(generic, static_cast<int>(r1 - r0), spec_.n, spec_.k,
                        a_rows.data(), b_of(op).data(),
                        refs_[op].data() + r0 * n);
    });
  }

  // Plan compile plus prepack_b, repeated; setup_s is the median. The
  // last plan is kept for the timed phases.
  void setup() {
    const m3xu::gemm::PlanKey key{spec_.m, spec_.n, spec_.k, RefOps<T>::kCplx};
    CoreRotation cores;
    const std::uint64_t start = wall_ns();
    while (setup_s_.size() < kSetupReps ||
           static_cast<double>(wall_ns() - start) * 1e-9 < kSetupMinS) {
      cores.next();
      plan_.reset();
      const std::uint64_t t0 = wall_ns();
      GemmPlan plan = GemmPlan::compile(m3xu::core::M3xuConfig{}, key);
      const std::uint64_t t1 = wall_ns();
      plan.prepack_b(bs_.front());
      const std::uint64_t t2 = wall_ns();
      compile_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
      prepack_s_.push_back(static_cast<double>(t2 - t1) * 1e-9);
      setup_s_.push_back(static_cast<double>(t2 - t0) * 1e-9);
      plan_.emplace(std::move(plan));
    }
  }

  // Executes operation `op` into c_ and returns the execute's seconds.
  double execute(std::size_t op, const m3xu::gemm::ExecRails& rails = {}) {
    c_.fill(T{});
    const std::uint64_t t0 = wall_ns();
    plan_->execute(a_of(op), b_of(op), c_, rails);
    return static_cast<double>(wall_ns() - t0) * 1e-9;
  }

  bool verify(std::size_t op) const {
    const std::vector<T>& ref = refs_[ref_of(op)];
    const std::size_t n = static_cast<std::size_t>(spec_.n);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const T* got = c_.data() + static_cast<std::size_t>(rows_[r]) * n;
      if (!bits_equal(got, ref.data() + r * n, n)) return false;
    }
    return true;
  }

  // One untimed execute checked against the reference; then proves the
  // gate rejects a single flipped output word.
  void check_gate(Result& r) {
    execute(0);
    std::vector<T> got, want = refs_[ref_of(0)];
    const std::size_t n = static_cast<std::size_t>(spec_.n);
    for (int row : rows_) {
      const T* p = c_.data() + static_cast<std::size_t>(row) * n;
      got.insert(got.end(), p, p + n);
    }
    if (!bits_equal(got.data(), want.data(), got.size())) ++r.wrong_bits;
    r.gate_tripped = gate_trips(got, want, gate_word_);
  }

  // With `traced`, every execute carries a request-scoped TraceContext
  // on ExecRails.trace, as GemmServer gives each request when
  // ServerConfig::trace_requests is on; it is created before the
  // execute's clock starts, as the server creates it at admission.
  PhaseStats timed_phase(double seconds, bool traced) {
    execute(next_op_++);  // untimed: thread-local staging, caches
    PhaseStats ph;
    const std::string label = m3xu::gemm::plan_key_label(plan_->key());
    const double cpu0 = process_cpu_s();
    const std::uint64_t start = wall_ns();
    const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
    do {
      const std::size_t op = next_op_++;
      if (traced) {
        m3xu::telemetry::TraceContext ctx(spec_.name, label);
        m3xu::gemm::ExecRails rails;
        rails.trace = &ctx;
        ph.op_s.push_back(execute(op, rails));
        ph.trace_events += ctx.events().size();
        ph.trace_dropped += ctx.dropped();
      } else {
        ph.op_s.push_back(execute(op));
      }
      ++ph.attempted;
      if (!verify(op)) ++ph.wrong;
    } while (wall_ns() - start < budget);
    ph.wall_s = static_cast<double>(wall_ns() - start) * 1e-9;
    ph.cpu_s = process_cpu_s() - cpu0;
    return ph;
  }

  static void tally(Result& r, const PhaseStats& ph) {
    r.attempted += ph.attempted;
    r.failed += ph.wrong;
    r.wrong_bits += ph.wrong;
  }

  void report_end_to_end(Result& r, const PhaseStats& ph) const {
    const std::size_t n = ph.op_s.size();
    r.add("setup_s", median(setup_s_), "s", setup_s_.size());
    r.add("gemm_s_p50", median(ph.op_s), "s", n);
    // Closed loop with one caller: an operation is due when the
    // previous one returns, so its latency is the execute time.
    r.add("latency_ms_p50", 1e3 * median(ph.op_s), "ms", n);
    r.add("goodput_rps",
          static_cast<double>(ph.attempted - ph.wrong) / ph.wall_s, "1/s", n);
    r.add("cpu_ms_per_op", 1e3 * ph.cpu_s / static_cast<double>(ph.attempted),
          "ms", n);
    r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    r.add_tail("gemm_s_p90", ph.op_s, 0.9, "s", 1.0);
  }

  void run_traced(Result& r) {
    const PhaseStats plain = timed_phase(args_.seconds / 2, false);
    tally(r, plain);
    const auto snap0 = m3xu::telemetry::snapshot();
    const m3xu::gemm::PlanPanelStats ps0 = plan_->panel_stats();
    const PhaseStats traced = timed_phase(args_.seconds / 2, true);
    const auto snap1 = m3xu::telemetry::snapshot();
    const m3xu::gemm::PlanPanelStats ps1 = plan_->panel_stats();
    tally(r, traced);

    LayerReport rep(args_.per_layer);
    const std::size_t threads = host_.pool_threads;
    report_threadpool(rep, snap0, snap1, threads, traced.attempted);

    // One execute on a 1-thread pool, repeated for at least a second.
    m3xu::ThreadPool single(1);
    m3xu::gemm::ExecRails one;
    one.pool = &single;
    std::vector<double> t1;
    const std::uint64_t t0 = wall_ns();
    do {
      const std::size_t op = next_op_++;
      t1.push_back(execute(op, one));
      if (!verify(op)) ++r.wrong_bits;
    } while (wall_ns() - t0 < 1'000'000'000ull);
    const double exec_1t = median(t1);
    const double exec_nt = median(plain.op_s);

    const m3xu::core::M3xuEngine engine{m3xu::core::M3xuConfig{}};
    const CoreReplay replay =
        replay_core(engine, plan_->tile(), a_of(0), b_of(0), 1.0);
    report_core(rep, replay, snap0, snap1, RefOps<T>::kMxu);
    // B is packed at execute time only when it changes per call.
    const double core_s = replay.pack_a_s + replay.mk_s + replay.edge_s +
                          (spec_.b_per_call ? replay.pack_b_s : 0.0);

    rep.set("gemm.compile_s", median(compile_s_), compile_s_.size());
    rep.set("gemm.prepack_b_s", median(prepack_s_), prepack_s_.size());
    rep.set("gemm.execute_1t_s", exec_1t, t1.size());
    rep.set("gemm.scaling_eff",
            ratio(exec_1t, static_cast<double>(threads) * exec_nt),
            plain.op_s.size());
    rep.set("gemm.driver_self_s", exec_1t - core_s, t1.size());
    const double hits = static_cast<double>(ps1.hits - ps0.hits);
    const double misses = static_cast<double>(ps1.misses - ps0.misses);
    rep.set("gemm.plan_b_hit_rate", ratio(hits, hits + misses),
            static_cast<std::size_t>(hits + misses));
    rep.set("gemm.abft_checks_per_op",
            ratio(static_cast<double>(
                      snap1.counter_delta(snap0, "abft.tile_checks")),
                  static_cast<double>(traced.attempted)),
            traced.attempted);
    rep.set("gemm.abft_detected",
            static_cast<double>(snap1.counter_delta(snap0, "abft.detected")),
            traced.attempted);
    rep.set("telemetry.trace_events_per_req",
            ratio(static_cast<double>(traced.trace_events),
                  static_cast<double>(traced.attempted)),
            traced.attempted);
    rep.set("telemetry.trace_dropped",
            static_cast<double>(traced.trace_dropped), traced.attempted);
    rep.set("bench.trace_overhead_ratio",
            ratio(median(traced.op_s), median(plain.op_s)),
            traced.op_s.size());
    rep.emit_into(r);
  }

  const Args& args_;
  const LibSpec spec_;
  Host& host_;
  std::vector<Matrix<T>> as_, bs_;
  std::vector<int> rows_;
  std::vector<std::vector<T>> refs_;
  std::uint64_t gate_word_ = 0;
  std::vector<double> setup_s_, compile_s_, prepack_s_;
  std::optional<GemmPlan> plan_;
  Matrix<T> c_{spec_.m, spec_.n};
  std::size_t next_op_ = 0;
};

}  // namespace

Result run_sgemm_large(const Args& args, Host& host) {
  return LibraryWorkload<float>(args, {"sgemm_large", 512, 512, 512, 3, false, 2},
                                host)
      .run();
}

Result run_cgemm_stream(const Args& args, Host& host) {
  return LibraryWorkload<std::complex<float>>(
             args, {"cgemm_stream", 228, 228, 96, 4, true, 0}, host)
      .run();
}

}  // namespace perfbench
