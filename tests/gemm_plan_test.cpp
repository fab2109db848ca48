// Tests for the compile-then-execute GemmPlan layer: bit-identity with
// the flat engine loop on every route rung and both dtypes,
// prepacked B-panel reuse (hits across executes, fingerprint-guarded
// refresh on a B change, concurrent executes against different B),
// per-execute rails, microkernel fallbacks in the request trace, and
// operand validation.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "gemm/tiled_driver.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::gemm {
namespace {

template <typename T>
struct Problem {
  Matrix<T> a, b, c;
};

template <typename T>
Problem<T> make(int m, int n, int k, std::uint64_t seed) {
  Problem<T> p{Matrix<T>(m, k), Matrix<T>(k, n), Matrix<T>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

/// C <- A*B + C on the flat engine loop: the reference every tiled
/// route matches bit for bit.
template <typename T>
Matrix<T> flat_ref(const core::M3xuEngine& engine, const Matrix<T>& a,
                   const Matrix<T>& b, const Matrix<T>& c) {
  Matrix<T> ref = c;
  if constexpr (std::is_same_v<T, float>) {
    engine.gemm_fp32(a.rows(), b.cols(), a.cols(), a.data(), a.ld(),
                     b.data(), b.ld(), ref.data(), ref.ld());
  } else {
    engine.gemm_fp32c(a.rows(), b.cols(), a.cols(), a.data(), a.ld(),
                      b.data(), b.ld(), ref.data(), ref.ld());
  }
  return ref;
}

/// Engine configs pinning each packed route rung: the default
/// (microkernel) and the generic per-dot rung.
std::vector<std::pair<const char*, core::M3xuConfig>> route_configs() {
  std::vector<std::pair<const char*, core::M3xuConfig>> out;
  out.emplace_back("microkernel", core::M3xuConfig{});
  core::M3xuConfig generic;
  generic.force_generic = true;
  out.emplace_back("generic", generic);
  return out;
}

TEST(GemmPlan, SgemmBitIdenticalToFlatLoopOnEveryRoute) {
  const TileConfig tile{64, 64, 16, 32, 32};
  const AbftConfig abft{true};
  const RecoveryPolicy policy;
  const Problem<float> p = make<float>(100, 90, 130, 601);
  for (const auto& [name, cfg] : route_configs()) {
    const Matrix<float> flat = flat_ref(core::M3xuEngine(cfg), p.a, p.b, p.c);

    PlanOptions options;
    options.tile = tile;
    options.abft = abft;
    options.policy = policy;
    const GemmPlan plan = GemmPlan::compile(cfg, {100, 90, 130, false},
                                            options);
    Matrix<float> planned = p.c;
    plan.execute(p.a, p.b, planned);
    EXPECT_TRUE(bitwise_equal(planned, flat)) << "route " << name;
    EXPECT_EQ(plan.executions(), 1u);
  }
}

TEST(GemmPlan, CgemmBitIdenticalToFlatLoopOnEveryRoute) {
  using C = std::complex<float>;
  const TileConfig tile{64, 64, 16, 32, 32};
  const AbftConfig abft{true};
  const RecoveryPolicy policy;
  const Problem<C> p = make<C>(60, 52, 68, 602);
  for (const auto& [name, cfg] : route_configs()) {
    const Matrix<C> flat = flat_ref(core::M3xuEngine(cfg), p.a, p.b, p.c);

    PlanOptions options;
    options.tile = tile;
    options.abft = abft;
    options.policy = policy;
    const GemmPlan plan =
        GemmPlan::compile(cfg, {60, 52, 68, true}, options);
    Matrix<C> planned = p.c;
    plan.execute(p.a, p.b, planned);
    EXPECT_TRUE(bitwise_equal(planned, flat)) << "route " << name;
  }
}

TEST(GemmPlan, RepeatExecutesServePanelsFromPlanStore) {
  const Problem<float> p = make<float>(96, 96, 96, 603);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {96, 96, 96});
  Matrix<float> c1 = p.c;
  plan.execute(p.a, p.b, c1);
  const PlanPanelStats first = plan.panel_stats();
  EXPECT_GT(first.misses, 0u);  // first execute packs and publishes
  EXPECT_EQ(first.refreshes, 0u);

  Matrix<float> c2 = p.c;
  plan.execute(p.a, p.b, c2);
  const PlanPanelStats second = plan.panel_stats();
  EXPECT_EQ(second.misses, first.misses);  // no new packs
  EXPECT_GT(second.hits, first.hits);      // panels served from the store
  EXPECT_TRUE(bitwise_equal(c1, c2));
}

TEST(GemmPlan, DifferentBRefreshesStoreAndStaysCorrect) {
  const Problem<float> p = make<float>(64, 64, 64, 604);
  Matrix<float> b2(64, 64);
  Rng rng(605);
  fill_random(b2, rng);

  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64});
  Matrix<float> c1 = p.c;
  plan.execute(p.a, p.b, c1);
  Matrix<float> c2 = p.c;
  plan.execute(p.a, b2, c2);  // new B bytes: fingerprint must not match
  EXPECT_EQ(plan.panel_stats().refreshes, 1u);

  // The second result must equal the flat loop on (a, b2) - a stale
  // panel from the first B would corrupt it.
  const core::M3xuEngine engine;
  const Matrix<float> ref = flat_ref(engine, p.a, b2, p.c);
  EXPECT_TRUE(bitwise_equal(c2, ref));

  // One flipped bit in B's last element must refresh the store too. The
  // fingerprint hashes B as 64-bit words plus a byte tail: 64x64 floats
  // end on a whole word, 3x5 floats (60 bytes) end in the tail.
  const struct {
    int m, n, k;
  } shapes[] = {{64, 64, 64}, {4, 5, 3}};
  for (const auto& s : shapes) {
    const Problem<float> q = make<float>(s.m, s.n, s.k, 608);
    const GemmPlan flip_plan =
        GemmPlan::compile(core::M3xuConfig{}, {s.m, s.n, s.k});
    Matrix<float> c_first = q.c;
    flip_plan.execute(q.a, q.b, c_first);
    Matrix<float> b_flip = q.b;
    float& last = b_flip.data()[b_flip.size() - 1];
    last = float_from_bits(bits_of(last) ^ (1u << 20));
    Matrix<float> c_flip = q.c;
    flip_plan.execute(q.a, b_flip, c_flip);
    EXPECT_EQ(flip_plan.panel_stats().refreshes, 1u) << s.n << "x" << s.k;
    EXPECT_FALSE(bitwise_equal(c_first, c_flip)) << s.n << "x" << s.k;
    const Matrix<float> flip_ref = flat_ref(engine, q.a, b_flip, q.c);
    EXPECT_TRUE(bitwise_equal(c_flip, flip_ref)) << s.n << "x" << s.k;
  }
}

TEST(GemmPlan, PrepackMakesFirstExecuteAllHits) {
  const Problem<float> p = make<float>(96, 80, 64, 606);
  GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {96, 80, 64});
  plan.prepack_b(p.b);
  Matrix<float> c = p.c;
  plan.execute(p.a, p.b, c);
  const PlanPanelStats stats = plan.panel_stats();
  EXPECT_EQ(stats.misses, 0u) << "prepacked panels must cover every tile";
  EXPECT_GT(stats.hits, 0u);

  const Matrix<float> ref = flat_ref(core::M3xuEngine{}, p.a, p.b, p.c);
  EXPECT_TRUE(bitwise_equal(c, ref));
}

TEST(GemmPlan, CgemmPrepackServesComplexPanels) {
  using C = std::complex<float>;
  const Problem<C> p = make<C>(48, 48, 48, 607);
  GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {48, 48, 48, true});
  plan.prepack_b(p.b);
  Matrix<C> c = p.c;
  plan.execute(p.a, p.b, c);
  EXPECT_EQ(plan.panel_stats().misses, 0u);

  const Matrix<C> ref = flat_ref(core::M3xuEngine{}, p.a, p.b, p.c);
  EXPECT_TRUE(bitwise_equal(c, ref));
}

TEST(GemmPlan, ConcurrentExecutesOnDifferentBNeverShareStorePanels) {
  // Executes racing on one plan retarget its store at each other's B;
  // panel keys carry the B fingerprint, so none may serve a panel of
  // the other B, however the retargets and the driver's lookups
  // interleave.
  const int m = 64, n = 96, k = 96;
  const Problem<float> p = make<float>(m, n, k, 609);
  Matrix<float> b2(k, n);
  Rng rng(610);
  fill_random(b2, rng);
  const Matrix<float>* bs[2] = {&p.b, &b2};
  const core::M3xuEngine engine;
  const Matrix<float> refs[2] = {flat_ref(engine, p.a, p.b, p.c),
                                 flat_ref(engine, p.a, b2, p.c)};

  PlanOptions options;
  options.tile = TileConfig{32, 32, 32, 16, 16};
  const GemmPlan plan =
      GemmPlan::compile(core::M3xuConfig{}, {m, n, k}, options);
  constexpr int kThreads = 4, kExecutes = 12;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kExecutes; ++i) {
        const int which = (t + i) % 2;
        Matrix<float> c = p.c;
        plan.execute(p.a, *bs[which], c);
        wrong[static_cast<std::size_t>(t)] += !bitwise_equal(c, refs[which]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_GT(plan.panel_stats().refreshes, 0u);
}

TEST(GemmPlan, PlanSurvivesMove) {
  // The engines live behind the plan's pimpl; moving the plan must not
  // invalidate them.
  const Problem<float> p = make<float>(64, 64, 64, 608);
  GemmPlan original = GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64});
  Matrix<float> before = p.c;
  original.execute(p.a, p.b, before);

  const GemmPlan moved = std::move(original);
  Matrix<float> after = p.c;
  moved.execute(p.a, p.b, after);
  EXPECT_TRUE(bitwise_equal(before, after));
  EXPECT_EQ(moved.executions(), 2u);
}

TEST(GemmPlan, ShapeMismatchFailsTheCheck) {
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64});
  const Problem<float> wrong = make<float>(32, 32, 32, 609);
  Matrix<float> c = wrong.c;
  EXPECT_THROW(plan.execute(wrong.a, wrong.b, c), CheckError);
}

TEST(GemmPlan, DtypeMismatchFailsTheCheck) {
  using C = std::complex<float>;
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {48, 48, 48});
  const Problem<C> p = make<C>(48, 48, 48, 610);
  Matrix<C> c = p.c;
  EXPECT_THROW(plan.execute(p.a, p.b, c), CheckError);
}

TEST(GemmPlan, CompileRejectsInvalidTile) {
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  PlanOptions options;
  options.tile = TileConfig{128, 128, 32, 0, 32};  // zero warp tile
  EXPECT_THROW(
      GemmPlan::compile(core::M3xuConfig{}, {64, 64, 64}, options),
      CheckError);
}

/// Fills `m` with any finite floats (wide exponent spans) or with the
/// well-scaled benign distribution.
void fill_values(Matrix<float>& m, Rng& rng, bool wide) {
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      m(i, j) = wide ? rng.any_finite_float() : rng.scaled_float();
    }
  }
}

void fill_values(Matrix<std::complex<float>>& m, Rng& rng, bool wide) {
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      m(i, j) = wide ? std::complex<float>(rng.any_finite_float(),
                                           rng.any_finite_float())
                     : std::complex<float>(rng.scaled_float(),
                                           rng.scaled_float());
    }
  }
}

struct TracedRun {
  std::size_t fallback_events = 0;  // core.<family>.route.fallback
  std::size_t core_events = 0;      // every core.* event
  std::uint64_t pair_fallbacks = 0;
};

/// One traced 24x24x64 execute over a 2x2 tile grid with edge tiles.
template <typename T>
TracedRun traced_execute(bool wide, std::uint64_t seed) {
  constexpr bool kCplx = std::is_same_v<T, std::complex<float>>;
  const std::string family = kCplx ? "fp32c" : "fp32";
  const int m = 24, n = 24, k = 64;
  Matrix<T> a(m, k), b(k, n), c(m, n);
  Rng rng(seed);
  fill_values(a, rng, wide);
  fill_values(b, rng, wide);
  c.fill(T{});
  PlanOptions options;
  options.tile = TileConfig{16, 16, 16, 16, 16};
  const GemmPlan plan =
      GemmPlan::compile(core::M3xuConfig{}, {m, n, k, kCplx}, options);
  telemetry::TraceContext trace("tenant", plan.label());
  ExecRails rails;
  rails.trace = &trace;
  const telemetry::Snapshot before = telemetry::snapshot();
  plan.execute(a, b, c, rails);
  const telemetry::Snapshot after = telemetry::snapshot();
  TracedRun r;
  r.pair_fallbacks = after.counter_delta(
      before, "mxu." + family + ".microkernel.pair_fallbacks");
  const std::string fallback = "core." + family + ".route.fallback";
  for (const telemetry::TraceEvent& e : trace.events()) {
    r.fallback_events += fallback == e.name;
    r.core_events += std::strncmp(e.name, "core.", 5) == 0;
  }
  return r;
}

TEST(GemmPlan, MicrokernelFallbacksReachTheRequestTrace) {
  // Wide-span operands send some microkernel (element, chunk) pairs to
  // the generic route in several tiles and blocks; the request trace
  // gets the family's route.fallback event exactly once. Benign
  // operands never fall back and log no core route event.
  const TracedRun s_wide = traced_execute<float>(true, 611);
  const TracedRun c_wide = traced_execute<std::complex<float>>(true, 612);
  const TracedRun s_benign = traced_execute<float>(false, 613);
  const TracedRun c_benign = traced_execute<std::complex<float>>(false, 614);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_GT(s_wide.pair_fallbacks, 0u);
  EXPECT_EQ(s_wide.fallback_events, 1u);
  EXPECT_EQ(s_wide.core_events, 1u);
  EXPECT_GT(c_wide.pair_fallbacks, 0u);
  EXPECT_EQ(c_wide.fallback_events, 1u);
  EXPECT_EQ(c_wide.core_events, 1u);
  EXPECT_EQ(s_benign.pair_fallbacks, 0u);
  EXPECT_EQ(s_benign.core_events, 0u);
  EXPECT_EQ(c_benign.pair_fallbacks, 0u);
  EXPECT_EQ(c_benign.core_events, 0u);
#else
  for (const TracedRun& r : {s_wide, c_wide, s_benign, c_benign}) {
    EXPECT_EQ(r.core_events, 0u);
    EXPECT_EQ(r.pair_fallbacks, 0u);
  }
#endif
}

TEST(GemmPlan, LabelNamesShapeAndDtype) {
  EXPECT_EQ(plan_key_label({512, 256, 128, false}), "sgemm.512x256x128");
  EXPECT_EQ(plan_key_label({16, 16, 16, true}), "cgemm.16x16x16");
  const GemmPlan plan = GemmPlan::compile(core::M3xuConfig{}, {64, 32, 16});
  EXPECT_EQ(plan.label(), "sgemm.64x32x16");
}

}  // namespace
}  // namespace m3xu::gemm
