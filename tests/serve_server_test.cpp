// Tests for the fault-tolerant multi-tenant GemmServer: request
// lifecycle (every submission ends in exactly one terminal status),
// admission control and load shedding, deadline propagation, retry,
// per-tenant quarantine isolation, shared pack-cache coalescing,
// shutdown semantics, and the serve.requests.* outcome counters.
// Concurrency-sensitive (tsan-labeled).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <complex>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "gemm/tiled_driver.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::serve {
namespace {

using gemm::Matrix;

std::uint32_t bits32(float v) { return std::bit_cast<std::uint32_t>(v); }

struct Problem {
  Matrix<float> a, b, c;
};

Problem make(int m, int n, int k, std::uint64_t seed) {
  Problem p{Matrix<float>(m, k), Matrix<float>(k, n), Matrix<float>(m, n)};
  Rng rng(seed);
  fill_random(p.a, rng);
  fill_random(p.b, rng);
  fill_random(p.c, rng);
  return p;
}

/// C <- A*B + C on the flat engine loop: the reference every served
/// result matches bit for bit.
Matrix<float> flat_ref(const core::M3xuEngine& engine, const Matrix<float>& a,
                       const Matrix<float>& b, const Matrix<float>& c) {
  Matrix<float> ref = c;
  engine.gemm_fp32(a.rows(), b.cols(), a.cols(), a.data(), a.ld(), b.data(),
                   b.ld(), ref.data(), ref.ld());
  return ref;
}

/// Small-tile config so modest matrices exercise a multi-tile grid.
ServerConfig base_config() {
  ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = gemm::TileConfig{32, 32, 32, 16, 16};
  cfg.abft.enable = true;
  return cfg;
}

/// Spins until `req` leaves kQueued (the executor picked it up) or the
/// timeout expires.
bool wait_running(const RequestHandle& req, int timeout_ms = 10'000) {
  const auto t0 = std::chrono::steady_clock::now();
  while (req->status() == RequestStatus::kQueued) {
    if (std::chrono::steady_clock::now() - t0 >
        std::chrono::milliseconds(timeout_ms)) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(GemmServer, SgemmRequestCompletesOkBitIdenticalToDirectRun) {
  const Problem p = make(64, 48, 96, 1);
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Matrix<float> ref = flat_ref(direct_engine, p.a, p.b, p.c);

  GemmServer server(cfg);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
  EXPECT_EQ(req->attempts(), 1);
  EXPECT_TRUE(bitwise_equal(req->result_f32(), ref));
  EXPECT_EQ(req->stats().recovery.retries, 0);
}

TEST(GemmServer, CgemmRequestCompletesOk) {
  using C = std::complex<float>;
  Matrix<C> a(32, 32), b(32, 32), c0(32, 32);
  Rng rng(2);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  Matrix<C> ref = c0;
  direct_engine.gemm_fp32c(32, 32, 32, a.data(), a.ld(), b.data(), b.ld(),
                           ref.data(), ref.ld());

  GemmServer server(cfg);
  const RequestHandle req = server.submit_cgemm(a, b, c0);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
  const Matrix<C>& out = req->result_c64();
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_EQ(bits32(out(i, j).real()), bits32(ref(i, j).real()));
      ASSERT_EQ(bits32(out(i, j).imag()), bits32(ref(i, j).imag()));
    }
  }
}

TEST(GemmServer, ConstructorRejectsMalformedPlanConfigs) {
  // Every request compiles a plan from these configs: a bad one fails
  // at construction, not on an executor thread at the first request.
  const ScopedCheckHandler guard(&throwing_check_failure_handler);
  const auto rejects = [](void (*mutate)(ServerConfig&)) {
    ServerConfig cfg = base_config();
    mutate(cfg);
    try {
      GemmServer server(cfg);
    } catch (const CheckError&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(rejects([](ServerConfig& c) { c.abft.tolerance_scale = -1; }));
  EXPECT_TRUE(rejects([](ServerConfig& c) { c.abft.max_recompute = 0; }));
  EXPECT_TRUE(rejects([](ServerConfig& c) { c.tile.warp_m = 0; }));
  // block_k = 4 fits the FP32C instruction K but not FP32's.
  EXPECT_TRUE(rejects([](ServerConfig& c) { c.tile.block_k = 4; }));
  EXPECT_FALSE(rejects([](ServerConfig&) {}));
}

TEST(GemmServer, EverySubmissionCountsOneTerminalOutcome) {
  // serve.requests.submitted reconciles with the five terminal
  // counters: every submission, admitted or not, bumps submitted and
  // exactly one of them.
  const telemetry::Snapshot before = telemetry::snapshot();
  GemmServer server(base_config());
  std::vector<RequestHandle> valid;
  for (int i = 0; i < 6; ++i) {
    const Problem p = make(64, 48, 32, 40 + static_cast<std::uint64_t>(i));
    valid.push_back(server.submit_sgemm(p.a, p.b, p.c));
  }
  for (const RequestHandle& req : valid) {
    req->wait();
    EXPECT_EQ(req->status(), RequestStatus::kOk) << req->error();
  }
  const RequestHandle invalid = server.submit_sgemm(
      Matrix<float>(8, 4), Matrix<float>(5, 8), Matrix<float>(8, 8));
  EXPECT_EQ(invalid->status(), RequestStatus::kFailed);
  server.shutdown();
  const Problem p = make(32, 32, 32, 46);
  const RequestHandle late = server.submit_sgemm(p.a, p.b, p.c);
  EXPECT_EQ(late->status(), RequestStatus::kShed);
#if M3XU_TELEMETRY_ENABLED
  const telemetry::Snapshot after = telemetry::snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_delta(before, name);
  };
  const std::uint64_t submitted = delta("serve.requests.submitted");
  EXPECT_EQ(submitted, 8u);
  EXPECT_EQ(delta("serve.requests.ok"), 6u);
  EXPECT_EQ(delta("serve.requests.failed"), 1u);
  EXPECT_EQ(delta("serve.requests.shed"), 1u);
  EXPECT_EQ(submitted, delta("serve.requests.ok") +
                           delta("serve.requests.deadline_exceeded") +
                           delta("serve.requests.shed") +
                           delta("serve.requests.cancelled") +
                           delta("serve.requests.failed"));
#endif
}

TEST(GemmServer, InvalidShapesResolveFailedAtSubmission) {
  GemmServer server(base_config());
  const RequestHandle req = server.submit_sgemm(
      Matrix<float>(8, 4), Matrix<float>(5, 8), Matrix<float>(8, 8));
  // Already terminal: no need to wait.
  EXPECT_EQ(req->status(), RequestStatus::kFailed);
  EXPECT_NE(req->error().find("invalid shapes"), std::string::npos);
}

TEST(GemmServer, ConcurrentTenantsAllReachOkWithCorrectResults) {
  const ServerConfig cfg = [] {
    ServerConfig c = base_config();
    c.executors = 3;
    c.queue_capacity = 256;
    return c;
  }();
  const core::M3xuEngine direct_engine{cfg.engine};
  constexpr int kTenants = 4;
  constexpr int kPerTenant = 3;
  std::vector<Problem> problems;
  std::vector<Matrix<float>> refs;
  for (int t = 0; t < kTenants; ++t) {
    problems.push_back(make(48, 48, 64, 100 + static_cast<std::uint64_t>(t)));
    refs.push_back(flat_ref(direct_engine, problems.back().a,
                            problems.back().b, problems.back().c));
  }

  GemmServer server(cfg);
  std::vector<std::vector<RequestHandle>> handles(kTenants);
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      for (int r = 0; r < kPerTenant; ++r) {
        RequestOptions opts;
        opts.tenant = "tenant-" + std::to_string(t);
        handles[t].push_back(server.submit_sgemm(
            problems[t].a, problems[t].b, problems[t].c, opts));
      }
    });
  }
  for (auto& th : tenants) th.join();
  for (int t = 0; t < kTenants; ++t) {
    for (const RequestHandle& req : handles[t]) {
      req->wait();
      ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
      // Isolation: every tenant gets its own bits, never a neighbor's.
      ASSERT_TRUE(bitwise_equal(req->result_f32(), refs[t]));
    }
  }
}

/// Fixture pattern for the shed/cancel tests: a single-executor server
/// whose executor is pinned by a deliberately large request, so queue
/// admission behavior is deterministic.
class BlockedServerTest : public ::testing::Test {
 protected:
  void StartBlocked(std::size_t queue_capacity, AdmissionPolicy admission) {
    ServerConfig cfg = base_config();
    cfg.executors = 1;
    cfg.queue_capacity = queue_capacity;
    cfg.admission = admission;
    // Every tile pass stalls its worker (kWorkerStall), so the blocker
    // occupies the only executor by construction until the test
    // cancels it, rather than for however long the host takes to
    // compute a 192^3 GEMM. No request queued behind it ever runs.
    stall_.stall_duration_ms = 50;
    cfg.engine.injector = &stall_;
    server_.emplace(cfg);
    blocker_problem_ = make(192, 192, 192, 3);
    blocker_ = server_->submit_sgemm(blocker_problem_.a, blocker_problem_.b,
                                     blocker_problem_.c);
    ASSERT_TRUE(wait_running(blocker_));
    ASSERT_EQ(server_->queued(), 0u);
  }

  void TearDown() override {
    if (blocker_) blocker_->cancel();
    if (server_) server_->shutdown();
  }

  fault::FaultInjector stall_{
      21, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0)};
  std::optional<GemmServer> server_;
  Problem blocker_problem_;
  RequestHandle blocker_;
};

TEST_F(BlockedServerTest, RejectNewShedsWhenQueueIsFull) {
  StartBlocked(1, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 4);
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c);
  EXPECT_FALSE(queued->done());
  // The queue is full now: the next submission sheds immediately.
  const RequestHandle shed = server_->submit_sgemm(p.a, p.b, p.c);
  EXPECT_EQ(shed->status(), RequestStatus::kShed);
  EXPECT_NE(shed->error().find("queue full"), std::string::npos);
}

TEST_F(BlockedServerTest, EvictLowestPriorityShedsTheVictimExplicitly) {
  StartBlocked(1, AdmissionPolicy::kEvictLowestPriority);
  const Problem p = make(32, 32, 32, 5);
  RequestOptions low;
  low.priority = 1;
  const RequestHandle victim = server_->submit_sgemm(p.a, p.b, p.c, low);
  EXPECT_FALSE(victim->done());

  // Equal priority does not evict: the newcomer is shed instead.
  const RequestHandle equal = server_->submit_sgemm(p.a, p.b, p.c, low);
  EXPECT_EQ(equal->status(), RequestStatus::kShed);
  EXPECT_FALSE(victim->done());

  // A strictly higher priority evicts the queued low-priority request,
  // which resolves kShed (no silent drop).
  RequestOptions high;
  high.priority = 9;
  const RequestHandle winner = server_->submit_sgemm(p.a, p.b, p.c, high);
  EXPECT_EQ(victim->status(), RequestStatus::kShed);
  EXPECT_NE(victim->error().find("evicted"), std::string::npos);
  EXPECT_FALSE(winner->done());
}

TEST_F(BlockedServerTest, CancelWhileQueuedResolvesCancelled) {
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 6);
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c);
  queued->cancel("changed my mind");
  blocker_->cancel();  // free the executor so it picks `queued` up
  queued->wait();
  EXPECT_EQ(queued->status(), RequestStatus::kCancelled);
  EXPECT_NE(queued->error().find("changed my mind"), std::string::npos);
  EXPECT_EQ(queued->attempts(), 0);
}

TEST_F(BlockedServerTest, DeadlineExpiringInQueueResolvesDeadlineExceeded) {
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 7);
  RequestOptions opts;
  opts.deadline_ms = 1;
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker_->cancel();
  queued->wait();
  EXPECT_EQ(queued->status(), RequestStatus::kDeadlineExceeded);
}

TEST_F(BlockedServerTest, ShutdownShedsQueuedRequestsExplicitly) {
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 8);
  const RequestHandle q1 = server_->submit_sgemm(p.a, p.b, p.c);
  const RequestHandle q2 = server_->submit_sgemm(p.a, p.b, p.c);
  blocker_->cancel();
  server_->shutdown();
  EXPECT_TRUE(q1->done());
  EXPECT_TRUE(q2->done());
  for (const RequestHandle& q : {q1, q2}) {
    // Either the executor got to it before shutdown drained the queue
    // (kOk) or it was shed - never stuck, never silently dropped.
    EXPECT_TRUE(q->status() == RequestStatus::kShed ||
                q->status() == RequestStatus::kOk)
        << request_status_name(q->status());
  }
  // Post-shutdown submissions shed immediately.
  const RequestHandle late = server_->submit_sgemm(p.a, p.b, p.c);
  EXPECT_EQ(late->status(), RequestStatus::kShed);
}

TEST(GemmServer, DeadlineMidRunResolvesDeadlineExceeded) {
  // Every tile pass stalls its worker for 100 ms (kWorkerStall, the
  // injector bench_serving's deadline domain uses), so the run outlasts
  // the 30 ms deadline by construction rather than by how fast the
  // host computes a 192^3 GEMM.
  ServerConfig cfg = base_config();
  cfg.executors = 1;
  cfg.default_deadline_ms = 30;
  fault::FaultInjector inj(
      9, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 100;
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  const Problem p = make(192, 192, 192, 9);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kDeadlineExceeded) << req->error();
}

TEST(GemmServer, StallAbortThenRetryKeepsTheSubmissionDeadline) {
  // Every tile pass stalls 50 ms, past the 10 ms stall window, so the
  // first attempt ends in a (retryable) stall abort. The tiles are
  // small, so they complete well inside the 80 ms deadline and the
  // abort is the stall, not the deadline. The retry must run on the
  // budget left since submission - at most 30 ms, less than one
  // stall - so the request resolves kDeadlineExceeded on its second
  // attempt at the latest instead of retrying into kFailed.
  ServerConfig cfg = base_config();
  cfg.tile = gemm::TileConfig{16, 16, 16, 16, 16};
  cfg.executors = 1;
  cfg.default_deadline_ms = 80;
  cfg.stall_ms = 10;
  cfg.max_attempts = 5;
  cfg.retry_backoff_ms = 0;
  fault::FaultInjector inj(
      23, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 50;
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 16, 23);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kDeadlineExceeded) << req->error();
  EXPECT_LE(req->attempts(), 2) << req->error();
}

TEST(GemmServer, PerRequestDeadlineOptOutOverridesServerDefault) {
  ServerConfig cfg = base_config();
  cfg.default_deadline_ms = 60'000;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 32, 10);
  RequestOptions opts;
  opts.deadline_ms = -1;  // no deadline even though the server has one
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c, opts);
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kOk) << req->error();
}

TEST(GemmServer, ExhaustedLadderRetriesThenFails) {
  // Clean recompute with zero tolerance and one recompute: every
  // attempt exhausts it and throws AbftFailure; the server retries
  // max_attempts times, then resolves kFailed with a structured error.
  ServerConfig cfg = base_config();
  const fault::FaultInjector inj(
      12, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  cfg.recovery.demote = false;
  cfg.abft = gemm::AbftConfig{true, 0.0, 1};
  cfg.max_attempts = 2;
  cfg.retry_backoff_ms = 0;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 12);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kFailed);
  EXPECT_EQ(req->attempts(), 2);
  EXPECT_NE(req->error().find("attempts"), std::string::npos);
  server.shutdown();
}

TEST(GemmServer, QuarantineIsScopedPerTenant) {
  // Both tenants run on the same faulty engine and grid, but each
  // accumulates quarantine state under its own key: tenant B's first
  // request walks the full ladder itself (demotions > 0, zero
  // quarantine hits) even after tenant A quarantined the same tile
  // index - A's offenders never demote B's route.
  ServerConfig cfg = base_config();
  cfg.executors = 1;  // serialize so cross-request ordering is exact
  const fault::FaultInjector inj(
      13, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 13);  // single-tile grid

  RequestOptions ta;
  ta.tenant = "tenant-a";
  const RequestHandle a1 = server.submit_sgemm(p.a, p.b, p.c, ta);
  a1->wait();
  ASSERT_EQ(a1->status(), RequestStatus::kOk) << a1->error();
  EXPECT_GT(a1->stats().recovery.demotions, 0);
  EXPECT_EQ(server.tenant_quarantine_size("tenant-a", 1, 1), 1u);
  EXPECT_EQ(server.tenant_quarantine_size("tenant-b", 1, 1), 0u);

  // A's second request benefits from A's quarantine.
  const RequestHandle a2 = server.submit_sgemm(p.a, p.b, p.c, ta);
  a2->wait();
  ASSERT_EQ(a2->status(), RequestStatus::kOk) << a2->error();
  EXPECT_EQ(a2->stats().recovery.demotions, 0);
  EXPECT_GT(a2->stats().recovery.quarantine_hits, 0);

  // B starts cold despite A's history on the identical grid.
  RequestOptions tb;
  tb.tenant = "tenant-b";
  const RequestHandle b1 = server.submit_sgemm(p.a, p.b, p.c, tb);
  b1->wait();
  ASSERT_EQ(b1->status(), RequestStatus::kOk) << b1->error();
  EXPECT_GT(b1->stats().recovery.demotions, 0);
  EXPECT_EQ(b1->stats().recovery.quarantine_hits, 0);
  EXPECT_EQ(server.tenant_quarantine_size("tenant-b", 1, 1), 1u);
  server.shutdown();
}

TEST(GemmServer, QuarantineKeysFollowThePlanGrid) {
  // 32x128x128 is one 128x128 TileConfig tile, but its plan splits it
  // across the global pool (four 32-column strips on 4 threads; one
  // tile on a 1-thread pool). Every tile of a faulty request demotes
  // and is quarantined under the plan's grid, and the next request on
  // that shape starts exactly those tiles on their quarantined rung.
  ServerConfig cfg = base_config();
  cfg.tile = gemm::TileConfig{};
  cfg.executors = 1;
  const fault::FaultInjector inj(
      15, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  gemm::PlanOptions opts;
  opts.tile = cfg.tile;
  opts.abft = cfg.abft;
  opts.policy = cfg.recovery;
  opts.reuse_b_panels = false;
  const gemm::GemmPlan plan =
      gemm::GemmPlan::compile(cfg.engine, {32, 128, 128, false}, opts);
  const gemm::TileGrid& grid = plan.grid();  // the global pool's grid
  const Problem p = make(32, 128, 128, 15);

  const RequestHandle r1 = server.submit_sgemm(p.a, p.b, p.c);
  r1->wait();
  ASSERT_EQ(r1->status(), RequestStatus::kOk) << r1->error();
  EXPECT_EQ(r1->stats().block_tiles, grid.tiles());
  EXPECT_EQ(r1->stats().recovery.quarantined, grid.tiles());
  EXPECT_EQ(server.tenant_quarantine_size("default", grid.grid_m(),
                                          grid.grid_n()),
            static_cast<std::size_t>(grid.tiles()));
  if (grid.tiles() > 1) {
    EXPECT_EQ(server.tenant_quarantine_size("default", 1, 1), 0u);
  }

  const RequestHandle r2 = server.submit_sgemm(p.a, p.b, p.c);
  r2->wait();
  ASSERT_EQ(r2->status(), RequestStatus::kOk) << r2->error();
  EXPECT_EQ(r2->stats().recovery.quarantine_hits, grid.tiles());
  EXPECT_EQ(r2->stats().recovery.demotions, 0);
  server.shutdown();
}

TEST(GemmServer, PackCacheCoalescesSameWeightsRequests) {
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Problem p = make(64, 64, 64, 14);
  const Matrix<float> ref = flat_ref(direct_engine, p.a, p.b, p.c);

  GemmServer server(cfg);
  RequestOptions opts;
  opts.b_key = 0xFEED;
  const RequestHandle r1 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r1->wait();
  ASSERT_EQ(r1->status(), RequestStatus::kOk) << r1->error();
  const std::uint64_t hits_before = server.pack_cache().hits();
  const RequestHandle r2 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r2->wait();
  ASSERT_EQ(r2->status(), RequestStatus::kOk) << r2->error();
  EXPECT_GT(server.pack_cache().hits(), hits_before);
  // Cached packing must not change a single bit of the result.
  EXPECT_TRUE(bitwise_equal(r1->result_f32(), ref));
  EXPECT_TRUE(bitwise_equal(r2->result_f32(), ref));
}

TEST(GemmServer, CorruptedSharedPanelIsRepackedNotServed) {
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Problem p = make(64, 64, 64, 15);
  const Matrix<float> ref = flat_ref(direct_engine, p.a, p.b, p.c);

  GemmServer server(cfg);
  RequestOptions opts;
  opts.b_key = 0xBAD;
  const RequestHandle r1 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r1->wait();
  ASSERT_EQ(r1->status(), RequestStatus::kOk) << r1->error();
  ASSERT_TRUE(server.pack_cache().corrupt_one(0xBAD));
  const RequestHandle r2 = server.submit_sgemm(p.a, p.b, p.c, opts);
  r2->wait();
  ASSERT_EQ(r2->status(), RequestStatus::kOk) << r2->error();
  EXPECT_GT(server.pack_cache().corrupt_dropped(), 0u);
  EXPECT_TRUE(bitwise_equal(r2->result_f32(), ref));
}

TEST_F(BlockedServerTest, DeadlineExpiredInQueueNeverStartsExecution) {
  // Regression for the deadline race: a request whose deadline expired
  // while queued used to reach the executor, where the old floor-1ms
  // watchdog arm gave it a bonus millisecond of real execution. The
  // executor must now re-check expiry at execution entry and resolve
  // without a single attempt.
  StartBlocked(8, AdmissionPolicy::kRejectNew);
  const Problem p = make(32, 32, 32, 17);
  RequestOptions opts;
  opts.deadline_ms = 1;
  const RequestHandle queued = server_->submit_sgemm(p.a, p.b, p.c, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  blocker_->cancel();
  queued->wait();
  ASSERT_EQ(queued->status(), RequestStatus::kDeadlineExceeded)
      << queued->error();
  EXPECT_EQ(queued->attempts(), 0);
  // Either guard may catch it (dequeue-time or execution-entry); what
  // matters is that no attempt ran.
  EXPECT_NE(queued->error().find("deadline exceeded"), std::string::npos)
      << queued->error();
}

TEST(GemmServer, ShutdownDuringRetryBackoffResolvesPromptly) {
  // Regression for the backoff hang: a request sleeping out a long
  // retry backoff used to hold shutdown() hostage for the full
  // backoff and then resolve as if nothing happened. The backoff wait
  // must wake on shutdown and resolve the request terminally.
  ServerConfig cfg = base_config();
  const fault::FaultInjector inj(
      18, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  cfg.recovery.demote = false;
  cfg.abft = gemm::AbftConfig{true, 0.0, 1};
  cfg.executors = 1;
  cfg.max_attempts = 3;
  cfg.retry_backoff_ms = 60'000;  // far longer than the test budget
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 18);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);

  // Wait until the first attempt failed and the executor entered the
  // backoff sleep.
  const auto t0 = std::chrono::steady_clock::now();
  while (req->attempts() < 1 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(req->attempts(), 1);

  const auto shutdown_start = std::chrono::steady_clock::now();
  server.shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - shutdown_start;
  EXPECT_LT(elapsed, std::chrono::seconds(10))
      << "shutdown blocked on retry backoff";
  ASSERT_TRUE(req->done());
  EXPECT_EQ(req->status(), RequestStatus::kShed)
      << request_status_name(req->status());
  EXPECT_NE(req->error().find("shutdown during retry backoff"),
            std::string::npos)
      << req->error();
}

TEST(GemmServer, ConcurrentShutdownJoinsOnce) {
  // Two threads calling shutdown() at once must both return, with the
  // executors joined once and every request resolved once. A caller
  // stuck in shutdown() fails the test after a deadline; the server and
  // its callers are then leaked rather than waited on.
  const Problem p = make(64, 64, 64, 23);
  for (int round = 0; round < 10; ++round) {
    auto server = std::make_unique<GemmServer>(base_config());
    std::vector<RequestHandle> reqs;
    for (int i = 0; i < 6; ++i) {
      reqs.push_back(server->submit_sgemm(p.a, p.b, p.c));
    }
    GemmServer* const raw = server.get();
    const auto go = std::make_shared<std::atomic<bool>>(false);
    const auto returned = std::make_shared<std::atomic<int>>(0);
    std::vector<std::thread> callers;
    for (int t = 0; t < 2; ++t) {
      callers.emplace_back([raw, go, returned] {
        while (!go->load()) std::this_thread::yield();
        raw->shutdown();
        returned->fetch_add(1);
      });
    }
    go->store(true);
    const auto t0 = std::chrono::steady_clock::now();
    while (returned->load() < 2 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (returned->load() < 2) {
      for (std::thread& c : callers) c.detach();
      (void)server.release();
      FAIL() << "a concurrent shutdown() did not return within 10 s in round "
             << round;
    }
    for (std::thread& c : callers) c.join();
    for (const RequestHandle& req : reqs) {
      ASSERT_TRUE(req->done()) << "round " << round;
      // Run before shutdown closed the queue, or shed from it.
      EXPECT_TRUE(req->status() == RequestStatus::kOk ||
                  req->status() == RequestStatus::kShed)
          << request_status_name(req->status());
#if M3XU_TELEMETRY_ENABLED
      const std::vector<telemetry::TraceEvent> events = req->trace()->events();
      EXPECT_EQ(std::count_if(events.begin(), events.end(),
                              [](const telemetry::TraceEvent& e) {
                                return std::string_view(e.name) ==
                                       "request.done";
                              }),
                1);
#endif
    }
  }
}

TEST(GemmServer, RepeatedShapesReuseOneCompiledPlan) {
  const ServerConfig cfg = base_config();
  const core::M3xuEngine direct_engine{cfg.engine};
  const Problem p = make(64, 64, 64, 19);
  const Matrix<float> ref = flat_ref(direct_engine, p.a, p.b, p.c);

  GemmServer server(cfg);
  EXPECT_EQ(server.plan_count(), 0u);
  for (int i = 0; i < 3; ++i) {
    const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
    req->wait();
    ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
    EXPECT_TRUE(bitwise_equal(req->result_f32(), ref));
  }
  EXPECT_EQ(server.plan_count(), 1u);  // one shape, one compiled plan

  const Problem q = make(32, 48, 64, 20);
  const RequestHandle other = server.submit_sgemm(q.a, q.b, q.c);
  other->wait();
  ASSERT_EQ(other->status(), RequestStatus::kOk) << other->error();
  EXPECT_EQ(server.plan_count(), 2u);
  server.shutdown();
}

TEST(GemmServer, CancelMidRunResolvesCancelled) {
  // Stalled tile passes keep the request running until the cancel
  // lands, whatever the host's speed (see BlockedServerTest).
  ServerConfig cfg = base_config();
  cfg.executors = 1;
  fault::FaultInjector stall(
      22, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  stall.stall_duration_ms = 50;
  cfg.engine.injector = &stall;
  GemmServer server(cfg);
  const Problem p = make(192, 192, 192, 16);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  ASSERT_TRUE(wait_running(req));
  req->cancel();
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kCancelled) << req->error();
}

}  // namespace
}  // namespace m3xu::serve
