// Acceptance tests for request-scoped tracing in the serving stack:
// under injected faults, every recovered/failed request must carry a
// single per-request event timeline linking admission -> ABFT
// detection -> retry/demotion rung -> final outcome, in causal order.
// Also covers: tracing disabled (trace_requests=false), shed/evicted
// timelines, request-id uniqueness across concurrent requests, and
// the JSON export of a served request. Concurrency-sensitive
// (tsan-labeled).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "gemm/matrix.hpp"
#include "serve/server.hpp"
#include "telemetry/json.hpp"
#include "telemetry/trace_context.hpp"

namespace m3xu::serve {
namespace {

using gemm::Matrix;

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

ServerConfig base_config() {
  ServerConfig cfg;
  cfg.executors = 2;
  cfg.tile = gemm::TileConfig{32, 32, 32, 16, 16};
  cfg.abft.enable = true;
  return cfg;
}

/// seq of the first event with `name`, or -1 when absent. seq is the
/// context's append order, i.e. the causal order of the timeline.
[[maybe_unused]] long first_seq(
    const std::vector<telemetry::TraceEvent>& events,
    const std::string& name) {
  for (const telemetry::TraceEvent& e : events) {
    if (name == e.name) return static_cast<long>(e.seq);
  }
  return -1;
}

[[maybe_unused]] long count_events(
    const std::vector<telemetry::TraceEvent>& events,
    const std::string& name) {
  long n = 0;
  for (const telemetry::TraceEvent& e : events) {
    if (name == e.name) ++n;
  }
  return n;
}

}  // namespace

#if M3XU_TELEMETRY_ENABLED

// The acceptance path: persistent injected faults walk the whole
// ladder. The request resolves kOk and its timeline must link
// admission -> ABFT detection -> the demotion walk -> the recovery ->
// the terminal outcome, causally ordered.
TEST(ServeTrace, LadderWalkTimelineIsCausallyComplete) {
  ServerConfig cfg = base_config();
  const fault::FaultInjector inj(
      11, fault::SiteRates::only(fault::Site::kAccumulator, 1.0));
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 64, 11);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
  ASSERT_NE(req->trace(), nullptr);

  const std::vector<telemetry::TraceEvent> events = req->trace()->events();
  const long submit = first_seq(events, "request.submit");
  const long admit = first_seq(events, "request.admit");
  const long dequeue = first_seq(events, "request.dequeue");
  const long attempt = first_seq(events, "request.attempt");
  const long plan = first_seq(events, "plan.execute");
  const long exec = first_seq(events, "exec.start");
  const long detect = first_seq(events, "abft.detect");
  const long retry = first_seq(events, "recovery.retry");
  const long demote = first_seq(events, "recovery.demote");
  const long recovered = first_seq(events, "recovery.recovered");
  const long done = first_seq(events, "request.done");

  // Presence: every link of the chain is in the single per-request log.
  ASSERT_GE(submit, 0);
  ASSERT_GE(admit, 0);
  ASSERT_GE(dequeue, 0);
  ASSERT_GE(attempt, 0);
  ASSERT_GE(plan, 0);
  ASSERT_GE(exec, 0);
  ASSERT_GE(detect, 0);
  ASSERT_GE(retry, 0);
  ASSERT_GE(demote, 0);
  ASSERT_GE(recovered, 0);
  ASSERT_GE(done, 0);

  // Causal order: admission precedes execution precedes detection
  // precedes the ladder precedes the terminal.
  EXPECT_LT(submit, admit);
  EXPECT_LT(admit, dequeue);
  EXPECT_LT(dequeue, attempt);
  EXPECT_LT(attempt, plan);
  EXPECT_LT(plan, exec);
  EXPECT_LT(exec, detect);
  EXPECT_LT(detect, retry);
  EXPECT_LT(retry, demote);
  EXPECT_LT(demote, recovered);
  EXPECT_LT(recovered, done);

  // The terminal event records the final outcome and is last.
  const telemetry::TraceEvent& last = events.back();
  EXPECT_STREQ(last.name, "request.done");
  EXPECT_EQ(last.a0, static_cast<long>(RequestStatus::kOk));
  EXPECT_EQ(last.detail, "ok");

  // Faults on every primary pass: the walk takes both demotions and
  // recovers once, on the scalar rung.
  EXPECT_EQ(count_events(events, "recovery.demote"), 2);
  EXPECT_EQ(count_events(events, "recovery.recovered"), 1);
  server.shutdown();
}

// Transient faults with the full ladder: the request recovers to kOk
// and the timeline shows detection, the rung walk, and the recovery.
TEST(ServeTrace, RecoveredRequestTimelineShowsLadderWalk) {
  ServerConfig cfg = base_config();
  cfg.tile = gemm::TileConfig{48, 48, 32, 16, 16};
  const fault::FaultInjector inj(
      0x7ace5, fault::SiteRates::only(fault::Site::kAccumulator, 5e-3));
  cfg.engine.injector = &inj;
  cfg.retry_backoff_ms = 0;
  GemmServer server(cfg);

  bool saw_detection = false;
  for (int i = 0; i < 12 && !saw_detection; ++i) {
    const Problem p = make(48, 48, 96, 100 + static_cast<std::uint64_t>(i));
    const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
    req->wait();
    ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
    ASSERT_NE(req->trace(), nullptr);
    if (req->stats().abft_detected == 0) continue;
    saw_detection = true;

    const std::vector<telemetry::TraceEvent> events = req->trace()->events();
    const long detect = first_seq(events, "abft.detect");
    const long retry = first_seq(events, "recovery.retry");
    const long done = first_seq(events, "request.done");
    ASSERT_GE(detect, 0);
    ASSERT_GE(retry, 0);
    ASSERT_GE(done, 0);
    EXPECT_LT(first_seq(events, "exec.start"), detect);
    EXPECT_LT(detect, retry);
    EXPECT_LT(retry, done);
    // Recovery outcome: either the retry passed on some rung
    // (recovery.recovered) or the deterministic reproduction proved a
    // false alarm - one of the two must be in the log.
    const bool recovered = first_seq(events, "recovery.recovered") >= 0 ||
                           first_seq(events, "abft.false_alarm") >= 0;
    EXPECT_TRUE(recovered);
  }
  EXPECT_TRUE(saw_detection)
      << "no request saw an ABFT detection; raise the fault rate";
  server.shutdown();
}

TEST(ServeTrace, ShedRequestTimelineCarriesTerminalOutcome) {
  ServerConfig cfg = base_config();
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  cfg.admission = AdmissionPolicy::kRejectNew;
  // A stalling engine keeps the executor busy while we overflow the
  // queue deterministically.
  fault::FaultInjector inj(
      7, fault::SiteRates::only(fault::Site::kWorkerStall, 1.0));
  inj.stall_duration_ms = 20;
  cfg.engine.injector = &inj;
  GemmServer server(cfg);
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 8; ++i) {
    const Problem p = make(32, 32, 32, static_cast<std::uint64_t>(i));
    handles.push_back(server.submit_sgemm(p.a, p.b, p.c));
  }
  bool saw_shed = false;
  for (const RequestHandle& req : handles) {
    req->wait();
    if (req->status() != RequestStatus::kShed) continue;
    saw_shed = true;
    ASSERT_NE(req->trace(), nullptr);
    const std::vector<telemetry::TraceEvent> events = req->trace()->events();
    const long submit = first_seq(events, "request.submit");
    const long done = first_seq(events, "request.done");
    ASSERT_GE(submit, 0);
    ASSERT_GE(done, 0);
    EXPECT_LT(submit, done);
    EXPECT_EQ(events.back().a0, static_cast<long>(RequestStatus::kShed));
    // A rejected request never reached the queue: no admit/dequeue.
    EXPECT_EQ(first_seq(events, "request.dequeue"), -1);
  }
  EXPECT_TRUE(saw_shed);
  server.shutdown();
}

TEST(ServeTrace, RequestIdsUniqueAcrossConcurrentRequests) {
  ServerConfig cfg = base_config();
  GemmServer server(cfg);
  std::vector<RequestHandle> handles;
  for (int i = 0; i < 16; ++i) {
    const Problem p = make(32, 32, 32, static_cast<std::uint64_t>(i));
    handles.push_back(server.submit_sgemm(p.a, p.b, p.c));
  }
  std::set<std::uint64_t> request_ids;
  std::set<std::uint64_t> event_ids;
  for (const RequestHandle& req : handles) {
    req->wait();
    ASSERT_NE(req->trace(), nullptr);
    request_ids.insert(req->trace()->request_id());
    for (const telemetry::TraceEvent& e : req->trace()->events()) {
      event_ids.insert(e.id);
    }
  }
  EXPECT_EQ(request_ids.size(), handles.size());
  // Event ids are process-unique across requests and pool threads.
  std::size_t total_events = 0;
  for (const RequestHandle& req : handles) {
    total_events += req->trace()->events().size();
  }
  EXPECT_EQ(event_ids.size(), total_events);
  server.shutdown();
}

TEST(ServeTrace, ExportedTimelineParsesAsJson) {
  ServerConfig cfg = base_config();
  GemmServer server(cfg);
  const Problem p = make(32, 32, 32, 5);
  RequestOptions opts;
  opts.tenant = "tenant-json";
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c, opts);
  req->wait();
  ASSERT_EQ(req->status(), RequestStatus::kOk) << req->error();
  ASSERT_NE(req->trace(), nullptr);
  const auto doc = telemetry::JsonValue::parse(req->trace()->to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("tenant")->as_string(), "tenant-json");
  EXPECT_EQ(doc->find("label")->as_string(), "sgemm.32x32x32");
  const telemetry::JsonValue* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->size(), 2u);
  // Events in the export are seq-ordered with nondecreasing seq.
  for (std::size_t i = 1; i < events->size(); ++i) {
    EXPECT_LT(events->at(i - 1).find("seq")->as_uint(),
              events->at(i).find("seq")->as_uint());
  }
  server.shutdown();
}

#endif  // M3XU_TELEMETRY_ENABLED

// trace_requests=false (and the M3XU_TELEMETRY=OFF build, where this
// is the only behavior): requests carry no trace and still serve.
TEST(ServeTrace, TracingDisabledServesUntraced) {
  ServerConfig cfg = base_config();
  cfg.trace_requests = false;
  GemmServer server(cfg);
  const Problem p = make(32, 32, 32, 3);
  const RequestHandle req = server.submit_sgemm(p.a, p.b, p.c);
  req->wait();
  EXPECT_EQ(req->status(), RequestStatus::kOk) << req->error();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(req->trace(), nullptr);
#endif
  server.shutdown();
}

}  // namespace m3xu::serve
