// Telemetry subsystem tests: sharded counter aggregation (including
// under the thread pool and across thread exit), histogram bucketing,
// the span ring (wraparound, trace JSON schema), ModelClock, the JSON
// writer, and the metrics export (the JSON metrics document and its
// file dump). Every test also compiles and passes
// in an M3XU_TELEMETRY=OFF build, where the recording paths are no-ops
// and the exports emit empty sections.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/model_clock.hpp"
#include "telemetry/stopwatch.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "telemetry/trace_context.hpp"

namespace telemetry = m3xu::telemetry;

namespace {

std::size_t count_occurrences(const std::string& s, const std::string& sub) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(sub); pos != std::string::npos;
       pos = s.find(sub, pos + sub.size())) {
    ++n;
  }
  return n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

telemetry::Snapshot synthetic_snapshot() {
  telemetry::Snapshot snap;
  snap.counters.emplace_back("serve.requests.ok", 41u);
  snap.counters.emplace_back("odd name-with.chars", 7u);
  telemetry::Snapshot::HistogramValue h;
  h.name = "serve.request_latency_ns";
  h.buckets[3] = 2;   // values with bit width 3 (<= 7)
  h.buckets[10] = 5;  // values with bit width 10 (<= 1023)
  h.count = 7;
  h.sum = 4000;
  snap.histograms.push_back(h);
  return snap;
}

const telemetry::Snapshot::HistogramValue* find_hist(
    const telemetry::Snapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

TEST(TelemetryCounter, ShardAggregationUnderParallelFor) {
  static telemetry::Counter ctr("test.shard_aggregation");
  constexpr std::size_t kN = 10000;
  const telemetry::Snapshot before = telemetry::snapshot();
  m3xu::parallel_for(kN, [](std::size_t i) { ctr.add(i + 1); });
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  // Sum 1..kN, independent of how iterations landed on pool threads.
  const std::uint64_t expected = kN * (kN + 1) / 2;
  EXPECT_EQ(after.counter_delta(before, "test.shard_aggregation"), expected);
#else
  EXPECT_EQ(after.counter_delta(before, "test.shard_aggregation"), 0u);
#endif
}

TEST(TelemetryCounter, DeterministicAcrossRuns) {
  static telemetry::Counter ctr("test.determinism");
  const auto run = [] {
    const telemetry::Snapshot before = telemetry::snapshot();
    m3xu::parallel_for(4096, [](std::size_t i) { ctr.add(i % 7); });
    const telemetry::Snapshot after = telemetry::snapshot();
    return after.counter_delta(before, "test.determinism");
  };
  EXPECT_EQ(run(), run());
}

TEST(TelemetryCounter, SameNameSharesSlot) {
  static telemetry::Counter a("test.same_name");
  static telemetry::Counter b("test.same_name");
  const telemetry::Snapshot before = telemetry::snapshot();
  a.add(3);
  b.add(4);
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "test.same_name"), 7u);
#else
  EXPECT_EQ(after.counter_delta(before, "test.same_name"), 0u);
#endif
}

TEST(TelemetryCounter, ExitedThreadFoldsIntoRetired) {
  static telemetry::Counter ctr("test.retired_fold");
  const telemetry::Snapshot before = telemetry::snapshot();
  std::thread t([] { ctr.add(42); });
  t.join();
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "test.retired_fold"), 42u);
#else
  EXPECT_EQ(after.counter_delta(before, "test.retired_fold"), 0u);
#endif
}

TEST(TelemetrySnapshot, AbsentCounterIsZero) {
  const telemetry::Snapshot snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
  EXPECT_EQ(snap.counter_delta(snap, "no.such.counter"), 0u);
}

TEST(TelemetryHistogram, BucketOfIsBitWidth) {
  using telemetry::Histogram;
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(255), 8);
  EXPECT_EQ(Histogram::bucket_of(256), 9);
  // Width 47 is the last in-range bucket; wider values clamp to it.
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 46),
            telemetry::kHistBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 47),
            telemetry::kHistBuckets - 1);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}),
            telemetry::kHistBuckets - 1);
}

TEST(TelemetryHistogram, RecordAggregatesCountSumBuckets) {
  static telemetry::Histogram h("test.hist_record");
  const telemetry::Snapshot before = telemetry::snapshot();
  h.record(1);
  h.record(2);
  h.record(3);
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  const auto* hb = find_hist(before, "test.hist_record");
  const auto* ha = find_hist(after, "test.hist_record");
  ASSERT_NE(ha, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(ha->count - hb->count, 3u);
  EXPECT_EQ(ha->sum - hb->sum, 6u);
  EXPECT_EQ(ha->buckets[1] - hb->buckets[1], 1u);  // value 1
  EXPECT_EQ(ha->buckets[2] - hb->buckets[2], 2u);  // values 2, 3
#else
  EXPECT_EQ(find_hist(after, "test.hist_record"), nullptr);
#endif
}

TEST(ModelClock, AdvanceAddsLaunchOverheadPerLaunch) {
  telemetry::ModelClock clock;
  const double c1 = clock.advance("gemm", 1.0);
  EXPECT_DOUBLE_EQ(c1, 1.0 + telemetry::ModelClock::kLaunchSeconds);
  const double c2 = clock.advance("gemm", 2.0, 3);
  EXPECT_DOUBLE_EQ(c2, 2.0 + 3 * telemetry::ModelClock::kLaunchSeconds);
  const double c3 = clock.advance("epilogue", 0.5, 0);  // cost sharing
  EXPECT_DOUBLE_EQ(c3, 0.5);
  EXPECT_DOUBLE_EQ(clock.seconds(), c1 + c2 + c3);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("gemm"), c1 + c2);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("epilogue"), c3);
  EXPECT_DOUBLE_EQ(clock.phase_seconds("absent"), 0.0);
  EXPECT_EQ(clock.phases().size(), 2u);
}

TEST(JsonWriter, StructureAndEscaping) {
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("str", "va\"lue");
  w.kv("num", 42);
  w.kv("flag", true);
  w.key("arr").begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  const std::string& j = w.str();
  EXPECT_NE(j.find("\"str\": \"va\\\"lue\""), std::string::npos);
  EXPECT_NE(j.find("\"num\": 42"), std::string::npos);
  EXPECT_NE(j.find("\"flag\": true"), std::string::npos);
  EXPECT_EQ(count_occurrences(j, "{"), count_occurrences(j, "}"));
  EXPECT_EQ(count_occurrences(j, "["), count_occurrences(j, "]"));
}

TEST(Trace, ScopedTimerEmitsSpan) {
  telemetry::reset_trace();
  {
    const telemetry::ScopedTimer t("test.span_emit");
  }
  const std::string j = telemetry::trace_json();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_NE(j.find("test.span_emit"), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(j.find("thread_name"), std::string::npos);
#else
  EXPECT_EQ(j.find("test.span_emit"), std::string::npos);
#endif
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(Trace, RingWraparoundKeepsNewestCapacitySpans) {
  telemetry::reset_trace();
  const std::uint64_t t0 = telemetry::now_ns();
  for (std::size_t i = 0; i < telemetry::kSpanRingCapacity + 100; ++i) {
    telemetry::emit_span("test.wrap", t0 + i, 10);
  }
  const std::string j = telemetry::trace_json();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(count_occurrences(j, "test.wrap"), telemetry::kSpanRingCapacity);
#else
  EXPECT_EQ(count_occurrences(j, "test.wrap"), 0u);
#endif
}

TEST(TraceJson, EventsCarryCompleteEventSchema) {
  telemetry::reset_trace();
  telemetry::emit_span("test.schema", telemetry::now_ns(), 1500);
  const std::string j = telemetry::trace_json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
#if M3XU_TELEMETRY_ENABLED
  // One "X" complete event with ts/dur/pid/tid, plus thread metadata.
  EXPECT_EQ(count_occurrences(j, "\"ph\": \"X\""), 1u);
  EXPECT_NE(j.find("\"ts\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\""), std::string::npos);
  EXPECT_NE(j.find("\"pid\""), std::string::npos);
  EXPECT_NE(j.find("\"tid\""), std::string::npos);
  EXPECT_EQ(count_occurrences(j, "\"ph\": \"M\""),
            count_occurrences(j, "thread_name"));
#endif
}

TEST(Export, MetricsJsonHasEnvironmentCountersHistograms) {
  static telemetry::Counter ctr("test.export_visible");
  ctr.add(5);
  const std::string j = telemetry::snapshot_json();
  EXPECT_NE(j.find("\"environment\""), std::string::npos);
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"telemetry_enabled\""), std::string::npos);
#if M3XU_TELEMETRY_ENABLED
  EXPECT_NE(j.find("test.export_visible"), std::string::npos);
#else
  EXPECT_EQ(j.find("test.export_visible"), std::string::npos);
#endif
}

TEST(Export, SnapshotMatchesBuildConfig) {
  static telemetry::Counter ctr("test.build_config");
  ctr.increment();
  const telemetry::Snapshot snap = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_GE(snap.counter("test.build_config"), 1u);
#else
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
#endif
}

TEST(SnapshotJson, ParsesWithSchemaVersion) {
  const std::string json = telemetry::snapshot_json(synthetic_snapshot());
  const auto doc = telemetry::JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("schema_version"), nullptr);
  EXPECT_EQ(doc->find("schema_version")->as_int(),
            telemetry::kExpositionSchemaVersion);
  const telemetry::JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const telemetry::JsonValue* ok = counters->find("serve.requests.ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->as_uint(), 41u);
  ASSERT_NE(doc->find("histograms"), nullptr);
}

TEST(Export, WritesSnapshotJsonToFile) {
  const std::string json_path = ::testing::TempDir() + "telemetry_test.json";
  ASSERT_TRUE(telemetry::write_snapshot_json(json_path));
  EXPECT_TRUE(telemetry::JsonValue::parse(read_file(json_path)).has_value());
  std::remove(json_path.c_str());
}

TEST(Export, WriteSnapshotJsonFailsOnUnwritablePath) {
  EXPECT_FALSE(telemetry::write_snapshot_json("/nonexistent-dir/x.json"));
}

TEST(Stopwatch, MonotoneNonNegative) {
  const telemetry::Stopwatch sw;
  const std::uint64_t a = sw.elapsed_ns();
  const std::uint64_t b = sw.elapsed_ns();
  EXPECT_LE(a, b);
  EXPECT_GE(sw.seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// JsonValue round-trip hardening: exact integers at the double
// boundary, escape sequences, nesting depth bounds, and rejection of
// the number spellings JSON forbids.
// ---------------------------------------------------------------------------

TEST(JsonRoundTrip, IntegersNearDoubleBoundaryStayExact) {
  const std::uint64_t cases[] = {
      (1ull << 53) - 1, (1ull << 53), (1ull << 53) + 1,
      (1ull << 63),     UINT64_MAX,   0ull};
  for (const std::uint64_t v : cases) {
    telemetry::JsonWriter w;
    w.begin_object().kv("v", v).end_object();
    const auto doc = telemetry::JsonValue::parse(w.str());
    ASSERT_TRUE(doc.has_value()) << w.str();
    // as_uint must be bit-exact even where double would round.
    EXPECT_EQ(doc->find("v")->as_uint(), v) << w.str();
  }
  telemetry::JsonWriter w;
  w.begin_object().kv("v", std::numeric_limits<long>::min()).end_object();
  const auto doc = telemetry::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("v")->as_int(),
            static_cast<std::int64_t>(std::numeric_limits<long>::min()));
}

TEST(JsonRoundTrip, EscapeSequencesSurviveWriterParserCycle) {
  const std::string nasty =
      "quote:\" backslash:\\ newline:\n tab:\t cr:\r bell:\x07 del:\x7f";
  telemetry::JsonWriter w;
  w.begin_object().kv("s", nasty).end_object();
  const auto doc = telemetry::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  EXPECT_EQ(doc->find("s")->as_string(), nasty);
  // Standard escape spellings parse too.
  const auto esc = telemetry::JsonValue::parse(
      "{\"s\": \"a\\u0041\\t\\\"b\\\\c\\/d\"}");
  ASSERT_TRUE(esc.has_value());
  EXPECT_EQ(esc->find("s")->as_string(), "aA\t\"b\\c/d");
}

TEST(JsonParse, NestingIsBoundedNotUnbounded) {
  const auto nested = [](int depth) {
    std::string s(static_cast<std::size_t>(depth), '[');
    s.append(static_cast<std::size_t>(depth), ']');
    return s;
  };
  EXPECT_TRUE(telemetry::JsonValue::parse(nested(60)).has_value());
  // Past the parser's depth bound: reject rather than overflow the
  // stack on adversarial input.
  EXPECT_FALSE(telemetry::JsonValue::parse(nested(200)).has_value());
}

TEST(JsonParse, RejectsNonFiniteAndMalformedNumbers) {
  EXPECT_FALSE(telemetry::JsonValue::parse("NaN").has_value());
  EXPECT_FALSE(telemetry::JsonValue::parse("Infinity").has_value());
  EXPECT_FALSE(telemetry::JsonValue::parse("-Infinity").has_value());
  EXPECT_FALSE(telemetry::JsonValue::parse("{\"v\": 1e999}").has_value());
  EXPECT_FALSE(telemetry::JsonValue::parse("{\"v\": 01}").has_value());
  EXPECT_FALSE(telemetry::JsonValue::parse("{\"v\": +1}").has_value());
  EXPECT_FALSE(telemetry::JsonValue::parse("{\"v\": .5}").has_value());
  // ... while ordinary scientific notation still parses.
  const auto ok = telemetry::JsonValue::parse("{\"v\": -1.25e2}");
  ASSERT_TRUE(ok.has_value());
  EXPECT_DOUBLE_EQ(ok->find("v")->as_double(), -125.0);
}

TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  telemetry::JsonWriter w;
  w.begin_object()
      .kv("nan", std::numeric_limits<double>::quiet_NaN())
      .kv("inf", std::numeric_limits<double>::infinity())
      .end_object();
  const auto doc = telemetry::JsonValue::parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  EXPECT_TRUE(doc->find("nan")->is_null());
  EXPECT_TRUE(doc->find("inf")->is_null());
}

// ---------------------------------------------------------------------------
// Telemetry under concurrency: counters, histograms, and trace
// contexts hammered from the thread pool while the main thread takes
// registry snapshots and trace exports mid-write. Run under
// M3XU_SANITIZE=thread (label: tsan) this is the data-race proof; in a
// plain build it still checks totals.
// ---------------------------------------------------------------------------

TEST(TelemetryConcurrency, SnapshotWhileWritingIsConsistent) {
  static telemetry::Counter ctr("test.concurrent_snapshot");
  static telemetry::Histogram hist("test.concurrent_snapshot_hist");
  constexpr std::size_t kN = 20000;
  const telemetry::Snapshot before = telemetry::snapshot();
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Interleave snapshots with the writers; every intermediate view
    // must be internally consistent (count >= populated buckets sum is
    // checked implicitly by Snapshot aggregation; here we assert
    // monotone counter growth).
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const telemetry::Snapshot mid = telemetry::snapshot();
      const std::uint64_t seen =
          mid.counter_delta(before, "test.concurrent_snapshot");
      EXPECT_GE(seen, last);
      last = seen;
    }
  });
  m3xu::parallel_for(kN, [](std::size_t i) {
    ctr.increment();
    hist.record(i + 1);
    telemetry::TraceContext ctx("hammer", "concurrent");
    ctx.event("tick", static_cast<long>(i));
    (void)ctx.to_json();
  });
  done.store(true, std::memory_order_release);
  reader.join();
  const telemetry::Snapshot after = telemetry::snapshot();
#if M3XU_TELEMETRY_ENABLED
  EXPECT_EQ(after.counter_delta(before, "test.concurrent_snapshot"), kN);
  const auto* h = find_hist(after, "test.concurrent_snapshot_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count, kN);
#else
  EXPECT_EQ(after.counter_delta(before, "test.concurrent_snapshot"), 0u);
#endif
}

TEST(TelemetryConcurrency, TraceExportWhileSpansRetire) {
  telemetry::reset_trace();
  std::atomic<bool> done{false};
  std::thread exporter([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string j = telemetry::trace_json();
      EXPECT_FALSE(j.empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        telemetry::ScopedTimer span("test.concurrent_span");
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  exporter.join();
  const std::string final_json = telemetry::trace_json();
  EXPECT_EQ(final_json, telemetry::trace_json());  // stable once quiescent
}
