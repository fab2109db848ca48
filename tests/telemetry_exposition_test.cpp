// Metrics exposition tests: Prometheus text rendering (counters,
// cumulative histogram buckets, name sanitization), the dependency-free
// line-format lint (positive and negative cases), the JSON snapshot
// document and file dumps. Synthetic Snapshot inputs keep the
// rendering tests exact in both M3XU_TELEMETRY builds; the
// registry-backed paths degrade to empty-but-valid documents when
// telemetry is compiled out.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/exposition.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace telemetry = m3xu::telemetry;

namespace {

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

}  // namespace

TEST(PrometheusName, SanitizesAndPrefixes) {
  EXPECT_EQ(telemetry::prometheus_name("serve.requests.ok"),
            "m3xu_serve_requests_ok");
  EXPECT_EQ(telemetry::prometheus_name("odd name-with.chars"),
            "m3xu_odd_name_with_chars");
  EXPECT_EQ(telemetry::prometheus_name("already_fine:ok"),
            "m3xu_already_fine:ok");
}

TEST(PrometheusText, RendersCountersAndCumulativeHistograms) {
  const std::string text = telemetry::prometheus_text(synthetic_snapshot());
  EXPECT_NE(text.find("# TYPE m3xu_serve_requests_ok counter"),
            std::string::npos);
  EXPECT_NE(text.find("m3xu_serve_requests_ok 41"), std::string::npos);
  EXPECT_NE(text.find("# TYPE m3xu_serve_request_latency_ns histogram"),
            std::string::npos);
  // Bit-width bucket 3 has upper bound 2^3 - 1 = 7; cumulative count
  // at le="1023" includes both populated buckets.
  EXPECT_NE(text.find("m3xu_serve_request_latency_ns_bucket{le=\"7\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("m3xu_serve_request_latency_ns_bucket{le=\"1023\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("m3xu_serve_request_latency_ns_bucket{le=\"+Inf\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("m3xu_serve_request_latency_ns_sum 4000"),
            std::string::npos);
  EXPECT_NE(text.find("m3xu_serve_request_latency_ns_count 7"),
            std::string::npos);
  std::string error;
  EXPECT_TRUE(telemetry::prometheus_lint(text, &error)) << error;
}

TEST(PrometheusText, LiveRegistryRenderingPassesLint) {
  static telemetry::Counter ctr("test.exposition.live");
  static telemetry::Histogram hist("test.exposition.live_hist");
  ctr.add(3);
  hist.record(1000);
  const std::string text = telemetry::prometheus_text();
  std::string error;
  EXPECT_TRUE(telemetry::prometheus_lint(text, &error)) << error;
#if M3XU_TELEMETRY_ENABLED
  EXPECT_NE(text.find("m3xu_test_exposition_live"), std::string::npos);
#endif
}

TEST(PrometheusLint, RejectsMalformedDocuments) {
  std::string error;
  // Sample without a preceding TYPE declaration.
  EXPECT_FALSE(telemetry::prometheus_lint("m3xu_orphan 1\n", &error));
  // Unknown metric kind.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE m3xu_g gauge_oops\nm3xu_g 1\n", &error));
  // Invalid metric name.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE 9bad counter\n9bad 1\n", &error));
  // Non-numeric value.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE m3xu_c counter\nm3xu_c banana\n", &error));
  // Negative counter.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE m3xu_c counter\nm3xu_c -4\n", &error));
  // Unterminated label value.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE m3xu_h histogram\nm3xu_h_bucket{le=\"7} 1\n", &error));
  // Histogram whose cumulative buckets decrease.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE m3xu_h histogram\n"
      "m3xu_h_bucket{le=\"1\"} 5\n"
      "m3xu_h_bucket{le=\"2\"} 3\n"
      "m3xu_h_bucket{le=\"+Inf\"} 5\n"
      "m3xu_h_sum 9\nm3xu_h_count 5\n",
      &error));
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(telemetry::prometheus_lint(
      "# TYPE m3xu_h histogram\n"
      "m3xu_h_bucket{le=\"+Inf\"} 5\n"
      "m3xu_h_sum 9\nm3xu_h_count 6\n",
      &error));
  EXPECT_FALSE(error.empty());
}

TEST(PrometheusLint, AcceptsEmptyAndCommentOnlyDocuments) {
  std::string error;
  EXPECT_TRUE(telemetry::prometheus_lint("", &error)) << error;
  EXPECT_TRUE(telemetry::prometheus_lint("# just a comment\n\n", &error))
      << error;
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

TEST(Exposition, WritesBothRenderingsToFiles) {
  const std::string prom_path = ::testing::TempDir() + "exposition_test.prom";
  const std::string json_path = ::testing::TempDir() + "exposition_test.json";
  ASSERT_TRUE(telemetry::write_prometheus(prom_path));
  ASSERT_TRUE(telemetry::write_snapshot_json(json_path));
  std::string error;
  EXPECT_TRUE(telemetry::prometheus_lint(read_file(prom_path), &error))
      << error;
  EXPECT_TRUE(telemetry::JsonValue::parse(read_file(json_path)).has_value());
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

TEST(Exposition, WriteFailsOnUnwritablePath) {
  EXPECT_FALSE(telemetry::write_prometheus("/nonexistent-dir/x.prom"));
  EXPECT_FALSE(telemetry::write_snapshot_json("/nonexistent-dir/x.json"));
}
