// Live metrics exposition: renders the telemetry registry as
// Prometheus text format (counters plus cumulative-bucket histograms)
// and as the schema-versioned JSON metrics document, on demand.
//
// Exposition adds zero hot-path locking: it only calls snapshot(),
// which aggregates the existing sharded registry under the registry
// mutex. In M3XU_TELEMETRY=OFF
// builds everything still compiles and runs; the rendered documents
// are just empty (and still pass prometheus_lint).
//
// prometheus_lint is a dependency-free line-format checker used by the
// tests and the CI metrics-smoke step to validate that whatever we
// expose actually parses as Prometheus text.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/telemetry.hpp"

namespace m3xu::telemetry {

/// Schema version stamped into the JSON snapshot document.
inline constexpr int kExpositionSchemaVersion = 1;

/// `name` mapped to a valid Prometheus metric name: every character
/// outside [a-zA-Z0-9_:] becomes '_', and the result is prefixed with
/// "m3xu_" (which also guarantees a valid leading character).
std::string prometheus_name(std::string_view name);

/// The snapshot as Prometheus text format. Counters render as one
/// `# TYPE ... counter` sample; histograms as cumulative
/// `_bucket{le="..."}` series (bucket i of the bit-width histogram has
/// upper bound 2^i - 1) plus `_sum` and `_count`.
std::string prometheus_text(const Snapshot& snap);
/// prometheus_text(snapshot()).
std::string prometheus_text();

/// The snapshot as the process's one JSON metrics document:
/// {"schema_version", "environment", "counters", "histograms"}.
std::string snapshot_json(const Snapshot& snap);
std::string snapshot_json();

/// Write either rendering to `path`; false on I/O failure.
bool write_prometheus(const std::string& path);
bool write_snapshot_json(const std::string& path);

/// Validates Prometheus text format line by line: every sample must
/// parse as `name[{label="value",...}] number`, reference a preceding
/// `# TYPE` declaration (histogram samples via their _bucket/_sum/
/// _count suffixes), and every histogram must have non-decreasing
/// cumulative buckets ending in an le="+Inf" bucket equal to its
/// _count. Returns true on success; on failure `error` (when non-null)
/// receives a one-line description including the offending line.
bool prometheus_lint(std::string_view text, std::string* error = nullptr);

}  // namespace m3xu::telemetry
