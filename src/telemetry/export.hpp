// The metrics export: environment metadata, the counters/histograms
// JSON fragment benches embed in their own documents, and the
// process's one standalone metrics document (snapshot_json), which
// wraps both. All of it works (emitting empty sections) in
// M3XU_TELEMETRY=OFF builds so callers compile unchanged.
#pragma once

#include <string>

#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::telemetry {

/// Schema version stamped into the snapshot_json document.
inline constexpr int kExpositionSchemaVersion = 1;

/// Build/host metadata stamped into exported artifacts.
struct Environment {
  std::string compiler;  // __VERSION__ of the telemetry build
  std::string git_rev;   // short HEAD revision, or "unknown"
  /// True when tracked files differ from git_rev (`git status
  /// --porcelain --untracked-files=no` is non-empty): the numbers came
  /// from an uncommitted tree on top of git_rev. False outside a
  /// checkout.
  bool git_dirty = false;
};

Environment collect_environment();

/// Short git revision of the working tree, or "unknown" outside a
/// checkout.
std::string git_revision();

/// Writes {"counters": {...}, "histograms": {...}} (the given
/// snapshot) into an open object of `w`, as two key/value pairs.
void write_metrics(JsonWriter& w, const Snapshot& snap);

/// Writes environment metadata into an open object of `w` under an
/// "environment" key (callers may add their own fields next to it).
void write_environment(JsonWriter& w, const Environment& env);

/// The snapshot as the process's one JSON metrics document:
/// {"schema_version", "environment", "counters", "histograms"}.
std::string snapshot_json(const Snapshot& snap);
/// snapshot_json(snapshot()).
std::string snapshot_json();

/// Writes snapshot_json() to `path`; false on I/O failure.
bool write_snapshot_json(const std::string& path);

}  // namespace m3xu::telemetry
