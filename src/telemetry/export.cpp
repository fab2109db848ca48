#include "telemetry/export.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace m3xu::telemetry {

std::string git_revision() {
  std::FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::array<char, 64> buf{};
  std::string rev;
  if (std::fgets(buf.data(), buf.size(), pipe) != nullptr) rev = buf.data();
  ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

namespace {

/// Environment::git_dirty: tracked files differ from HEAD.
bool git_dirty() {
  std::FILE* pipe = ::popen(
      "git status --porcelain --untracked-files=no 2>/dev/null", "r");
  if (pipe == nullptr) return false;
  std::array<char, 64> buf{};
  const bool any = std::fgets(buf.data(), buf.size(), pipe) != nullptr;
  ::pclose(pipe);
  return any;
}

/// Environment::compiler: the compiler's __VERSION__, or "unknown".
std::string compiler_version() {
#if defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Environment collect_environment() {
  Environment env;
  env.compiler = compiler_version();
  env.git_rev = git_revision();
  env.git_dirty = git_dirty();
  return env;
}

void write_metrics(JsonWriter& w, const Snapshot& snap) {
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) {
    w.kv(name, value);
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const Snapshot::HistogramValue& h : snap.histograms) {
    w.key(h.name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.key("mean").value(h.mean(), 6);
    // Buckets as [bit_width, count] pairs, empty buckets omitted.
    w.key("buckets").begin_array();
    for (int b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[static_cast<std::size_t>(b)] == 0) continue;
      w.begin_array();
      w.value(b);
      w.value(h.buckets[static_cast<std::size_t>(b)]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

void write_environment(JsonWriter& w, const Environment& env) {
  w.key("environment").begin_object();
  w.kv("compiler", env.compiler);
  w.kv("git_revision", env.git_rev);
  w.kv("git_dirty", env.git_dirty);
  w.kv("telemetry_enabled", static_cast<bool>(M3XU_TELEMETRY_ENABLED));
  w.end_object();
}

std::string snapshot_json(const Snapshot& snap) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema_version", kExpositionSchemaVersion);
  write_environment(w, collect_environment());
  write_metrics(w, snap);
  w.end_object();
  return w.str();
}

std::string snapshot_json() { return snapshot_json(snapshot()); }

bool write_snapshot_json(const std::string& path) {
  const std::string doc = snapshot_json() + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace m3xu::telemetry
