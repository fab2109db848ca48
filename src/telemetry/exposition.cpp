#include "telemetry/exposition.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "telemetry/export.hpp"
#include "telemetry/json.hpp"

namespace m3xu::telemetry {

namespace {

bool write_file(const std::string& path, const std::string& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

bool name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool valid_metric_name(std::string_view n) {
  if (n.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(n[0])) != 0) return false;
  for (const char c : n) {
    if (!name_char(c)) return false;
  }
  return true;
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "m3xu_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    out += name_char(c) ? c : '_';
  }
  return out;
}

std::string prometheus_text(const Snapshot& snap) {
  std::string out = "# m3xu metrics exposition\n";
  char buf[128];
  for (const auto& [name, value] : snap.counters) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " counter\n";
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(value));
    out += p + buf;
  }
  for (const Snapshot::HistogramValue& h : snap.histograms) {
    const std::string p = prometheus_name(h.name);
    out += "# TYPE " + p + " histogram\n";
    // Bucket i of the bit-width histogram counts values with
    // bit_width(v) == i, so its inclusive upper bound is 2^i - 1.
    // The last (clamp) bucket folds into le="+Inf".
    std::uint64_t cum = 0;
    for (int b = 0; b < kHistBuckets - 1; ++b) {
      cum += h.buckets[static_cast<std::size_t>(b)];
      const std::uint64_t le = (std::uint64_t{1} << b) - 1;
      std::snprintf(buf, sizeof(buf), "_bucket{le=\"%llu\"} %llu\n",
                    static_cast<unsigned long long>(le),
                    static_cast<unsigned long long>(cum));
      out += p + buf;
    }
    std::snprintf(buf, sizeof(buf), "_bucket{le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += p + buf;
    std::snprintf(buf, sizeof(buf), "_sum %llu\n",
                  static_cast<unsigned long long>(h.sum));
    out += p + buf;
    std::snprintf(buf, sizeof(buf), "_count %llu\n",
                  static_cast<unsigned long long>(h.count));
    out += p + buf;
  }
  return out;
}

std::string prometheus_text() { return prometheus_text(snapshot()); }

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

bool write_prometheus(const std::string& path) {
  return write_file(path, prometheus_text());
}

bool write_snapshot_json(const std::string& path) {
  return write_file(path, snapshot_json() + "\n");
}

namespace {

struct LintHistogram {
  bool has_cum = false;
  double last_cum = 0.0;
  bool has_inf = false;
  double inf_value = 0.0;
  bool has_sum = false;
  bool has_count = false;
  double count_value = 0.0;
};

bool lint_fail(std::string* error, std::size_t line_no, std::string_view line,
               const std::string& why) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + why + " [" +
             std::string(line) + "]";
  }
  return false;
}

}  // namespace

bool prometheus_lint(std::string_view text, std::string* error) {
  std::map<std::string, char, std::less<>> types;  // 'c' or 'h'
  std::map<std::string, LintHistogram, std::less<>> hists;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line = text.substr(
        start, nl == std::string_view::npos ? text.size() - start : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Comments pass through; "# TYPE <name> <counter|histogram>"
      // additionally declares a series.
      if (line.rfind("# TYPE ", 0) != 0) continue;
      std::string_view rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string_view::npos) {
        return lint_fail(error, line_no, line, "malformed TYPE declaration");
      }
      const std::string_view name = rest.substr(0, sp);
      const std::string_view kind = rest.substr(sp + 1);
      if (!valid_metric_name(name)) {
        return lint_fail(error, line_no, line, "invalid metric name in TYPE");
      }
      if (kind == "counter") {
        types.emplace(std::string(name), 'c');
      } else if (kind == "histogram") {
        types.emplace(std::string(name), 'h');
        hists.emplace(std::string(name), LintHistogram{});
      } else {
        return lint_fail(error, line_no, line, "unsupported metric type");
      }
      continue;
    }
    // Sample line: name[{labels}] value
    std::size_t i = 0;
    while (i < line.size() && name_char(line[i])) ++i;
    const std::string_view name = line.substr(0, i);
    if (!valid_metric_name(name)) {
      return lint_fail(error, line_no, line, "invalid metric name");
    }
    std::string le_value;
    bool has_le = false;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t ls = i;
        while (i < line.size() && name_char(line[i])) ++i;
        const std::string_view label = line.substr(ls, i - ls);
        if (label.empty() || i >= line.size() || line[i] != '=') {
          return lint_fail(error, line_no, line, "malformed label");
        }
        ++i;
        if (i >= line.size() || line[i] != '"') {
          return lint_fail(error, line_no, line, "label value not quoted");
        }
        ++i;
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) ++i;
          value += line[i++];
        }
        if (i >= line.size()) {
          return lint_fail(error, line_no, line, "unterminated label value");
        }
        ++i;  // closing quote
        if (label == "le") {
          le_value = value;
          has_le = true;
        }
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size() || line[i] != '}') {
        return lint_fail(error, line_no, line, "unterminated label set");
      }
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      return lint_fail(error, line_no, line, "missing value separator");
    }
    ++i;
    const std::string value_str(line.substr(i));
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    if (value_str.empty() || end != value_str.c_str() + value_str.size()) {
      return lint_fail(error, line_no, line, "sample value is not a number");
    }
    if (value < 0) {
      return lint_fail(error, line_no, line, "negative sample value");
    }
    // Resolve the sample against a declared series.
    const auto exact = types.find(name);
    if (exact != types.end() && exact->second == 'c') {
      if (has_le) {
        return lint_fail(error, line_no, line, "le label on a counter");
      }
      continue;
    }
    bool resolved = false;
    for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (name.size() <= suffix.size() ||
          name.substr(name.size() - suffix.size()) != suffix) {
        continue;
      }
      const std::string_view base = name.substr(0, name.size() - suffix.size());
      const auto h = hists.find(base);
      if (h == hists.end()) continue;
      resolved = true;
      LintHistogram& state = h->second;
      if (suffix == "_bucket") {
        if (!has_le) {
          return lint_fail(error, line_no, line, "_bucket without le label");
        }
        if (le_value == "+Inf") {
          state.has_inf = true;
          state.inf_value = value;
        } else {
          char* le_end = nullptr;
          std::strtod(le_value.c_str(), &le_end);
          if (le_value.empty() ||
              le_end != le_value.c_str() + le_value.size()) {
            return lint_fail(error, line_no, line, "non-numeric le bound");
          }
          if (state.has_cum && value < state.last_cum) {
            return lint_fail(error, line_no, line,
                             "cumulative bucket count decreased");
          }
          state.has_cum = true;
          state.last_cum = value;
        }
      } else if (suffix == "_sum") {
        state.has_sum = true;
      } else {
        state.has_count = true;
        state.count_value = value;
      }
      break;
    }
    if (!resolved) {
      return lint_fail(error, line_no, line,
                       "sample has no matching TYPE declaration");
    }
  }
  for (const auto& [name, state] : hists) {
    if (!state.has_inf || !state.has_sum || !state.has_count) {
      return lint_fail(error, line_no, name,
                       "histogram missing _bucket{le=\"+Inf\"}/_sum/_count");
    }
    if (state.inf_value != state.count_value) {
      return lint_fail(error, line_no, name,
                       "+Inf bucket disagrees with _count");
    }
    if (state.has_cum && state.last_cum > state.inf_value) {
      return lint_fail(error, line_no, name,
                       "finite cumulative buckets exceed +Inf");
    }
  }
  return true;
}

}  // namespace m3xu::telemetry
