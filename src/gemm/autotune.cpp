#include "gemm/autotune.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/rng.hpp"
#include "core/microkernel.hpp"
#include "gemm/matrix.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/stopwatch.hpp"
#include "telemetry/telemetry.hpp"

namespace m3xu::gemm {

namespace {

telemetry::Counter tune_search_ctr("autotune.search");
telemetry::Counter tune_cache_hit_ctr("autotune.cache_hit");
telemetry::Counter tune_cache_reject_ctr("autotune.cache_rejected_entries");
telemetry::Counter tune_candidates_ctr("autotune.candidates_measured");

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// First "model name" line of /proc/cpuinfo, or a fallback tag. The
/// signature must only distinguish hosts, not describe them.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown-cpu";
}

/// Median of an unsorted sample (destructive).
double median(std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// The checks plan compile applies to a tile for `key`'s mode.
bool tile_ok(const TileConfig& tile, const PlanKey& key) {
  const core::MmaShape shape = core::shape_for(
      key.cplx ? core::MxuMode::kFp32Complex : core::MxuMode::kFp32);
  return tile.valid() && tile.block_k % shape.k == 0;
}

/// Canonical per-entry string the integrity checksum covers. Any field
/// edit - including flipping cplx or a warp size - breaks the
/// checksum, so hand-edited or bit-rotted entries are dropped on load.
std::string canonical_entry(const PlanKey& key, const std::string& signature,
                            const TileConfig& t) {
  std::ostringstream os;
  os << "v" << TuneCache::kSchemaVersion << "|" << key.m << "|" << key.n
     << "|" << key.k << "|" << (key.cplx ? 1 : 0) << "|" << signature << "|"
     << t.block_m << "|" << t.block_n << "|" << t.block_k << "|" << t.warp_m
     << "|" << t.warp_n;
  return os.str();
}

template <typename T>
struct TuneProblem {
  Matrix<T> a, b, c0;

  explicit TuneProblem(const PlanKey& key, std::uint64_t seed)
      : a(key.m, key.k), b(key.k, key.n), c0(key.m, key.n) {
    Rng rng(seed);
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(c0, rng);
  }
};

template <typename T>
bool bits_equal(const Matrix<T>& x, const Matrix<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// Alternating rounds that settle the default against the finalist,
/// and the rounds the finalist must win to replace the default.
constexpr int kFinalRounds = 5;
constexpr int kFinalWins = 4;
static_assert(kFinalRounds == 5, "the default's spread is its 2nd to 4th");

/// The search body, shared by both dtypes. The reference result is the
/// default tile's output on the fixed operands; every candidate must
/// reproduce it bitwise to stay in the race. One pass scores every
/// survivor once and picks the fastest non-default one as finalist;
/// the finalist then races the default in alternating rounds, since a
/// single pass's scores drift with the host (a default timed first and
/// once read up to 1.9x its own re-measure at the end of the pass).
template <typename T>
AutotuneResult search(const core::M3xuConfig& engine_cfg, const PlanKey& key,
                      const AutotuneOptions& options) {
  AutotuneResult result;
  const TuneProblem<T> problem(key, options.seed);
  const int reps = std::max(1, options.reps);

  // Reference: the default tile's result (plans reuse B panels, so
  // repeat executes inside the timing loop exercise the cached-pack
  // path the production loop runs).
  PlanOptions plan_opts;
  Matrix<T> reference = problem.c0;
  GemmPlan::compile(engine_cfg, key, plan_opts)
      .execute(problem.a, problem.b, reference);

  Matrix<T> scratch(key.m, key.n);
  const auto reset_scratch = [&] {
    std::memcpy(scratch.data(), problem.c0.data(),
                scratch.size() * sizeof(T));
  };
  // One score: the measure hook, or the median of `reps` executes.
  const auto score = [&](const GemmPlan& plan) {
    if (options.measure) return options.measure(plan.tile());
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      reset_scratch();
      const telemetry::Stopwatch sw;
      plan.execute(problem.a, problem.b, scratch);
      times.push_back(sw.seconds());
    }
    return median(times);
  };

  std::optional<GemmPlan> default_plan;
  std::optional<GemmPlan> finalist;
  double finalist_seconds = 0.0;
  for (const TileConfig& tile : default_candidates(key, options.quick)) {
    plan_opts.tile = tile;
    GemmPlan plan = GemmPlan::compile(engine_cfg, key, plan_opts);
    // Bit-identity gate: one execute against the fixed operands,
    // compared bitwise to the default tile's result.
    reset_scratch();
    plan.execute(problem.a, problem.b, scratch);
    if (!bits_equal(scratch, reference)) {
      ++result.bit_mismatches;
      continue;
    }
    const double seconds = score(plan);
    ++result.candidates_tried;
    tune_candidates_ctr.increment();
    if (tile == TileConfig{}) {
      result.default_seconds = seconds;
      default_plan.emplace(std::move(plan));
    } else if (!finalist || seconds < finalist_seconds) {
      finalist_seconds = seconds;
      finalist.emplace(std::move(plan));
    }
  }
  result.best_seconds = result.default_seconds;
  if (default_plan && finalist) {
    // Alternate which plan goes first, so drift during the rounds
    // favors neither.
    std::vector<double> times[2];
    int finalist_wins = 0;
    for (int round = 0; round < kFinalRounds; ++round) {
      double t[2] = {};
      for (int slot = 0; slot < 2; ++slot) {
        const int which = (round + slot) % 2;
        t[which] = score(which == 0 ? *default_plan : *finalist);
        times[which].push_back(t[which]);
      }
      if (t[1] < t[0]) ++finalist_wins;
    }
    result.default_seconds = median(times[0]);
    result.best_seconds = result.default_seconds;
    // The default's own spread across the rounds (times[0] is sorted
    // now): a finalist must beat its median by more than that, or a
    // default that read slow through a transient loses its place.
    const double spread = times[0][3] - times[0][1];
    const double finalist_seconds_med = median(times[1]);
    if (finalist_wins >= kFinalWins &&
        result.default_seconds - finalist_seconds_med > spread) {
      result.best = finalist->tile();
      result.best_seconds = finalist_seconds_med;
    }
  }
  tune_search_ctr.increment();
  return result;
}

}  // namespace

std::string cpu_signature() {
  std::ostringstream os;
  os << telemetry::compiler_version() << "|" << cpu_model() << "|simd="
     << core::mk_variant_name(core::mk_variant_resolve(core::MkVariant::kAuto));
  return os.str();
}

std::vector<TileConfig> default_candidates(const PlanKey& key, bool quick) {
  std::vector<TileConfig> out;
  const auto push = [&](int bm, int bn, int bk, int wm, int wn) {
    const TileConfig tile{bm, bn, bk, wm, wn};
    if (std::find(out.begin(), out.end(), tile) == out.end()) {
      out.push_back(tile);
    }
  };
  // The default config leads: it is the baseline the speedup is
  // reported against and the fallback when nothing beats it.
  out.push_back(TileConfig{});
  if (quick) {
    push(64, 64, 32, 32, 32);
    push(64, 64, 16, 64, 32);
    push(32, 32, 32, 16, 16);
    return out;
  }
  for (const int bm : {32, 64, 128}) {
    for (const int bn : {32, 64, 128}) {
      // A block larger than the problem in both dimensions degenerates
      // to the same single-tile execution as a smaller cover.
      if (bm / 2 >= key.m && bn / 2 >= key.n) continue;
      for (const int bk : {16, 32, 64}) {
        for (const int wm : {bm, bm / 2}) {
          for (const int wn : {bn, bn / 2}) {
            push(bm, bn, bk, wm, wn);
          }
        }
      }
    }
  }
  return out;
}

TuneCache::TuneCache(std::string path) : path_(std::move(path)) {}

std::uint64_t TuneCache::entry_checksum(const PlanKey& key,
                                        const std::string& signature,
                                        const TileConfig& tile) {
  return fnv1a(canonical_entry(key, signature, tile));
}

bool TuneCache::load() {
  entries_.clear();
  rejected_ = 0;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<telemetry::JsonValue> doc =
      telemetry::JsonValue::parse(buf.str());
  if (!doc || !doc->is_object()) return false;
  const telemetry::JsonValue* version = doc->find("schema_version");
  if (version == nullptr || version->as_int(-1) != kSchemaVersion) {
    return false;
  }
  const telemetry::JsonValue* entries = doc->find("entries");
  if (entries == nullptr || !entries->is_array()) return false;

  for (std::size_t i = 0; i < entries->size(); ++i) {
    const telemetry::JsonValue& e = entries->at(i);
    const telemetry::JsonValue* tile_v = e.find("tile");
    if (!e.is_object() || tile_v == nullptr || !tile_v->is_object()) {
      ++rejected_;
      tune_cache_reject_ctr.increment();
      continue;
    }
    Entry entry;
    const auto field = [&e](const char* name) {
      const telemetry::JsonValue* v = e.find(name);
      return v != nullptr ? v->as_int(-1) : -1;
    };
    entry.key.m = static_cast<int>(field("m"));
    entry.key.n = static_cast<int>(field("n"));
    entry.key.k = static_cast<int>(field("k"));
    const telemetry::JsonValue* cplx = e.find("cplx");
    entry.key.cplx = cplx != nullptr && cplx->as_bool(false);
    const telemetry::JsonValue* sig = e.find("cpu");
    entry.signature = sig != nullptr ? sig->as_string() : "";
    const auto tile_field = [tile_v](const char* name) {
      const telemetry::JsonValue* v = tile_v->find(name);
      return v != nullptr ? static_cast<int>(v->as_int(-1)) : -1;
    };
    // Absent fields parse as -1 and fail valid() below, so a truncated
    // entry is rejected, not silently defaulted.
    entry.tile.block_m = tile_field("block_m");
    entry.tile.block_n = tile_field("block_n");
    entry.tile.block_k = tile_field("block_k");
    entry.tile.warp_m = tile_field("warp_m");
    entry.tile.warp_n = tile_field("warp_n");
    const telemetry::JsonValue* seconds = e.find("seconds");
    entry.seconds = seconds != nullptr ? seconds->as_double(0.0) : 0.0;
    const telemetry::JsonValue* checksum = e.find("checksum");
    std::uint64_t stored_checksum = 0;
    bool checksum_ok = false;
    if (checksum != nullptr && checksum->is_string()) {
      const std::string& text = checksum->as_string();
      char* end = nullptr;
      stored_checksum = std::strtoull(text.c_str(), &end, 10);
      checksum_ok = !text.empty() && end == text.c_str() + text.size();
    }

    // Reject: malformed identity, a tile the validator would refuse
    // (a checksum-valid entry with an invalid tile means the schema
    // evolved or the file was crafted - either way, unusable), or a
    // checksum mismatch (bit rot / hand edits).
    const bool well_formed = entry.key.m > 0 && entry.key.n > 0 &&
                             entry.key.k > 0 && !entry.signature.empty() &&
                             entry.tile.valid();
    const std::uint64_t expected =
        entry_checksum(entry.key, entry.signature, entry.tile);
    if (!well_formed || !checksum_ok || stored_checksum != expected) {
      ++rejected_;
      tune_cache_reject_ctr.increment();
      continue;
    }
    entries_.push_back(std::move(entry));
  }
  return true;
}

bool TuneCache::save() const {
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", kSchemaVersion);
  w.key("entries").begin_array();
  for (const Entry& e : entries_) {
    w.begin_object();
    w.kv("key", plan_key_label(e.key));
    w.kv("m", e.key.m);
    w.kv("n", e.key.n);
    w.kv("k", e.key.k);
    w.kv("cplx", e.key.cplx);
    w.kv("cpu", e.signature);
    w.key("tile").begin_object();
    w.kv("block_m", e.tile.block_m);
    w.kv("block_n", e.tile.block_n);
    w.kv("block_k", e.tile.block_k);
    w.kv("warp_m", e.tile.warp_m);
    w.kv("warp_n", e.tile.warp_n);
    w.end_object();
    w.key("seconds").value(e.seconds, 9);
    // As a string: JSON numbers round-trip through double in the
    // parser, which cannot represent a full 64-bit checksum exactly.
    w.kv("checksum",
         std::to_string(entry_checksum(e.key, e.signature, e.tile)));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

std::optional<TileConfig> TuneCache::lookup(
    const PlanKey& key, const std::string& signature) const {
  for (const Entry& e : entries_) {
    if (e.key == key && e.signature == signature) return e.tile;
  }
  return std::nullopt;
}

void TuneCache::store(const PlanKey& key, const std::string& signature,
                      const TileConfig& tile, double seconds) {
  for (Entry& e : entries_) {
    if (e.key == key && e.signature == signature) {
      e.tile = tile;
      e.seconds = seconds;
      return;
    }
  }
  entries_.push_back(Entry{key, signature, tile, seconds});
}

AutotuneResult autotune(const core::M3xuConfig& engine_cfg, const PlanKey& key,
                        const AutotuneOptions& options, TuneCache* cache) {
  const std::string signature = cpu_signature();
  if (cache != nullptr) {
    const std::optional<TileConfig> hit = cache->lookup(key, signature);
    // A cached tile is re-validated against today's constraints: a
    // cache written by an older build whose constraints differ must
    // never hand the driver an invalid tile.
    if (hit.has_value() && tile_ok(*hit, key)) {
      tune_cache_hit_ctr.increment();
      AutotuneResult result;
      result.best = *hit;
      result.from_cache = true;
      return result;
    }
  }
  AutotuneResult result =
      key.cplx ? search<std::complex<float>>(engine_cfg, key, options)
               : search<float>(engine_cfg, key, options);
  if (cache != nullptr && result.bit_mismatches == 0) {
    cache->store(key, signature, result.best, result.best_seconds);
    cache->save();
  }
  return result;
}

}  // namespace m3xu::gemm
