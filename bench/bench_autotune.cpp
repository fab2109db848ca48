// Autotuner benchmark: searches the TileConfig candidate space for the
// sgemm and cgemm problem shapes, reports tuned-vs-default speedup,
// and exercises the persistent tuned-config cache end to end - the
// search result is stored to --cache, reloaded through a fresh
// TuneCache, and the reloaded config is verified to reproduce the
// default-config result bitwise. Exits nonzero when any candidate (or
// the reloaded config) breaks bit-identity: tile shapes are a
// performance knob, never a results knob.
//
// Flags: --m/--n/--k sgemm shape (default 256^3), --cm/--cn/--ck cgemm
// shape (default 128^3), --reps timed executes per candidate (median),
// --quick trimmed candidate set + 96^3/48^3 shapes (CI smoke),
// --seed operand seed, --cache=path tuned-config cache file (default
// TUNE_gemm.json), --out=path report JSON (default BENCH_autotune.json),
// --json-only to suppress the table.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/mxu.hpp"
#include "gemm/autotune.hpp"
#include "gemm/matrix.hpp"
#include "gemm/plan.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/stopwatch.hpp"

using namespace m3xu;

namespace {

struct TunedCase {
  gemm::PlanKey key;
  gemm::AutotuneResult result;
  double speedup = 0.0;     // default_seconds / best_seconds (>= 1 means win)
  bool reloaded_ok = false; // cache round-trip returned the same tile
  bool reloaded_bits_ok = false;  // reloaded tile reproduces the bits
};

/// Executes the `tuned` tile and the default tile on identical
/// deterministic operands and compares the results bitwise.
template <typename T>
bool reproduces_default_bits(const gemm::PlanKey& key,
                             const gemm::TileConfig& tuned,
                             std::uint64_t seed) {
  gemm::Matrix<T> a(key.m, key.k), b(key.k, key.n), c0(key.m, key.n);
  Rng rng(seed);
  gemm::fill_random(a, rng);
  gemm::fill_random(b, rng);
  gemm::fill_random(c0, rng);

  const gemm::GemmPlan ref_plan =
      gemm::GemmPlan::compile(core::M3xuConfig{}, key);
  gemm::Matrix<T> c_ref = c0;
  ref_plan.execute(a, b, c_ref);

  gemm::PlanOptions tuned_opts;
  tuned_opts.tile = tuned;
  const gemm::GemmPlan tuned_plan =
      gemm::GemmPlan::compile(core::M3xuConfig{}, key, tuned_opts);
  gemm::Matrix<T> c_tuned = c0;
  tuned_plan.execute(a, b, c_tuned);

  return std::memcmp(c_ref.data(), c_tuned.data(),
                     c_ref.size() * sizeof(T)) == 0;
}

TunedCase tune_one(const gemm::PlanKey& key, const gemm::AutotuneOptions& opts,
                   const std::string& cache_path) {
  TunedCase out;
  out.key = key;

  gemm::TuneCache cache(cache_path);
  cache.load();
  out.result = gemm::autotune(core::M3xuConfig{}, key, opts, &cache);
  out.speedup = out.result.best_seconds > 0.0
                    ? out.result.default_seconds / out.result.best_seconds
                    : 0.0;

  // Cache round trip: a fresh TuneCache over the same file must serve
  // the stored tile (from_cache), and that tile must reproduce the
  // default tile's result bitwise.
  gemm::TuneCache reloaded(cache_path);
  reloaded.load();
  const gemm::AutotuneResult again =
      gemm::autotune(core::M3xuConfig{}, key, opts, &reloaded);
  out.reloaded_ok = again.from_cache && again.best == out.result.best;
  out.reloaded_bits_ok =
      key.cplx ? reproduces_default_bits<std::complex<float>>(key, again.best,
                                                              opts.seed)
               : reproduces_default_bits<float>(key, again.best, opts.seed);
  return out;
}

void write_case(telemetry::JsonWriter& w, const TunedCase& c) {
  w.begin_object();
  w.kv("key", gemm::plan_key_label(c.key));
  w.key("tile").begin_object();
  w.kv("block_m", c.result.best.block_m);
  w.kv("block_n", c.result.best.block_n);
  w.kv("block_k", c.result.best.block_k);
  w.kv("warp_m", c.result.best.warp_m);
  w.kv("warp_n", c.result.best.warp_n);
  w.end_object();
  w.key("best_seconds").value(c.result.best_seconds, 6);
  w.key("default_seconds").value(c.result.default_seconds, 6);
  w.key("tuned_vs_default_speedup").value(c.speedup, 4);
  w.kv("candidates_tried", c.result.candidates_tried);
  w.kv("bit_mismatches", c.result.bit_mismatches);
  w.kv("from_cache", c.result.from_cache);
  w.kv("cache_reload_ok", c.reloaded_ok);
  w.kv("cache_reload_bit_identical", c.reloaded_bits_ok);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const int m = static_cast<int>(cli.get_int("m", quick ? 96 : 256));
  const int n = static_cast<int>(cli.get_int("n", quick ? 96 : 256));
  const int k = static_cast<int>(cli.get_int("k", quick ? 96 : 256));
  const int cm = static_cast<int>(cli.get_int("cm", quick ? 48 : 128));
  const int cn = static_cast<int>(cli.get_int("cn", quick ? 48 : 128));
  const int ck = static_cast<int>(cli.get_int("ck", quick ? 48 : 128));
  const std::string cache_path = cli.get("cache", "TUNE_gemm.json");
  const std::string out = cli.get("out", "BENCH_autotune.json");

  gemm::AutotuneOptions opts;
  opts.quick = quick;
  opts.reps = static_cast<int>(cli.get_int("reps", quick ? 1 : 3));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 12345));

  const telemetry::Stopwatch total_sw;
  const std::vector<TunedCase> tuned = {
      tune_one(gemm::PlanKey{m, n, k, false}, opts, cache_path),
      tune_one(gemm::PlanKey{cm, cn, ck, true}, opts, cache_path),
  };
  const double total_seconds = total_sw.seconds();

  bool ok = true;
  for (const TunedCase& c : tuned) {
    ok = ok && c.result.bit_mismatches == 0 && c.reloaded_ok &&
         c.reloaded_bits_ok;
  }

  if (!cli.get_bool("json-only", false)) {
    std::printf("== GemmPlan autotune (%s candidates) ==\n",
                quick ? "quick" : "full");
    std::printf("%-18s %-22s %9s %9s %8s %6s %6s\n", "key", "tile",
                "default_s", "tuned_s", "speedup", "cache", "bits");
    for (const TunedCase& c : tuned) {
      char tile[64];
      std::snprintf(tile, sizeof(tile), "%dx%dx%d/%dx%d",
                    c.result.best.block_m, c.result.best.block_n,
                    c.result.best.block_k, c.result.best.warp_m,
                    c.result.best.warp_n);
      std::printf("%-18s %-22s %9.4f %9.4f %7.2fx %6s %6s\n",
                  gemm::plan_key_label(c.key).c_str(), tile,
                  c.result.default_seconds, c.result.best_seconds, c.speedup,
                  c.reloaded_ok ? "ok" : "FAIL",
                  c.reloaded_bits_ok && c.result.bit_mismatches == 0
                      ? "ok"
                      : "FAIL");
    }
    std::printf("\ncache: %s   total: %.2fs   %s\n\n", cache_path.c_str(),
                total_seconds, ok ? "all checks passed" : "CHECKS FAILED");
  }

  const telemetry::Environment env = telemetry::collect_environment();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "gemm_autotune");
  w.kv("quick", quick);
  w.kv("reps", opts.reps);
  w.kv("seed", opts.seed);
  w.kv("cache_file", cache_path);
  w.kv("tune_cache_schema_version", gemm::TuneCache::kSchemaVersion);
  w.kv("cpu_signature", gemm::cpu_signature());
  w.key("environment").begin_object();
  w.kv("compiler", env.compiler);
  w.kv("git_rev", env.git_rev);
  w.kv("git_dirty", env.git_dirty);
  w.end_object();
  w.key("cases").begin_array();
  for (const TunedCase& c : tuned) write_case(w, c);
  w.end_array();
  w.key("total_seconds").value(total_seconds, 4);
  w.kv("ok", ok);
  w.end_object();
  const std::string json = w.str() + "\n";

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_autotune: cannot write %s\n", out.c_str());
    return 2;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  return ok ? 0 : 1;
}
