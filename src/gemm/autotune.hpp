// Autotuner for the compile-then-execute plan layer.
//
// Tile/block/chunk shapes are a real throughput lever (cache blocking,
// pack granularity, per-tile parallel slack), but the best choice
// depends on the problem shape and the host - exactly what a static
// default cannot know. autotune() searches a candidate TileConfig set
// for one (shape, dtype) problem, gates every candidate on
// bit-identity against the default-config result (the tile hierarchy
// must never change results - a mismatch is a driver bug, not a
// tuning preference), and scores the survivors once. The fastest
// non-default survivor then races the default in alternating rounds
// and replaces it only when it wins at least 4 of 5: one pass's scores
// drift too much with the host to pick a winner alone.
//
// Tuned tiles persist across processes in a versioned JSON cache
// (TuneCache) keyed by (problem shape, dtype, cpu signature). Load
// validates schema version and a per-entry checksum and silently drops
// anything corrupt, stale, or invalid - a damaged cache file costs a
// re-tune, never a wrong config. Bumping kSchemaVersion drops every
// older file wholesale on load (the documented migration: old entries
// are simply re-tuned under the new schema). See docs/PLAN.md.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/mxu.hpp"
#include "gemm/plan.hpp"

namespace m3xu::gemm {

/// Host identity a tuned config is considered valid for: compiler,
/// CPU model, and which microkernel SIMD variant dispatch resolves to.
/// A cache entry recorded under a different signature is ignored
/// (tuned block sizes do not transfer across hosts or builds, and a
/// config tuned for one SIMD width may be wrong for another).
std::string cpu_signature();

/// The candidate tile set autotune() searches: the default TileConfig
/// first (it is the baseline every candidate is gated against), then
/// block/warp/chunk combinations trimmed to shapes that are not
/// degenerate for the problem (a block larger than the whole matrix in
/// both dimensions duplicates an existing candidate's behavior). Every
/// candidate is TileConfig::valid() with block_k a multiple of the FP32
/// and FP32C instruction K, so the search validates none. `quick` trims
/// to a handful of candidates for CI smoke runs.
std::vector<TileConfig> default_candidates(const PlanKey& key, bool quick);

struct AutotuneOptions {
  /// Timed executes per score; the median is the score. The pass
  /// scores each candidate once, the final rounds the default and the
  /// finalist once per round. 1 is fine for CI smoke; benchmarks use
  /// more.
  int reps = 3;
  /// Trimmed candidate set (CI smoke).
  bool quick = false;
  /// Measurement hook: one score in seconds, lower is better.
  /// Tests inject a deterministic synthetic cost here; the default
  /// (unset) measures wall-clock plan.execute() with a Stopwatch.
  std::function<double(const TileConfig&)> measure;
  /// Seed for the deterministic operands the bit-identity gate and the
  /// default measurement run against.
  std::uint64_t seed = 0x74756e65;  // "tune"
};

struct AutotuneResult {
  TileConfig best;
  /// Median score of `best` over the final rounds - the default's when
  /// it kept its place (0 when served from cache).
  double best_seconds = 0.0;
  /// Median score of the default TileConfig over the final rounds (its
  /// pass score when no other candidate survived), for speedup
  /// reporting.
  double default_seconds = 0.0;
  int candidates_tried = 0;  // measured candidates (bit-gate survivors)
  /// Candidates whose result differed bitwise from the default-config
  /// result. Always 0 unless the driver is broken; benches fail on it.
  int bit_mismatches = 0;
  /// True when the result came from a TuneCache hit (no search ran).
  bool from_cache = false;
};

/// Versioned on-disk store of tuned tiles, keyed by (problem shape,
/// dtype, cpu signature). One JSON document per path; load() drops
/// invalid entries, save() rewrites the whole document.
class TuneCache {
 public:
  /// v4 entries and checksums carry the tile alone; v2 and v3 also
  /// carried a register-block shape and thread count, which the search
  /// no longer tunes. An older file fails the version check on load and
  /// is dropped wholesale: those problems re-tune once and the next
  /// save() rewrites the file at the current version.
  static constexpr int kSchemaVersion = 4;

  explicit TuneCache(std::string path);

  /// Reads and validates the cache file. Returns false when the file
  /// is missing or the document is unusable (unparseable, wrong
  /// schema version) - the cache is simply empty then. Individual
  /// entries failing their checksum or carrying an invalid tile are
  /// dropped and counted in rejected().
  bool load();

  /// Rewrites the cache file. Returns false on I/O failure.
  bool save() const;

  /// The tuned tile recorded for (key, signature), if any.
  std::optional<TileConfig> lookup(const PlanKey& key,
                                   const std::string& signature) const;

  /// Records (overwrites) the tuned tile for (key, signature).
  void store(const PlanKey& key, const std::string& signature,
             const TileConfig& tile, double seconds);

  std::size_t size() const { return entries_.size(); }
  /// Entries dropped by the last load() (corrupt checksum, invalid
  /// tile, malformed fields).
  std::size_t rejected() const { return rejected_; }
  const std::string& path() const { return path_; }

  /// The integrity checksum an entry must carry (FNV-1a over the
  /// canonical identity+tile string). Exposed so tests can craft
  /// fixture files with valid and deliberately broken checksums.
  static std::uint64_t entry_checksum(const PlanKey& key,
                                      const std::string& signature,
                                      const TileConfig& tile);

 private:
  struct Entry {
    PlanKey key;
    std::string signature;
    TileConfig tile;
    double seconds = 0.0;
  };

  std::string path_;
  std::vector<Entry> entries_;
  std::size_t rejected_ = 0;
};

/// Searches for the fastest bit-identical TileConfig for `key` on
/// engines built from `engine_cfg`. With a cache, a valid hit for
/// (key, cpu_signature()) short-circuits the search (from_cache), and
/// a completed search is stored back and saved.
AutotuneResult autotune(const core::M3xuConfig& engine_cfg, const PlanKey& key,
                        const AutotuneOptions& options = {},
                        TuneCache* cache = nullptr);

}  // namespace m3xu::gemm
