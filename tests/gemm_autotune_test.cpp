// Tests for the persistent autotuner: deterministic search under a
// synthetic cost model, TuneCache round-trips through the JSON file,
// and rejection of corrupt, tampered, version-mismatched, or invalid
// cache content (a damaged cache must cost a re-tune, never a wrong
// or unvalidated tile config).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/mxu.hpp"
#include "gemm/autotune.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::gemm {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Synthetic cost: prefers one specific candidate, deterministic across
/// runs, so search outcomes do not depend on wall-clock noise.
double synthetic_cost(const TileConfig& t) {
  return (t.block_m == 32 && t.block_n == 32) ? 1.0 : 2.0;
}

TEST(CpuSignature, NonEmptyAndStable) {
  const std::string sig = cpu_signature();
  EXPECT_FALSE(sig.empty());
  EXPECT_EQ(sig, cpu_signature());
}

TEST(DefaultCandidates, StartWithDefaultAndAllValid) {
  // The search runs every candidate straight into plan compile, so the
  // generator alone guarantees what compile validates: a valid tile
  // whose block_k is a multiple of the mode's instruction K. Shapes:
  // the perfbench workloads (512^3 and 32x128x128 FP32, 228x228x96
  // FP32C) and bench_autotune's full and quick defaults.
  const PlanKey keys[] = {{512, 512, 512, false}, {32, 128, 128, false},
                          {228, 228, 96, true},   {256, 256, 256, false},
                          {128, 128, 128, true},  {96, 96, 96, false},
                          {48, 48, 48, true}};
  for (const PlanKey& key : keys) {
    SCOPED_TRACE(plan_key_label(key));
    const int inst_k =
        core::shape_for(key.cplx ? core::MxuMode::kFp32Complex
                                 : core::MxuMode::kFp32)
            .k;
    for (const bool quick : {false, true}) {
      const std::vector<TileConfig> cands = default_candidates(key, quick);
      ASSERT_FALSE(cands.empty());
      EXPECT_EQ(cands.front(), TileConfig{});
      for (const TileConfig& tile : cands) {
        EXPECT_TRUE(tile.valid());
        EXPECT_EQ(tile.block_k % inst_k, 0) << tile.block_k;
      }
    }
    EXPECT_LT(default_candidates(key, true).size(),
              default_candidates(key, false).size());
  }
}

TEST(Autotune, DeterministicUnderFixedSeedAndCostModel) {
  const PlanKey key{64, 64, 64, false};
  AutotuneOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.measure = &synthetic_cost;

  const AutotuneResult first = autotune(core::M3xuConfig{}, key, opts);
  const AutotuneResult second = autotune(core::M3xuConfig{}, key, opts);
  EXPECT_EQ(first.best, second.best);
  EXPECT_EQ(first.candidates_tried, second.candidates_tried);
  EXPECT_EQ(first.bit_mismatches, 0);
  EXPECT_EQ(second.bit_mismatches, 0);
  // The synthetic cost singles out the 32x32 block candidate.
  EXPECT_EQ(first.best.block_m, 32);
  EXPECT_EQ(first.best.block_n, 32);
}

TEST(Autotune, EveryQuickCandidateIsBitIdentical) {
  // The gate itself: no candidate in the default quick set may change
  // result bits for either dtype.
  AutotuneOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.measure = &synthetic_cost;
  const AutotuneResult sg = autotune(core::M3xuConfig{}, {96, 80, 96, false},
                                     opts);
  EXPECT_EQ(sg.bit_mismatches, 0);
  EXPECT_GT(sg.candidates_tried, 0);
  const AutotuneResult cg = autotune(core::M3xuConfig{}, {48, 48, 48, true},
                                     opts);
  EXPECT_EQ(cg.bit_mismatches, 0);
  EXPECT_GT(cg.candidates_tried, 0);
}

TEST(TuneCache, RoundTripsThroughTheFile) {
  const std::string path = temp_path("tune_roundtrip.json");
  const PlanKey key{96, 96, 96, false};
  const TileConfig tuned{32, 32, 32, 16, 16};

  TuneCache writer(path);
  writer.store(key, cpu_signature(), tuned, 0.5);
  ASSERT_TRUE(writer.save());

  TuneCache reader(path);
  ASSERT_TRUE(reader.load());
  EXPECT_EQ(reader.size(), 1u);
  EXPECT_EQ(reader.rejected(), 0u);
  const std::optional<TileConfig> hit = reader.lookup(key, cpu_signature());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, tuned);
  // Different shape or signature: no hit.
  EXPECT_FALSE(reader.lookup({96, 96, 97, false}, cpu_signature()));
  EXPECT_FALSE(reader.lookup(key, "other-host"));
}

TEST(TuneCache, SecondAutotuneIsServedFromCache) {
  const std::string path = temp_path("tune_hit.json");
  const PlanKey key{64, 64, 64, false};
  AutotuneOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.measure = &synthetic_cost;

  TuneCache cache(path);
  const AutotuneResult tuned = autotune(core::M3xuConfig{}, key, opts, &cache);
  EXPECT_FALSE(tuned.from_cache);

  TuneCache fresh(path);
  ASSERT_TRUE(fresh.load());
  const AutotuneResult reloaded =
      autotune(core::M3xuConfig{}, key, opts, &fresh);
  EXPECT_TRUE(reloaded.from_cache);
  EXPECT_EQ(reloaded.best, tuned.best);
}

TEST(TuneCache, GarbageFileLoadsEmptyAndRetunes) {
  const std::string path = temp_path("tune_garbage.json");
  write_file(path, "this is not json {{{");

  TuneCache cache(path);
  EXPECT_FALSE(cache.load());
  EXPECT_EQ(cache.size(), 0u);

  // A corrupt cache must not block tuning; the re-tune overwrites it.
  AutotuneOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.measure = &synthetic_cost;
  const AutotuneResult result =
      autotune(core::M3xuConfig{}, {64, 64, 64, false}, opts, &cache);
  EXPECT_FALSE(result.from_cache);
  EXPECT_EQ(cache.size(), 1u);

  TuneCache rewritten(path);
  EXPECT_TRUE(rewritten.load());
  EXPECT_EQ(rewritten.size(), 1u);
}

TEST(TuneCache, SchemaVersionMismatchIsRejectedWhole) {
  // 3 is the last schema whose entries carried a register-block shape
  // and thread count; such files migrate by re-tuning, like any other.
  for (const int version : {3, 999}) {
    SCOPED_TRACE(version);
    const std::string path = temp_path("tune_schema.json");
    const PlanKey key{96, 96, 96, false};
    TuneCache writer(path);
    writer.store(key, cpu_signature(), TileConfig{}, 0.5);
    ASSERT_TRUE(writer.save());

    std::string text = read_file(path);
    const std::string want =
        "\"schema_version\": " + std::to_string(TuneCache::kSchemaVersion);
    const std::size_t pos = text.find(want);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, want.size(),
                 "\"schema_version\": " + std::to_string(version));
    write_file(path, text);

    TuneCache reader(path);
    EXPECT_FALSE(reader.load());
    EXPECT_EQ(reader.size(), 0u);
  }
}

TEST(TuneCache, TamperedTileFailsItsChecksum) {
  const std::string path = temp_path("tune_tamper.json");
  const PlanKey key{96, 96, 96, false};
  const TileConfig tuned{64, 64, 32, 32, 32};
  TuneCache writer(path);
  writer.store(key, cpu_signature(), tuned, 0.5);
  ASSERT_TRUE(writer.save());

  // Flip block_m in the serialized entry without updating the checksum.
  std::string text = read_file(path);
  const std::string want = "\"block_m\": 64";
  const std::size_t pos = text.find(want);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, want.size(), "\"block_m\": 128");
  write_file(path, text);

  TuneCache reader(path);
  EXPECT_TRUE(reader.load());  // document itself is fine
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.rejected(), 1u);
  EXPECT_FALSE(reader.lookup(key, cpu_signature()));
}

TEST(TuneCache, InvalidTileIsRejectedEvenWithValidChecksum) {
  // An attacker-free failure mode: an entry written by a buggy tool
  // could carry a checksum that matches an unusable tile. The validator
  // must still reject it - the checksum proves integrity, not validity.
  const std::string path = temp_path("tune_invalid_tile.json");
  const PlanKey key{64, 64, 64, false};
  TileConfig bad{};
  bad.block_m = 0;
  const std::uint64_t sum =
      TuneCache::entry_checksum(key, cpu_signature(), bad);

  std::ostringstream doc;
  doc << "{\n  \"schema_version\": " << TuneCache::kSchemaVersion
      << ",\n  \"entries\": [\n    {\n"
      << "      \"key\": \"sgemm.64x64x64\",\n"
      << "      \"m\": 64,\n      \"n\": 64,\n      \"k\": 64,\n"
      << "      \"cplx\": false,\n"
      << "      \"cpu\": \"" << cpu_signature() << "\",\n"
      << "      \"tile\": {\n"
      << "        \"block_m\": " << bad.block_m << ",\n"
      << "        \"block_n\": " << bad.block_n << ",\n"
      << "        \"block_k\": " << bad.block_k << ",\n"
      << "        \"warp_m\": " << bad.warp_m << ",\n"
      << "        \"warp_n\": " << bad.warp_n << "\n      },\n"
      << "      \"seconds\": 0.5,\n"
      << "      \"checksum\": \"" << sum << "\"\n    }\n  ]\n}\n";
  write_file(path, doc.str());

  TuneCache reader(path);
  EXPECT_TRUE(reader.load());
  EXPECT_EQ(reader.size(), 0u);
  EXPECT_EQ(reader.rejected(), 1u);
}

TEST(TuneCache, NumericChecksumIsRejected) {
  // Checksums are serialized as strings because the JSON number path
  // goes through double and loses bits above 2^53. An entry carrying a
  // numeric checksum is from a foreign writer; drop it.
  const std::string path = temp_path("tune_numeric_checksum.json");
  const PlanKey key{96, 96, 96, false};
  TuneCache writer(path);
  writer.store(key, cpu_signature(), TileConfig{}, 0.5);
  ASSERT_TRUE(writer.save());

  std::string text = read_file(path);
  const std::size_t open = text.find("\"checksum\": \"");
  ASSERT_NE(open, std::string::npos);
  const std::size_t quote = open + std::string("\"checksum\": ").size();
  const std::size_t close = text.find('"', quote + 1);
  ASSERT_NE(close, std::string::npos);
  text.erase(close, 1);
  text.erase(quote, 1);
  write_file(path, text);

  TuneCache reader(path);
  EXPECT_TRUE(reader.load());
  EXPECT_EQ(reader.rejected(), 1u);
}

}  // namespace
}  // namespace m3xu::gemm
