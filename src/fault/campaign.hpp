// Fault-injection campaign runner: sweeps (site, rate) cells over the
// ABFT-guarded tiled SGEMM driver and reports, per cell, how many
// trials were perturbed, how many carried a guaranteed-detectable
// corruption, how many the guard detected / corrected, and how many
// escaped as silent data corruption (SDC).
//
// Each trial runs the same fault sequence twice - the injector's
// decisions are a pure function of (seed, site, opportunity index), so
// a fresh injector with the trial seed replays identical flips:
//   1. unguarded, to classify the raw damage against a fault-free
//      reference (element deviation > 2x the ABFT column tolerance is
//      guaranteed-detectable; below it, the flip hides inside legit
//      rounding and is benign by construction);
//   2. guarded, to measure what the ABFT checksums actually catch and
//      what the clean-recompute protocol (RecoveryPolicy::demote =
//      false) repairs.
// Both runs go through GemmPlans on a 1-thread pool with a
// single-tile geometry, so the plan keeps one uniform tile and the
// injector call order stays bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "gemm/tiled_driver.hpp"

namespace m3xu::fault {

struct CampaignConfig {
  // Problem geometry. Must fit one threadblock tile (m <= tile.block_m
  // and n <= tile.block_n) so fault replay is deterministic.
  int m = 48;
  int n = 48;
  int k = 96;
  gemm::TileConfig tile{48, 48, 32, 16, 16};
  /// Trials per (site, rate) cell; each trial draws fresh input data
  /// and a fresh injector seed from `seed`.
  int trials = 32;
  std::uint64_t seed = 0x5eedf00dull;
  /// Sites swept one at a time (isolates per-site coverage).
  std::vector<Site> sites = {Site::kOperandA, Site::kOperandB,
                             Site::kPartialProduct, Site::kAccumulator};
  /// Per-opportunity flip rates swept per site.
  std::vector<double> rates = {1e-5, 1e-4, 1e-3};
  gemm::AbftConfig abft{true, 1.0, 2};
};

/// Outcome counts for one (site, rate) cell of the sweep.
struct CampaignCell {
  Site site = Site::kOperandA;
  double rate = 0.0;
  int trials = 0;
  long faults_injected = 0;  // total bit flips across the cell's trials
  int faulted = 0;      // trials with >= 1 injected flip
  int perturbed = 0;    // trials whose unguarded output differs bitwise
  int corrupting = 0;   // trials with a guaranteed-detectable deviation
                        // (some element > 2x the ABFT column tolerance)
  int detected = 0;     // trials where the guard's checksum tripped
  int corrected = 0;    // detected trials whose recompute restored the
                        // fault-free reference bitwise
  int escaped_sdc = 0;  // corrupting trials the guard did not detect
  int abft_failures = 0;  // trials ending in AbftFailure (retries spent)

  /// Detected fraction of guaranteed-detectable corruptions (1.0 when
  /// the cell produced none).
  double detection_rate() const;
  /// Repaired fraction of detected trials (1.0 when none tripped).
  double correction_rate() const;
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<CampaignCell> cells;

  /// Aggregates over all cells.
  long total_faults() const;
  int total_corrupting() const;
  int total_escaped_sdc() const;
  double overall_detection_rate() const;
};

/// Runs the full (site x rate) sweep.
CampaignResult run_campaign(const CampaignConfig& config);

/// Serializes the result as a JSON document (the SDC-coverage table
/// bench_fault_campaign emits).
std::string to_json(const CampaignResult& result);

}  // namespace m3xu::fault
