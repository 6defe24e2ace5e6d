// Internal (on-chip) FMEA campaign: inject every single-point fault of
// the internal taxonomy (src/faults/internal_fault.h) into the running
// system and measure which detection channel actually fires.  The report
// aggregates a fault-kind x detection-channel coverage matrix, the
// diagnostic coverage percentage and the explicit list of uncovered gaps
// (faults no modeled channel observes -- the honest part of the paper's
// safety argument).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "faults/internal_fault.h"
#include "system/oscillator_system.h"

namespace lcosc::system {

struct InternalFmeaRow {
  faults::InternalFault fault{};
  faults::DetectionChannel expected{};
  safety::FaultFlags observed{};
  bool detected = false;        // any detector latched
  bool expected_channel_hit = false;
  bool safe_state_entered = false;
  // Fault injection -> first flagged tick; nullopt if never flagged.
  std::optional<double> detection_latency;
  int final_code = 0;
  // Per-case outcome: a throwing or over-budget case yields a
  // SimulationError / Timeout row instead of aborting the campaign.
  CampaignCase status{};

  // Channel that actually latched (priority: missing oscillation, low
  // amplitude, asymmetry, frequency); None when undetected.
  [[nodiscard]] faults::DetectionChannel observed_channel() const;
};

// One coverage-matrix row: cases of one fault kind, bucketed by the
// detection channel that latched (the None bucket holds the undetected
// cases -- the gaps).
struct CoverageEntry {
  faults::InternalFaultKind kind{};
  // Indexed by faults::DetectionChannel (None..FrequencyOutOfBand).
  std::array<std::size_t, 5> by_channel{};
  std::size_t errors = 0;  // SimulationError / Timeout cases
  std::size_t total = 0;
};

struct InternalFmeaReport {
  std::vector<InternalFmeaRow> rows;

  [[nodiscard]] std::size_t detected_count() const;
  [[nodiscard]] std::size_t completed_count() const;  // Ok or Undetected
  [[nodiscard]] std::size_t error_count() const;      // SimulationError/Timeout
  // Detected fraction of the completed cases, in [0,1].
  [[nodiscard]] double diagnostic_coverage() const;
  // Fault-kind x detection-channel matrix over all rows, one entry per
  // distinct kind in campaign order.
  [[nodiscard]] std::vector<CoverageEntry> coverage_matrix() const;
  // Labels of completed-but-undetected faults with their gap notes.
  [[nodiscard]] std::vector<std::string> uncovered_gaps() const;
};

struct InternalFmeaConfig {
  OscillatorSystemConfig system{};
  // Let the oscillator settle before injecting the fault.
  double settle_time = 6e-3;
  // Observation window after the fault.  The slowest expected detection
  // (window comparator stuck high) walks the code down ~1 LSB/ms and then
  // needs the 3 ms low-amplitude persistence, so the default leaves room.
  double observe_time = 25e-3;
  // Faults to inject; empty = faults::internal_fault_list().
  std::vector<faults::InternalFault> faults;
  // Worker threads: 0 = default_worker_count(), 1 = serial.  The report
  // is identical for any value.
  std::size_t workers = 0;
  // Bounded retry for ConvergenceError cases (tightened integrator).
  int max_retries = 1;
  // Exponential backoff between those re-runs; disabled by default, which
  // keeps the retry policy (and report bytes) identical to no-backoff.
  RetryBackoff retry_backoff{};
  // Per-case integration step budget; 0 = auto (4x nominal step count).
  std::size_t step_budget = 0;
};

// All cases on config.workers threads, sharing one healthy settle prefix
// (system/fault_sweep.h); identical to running each through
// run_internal_fmea_case.
[[nodiscard]] InternalFmeaReport run_internal_fmea_campaign(const InternalFmeaConfig& config);

// One fault from t = 0: the per-case reference path.
[[nodiscard]] InternalFmeaRow run_internal_fmea_case(const InternalFmeaConfig& config,
                                                     const faults::InternalFault& fault);

// Case-index view for the sharded campaign service (common/campaign.h):
// the effective fault list (config.faults, or the standard taxonomy list
// when empty) indexed in campaign order.
[[nodiscard]] std::vector<faults::InternalFault> internal_fmea_case_list(
    const InternalFmeaConfig& config);
[[nodiscard]] InternalFmeaRow run_internal_fmea_case_at(const InternalFmeaConfig& config,
                                                        std::size_t index);

// Contiguous case span [first, first + count), serially on one shared
// settle prefix: each fault runs on a copy of the paused session
// (per-copy FaultBus, no re-simulated startup).  A case whose
// continuation throws (self-test faults, budget/stall, divergence) falls
// back to the full serial run_internal_fmea_case, so every row --
// status, retries, error message -- is byte-identical to per-case
// execution.
[[nodiscard]] std::vector<InternalFmeaRow> run_internal_fmea_cases(
    const InternalFmeaConfig& config, std::size_t first, std::size_t count);

}  // namespace lcosc::system
