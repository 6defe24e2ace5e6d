// FMEA campaign (paper Section 7): inject every external fault class into
// the running system, record which detector fires, whether the safety
// reaction engaged, and compare against the expected detection channel.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/campaign.h"
#include "system/oscillator_system.h"
#include "tank/tank_faults.h"

namespace lcosc::system {

struct FmeaRow {
  tank::TankFault fault{};
  tank::DetectionChannel expected{};
  safety::FaultFlags observed{};
  bool detected = false;        // any detector fired
  bool expected_channel_hit = false;
  bool safe_state_entered = false;
  // Fault injection -> first flagged tick; nullopt if never flagged.
  std::optional<double> detection_latency;
  int final_code = 0;
  // Per-case outcome: a throwing or over-budget simulation yields a
  // SimulationError / Timeout row instead of aborting the campaign.
  CampaignCase status{};
};

struct FmeaReport {
  std::vector<FmeaRow> rows;
  [[nodiscard]] std::size_t detected_count() const;
  [[nodiscard]] std::size_t expected_channel_count() const;
  [[nodiscard]] bool all_detected() const;
};

struct FmeaCampaignConfig {
  OscillatorSystemConfig system{};
  // Let the oscillator settle before injecting the fault.
  double settle_time = 6e-3;
  // Observation window after the fault.
  double observe_time = 10e-3;
  tank::FaultSeverity severity{};
  // Worker threads for the per-fault sweep: 0 = default_worker_count(),
  // 1 = serial.  The report is identical for any value.
  std::size_t workers = 0;
  // Bounded retry: a ConvergenceError case is re-run this many times with
  // tightened solver options (doubled steps_per_period) before the row is
  // recorded as SimulationError.
  int max_retries = 1;
  // Exponential backoff between those re-runs; disabled by default, which
  // keeps the retry policy (and report bytes) identical to no-backoff.
  RetryBackoff retry_backoff{};
  // Per-case integration step budget; 0 = auto (4x the nominal step count
  // of the run, so a tightened retry still fits).
  std::size_t step_budget = 0;
};

// Run the campaign over all fault classes (excluding TankFault::None,
// which is run once as a control and must stay fault-free).  The cases
// share one healthy settle prefix (system/fault_sweep.h); the report is
// identical to running every case through run_fmea_case.
[[nodiscard]] FmeaReport run_fmea_campaign(const FmeaCampaignConfig& config);

// Run one fault scenario from t = 0: the per-case reference path.
[[nodiscard]] FmeaRow run_fmea_case(const FmeaCampaignConfig& config, tank::TankFault fault);

// All injectable fault classes (paper Section 7 list).
[[nodiscard]] std::vector<tank::TankFault> fmea_fault_list();

// Case-index view for the sharded campaign service (common/campaign.h):
// case i is fmea_fault_list()[i], so the enumeration order -- and with it
// every checkpointed record -- is a pure function of the index.
[[nodiscard]] std::size_t fmea_case_count();
[[nodiscard]] FmeaRow run_fmea_case_at(const FmeaCampaignConfig& config, std::size_t index);

// Contiguous case span [first, first + count), serially on one shared
// settle prefix; row i equals run_fmea_case_at(config, first + i).
[[nodiscard]] std::vector<FmeaRow> run_fmea_cases(const FmeaCampaignConfig& config,
                                                  std::size_t first, std::size_t count);

}  // namespace lcosc::system
