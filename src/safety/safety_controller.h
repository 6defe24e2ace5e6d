// Aggregation of the three on-chip detectors and the safety reaction
// (paper Sections 7 and 9): on any latched fault the oscillator driver is
// set to maximum output current and the system outputs are flagged safe.
//
// Detectors are blanked until `arm_delay` after reset so the startup
// transient (zero amplitude, asymmetric growth) cannot latch spurious
// faults.
#pragma once

#include <array>
#include <cstdint>

#include "faults/fault_bus.h"
#include "safety/asymmetry_detector.h"
#include "safety/frequency_monitor.h"
#include "safety/low_amplitude_detector.h"
#include "safety/oscillation_watchdog.h"

namespace lcosc::safety {

struct FaultFlags {
  bool missing_oscillation = false;
  bool low_amplitude = false;
  bool asymmetry = false;
  bool frequency_out_of_band = false;

  [[nodiscard]] bool any() const {
    return missing_oscillation || low_amplitude || asymmetry || frequency_out_of_band;
  }
  friend bool operator==(const FaultFlags&, const FaultFlags&) = default;
};

struct SafetyControllerConfig {
  WatchdogConfig watchdog{};
  LowAmplitudeConfig low_amplitude{};
  AsymmetryConfig asymmetry{};
  FrequencyMonitorConfig frequency{};
  // Blanking after reset before the amplitude/asymmetry detectors arm.
  // The watchdog arms immediately (its own timeout covers startup).
  double arm_delay = 2e-3;
};

class SafetyController {
 public:
  explicit SafetyController(SafetyControllerConfig config = {});

  // Observe an internal-fault bus (nullptr detaches).  A dead-watchdog
  // fault suppresses the missing-oscillation flag: the timer never fires,
  // so the supervision channel is silently lost.
  void attach_fault_bus(const faults::FaultBus* bus) { fault_bus_ = bus; }

  // Advance with the instantaneous pin voltages (relative to Vref).
  // Returns true while the safety reaction is requested.  A rising edge
  // on any detector channel emits a "safety.trip" structured event and a
  // trace instant carrying the simulation time (obs/, DESIGN.md §10),
  // and tallies the trip for flush_metrics().
  bool step(double t, double dt, double v_lc1, double v_lc2);

  // Publish the tallied safety.trips counters and clear the tally.  The
  // owner calls this when its run ends, so a run resumed from a copied
  // prefix counts that prefix's trips exactly once (DESIGN.md §17);
  // `runs` > 1 publishes them once per run a shared trajectory stands for
  // (DESIGN.md §18).
  void flush_metrics(std::uint64_t runs = 1);

  [[nodiscard]] FaultFlags flags() const;
  [[nodiscard]] bool safe_state_requested() const { return flags().any(); }

  // Outputs-to-safe-values flag for the surrounding system.
  [[nodiscard]] bool outputs_safe() const { return safe_state_requested(); }

  [[nodiscard]] const OscillationWatchdog& watchdog() const { return watchdog_; }
  [[nodiscard]] const LowAmplitudeDetector& low_amplitude() const { return low_amplitude_; }
  [[nodiscard]] const AsymmetryDetector& asymmetry() const { return asymmetry_; }
  [[nodiscard]] const FrequencyMonitor& frequency() const { return frequency_; }

  void reset(double t = 0.0);

 private:
  SafetyControllerConfig config_;
  OscillationWatchdog watchdog_;
  LowAmplitudeDetector low_amplitude_;
  AsymmetryDetector asymmetry_;
  FrequencyMonitor frequency_;
  double reset_time_ = 0.0;
  FaultFlags tripped_{};  // channels already reported since the last reset
  // Unpublished trips per channel (missing oscillation, low amplitude,
  // asymmetry, frequency out of band).
  std::array<std::uint64_t, 4> trips_{};
  const faults::FaultBus* fault_bus_ = nullptr;
};

}  // namespace lcosc::safety
