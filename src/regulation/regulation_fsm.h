// The digital amplitude regulation state machine (paper Section 4):
// every 1 ms the current limitation code moves by at most one step,
// decided by the window comparator.  Power-on reset presets code 105
// (about 40% of the maximum startup consumption); a few microseconds
// later the code stored in non-volatile memory is applied to speed up
// settling.  A latched safety fault forces the maximum output current.
#pragma once

#include <cstdint>

#include "common/constants.h"
#include "devices/comparator.h"
#include "faults/fault_bus.h"

namespace lcosc::regulation {

struct RegulationConfig {
  double tick_period = kRegulationTickPeriod;  // 1 ms
  int startup_code = kStartupCode;             // 105
  int min_code = 0;
  int max_code = kDacCodeMax;                  // 127
  // Code applied from NVM shortly after startup; -1 disables the preset.
  int nvm_code = -1;
  // Delay from power-on to the NVM preset ("a few us after startup").
  double nvm_delay = 8e-6;
};

enum class RegulationMode { PowerOnReset, Regulating, SafeState };

class RegulationFsm {
 public:
  explicit RegulationFsm(RegulationConfig config = {});

  // Observe an internal-fault bus (nullptr detaches).  A frozen-FSM fault
  // keeps the code latched at its pre-fault value: ticks, NVM presets and
  // the safe-state reaction no longer move the code (the mode latch still
  // records requests, modelling a clock-gated digital block whose output
  // register is stuck).
  void attach_fault_bus(const faults::FaultBus* bus) { fault_bus_ = bus; }

  // Power-on reset: code := startup_code, mode := PowerOnReset.
  void por_reset();

  // Apply the NVM preset (system calls this nvm_delay after startup).
  void apply_nvm_preset();

  // One 1 ms regulation tick: move the code by -1 / 0 / +1.  Below the
  // window means the amplitude is too small -> increase the current.
  // Returns the new code.  Ignored while in SafeState.
  int tick(devices::WindowState window);

  // Latch the safety reaction: maximum output current (paper Section 9:
  // "the oscillator driver is set to maximum output current").
  void enter_safe_state();

  // Leave SafeState (explicit recovery / diagnostic reset).
  void clear_safe_state();

  [[nodiscard]] int code() const { return code_; }
  [[nodiscard]] RegulationMode mode() const { return mode_; }
  [[nodiscard]] long tick_count() const { return ticks_; }
  [[nodiscard]] const RegulationConfig& config() const { return config_; }

  // The fsm.* counters are tallied in the FSM and reach the metrics
  // registry only here, when the owner's run ends; a copied FSM carries
  // its tally along.  So a run resumed from a shared settle prefix counts
  // that prefix exactly like a straight run (DESIGN.md §17).  `runs` > 1
  // publishes the tally once per run it stands for (a trajectory shared
  // by several fault cases, DESIGN.md §18).  Clears the tally;
  // por_reset() discards an unpublished one.
  void flush_metrics(std::uint64_t runs = 1);

 private:
  struct Tally {
    std::uint64_t ticks = 0;
    std::uint64_t code_changes = 0;
    std::uint64_t safe_state_entries = 0;
  };

  [[nodiscard]] bool frozen() const {
    return fault_bus_ != nullptr && fault_bus_->fsm_frozen();
  }

  RegulationConfig config_;
  int code_;
  RegulationMode mode_ = RegulationMode::PowerOnReset;
  long ticks_ = 0;
  Tally tally_{};
  const faults::FaultBus* fault_bus_ = nullptr;
};

}  // namespace lcosc::regulation
