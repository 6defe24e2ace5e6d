// The fault bus: one small shared object that carries the active internal
// fault of a system to the blocks that must misbehave (DAC, driver,
// amplitude detector, regulation FSM, safety controller).
//
// Threading model: `OscillatorSystem` owns one bus and attaches a const
// pointer to each subsystem before a run.  Healthy-path code pays one
// null/inactive check per hook; all per-fault work (bus masks, scales) is
// precomputed at inject() time.  Blocks without an attached bus behave
// exactly as before the fault framework existed.
#pragma once

#include <cstdint>

#include "faults/internal_fault.h"

namespace lcosc::faults {

enum class WindowOverride { None, ForceBelow, ForceAbove };

class FaultBus {
 public:
  // Activate `fault` (precomputes the hook state below).  Injecting
  // InternalFaultKind::None is equivalent to clear().
  void inject(const InternalFault& fault);
  void clear();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const InternalFault& fault() const { return fault_; }

  // Monotonic change counter, bumped by every inject()/clear().  Blocks
  // that cache fault-dependent derived state (e.g. the driver's effective
  // Gm-stage parameters) compare this against the revision they cached at
  // instead of re-reading the bus on every evaluation.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  // --- hooks (identity / false when inactive) -----------------------------

  // Stuck-line transform of a DAC control bus value.
  [[nodiscard]] std::uint8_t apply_stuck(DacBus bus, std::uint8_t value) const {
    const BusMask& m = masks_[static_cast<std::size_t>(bus)];
    return static_cast<std::uint8_t>((value & m.keep) | m.set);
  }

  // True when the binary mirror bank of `segment` is dead.
  [[nodiscard]] bool segment_dead(int segment) const {
    return dead_segment_ == segment;
  }

  // Remaining fraction of the healthy transconductance (1.0 healthy).
  [[nodiscard]] double gm_scale() const { return gm_scale_; }

  // Forced window-comparator verdict seen by the regulation FSM.
  [[nodiscard]] WindowOverride window_override() const { return window_override_; }

  [[nodiscard]] bool rectifier_dead() const {
    return active_ && fault_.kind == InternalFaultKind::RectifierDead;
  }
  [[nodiscard]] bool fsm_frozen() const {
    return active_ && fault_.kind == InternalFaultKind::FsmFrozen;
  }
  [[nodiscard]] bool watchdog_dead() const {
    return active_ && fault_.kind == InternalFaultKind::WatchdogDead;
  }
  // Harness self-test: simulated time stops advancing (the step budget of
  // the simulation must terminate the case).
  [[nodiscard]] bool stalled() const {
    return active_ && fault_.kind == InternalFaultKind::SelfTestStall;
  }

 private:
  struct BusMask {
    std::uint8_t set = 0;
    std::uint8_t keep = 0xFF;
  };

  InternalFault fault_{};
  bool active_ = false;
  BusMask masks_[3] = {};
  int dead_segment_ = -1;
  double gm_scale_ = 1.0;
  WindowOverride window_override_ = WindowOverride::None;
  std::uint64_t revision_ = 0;
};

// True when `fault` reaches the system only through the driver's
// effective Gm stage: the equivalent transconductance and the DAC current
// limit at the present code.  Two such faults whose stages are bitwise
// equal at every code a run visits give bit-identical runs, which lets
// the fault sweep run them once (system/fault_sweep.h, DESIGN.md §18).
//
// Checked against every hook above and every block that reads it:
//   apply_stuck    PwlExponentialDac::multiplication (OscD/E/F -> current
//                  limit), OscillatorDriver::equivalent_gm (OscE -> stage
//                  count): inside the stage.
//   segment_dead   PwlExponentialDac::multiplication: inside the stage.
//   gm_scale       OscillatorDriver::equivalent_gm: inside the stage.
//   active         gates the two readers above and
//                  AmplitudeDetector::window_state, whose override is None
//                  for these kinds.
//   window_override, rectifier_dead, fsm_frozen, watchdog_dead, stalled
//                  (detector, FSM, safety controller, system loop): false
//                  or None for these kinds.
//   revision, fault
//                  cache key of the driver's stage / accessor: no effect
//                  on a result.
// Kinds: DacLineStuck, DacSegmentDead and GmCollapse.  A new hook, or a
// new reader of one, must be checked against this list.
[[nodiscard]] bool acts_only_through_drive_stage(const InternalFault& fault);

}  // namespace lcosc::faults
