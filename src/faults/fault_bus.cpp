#include "faults/fault_bus.h"

namespace lcosc::faults {

void FaultBus::clear() {
  ++revision_;
  fault_ = InternalFault{};
  active_ = false;
  for (BusMask& m : masks_) m = BusMask{};
  dead_segment_ = -1;
  gm_scale_ = 1.0;
  window_override_ = WindowOverride::None;
}

void FaultBus::inject(const InternalFault& fault) {
  clear();
  if (fault.kind == InternalFaultKind::None) return;
  fault_ = fault;
  active_ = true;
  switch (fault.kind) {
    case InternalFaultKind::DacLineStuck: {
      BusMask& m = masks_[static_cast<std::size_t>(fault.bus)];
      const auto line = static_cast<std::uint8_t>(1u << fault.bit);
      if (fault.stuck_high) {
        m.set = line;
      } else {
        m.keep = static_cast<std::uint8_t>(~line);
      }
      break;
    }
    case InternalFaultKind::DacSegmentDead:
      dead_segment_ = fault.segment;
      break;
    case InternalFaultKind::GmCollapse:
      gm_scale_ = fault.gm_factor;
      break;
    case InternalFaultKind::WindowStuckHigh:
      window_override_ = WindowOverride::ForceAbove;
      break;
    case InternalFaultKind::WindowStuckLow:
      window_override_ = WindowOverride::ForceBelow;
      break;
    default:
      break;  // flag-style kinds are answered directly from fault_.kind
  }
}

bool acts_only_through_drive_stage(const InternalFault& fault) {
  switch (fault.kind) {
    case InternalFaultKind::DacLineStuck:
    case InternalFaultKind::DacSegmentDead:
    case InternalFaultKind::GmCollapse:
      return true;
    case InternalFaultKind::None:
    case InternalFaultKind::WindowStuckHigh:
    case InternalFaultKind::WindowStuckLow:
    case InternalFaultKind::RectifierDead:
    case InternalFaultKind::FsmFrozen:
    case InternalFaultKind::WatchdogDead:
    case InternalFaultKind::SelfTestThrow:
    case InternalFaultKind::SelfTestStall:
      return false;
  }
  return false;
}

}  // namespace lcosc::faults
