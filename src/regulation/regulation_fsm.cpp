#include "regulation/regulation_fsm.h"

#include <algorithm>

#include "common/error.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::regulation {
namespace {

const char* mode_name(RegulationMode mode) {
  switch (mode) {
    case RegulationMode::PowerOnReset:
      return "power_on_reset";
    case RegulationMode::Regulating:
      return "regulating";
    case RegulationMode::SafeState:
      return "safe_state";
  }
  return "?";
}

}  // namespace

RegulationFsm::RegulationFsm(RegulationConfig config)
    : config_(config), code_(config.startup_code) {
  LCOSC_REQUIRE(config_.tick_period > 0.0, "tick period must be positive");
  // min == max pins the code (used by fixed-code characterization runs).
  LCOSC_REQUIRE(config_.min_code >= 0 && config_.max_code <= kDacCodeMax &&
                    config_.min_code <= config_.max_code,
                "invalid code range");
  LCOSC_REQUIRE(config_.startup_code >= config_.min_code &&
                    config_.startup_code <= config_.max_code,
                "startup code outside the code range");
  LCOSC_REQUIRE(config_.nvm_code == -1 || (config_.nvm_code >= config_.min_code &&
                                           config_.nvm_code <= config_.max_code),
                "NVM code outside the code range");
  LCOSC_REQUIRE(config_.nvm_delay >= 0.0, "NVM delay must be non-negative");
}

void RegulationFsm::por_reset() {
  code_ = config_.startup_code;
  mode_ = RegulationMode::PowerOnReset;
  ticks_ = 0;
  tally_ = {};
}

void RegulationFsm::flush_metrics(std::uint64_t runs) {
  // A counter is registered on its first non-zero flush, as it was when
  // tick() counted live, so snapshots list the same names.
  auto publish = [runs](const char* name, std::uint64_t n) {
    if (n > 0) obs::MetricsRegistry::instance().counter(name).add(runs * n);
  };
  publish("fsm.ticks", tally_.ticks);
  publish("fsm.code_changes", tally_.code_changes);
  publish("fsm.safe_state_entries", tally_.safe_state_entries);
  tally_ = {};
}

void RegulationFsm::apply_nvm_preset() {
  if (mode_ == RegulationMode::SafeState) return;
  if (config_.nvm_code >= 0 && !frozen()) code_ = config_.nvm_code;
  if (mode_ != RegulationMode::Regulating && obs::events_enabled()) {
    obs::Event("fsm.mode")
        .str("from", mode_name(mode_))
        .str("to", "regulating")
        .integer("code", code_);
  }
  mode_ = RegulationMode::Regulating;
}

int RegulationFsm::tick(devices::WindowState window) {
  ++ticks_;
  ++tally_.ticks;
  if (mode_ == RegulationMode::SafeState) return code_;
  mode_ = RegulationMode::Regulating;
  if (frozen()) return code_;
  const int previous = code_;
  switch (window) {
    case devices::WindowState::Below:
      code_ = std::min(code_ + 1, config_.max_code);
      break;
    case devices::WindowState::Above:
      code_ = std::max(code_ - 1, config_.min_code);
      break;
    case devices::WindowState::Inside:
      break;
  }
  if (code_ != previous) {
    ++tally_.code_changes;
    if (obs::events_enabled()) {
      obs::Event("fsm.code")
          .integer("tick", ticks_)
          .integer("from", previous)
          .integer("to", code_);
    }
  }
  return code_;
}

void RegulationFsm::enter_safe_state() {
  if (mode_ != RegulationMode::SafeState) {
    ++tally_.safe_state_entries;
    obs::trace_instant("fsm.safe_state");
    if (obs::events_enabled()) {
      obs::Event("fsm.mode")
          .str("from", mode_name(mode_))
          .str("to", "safe_state")
          .integer("tick", ticks_)
          .integer("code", frozen() ? code_ : config_.max_code);
    }
  }
  mode_ = RegulationMode::SafeState;
  if (!frozen()) code_ = config_.max_code;
}

void RegulationFsm::clear_safe_state() {
  if (mode_ == RegulationMode::SafeState) {
    if (obs::events_enabled()) {
      obs::Event("fsm.mode").str("from", "safe_state").str("to", "regulating").integer(
          "code", code_);
    }
    mode_ = RegulationMode::Regulating;
  }
}

}  // namespace lcosc::regulation
