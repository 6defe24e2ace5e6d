#include "safety/safety_controller.h"

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::safety {
namespace {

constexpr std::array<const char*, 4> kChannels = {"missing_oscillation", "low_amplitude",
                                                   "asymmetry", "frequency_out_of_band"};

// One rising-edge report per channel per armed period: a structured
// event (with the simulation time, attributable to the running case via
// the campaign's EventContext) and a trace instant.  The counters follow
// in flush_metrics().
void report_trip(const char* channel, double t) {
  obs::trace_instant(std::string("safety.trip:") + channel);
  if (obs::events_enabled()) {
    obs::Event("safety.trip").str("channel", channel).num("t", t);
  }
}

}  // namespace

SafetyController::SafetyController(SafetyControllerConfig config)
    : config_(config),
      watchdog_(config.watchdog),
      low_amplitude_(config.low_amplitude),
      asymmetry_(config.asymmetry),
      frequency_(config.frequency) {}

bool SafetyController::step(double t, double dt, double v_lc1, double v_lc2) {
  watchdog_.step(t, v_lc1 - v_lc2);
  if (t - reset_time_ >= config_.arm_delay) {
    low_amplitude_.step(t, dt, v_lc1, v_lc2);
    asymmetry_.step(t, dt, v_lc1, v_lc2);
    frequency_.step(t, v_lc1 - v_lc2);
  }
  const FaultFlags now = flags();
  // Rising-edge trip reporting; the cheap common path (no telemetry sink,
  // no new flag) is two relaxed loads and a comparison.
  if (now != tripped_ &&
      (obs::metrics_enabled() || obs::trace_enabled() || obs::events_enabled())) {
    const std::array<bool, 4> rising = {
        now.missing_oscillation && !tripped_.missing_oscillation,
        now.low_amplitude && !tripped_.low_amplitude, now.asymmetry && !tripped_.asymmetry,
        now.frequency_out_of_band && !tripped_.frequency_out_of_band};
    for (std::size_t c = 0; c < kChannels.size(); ++c) {
      if (!rising[c]) continue;
      ++trips_[c];
      report_trip(kChannels[c], t);
    }
  }
  tripped_ = now;
  return now.any();
}

FaultFlags SafetyController::flags() const {
  const bool watchdog_dead = fault_bus_ != nullptr && fault_bus_->watchdog_dead();
  return {.missing_oscillation = !watchdog_dead && watchdog_.fault(),
          .low_amplitude = low_amplitude_.fault(),
          .asymmetry = asymmetry_.fault(),
          .frequency_out_of_band = frequency_.fault()};
}

void SafetyController::flush_metrics(std::uint64_t runs) {
  // Counters are registered on their first non-zero flush, as they were
  // when trips counted live, so snapshots list the same names.
  auto& registry = obs::MetricsRegistry::instance();
  for (std::size_t c = 0; c < kChannels.size(); ++c) {
    if (trips_[c] == 0) continue;
    registry.counter("safety.trips").add(runs * trips_[c]);
    registry.counter(std::string("safety.trips.") + kChannels[c]).add(runs * trips_[c]);
  }
  trips_ = {};
}

void SafetyController::reset(double t) {
  reset_time_ = t;
  watchdog_.reset(t);
  low_amplitude_.reset(t);
  asymmetry_.reset(t);
  frequency_.reset(t);
  tripped_ = {};
}

}  // namespace lcosc::safety
