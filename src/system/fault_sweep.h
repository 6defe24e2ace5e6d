// Shared-prefix fault sweep: the one runner behind both FMEA families
// (external tank faults, system/fmea_campaign.h; internal on-chip faults,
// system/internal_fmea.h).  DESIGN.md §16-17.
//
// Every case of a sweep runs the same healthy system until settle_time
// and then injects its fault.  run_fault_sweep advances that attempt-0
// prefix once; each case then continues on a RunSession copy with its
// fault injected, which is bit-identical to a fresh system with the
// fault scheduled up front.  When the prefix or a continuation throws,
// the case falls back to run_sweep_case -- the per-case reference path
// that owns the guarded retry/timeout handling -- so every row (status,
// retries, error text) and every counter is the same on either path.
//
// A family supplies the config (system, settle_time, observe_time,
// step_budget, max_retries, retry_backoff), the fault list and what
// differs between the fault kinds; fault names and expected channels come
// from the fault types' own to_string / expected_detection:
//
//   using Row = ...;                      // FmeaRow / InternalFmeaRow
//   static constexpr const char* kCampaign = "...";
//   const Config& config;
//   std::vector<Fault> faults;
//   std::optional<ScenarioAction> action(std::size_t i) const;
//   bool channel_hit(const Row&, const safety::FaultFlags&) const;
//   bool expects_detection(const Row&) const;
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/campaign.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "system/oscillator_system.h"

namespace lcosc::system {
namespace detail {

// The system of attempt `attempt` of a case: steps_per_period doubled per
// retry (tightened integrator) and the per-case step budget; 0 = auto, 4x
// the nominal step count of the run, so a doubled retry still fits.
inline OscillatorSystemConfig sweep_attempt_config(const OscillatorSystemConfig& base,
                                                   int attempt, std::size_t step_budget,
                                                   double duration) {
  OscillatorSystemConfig cfg = base;
  for (int k = 0; k < attempt; ++k) cfg.steps_per_period *= 2;
  if (step_budget == 0) {
    const tank::RlcTank healthy(base.tank);
    const double dt = 1.0 / (healthy.resonance_frequency() * base.steps_per_period);
    step_budget = 4 * static_cast<std::size_t>(std::ceil(duration / dt));
  }
  cfg.step_budget = step_budget;
  return cfg;
}

template <typename Family>
typename Family::Row start_sweep_row(const Family& family, std::size_t i) {
  typename Family::Row row;
  row.fault = family.faults[i];
  row.expected = expected_detection(family.faults[i]);
  return row;
}

// Result fields of one completed simulation -> row.
template <typename Family>
void fill_sweep_row(const Family& family, typename Family::Row& row,
                    const SimulationResult& sim) {
  row.observed = sim.final_faults;
  row.detected = sim.final_faults.any();
  row.expected_channel_hit = family.channel_hit(row, sim.final_faults);
  row.safe_state_entered = sim.final_mode == regulation::RegulationMode::SafeState;
  row.final_code = sim.final_code;

  // Detection latency: first tick at/after injection with a flag.
  row.detection_latency.reset();
  for (const auto& tick : sim.ticks) {
    if (tick.time >= family.config.settle_time && tick.faults.any()) {
      row.detection_latency = tick.time - family.config.settle_time;
      break;
    }
  }
}

// Undetected downgrade + per-case telemetry, once per finished row.
template <typename Family>
void finalize_sweep_row(const Family& family, typename Family::Row& row,
                        const std::string& fault_name) {
  if (row.status.outcome == CaseOutcome::Ok && family.expects_detection(row) &&
      !row.expected_channel_hit) {
    row.status.outcome = CaseOutcome::Undetected;
  }

  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    registry.counter("campaign.cases").add(1);
    registry.counter("campaign.cases." + to_string(row.status.outcome)).add(1);
    if (row.status.retries > 0) {
      registry.counter("campaign.retries")
          .add(static_cast<std::uint64_t>(row.status.retries));
    }
    if (row.detection_latency.has_value()) {
      registry
          .histogram(std::string(Family::kCampaign) + ".detection_latency_ms",
                     {0.5, 1, 2, 3, 4, 5, 7.5, 10, 15, 20})
          .record(*row.detection_latency * 1e3);
    }
  }
  if (obs::events_enabled()) {
    obs::Event event("campaign.case");
    event.str("campaign", Family::kCampaign)
        .str("fault", fault_name)
        .str("outcome", to_string(row.status.outcome))
        .integer("retries", row.status.retries)
        .boolean("detected", row.detected);
    if (row.detection_latency.has_value()) {
      event.num("detection_latency_ms", *row.detection_latency * 1e3);
    }
  }
}

// Case i on a copy of the settled prefix; nullopt when the continuation
// throws (the caller then re-runs the case serially).
template <typename Family>
std::optional<typename Family::Row> continue_sweep_case(const Family& family,
                                                        const RunSession& prefix,
                                                        std::size_t i) {
  // Label everything the case emits (trace span, safety/FSM events) with
  // the fault under test so a mixed log remains attributable.
  const std::string fault_name = to_string(family.faults[i]);
  const std::string label = std::string(Family::kCampaign) + ":" + fault_name;
  const obs::EventContext event_ctx(label);
  const obs::Span span(label);

  typename Family::Row row = start_sweep_row(family, i);
  try {
    RunSession session(prefix);
    if (std::optional<ScenarioAction> action = family.action(i)) {
      session.inject(std::move(*action));
    }
    fill_sweep_row(family, row, session.finish());
  } catch (const std::exception&) {
    return std::nullopt;
  }
  finalize_sweep_row(family, row, fault_name);
  return row;
}

}  // namespace detail

// Case i from t = 0 with its fault scheduled at settle_time, under the
// guarded retry policy: the reference path.
template <typename Family>
typename Family::Row run_sweep_case(const Family& family, std::size_t i) {
  const auto& config = family.config;
  const double duration = config.settle_time + config.observe_time;

  const std::string fault_name = to_string(family.faults[i]);
  const std::string label = std::string(Family::kCampaign) + ":" + fault_name;
  const obs::EventContext event_ctx(label);
  const obs::Span span(label);

  typename Family::Row row = detail::start_sweep_row(family, i);
  const std::optional<ScenarioAction> action = family.action(i);
  row.status = run_guarded_case(
      [&](int attempt) {
        OscillatorSystem sys(detail::sweep_attempt_config(config.system, attempt,
                                                          config.step_budget, duration));
        if (action.has_value()) sys.schedule_event(config.settle_time, *action);
        detail::fill_sweep_row(family, row, sys.run(duration));
      },
      config.max_retries, config.retry_backoff);
  detail::finalize_sweep_row(family, row, fault_name);
  return row;
}

// Cases [first, first + count) on `workers` threads (0 = default pool,
// 1 = serial), sharing one settled prefix.  Rows are identical to
// run_sweep_case for any worker count and any span.
template <typename Family>
std::vector<typename Family::Row> run_fault_sweep(const Family& family, std::size_t first,
                                                  std::size_t count, std::size_t workers) {
  LCOSC_REQUIRE(first <= family.faults.size() && count <= family.faults.size() - first,
                "fault sweep case span out of range");
  const auto& config = family.config;
  const double duration = config.settle_time + config.observe_time;
  if (count == 0) return {};

  // The attempt-0 system (no events) advanced to the exact loop-top
  // position where a fault scheduled at settle_time would fire.  If the
  // prefix itself cannot be built (invalid config, divergence or budget
  // exhaustion before settle), every case would fail the same way
  // serially: run them all through the serial path.
  std::optional<RunSession> prefix;
  try {
    const obs::Span span(std::string(Family::kCampaign) + ":settle_prefix");
    const OscillatorSystem base(
        detail::sweep_attempt_config(config.system, 0, config.step_budget, duration));
    prefix.emplace(base, duration);
    prefix->advance_until(config.settle_time);
  } catch (const std::exception&) {
    prefix.reset();
  }

  // Workers only copy the prefix; it is never advanced again.
  const std::optional<RunSession>& shared = prefix;
  return parallel_map(
      count,
      [&](std::size_t k) {
        if (shared.has_value()) {
          if (auto row = detail::continue_sweep_case(family, *shared, first + k)) {
            return std::move(*row);
          }
        }
        return run_sweep_case(family, first + k);
      },
      workers);
}

}  // namespace lcosc::system
