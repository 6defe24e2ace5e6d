// Shared-prefix fault sweep: the one runner behind both FMEA families
// (external tank faults, system/fmea_campaign.h; internal on-chip faults,
// system/internal_fmea.h).  DESIGN.md §16-18.
//
// Every case of a sweep runs the same healthy system until settle_time
// and then injects its fault.  run_fault_sweep advances that attempt-0
// prefix once; each case then continues on a RunSession copy with its
// fault injected, which is bit-identical to a fresh system with the
// fault scheduled up front.
//
// Cases whose faults act only through the driver's Gm stage
// (faults::acts_only_through_drive_stage) and whose stages are bitwise
// equal at the injection code share one continuation: the group runs
// once with its first member's fault injected.  The stage depends only
// on the fault and the code, and after the NVM preset the code moves only
// at regulation ticks, so at each tick that moves it every other member's
// stage is re-evaluated; a member whose stage now differs leaves on a
// copy of the group's session with its own fault switched in.  Every
// member's row, record and counters are those of its own run.  Sweep
// sessions record no envelope: no row reads it.
//
// When the prefix, a group or a leaving member's continuation throws,
// the affected cases fall back to run_sweep_case -- the per-case
// reference path that owns the guarded retry/timeout handling -- so
// every row (status, retries, error text) and every counter is the same
// on either path.
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
#include <variant>
#include <vector>

#include "common/campaign.h"
#include "common/error.h"
#include "common/parallel.h"
#include "driver/gm_stage.h"
#include "faults/fault_bus.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "system/oscillator_system.h"

namespace lcosc::system {

// A fault riding along on another run's trajectory: an id of the
// caller's choosing and a fault that acts only through the drive stage.
struct Follower {
  std::size_t id = 0;
  faults::InternalFault fault{};
};

// Run `session` to the end carrying `followers` along, all of whose
// stages equal the session's own at its present code; the session must
// be past its NVM preset, so that its code moves only at ticks.  At each
// tick that moves the code, a follower whose stage now differs leaves:
// leave(follower, session) runs with the session paused right after that
// tick, where a copy with the follower's fault switched in
// (RunSession::switch_internal_fault) continues the follower's own run.
// On return `followers` holds those that stayed to the end, and the
// result is their run as well as the session's: its metrics are published
// once for each.
template <typename Leave>
SimulationResult follow_shared_trajectory(RunSession& session, std::vector<Follower>& followers,
                                          Leave&& leave) {
  LCOSC_REQUIRE(followers.empty() || session.preset_applied(),
                "a shared trajectory starts after the NVM preset");
  int code = session.code();
  while (!followers.empty() && !session.done()) {
    session.advance_until(session.next_tick());
    if (session.code() == code) continue;  // the stage is a function of the code
    code = session.code();
    const driver::GmStageConfig stage = session.drive_stage();
    std::size_t kept = 0;
    for (const Follower& follower : followers) {
      if (driver::same_drive_stage(session.drive_stage(follower.fault), stage)) {
        followers[kept++] = follower;
      } else {
        leave(follower, std::as_const(session));
      }
    }
    followers.resize(kept);
  }
  return session.finish(1 + followers.size());
}

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

// A case that followed another case's trajectory: that case's label and
// the simulated time the two parted (the end of the run if they never did).
struct SharedTrajectory {
  std::string with;
  double until = 0.0;
};

template <typename Family>
std::string sweep_label(const Family& family, std::size_t i) {
  return std::string(Family::kCampaign) + ":" + to_string(family.faults[i]);
}

// Undetected downgrade + per-case telemetry, once per finished row.
template <typename Family>
void finalize_sweep_row(const Family& family, typename Family::Row& row,
                        const SharedTrajectory* shared = nullptr) {
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
        .str("fault", to_string(row.fault))
        .str("outcome", to_string(row.status.outcome))
        .integer("retries", row.status.retries)
        .boolean("detected", row.detected);
    if (row.detection_latency.has_value()) {
      event.num("detection_latency_ms", *row.detection_latency * 1e3);
    }
    if (shared != nullptr) {
      event.str("shared_with", shared->with).num("shared_until_ms", shared->until * 1e3);
    }
  }
}

// The fault of case i when it can share a trajectory: an internal fault
// that acts only through the drive stage.
template <typename Family>
std::optional<faults::InternalFault> stage_only_fault(const Family& family, std::size_t i) {
  const std::optional<ScenarioAction> action = family.action(i);
  const auto* internal = action ? std::get_if<InternalFaultEvent>(&*action) : nullptr;
  if (internal == nullptr || !faults::acts_only_through_drive_stage(internal->fault)) {
    return std::nullopt;
  }
  return internal->fault;
}

// Cases [first, first + count) in groups that start as one continuation,
// each in case order (its first member is the one injected), groups in
// order of their first member.  A case joins another only when both act
// only through the drive stage, their stages at the injection code are
// bitwise equal and the NVM preset came before the injection (so the
// code moves only at ticks); every other case is a group of one.
template <typename Family>
std::vector<std::vector<std::size_t>> group_sweep_cases(const Family& family,
                                                        const RunSession& prefix,
                                                        std::size_t first, std::size_t count) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::optional<driver::GmStageConfig>> stages;  // per group
  for (std::size_t i = first; i < first + count; ++i) {
    const std::optional<faults::InternalFault> fault =
        prefix.preset_applied() ? stage_only_fault(family, i) : std::nullopt;
    std::optional<driver::GmStageConfig> stage;
    if (fault) stage = prefix.drive_stage(*fault);
    std::size_t g = 0;
    while (g < groups.size() &&
           !(stage && stages[g] && driver::same_drive_stage(*stages[g], *stage))) {
      ++g;
    }
    if (g == groups.size()) {
      groups.emplace_back();
      stages.push_back(stage);
    }
    groups[g].push_back(i);
  }
  return groups;
}

// The row of case i from a finished run of its own trajectory, with its
// campaign.case event under its own label.
template <typename Family>
typename Family::Row finished_sweep_row(const Family& family, std::size_t i,
                                        const SimulationResult& sim,
                                        const SharedTrajectory* shared) {
  const obs::EventContext event_ctx(sweep_label(family, i));
  typename Family::Row row = start_sweep_row(family, i);
  fill_sweep_row(family, row, sim);
  finalize_sweep_row(family, row, shared);
  return row;
}

// Case i on a copy of `group`, paused right after the tick at which its
// stage parted from the group's, with its own fault switched in; nullopt
// when the continuation throws (the caller then re-runs the case).
template <typename Family>
std::optional<typename Family::Row> leave_sweep_group(const Family& family,
                                                      const RunSession& group,
                                                      std::size_t i,
                                                      const faults::InternalFault& fault,
                                                      const SharedTrajectory& shared) {
  const std::string label = sweep_label(family, i);
  const obs::EventContext event_ctx(label);
  const obs::Span span(label);
  std::optional<SimulationResult> sim;
  try {
    RunSession session(group);
    session.switch_internal_fault(fault);
    sim = session.finish();
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return finished_sweep_row(family, i, *sim, &shared);
}

// The cases of one group on a copy of the settled prefix, rows in member
// order; nullopt for members whose continuation threw.  Everything the
// shared stretch emits (trace span, safety/FSM events) carries the first
// member's label, so a mixed log remains attributable; each member's
// campaign.case event carries its own.
template <typename Family>
std::vector<std::optional<typename Family::Row>> continue_sweep_group(
    const Family& family, const RunSession& prefix, const std::vector<std::size_t>& members) {
  std::vector<std::optional<typename Family::Row>> rows(members.size());
  const std::string leader_label = sweep_label(family, members.front());

  // The other members, identified by their position in `members`.
  std::vector<Follower> following;
  for (std::size_t k = 1; k < members.size(); ++k) {
    following.push_back({k, *stage_only_fault(family, members[k])});
  }

  std::optional<SimulationResult> sim;
  double end_time = 0.0;
  {
    const obs::EventContext event_ctx(leader_label);
    const obs::Span span(leader_label);
    try {
      RunSession session(prefix);
      if (std::optional<ScenarioAction> action = family.action(members.front())) {
        session.inject(std::move(*action));
      }
      sim = follow_shared_trajectory(
          session, following, [&](const Follower& member, const RunSession& at) {
            rows[member.id] = leave_sweep_group(family, at, members[member.id], member.fault,
                                                {leader_label, at.time()});
          });
      end_time = session.time();
    } catch (const std::exception&) {
      return rows;
    }
  }

  rows[0] = finished_sweep_row(family, members.front(), *sim, nullptr);
  const SharedTrajectory shared{leader_label, end_time};
  for (const Follower& member : following) {
    rows[member.id] = finished_sweep_row(family, members[member.id], *sim, &shared);
  }
  return rows;
}

}  // namespace detail

// Case i from t = 0 with its fault scheduled at settle_time, under the
// guarded retry policy: the reference path.
template <typename Family>
typename Family::Row run_sweep_case(const Family& family, std::size_t i) {
  const auto& config = family.config;
  const double duration = config.settle_time + config.observe_time;

  const std::string label = detail::sweep_label(family, i);
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
  detail::finalize_sweep_row(family, row);
  return row;
}

// Cases [first, first + count) on `workers` threads (0 = default pool,
// 1 = serial), sharing one settled prefix and, where the drive stages
// agree, one continuation (one group per task).  Rows are identical to
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
    prefix.emplace(base, duration, /*record_envelope=*/false);
    prefix->advance_until(config.settle_time);
  } catch (const std::exception&) {
    prefix.reset();
  }

  std::vector<std::vector<std::size_t>> groups;
  if (prefix.has_value()) {
    groups = detail::group_sweep_cases(family, *prefix, first, count);
  } else {
    for (std::size_t i = first; i < first + count; ++i) groups.push_back({i});
  }

  // Workers only copy the prefix; it is never advanced again.
  const std::optional<RunSession>& shared = prefix;
  std::vector<typename Family::Row> rows(count);
  parallel_for(
      groups.size(),
      [&](std::size_t g) {
        const std::vector<std::size_t>& members = groups[g];
        std::vector<std::optional<typename Family::Row>> done(members.size());
        if (shared.has_value()) done = detail::continue_sweep_group(family, *shared, members);
        for (std::size_t k = 0; k < members.size(); ++k) {
          rows[members[k] - first] =
              done[k] ? std::move(*done[k]) : run_sweep_case(family, members[k]);
        }
      },
      workers);
  return rows;
}

}  // namespace lcosc::system
