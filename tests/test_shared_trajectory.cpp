// Trajectory-sharing fault sweep (system/fault_sweep.h, DESIGN.md §18):
// internal faults whose drive stages agree at the injection code share
// one continuation, and a member leaves at the tick where its stage
// parts from the group's.  The campaign benchmark's groups never part
// (its code holds at 43), so these tests use a config whose code walks
// after the injection: no NVM preset, injection at 1 ms, 4 ms runs, the
// code stepping 101 -> 89 on the 0.25 ms ticks.  Every member's row,
// result, counters and events must be those of its own run.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/units.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "system/fault_sweep.h"
#include "system/internal_fmea.h"

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

constexpr double kInjection = 1e-3;
constexpr double kDuration = 4e-3;

InternalFmeaConfig split_config() {
  InternalFmeaConfig cfg;
  cfg.system.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.system.regulation.tick_period = 0.25e-3;
  cfg.system.waveform_decimation = 0;
  cfg.settle_time = kInjection;
  cfg.observe_time = kDuration - kInjection;
  return cfg;
}

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// Every field of a row; the latency as hexfloat, so equal text is equal
// bits.
std::string row_text(const InternalFmeaRow& r) {
  return faults::to_string(r.fault) + " expected=" + faults::to_string(r.expected) +
         " flags=" + std::to_string(r.observed.missing_oscillation) +
         std::to_string(r.observed.low_amplitude) + std::to_string(r.observed.asymmetry) +
         std::to_string(r.observed.frequency_out_of_band) +
         " detected=" + std::to_string(r.detected) +
         " hit=" + std::to_string(r.expected_channel_hit) +
         " safe=" + std::to_string(r.safe_state_entered) +
         " latency=" + (r.detection_latency ? hex(*r.detection_latency) : "-") +
         " code=" + std::to_string(r.final_code) + " outcome=" + to_string(r.status.outcome) +
         " retries=" + std::to_string(r.status.retries) + " error=" + r.status.error;
}

std::vector<std::string> rows_text(const std::vector<InternalFmeaRow>& rows) {
  std::vector<std::string> out;
  for (const InternalFmeaRow& row : rows) out.push_back(row_text(row));
  return out;
}

void expect_counters_and_histograms_equal(const obs::MetricsSnapshot& a,
                                          const obs::MetricsSnapshot& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]) << "counter " << a.counters[i].name;
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i], b.histograms[i]) << "histogram " << a.histograms[i].name;
  }
}

void expect_results_identical(const SimulationResult& a, const SimulationResult& b) {
  ASSERT_EQ(a.ticks.size(), b.ticks.size());
  for (std::size_t i = 0; i < a.ticks.size(); ++i) {
    EXPECT_EQ(a.ticks[i].time, b.ticks[i].time) << "tick " << i;
    EXPECT_EQ(a.ticks[i].code, b.ticks[i].code) << "tick " << i;
    EXPECT_EQ(a.ticks[i].vdc1, b.ticks[i].vdc1) << "tick " << i;
    EXPECT_EQ(a.ticks[i].window, b.ticks[i].window) << "tick " << i;
    EXPECT_EQ(a.ticks[i].faults, b.ticks[i].faults) << "tick " << i;
    EXPECT_EQ(a.ticks[i].supply_current, b.ticks[i].supply_current) << "tick " << i;
  }
  ASSERT_EQ(a.envelope.size(), b.envelope.size());
  for (std::size_t i = 0; i < a.envelope.size(); ++i) {
    EXPECT_EQ(a.envelope.time(i), b.envelope.time(i)) << "envelope " << i;
    EXPECT_EQ(a.envelope.value(i), b.envelope.value(i)) << "envelope " << i;
  }
  EXPECT_EQ(a.final_faults, b.final_faults);
  EXPECT_EQ(a.final_code, b.final_code);
  EXPECT_EQ(a.final_mode, b.final_mode);
}

TEST(SharedTrajectory, OnlyStageFaultsQualify) {
  using faults::InternalFaultKind;
  EXPECT_TRUE(faults::acts_only_through_drive_stage(
      faults::make_line_stuck(faults::DacBus::OscE, 2, true)));
  EXPECT_TRUE(faults::acts_only_through_drive_stage(faults::make_segment_dead(3)));
  EXPECT_TRUE(faults::acts_only_through_drive_stage(faults::make_gm_collapse()));
  for (const InternalFaultKind kind :
       {InternalFaultKind::None, InternalFaultKind::WindowStuckHigh,
        InternalFaultKind::WindowStuckLow, InternalFaultKind::RectifierDead,
        InternalFaultKind::FsmFrozen, InternalFaultKind::WatchdogDead,
        InternalFaultKind::SelfTestThrow, InternalFaultKind::SelfTestStall}) {
    EXPECT_FALSE(faults::acts_only_through_drive_stage(faults::make_fault(kind)))
        << faults::to_string(kind);
  }
}

TEST(SharedTrajectory, RowsAndCountersMatchPerCaseForAnySpanAndWorkerCount) {
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  const InternalFmeaConfig cfg = split_config();
  const std::vector<faults::InternalFault> list = internal_fmea_case_list(cfg);
  ASSERT_EQ(list.size(), 42u);

  // The reference: every case from t = 0 on its own system.
  registry.reset();
  const std::vector<InternalFmeaRow> per_case = parallel_map(
      list.size(), [&](std::size_t i) { return run_internal_fmea_case_at(cfg, i); }, 4);
  const obs::MetricsSnapshot reference_metrics = registry.snapshot();
  const std::vector<std::string> reference = rows_text(per_case);

  // Spans as the service cuts them (run_internal_fmea_cases, serial) and
  // as separate campaigns over the same faults (config.workers threads).
  const std::vector<std::vector<std::size_t>> layouts = {{0, 42}, {0, 7, 42}, {0, 21, 42}};
  for (const auto& cuts : layouts) {
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE("cuts at " + std::to_string(cuts[1]) + ", " + std::to_string(workers) +
                   " workers");
      registry.reset();
      std::vector<InternalFmeaRow> rows;
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        std::vector<InternalFmeaRow> span;
        if (workers == 1) {
          span = run_internal_fmea_cases(cfg, cuts[c], cuts[c + 1] - cuts[c]);
        } else {
          InternalFmeaConfig part = cfg;
          part.workers = workers;
          part.faults.assign(list.begin() + static_cast<std::ptrdiff_t>(cuts[c]),
                             list.begin() + static_cast<std::ptrdiff_t>(cuts[c + 1]));
          span = run_internal_fmea_campaign(part).rows;
        }
        rows.insert(rows.end(), span.begin(), span.end());
      }
      EXPECT_EQ(rows_text(rows), reference);
      expect_counters_and_histograms_equal(reference_metrics, registry.snapshot());
    }
  }
  obs::set_metrics_enabled(false);
}

TEST(SharedTrajectory, EveryMemberResultEqualsItsStraightRun) {
  // The runner's own loop (follow_shared_trajectory) on the group of all
  // stage faults that match the first one at the injection code; each
  // leaver continues on a copy with its fault switched in.
  const InternalFmeaConfig cfg = split_config();
  const OscillatorSystem base(cfg.system);
  RunSession prefix(base, kDuration);
  prefix.advance_until(kInjection);
  ASSERT_TRUE(prefix.preset_applied());

  std::vector<faults::InternalFault> stage_faults;
  for (const faults::InternalFault& fault : faults::internal_fault_list()) {
    if (faults::acts_only_through_drive_stage(fault)) stage_faults.push_back(fault);
  }
  const driver::GmStageConfig healthy = prefix.drive_stage(faults::InternalFault{});
  std::vector<Follower> followers;
  std::optional<faults::InternalFault> leader;
  for (std::size_t i = 0; i < stage_faults.size(); ++i) {
    if (!driver::same_drive_stage(prefix.drive_stage(stage_faults[i]), healthy)) continue;
    if (!leader) {
      leader = stage_faults[i];
    } else {
      followers.push_back({i, stage_faults[i]});
    }
  }
  ASSERT_TRUE(leader.has_value());
  EXPECT_EQ(faults::to_string(*leader), "oscd<0>-stuck-1");
  ASSERT_EQ(followers.size(), 20u);

  std::map<std::string, double> left_at;
  std::map<std::size_t, SimulationResult> results;
  RunSession group(prefix);
  group.inject_internal_fault(*leader);
  const SimulationResult shared =
      follow_shared_trajectory(group, followers, [&](const Follower& f, const RunSession& at) {
        left_at[faults::to_string(f.fault)] = at.time();
        RunSession own(at);
        own.switch_internal_fault(f.fault);
        results.emplace(f.id, own.finish());
      });

  // Where the members part: the first tick whose code gives them another
  // stage than the leader's (Table 1 bits of codes 100, 99 and 95).
  const std::map<std::string, double> expected_ticks = {
      {"oscf<2>-stuck-1", 1.25e-3}, {"oscf<3>-stuck-0", 1.5e-3}, {"oscf<4>-stuck-1", 1.5e-3},
      {"oscd<2>-stuck-1", 2.5e-3},  {"oscf<5>-stuck-0", 2.5e-3}, {"segment5-dead", 2.5e-3}};
  ASSERT_EQ(left_at.size(), expected_ticks.size());
  const double dt = 1.0 / (tank::RlcTank(cfg.system.tank).resonance_frequency() *
                           cfg.system.steps_per_period);
  for (const auto& [name, tick] : expected_ticks) {
    ASSERT_TRUE(left_at.count(name)) << name;
    EXPECT_GE(left_at[name], tick) << name;
    EXPECT_LT(left_at[name], tick + dt) << name;
  }
  EXPECT_EQ(followers.size(), 14u);  // stayed to the end

  auto straight = [&](const faults::InternalFault& fault) {
    OscillatorSystem sys(cfg.system);
    sys.schedule_internal_fault(fault, kInjection);
    return sys.run(kDuration);
  };
  {
    SCOPED_TRACE(faults::to_string(*leader));
    expect_results_identical(straight(*leader), shared);
  }
  for (const Follower& f : followers) {
    SCOPED_TRACE(faults::to_string(f.fault) + " (stayed)");
    expect_results_identical(straight(f.fault), shared);
  }
  for (const auto& [id, result] : results) {
    SCOPED_TRACE(faults::to_string(stage_faults[id]) + " (left)");
    expect_results_identical(straight(stage_faults[id]), result);
  }
}

TEST(SharedTrajectory, CaseEventsNameTheTrajectoryTheyFollowed) {
  InternalFmeaConfig cfg = split_config();
  cfg.faults = {faults::make_line_stuck(faults::DacBus::OscD, 0, true),   // leader
                faults::make_line_stuck(faults::DacBus::OscF, 4, true),   // leaves at 1.5 ms
                faults::make_segment_dead(2),                             // stays
                faults::make_fault(faults::InternalFaultKind::WatchdogDead)};  // cannot share
  std::vector<std::string> lines;
  obs::set_event_capture(&lines);
  (void)run_internal_fmea_cases(cfg, 0, cfg.faults.size());
  obs::set_event_capture(nullptr);

  std::map<std::string, std::string> case_events;  // ctx -> campaign.case line
  std::map<std::string, int> loop_events;          // ctx -> fsm.* / safety.* lines
  for (const std::string& line : lines) {
    const std::size_t at = line.find("\"ctx\": \"");
    if (at == std::string::npos) continue;  // the settle prefix, before any case
    const std::string ctx = line.substr(at + 8, line.find('"', at + 8) - at - 8);
    if (line.find("\"type\": \"campaign.case\"") != std::string::npos) {
      case_events[ctx] = line;
    } else if (line.find("\"type\": \"fsm.") != std::string::npos ||
               line.find("\"type\": \"safety.") != std::string::npos) {
      ++loop_events[ctx];
    }
  }
  const std::string leader = "internal_fmea:oscd<0>-stuck-1";
  ASSERT_EQ(case_events.size(), 4u);
  EXPECT_EQ(case_events[leader].find("shared_with"), std::string::npos);
  EXPECT_EQ(case_events["internal_fmea:watchdog-dead"].find("shared_with"), std::string::npos);
  const std::string leaver = case_events["internal_fmea:oscf<4>-stuck-1"];
  EXPECT_NE(leaver.find("\"shared_with\": \"" + leader + "\""), std::string::npos) << leaver;
  // The tick the member parted at, as the shortest text that reads back
  // as the same double (a 6-digit rendering would log 1.5 and 4).
  EXPECT_NE(leaver.find("\"shared_until_ms\": 1.5000039062368908,"), std::string::npos)
      << leaver;
  const std::string stayer = case_events["internal_fmea:segment2-dead"];
  EXPECT_NE(stayer.find("\"shared_with\": \"" + leader + "\""), std::string::npos) << stayer;
  EXPECT_NE(stayer.find("\"shared_until_ms\": 4.000003906273217,"), std::string::npos)
      << stayer;

  // The shared stretch logs its code steps once, under the leader; the
  // leaver logs its own after it parted; the stayer logs none.
  EXPECT_GT(loop_events[leader], 0);
  EXPECT_GT(loop_events["internal_fmea:oscf<4>-stuck-1"], 0);
  EXPECT_EQ(loop_events.count("internal_fmea:segment2-dead"), 0u);
}

TEST(SharedTrajectory, ThrowingGroupsFallBackToThePerCasePath) {
  // A step budget the settle prefix fits but no continuation does: the
  // group and its leavers all throw BudgetExceededError, and every member
  // is re-run per case into the same Timeout row.
  InternalFmeaConfig cfg = split_config();
  cfg.faults = {faults::make_line_stuck(faults::DacBus::OscD, 0, true),
                faults::make_line_stuck(faults::DacBus::OscF, 2, true),
                faults::make_line_stuck(faults::DacBus::OscF, 4, true),
                faults::make_segment_dead(2)};
  const double dt = 1.0 / (tank::RlcTank(cfg.system.tank).resonance_frequency() *
                           cfg.system.steps_per_period);
  cfg.step_budget = static_cast<std::size_t>(2e-3 / dt);

  std::vector<InternalFmeaRow> per_case;
  for (std::size_t i = 0; i < cfg.faults.size(); ++i) {
    per_case.push_back(run_internal_fmea_case_at(cfg, i));
    EXPECT_EQ(per_case.back().status.outcome, CaseOutcome::Timeout);
  }
  EXPECT_EQ(rows_text(run_internal_fmea_cases(cfg, 0, cfg.faults.size())), rows_text(per_case));
}

}  // namespace
}  // namespace lcosc::system
