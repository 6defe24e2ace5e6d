// End-to-end single-system behaviour: startup, regulation into the window,
// fault injection and the safety reaction (Sections 4, 7, 9).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

#include "common/error.h"
#include "common/constants.h"
#include "common/units.h"
#include "system/fmea_campaign.h"
#include "system/oscillator_system.h"

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

OscillatorSystemConfig default_config(double quality = 40.0) {
  OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, quality, 3.3_uH);
  // A faster regulation tick keeps run times short; the loop dynamics are
  // unchanged (one +-1 step per tick, window rule intact).
  cfg.regulation.tick_period = 0.25e-3;
  cfg.safety.low_amplitude.persistence = 2e-3;
  cfg.waveform_decimation = 0;  // envelopes and ticks only: faster, smaller
  return cfg;
}

TEST(System, StartupSettlesIntoRegulationWindow) {
  OscillatorSystem sys(default_config());
  const SimulationResult r = sys.run(25e-3);
  ASSERT_FALSE(r.ticks.empty());
  const double settled = r.settled_amplitude();
  // Regulation target 2.7 V differential peak, window +-5%.
  EXPECT_NEAR(settled, 2.7, 2.7 * 0.08);
  EXPECT_FALSE(r.final_faults.any());
  EXPECT_EQ(r.final_mode, regulation::RegulationMode::Regulating);
}

TEST(System, RegulationCodeMovesAtMostOnePerTick) {
  OscillatorSystem sys(default_config());
  const SimulationResult r = sys.run(15e-3);
  for (std::size_t i = 1; i < r.ticks.size(); ++i) {
    EXPECT_LE(std::abs(r.ticks[i].code - r.ticks[i - 1].code), 1);
  }
}

TEST(System, SteadyStateDoesNotLimitCycleAcrossWindow) {
  // The Section-4 design rule: because the window is wider than the worst
  // step, steady state toggles by at most one code around the target.
  OscillatorSystem sys(default_config());
  const SimulationResult r = sys.run(25e-3);
  ASSERT_GT(r.ticks.size(), 15u);
  int min_code = 127;
  int max_code = 0;
  for (std::size_t i = r.ticks.size() - 8; i < r.ticks.size(); ++i) {
    min_code = std::min(min_code, r.ticks[i].code);
    max_code = std::max(max_code, r.ticks[i].code);
  }
  EXPECT_LE(max_code - min_code, 1);
}

TEST(System, StartupFromCode105FasterThanFromZero) {
  // The POR preset exists to cut startup time (Section 4 / Fig. 16).
  auto settle_ticks = [](int startup_code) {
    OscillatorSystemConfig cfg = default_config(15.0);
    cfg.regulation.startup_code = startup_code;
    OscillatorSystem sys(cfg);
    const SimulationResult r = sys.run(40e-3);
    // First tick whose amplitude-equivalent is within 10% of the target.
    for (std::size_t i = 0; i < r.ticks.size(); ++i) {
      const double a = regulation::AmplitudeDetector::vdc1_to_amplitude(r.ticks[i].vdc1);
      if (std::abs(a - 2.7) < 0.27) return static_cast<int>(i);
    }
    return static_cast<int>(r.ticks.size());
  };
  EXPECT_LT(settle_ticks(105), settle_ticks(5));
}

TEST(System, NvmPresetSpeedsSettlingFurther) {
  OscillatorSystemConfig cfg = default_config();
  OscillatorSystem baseline(cfg);
  const SimulationResult rb = baseline.run(20e-3);
  const int settled_code = rb.final_code;

  OscillatorSystemConfig with_nvm = cfg;
  with_nvm.regulation.nvm_code = settled_code;
  OscillatorSystem nvm_sys(with_nvm);
  const SimulationResult rn = nvm_sys.run(20e-3);
  // With the NVM preset at the settled code, the code trajectory barely
  // moves after the preset.
  int moves = 0;
  for (std::size_t i = 1; i < rn.ticks.size(); ++i) {
    if (rn.ticks[i].code != rn.ticks[i - 1].code) ++moves;
  }
  EXPECT_LE(moves, 3);
}

TEST(System, MismatchedNonMonotonicDacStillRegulates) {
  // Section 4: "the converter can even be non-monotonic".
  const std::uint64_t seed = dac::find_seed_with_single_negative_step(96);
  OscillatorSystemConfig cfg = default_config();
  OscillatorSystem sys(cfg);
  sys.driver().use_mismatched_dac(std::make_shared<const dac::CurrentLimitationDac>(
      kDacUnitCurrent, dac::MismatchConfig{}, seed));
  const SimulationResult r = sys.run(25e-3);
  EXPECT_NEAR(r.settled_amplitude(), 2.7, 2.7 * 0.08);
  EXPECT_FALSE(r.final_faults.any());
}

TEST(System, SupplyCurrentScalesInverselyWithQuality) {
  // Section 9: 250 uA (good tank) .. 30 mA (poor tank).
  auto steady_current = [](double q) {
    OscillatorSystem sys(default_config(q));
    const SimulationResult r = sys.run(30e-3);
    return r.ticks.back().supply_current;
  };
  const double high_q = steady_current(150.0);
  const double low_q = steady_current(3.0);
  EXPECT_LT(high_q, 2e-3);
  EXPECT_GT(low_q, 5.0 * high_q);
}

TEST(System, EnvelopeIsRecordedEvenWithoutWaveforms) {
  OscillatorSystemConfig cfg = default_config();
  cfg.waveform_decimation = 0;
  OscillatorSystem sys(cfg);
  const SimulationResult r = sys.run(3e-3);
  EXPECT_TRUE(r.differential.empty());
  EXPECT_GT(r.envelope.size(), 1000u);
}

TEST(System, SlowDriverWastesCurrent) {
  // Section 5: the driver must be much faster than the oscillation; a
  // driver pole at f0 turns drive current reactive and costs extra code.
  auto settle = [](double bandwidth) {
    OscillatorSystemConfig cfg = default_config();
    cfg.driver_bandwidth = bandwidth;
    cfg.steps_per_period = 128;
    OscillatorSystem sys(cfg);
    return sys.run(25e-3);
  };
  const SimulationResult ideal = settle(0.0);
  const SimulationResult slow = settle(4.0e6);  // pole right at f0
  // Both regulate to target...
  EXPECT_NEAR(ideal.settled_amplitude(), 2.7, 2.7 * 0.08);
  EXPECT_NEAR(slow.settled_amplitude(), 2.7, 2.7 * 0.08);
  // ...but the slow driver needs substantially more current limit.
  EXPECT_GE(slow.final_code, ideal.final_code + 8);
  EXPECT_GT(slow.ticks.back().supply_current, 1.4 * ideal.ticks.back().supply_current);
}

// --- fault injection ---------------------------------------------------------

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

TEST(RunSession, FinishMatchesStraightRunExactly) {
  OscillatorSystem reference(default_config());
  const SimulationResult straight = reference.run(10e-3);

  OscillatorSystem base(default_config());
  RunSession session(base, 10e-3);
  session.advance_until(4e-3);
  EXPECT_GE(session.time(), 4e-3);
  expect_results_identical(straight, session.finish());
}

TEST(RunSession, CopyInjectMatchesScheduledFault) {
  // The batched internal-FMEA recipe: pause a healthy run at the
  // injection time, copy the session per fault, inject, finish.  The
  // result must be bit-identical to a fresh system with the fault
  // scheduled up front -- and one prefix must serve several variants.
  const double settle = 6e-3;
  const double duration = 10e-3;

  OscillatorSystem base(default_config());
  RunSession prefix(base, duration);
  prefix.advance_until(settle);

  for (const auto& fault :
       {faults::make_gm_collapse(),
        faults::make_fault(faults::InternalFaultKind::WindowStuckHigh)}) {
    OscillatorSystem reference(default_config());
    reference.schedule_internal_fault(fault, settle);
    const SimulationResult scheduled = reference.run(duration);

    RunSession variant(prefix);
    variant.inject_internal_fault(fault);
    expect_results_identical(scheduled, variant.finish());
  }

  // The external-FMEA recipe: every tank fault at the Section 7 bench
  // severities, injected as a FaultEvent on a copy of the same prefix.
  tank::FaultSeverity severity;
  severity.resistance_factor = 30.0;
  severity.shorted_turn_fraction = 0.9;
  for (const tank::TankFault fault : fmea_fault_list()) {
    OscillatorSystem reference(default_config());
    reference.schedule_fault(fault, settle, severity);
    const SimulationResult scheduled = reference.run(duration);

    RunSession variant(prefix);
    variant.inject(FaultEvent{fault, severity});
    SCOPED_TRACE(tank::to_string(fault));
    expect_results_identical(scheduled, variant.finish());
  }
}

TEST(RunSession, InjectionRequiresNoPendingEvents) {
  // A session carrying scheduled events cannot also take a late
  // injection: the combined ordering would be ambiguous.
  OscillatorSystem sys(default_config());
  sys.schedule_internal_fault(faults::make_gm_collapse(), 8e-3);
  RunSession session(sys, 10e-3);
  EXPECT_THROW(session.inject_internal_fault(faults::make_gm_collapse()), ConfigError);
  EXPECT_THROW(session.inject(FaultEvent{tank::TankFault::OpenCoil, {}}), ConfigError);

  // A session that already took an injection is in the same position.
  OscillatorSystem healthy(default_config());
  RunSession injected(healthy, 10e-3);
  injected.inject(FaultEvent{tank::TankFault::ShortedTurns, {}});
  EXPECT_THROW(injected.inject(FaultEvent{tank::TankFault::OpenCoil, {}}), ConfigError);
}

// --- flush-to-zero in the RK4 loop (DESIGN.md §17) ---------------------------

// The two Section 7 bench faults that push the tank below its oscillation
// condition (Q 40 -> ~2 and ~1.3).  Without the flush the decaying
// oscillation stalls on subnormal pin voltages from ~0.1 ms after the
// injection on.
TEST(FlushToZero, CollapsedTankNeverStallsOnSubnormals) {
  const double settle = 2e-3;
  tank::FaultSeverity severity;
  severity.resistance_factor = 30.0;
  severity.shorted_turn_fraction = 0.9;
  for (const tank::TankFault fault :
       {tank::TankFault::ShortedTurns, tank::TankFault::IncreasedResistance}) {
    OscillatorSystemConfig cfg = default_config();
    cfg.waveform_decimation = 1;
    OscillatorSystem sys(cfg);
    sys.schedule_fault(fault, settle, severity);
    const SimulationResult r = sys.run(4e-3);

    std::size_t samples = 0;
    std::size_t subnormal = 0;
    for (const Trace* trace : {&r.v_lc1, &r.v_lc2}) {
      for (std::size_t i = 0; i < trace->size(); ++i) {
        if (trace->time(i) < settle) continue;
        ++samples;
        if (std::fpclassify(trace->value(i)) == FP_SUBNORMAL) ++subnormal;
      }
    }
    EXPECT_GT(samples, 1000000u) << tank::to_string(fault);
    EXPECT_EQ(subnormal, 0u) << tank::to_string(fault);
    // The oscillation really died: the run ends far below any normal
    // signal level, which is where the subnormals used to appear.
    EXPECT_LT(std::abs(r.v_lc1.values().back()), 1e-300) << tank::to_string(fault);
    EXPECT_EQ(r.final_code, 127) << tank::to_string(fault);
  }
}

#if defined(__x86_64__) || defined(_M_X64)
constexpr unsigned int kMxcsrFlushToZero = 1u << 15;
// MXCSR without its six sticky exception flags (bits 0-5): any inexact
// FP instruction sets those, including a sanitizer runtime's after the
// guard has restored the word, so the contract covers the control bits.
unsigned int mxcsr_control() { return _mm_getcsr() & ~0x3Fu; }

// The loop sets FTZ only while it runs: the caller's MXCSR comes back on
// every exit, normal or by exception.
TEST(FlushToZero, CallerControlWordRestoredOnEveryExit) {
  const unsigned int caller = mxcsr_control();
  ASSERT_EQ(caller & kMxcsrFlushToZero, 0u);

  {
    OscillatorSystem sys(default_config());
    (void)sys.run(1e-3);
    EXPECT_EQ(mxcsr_control(), caller) << "run()";
  }
  {
    OscillatorSystem sys(default_config());
    sys.schedule_internal_fault(faults::make_fault(faults::InternalFaultKind::SelfTestThrow),
                                0.5e-3);
    EXPECT_THROW((void)sys.run(1e-3), ConvergenceError);
    EXPECT_EQ(mxcsr_control(), caller) << "ConvergenceError";
  }
  {
    OscillatorSystemConfig cfg = default_config();
    cfg.step_budget = 400000;  // above the 256k steps of the run: only the stall hits it
    OscillatorSystem sys(cfg);
    sys.schedule_internal_fault(faults::make_fault(faults::InternalFaultKind::SelfTestStall),
                                0.5e-3);
    EXPECT_THROW((void)sys.run(1e-3), BudgetExceededError);
    EXPECT_EQ(mxcsr_control(), caller) << "BudgetExceededError";
  }
  {
    OscillatorSystem sys(default_config());
    RunSession session(sys, 1e-3);
    session.advance_until(0.5e-3);
    EXPECT_EQ(mxcsr_control(), caller) << "advance_until";
    (void)session.finish();
    EXPECT_EQ(mxcsr_control(), caller) << "finish";
  }
}

TEST(FlushToZero, CallerFlushToZeroModeIsKept) {
  const unsigned int saved = _mm_getcsr();
  _mm_setcsr(saved | kMxcsrFlushToZero);
  const unsigned int caller = mxcsr_control();
  OscillatorSystem sys(default_config());
  (void)sys.run(1e-3);
  const unsigned int after = mxcsr_control();
  _mm_setcsr(saved);
  EXPECT_EQ(after, caller);
  EXPECT_NE(after & kMxcsrFlushToZero, 0u);
}
#endif

TEST(FaultInjection, OpenCoilTripsWatchdogAndSafeState) {
  OscillatorSystem sys(default_config());
  sys.schedule_fault(tank::TankFault::OpenCoil, 8e-3);
  const SimulationResult r = sys.run(16e-3);
  EXPECT_TRUE(r.final_faults.missing_oscillation);
  EXPECT_EQ(r.final_mode, regulation::RegulationMode::SafeState);
  // Safety reaction: maximum output current (Section 9).
  EXPECT_EQ(r.final_code, 127);
}

TEST(FaultInjection, ShortToGroundTripsWatchdog) {
  OscillatorSystem sys(default_config());
  sys.schedule_fault(tank::TankFault::CoilShortToGround, 8e-3);
  const SimulationResult r = sys.run(16e-3);
  EXPECT_TRUE(r.final_faults.missing_oscillation);
}

TEST(FaultInjection, IncreasedResistanceTripsLowAmplitude) {
  OscillatorSystem sys(default_config(20.0));
  tank::FaultSeverity sev;
  sev.resistance_factor = 30.0;  // drags the reachable amplitude way down
  sys.schedule_fault(tank::TankFault::IncreasedResistance, 8e-3, sev);
  const SimulationResult r = sys.run(20e-3);
  EXPECT_TRUE(r.final_faults.low_amplitude);
  EXPECT_EQ(r.final_mode, regulation::RegulationMode::SafeState);
}

TEST(FaultInjection, MissingCapacitorTripsAsymmetry) {
  OscillatorSystem sys(default_config());
  sys.schedule_fault(tank::TankFault::MissingCosc1, 8e-3);
  const SimulationResult r = sys.run(16e-3);
  EXPECT_TRUE(r.final_faults.asymmetry);
}

TEST(FaultInjection, HealthyRunStaysClean) {
  OscillatorSystem sys(default_config());
  const SimulationResult r = sys.run(16e-3);
  EXPECT_FALSE(r.final_faults.any());
  EXPECT_EQ(r.first_fault_tick(), -1);
}

// --- FMEA campaign ------------------------------------------------------------

TEST(Fmea, AllFaultClassesDetected) {
  FmeaCampaignConfig cfg;
  cfg.system = default_config();
  // Parametric faults must be severe enough that even maximum drive
  // current cannot reach the low-amplitude threshold -- otherwise the
  // regulation loop rightly compensates and nothing is flagged.
  cfg.severity.resistance_factor = 30.0;
  cfg.severity.shorted_turn_fraction = 0.9;
  const FmeaReport report = run_fmea_campaign(cfg);
  ASSERT_EQ(report.rows.size(), fmea_fault_list().size());
  for (const auto& row : report.rows) {
    EXPECT_TRUE(row.detected) << tank::to_string(row.fault);
    EXPECT_TRUE(row.safe_state_entered) << tank::to_string(row.fault);
  }
  EXPECT_TRUE(report.all_detected());
}

TEST(Fmea, ExpectedChannelsMostlyHit) {
  FmeaCampaignConfig cfg;
  cfg.system = default_config();
  cfg.severity.resistance_factor = 30.0;
  cfg.severity.shorted_turn_fraction = 0.9;
  const FmeaReport report = run_fmea_campaign(cfg);
  // Every fault must at least fire its designated channel.
  EXPECT_EQ(report.expected_channel_count(), report.rows.size());
}

void expect_fmea_rows_identical(const std::vector<FmeaRow>& as,
                                const std::vector<FmeaRow>& bs) {
  ASSERT_EQ(as.size(), bs.size());
  for (std::size_t i = 0; i < as.size(); ++i) {
    const FmeaRow& a = as[i];
    const FmeaRow& b = bs[i];
    EXPECT_EQ(a.fault, b.fault) << "row " << i;
    EXPECT_EQ(a.expected, b.expected) << "row " << i;
    EXPECT_EQ(a.observed, b.observed) << "row " << i;
    EXPECT_EQ(a.detected, b.detected) << "row " << i;
    EXPECT_EQ(a.expected_channel_hit, b.expected_channel_hit) << "row " << i;
    EXPECT_EQ(a.safe_state_entered, b.safe_state_entered) << "row " << i;
    EXPECT_EQ(a.detection_latency, b.detection_latency) << "row " << i;
    EXPECT_EQ(a.final_code, b.final_code) << "row " << i;
    EXPECT_EQ(a.status, b.status) << "row " << i;
  }
}

TEST(Fmea, SharedPrefixMatchesPerCaseRows) {
  // run_fmea_campaign settles once and finishes every fault on a copy of
  // that prefix; its rows must equal the per-case path's field for field,
  // for any worker count, any span, and when a forced fallback sends the
  // cases back through the serial path.
  FmeaCampaignConfig cfg;
  cfg.system = default_config();
  cfg.severity.resistance_factor = 30.0;
  cfg.severity.shorted_turn_fraction = 0.9;
  cfg.settle_time = 3e-3;
  cfg.observe_time = 3e-3;

  const auto per_case = [&] {
    std::vector<FmeaRow> rows;
    for (std::size_t i = 0; i < fmea_case_count(); ++i) rows.push_back(run_fmea_case_at(cfg, i));
    return rows;
  };
  const std::vector<FmeaRow> reference = per_case();
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    cfg.workers = workers;
    SCOPED_TRACE(workers);
    expect_fmea_rows_identical(reference, run_fmea_campaign(cfg).rows);
  }
  expect_fmea_rows_identical({reference[1], reference[2], reference[3]},
                             run_fmea_cases(cfg, 1, 3));
  EXPECT_TRUE(run_fmea_cases(cfg, 2, 0).empty());
  EXPECT_THROW((void)run_fmea_cases(cfg, 7, 2), ConfigError);

  const double dt = 1.0 / (tank::RlcTank(cfg.system.tank).resonance_frequency() *
                           cfg.system.steps_per_period);
  const auto settle_steps = static_cast<std::size_t>(std::ceil(cfg.settle_time / dt));

  // The prefix itself exceeds the budget: every case runs serially.
  cfg.step_budget = settle_steps / 2;
  const std::vector<FmeaRow> prefix_timeout = per_case();
  for (const FmeaRow& row : prefix_timeout) {
    EXPECT_EQ(row.status.outcome, CaseOutcome::Timeout) << tank::to_string(row.fault);
  }
  expect_fmea_rows_identical(prefix_timeout, run_fmea_campaign(cfg).rows);

  // The prefix fits, every continuation throws: the serial path writes
  // the Timeout row the per-case run writes.
  cfg.step_budget = settle_steps + 2000;
  const std::vector<FmeaRow> continuation_timeout = per_case();
  for (const FmeaRow& row : continuation_timeout) {
    EXPECT_EQ(row.status.outcome, CaseOutcome::Timeout) << tank::to_string(row.fault);
    EXPECT_NE(row.status.error.find("budget"), std::string::npos);
  }
  expect_fmea_rows_identical(continuation_timeout, run_fmea_campaign(cfg).rows);
}

TEST(Fmea, ControlCaseIsCleanAndLatencyRecorded) {
  FmeaCampaignConfig cfg;
  cfg.system = default_config();
  const FmeaRow control = run_fmea_case(cfg, tank::TankFault::None);
  EXPECT_FALSE(control.detected);
  EXPECT_TRUE(control.expected_channel_hit);

  const FmeaRow open = run_fmea_case(cfg, tank::TankFault::OpenCoil);
  ASSERT_TRUE(open.detection_latency.has_value());
  EXPECT_GT(*open.detection_latency, 0.0);
  EXPECT_LT(*open.detection_latency, 5e-3);
  EXPECT_EQ(open.status.outcome, CaseOutcome::Ok);
  EXPECT_EQ(open.status.retries, 0);
}

}  // namespace
}  // namespace lcosc::system
