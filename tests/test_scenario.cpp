// Scripted multi-event scenarios: fault -> safe state -> repair ->
// recovery, and temperature steps during operation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/units.h"
#include "system/oscillator_system.h"

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

OscillatorSystemConfig scenario_config() {
  OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.regulation.tick_period = 0.25e-3;
  cfg.safety.low_amplitude.persistence = 2e-3;
  cfg.waveform_decimation = 0;
  return cfg;
}

TEST(Scenario, FaultThenRecoveryReturnsToRegulation) {
  OscillatorSystem sys(scenario_config());
  sys.schedule_event(8e-3, FaultEvent{tank::TankFault::OpenCoil, {}});
  sys.schedule_event(16e-3, RecoveryEvent{});
  const SimulationResult r = sys.run(40e-3);

  // During the fault: safe state (code 127, watchdog latched).
  bool saw_safe_state = false;
  for (const auto& tick : r.ticks) {
    if (tick.time > 10e-3 && tick.time < 16e-3) {
      saw_safe_state |= tick.faults.missing_oscillation && tick.code == 127;
    }
  }
  EXPECT_TRUE(saw_safe_state);

  // After recovery: faults cleared, regulation pulls the code back down
  // from 127 and the amplitude returns to the window.
  EXPECT_FALSE(r.final_faults.any());
  EXPECT_EQ(r.final_mode, regulation::RegulationMode::Regulating);
  EXPECT_LT(r.final_code, 127);
  EXPECT_NEAR(r.settled_amplitude(0.1), 2.7, 2.7 * 0.10);
}

TEST(Scenario, RepeatedFaultsEachDetected) {
  OscillatorSystem sys(scenario_config());
  sys.schedule_event(8e-3, FaultEvent{tank::TankFault::CoilShortToGround, {}});
  sys.schedule_event(14e-3, RecoveryEvent{});
  sys.schedule_event(24e-3, FaultEvent{tank::TankFault::OpenCoil, {}});
  const SimulationResult r = sys.run(32e-3);

  // First fault latched, then cleared, then latched again.
  bool cleared_between = false;
  for (const auto& tick : r.ticks) {
    if (tick.time > 18e-3 && tick.time < 23e-3 && !tick.faults.any()) {
      cleared_between = true;
    }
  }
  EXPECT_TRUE(cleared_between);
  EXPECT_TRUE(r.final_faults.missing_oscillation);
  EXPECT_EQ(r.final_mode, regulation::RegulationMode::SafeState);
}

TEST(Scenario, TemperatureStepShiftsTheWindow) {
  // A hot step drifts the bandgap window slightly; the loop stays locked
  // (the drift is well below one regulation step).
  OscillatorSystem sys(scenario_config());
  sys.schedule_event(15e-3, TemperatureEvent{423.0});
  const SimulationResult r = sys.run(30e-3);
  EXPECT_FALSE(r.final_faults.any());
  EXPECT_NEAR(r.settled_amplitude(0.2), 2.7, 2.7 * 0.08);
}

TEST(Scenario, EventsSortedRegardlessOfScheduleOrder) {
  OscillatorSystem sys(scenario_config());
  sys.schedule_event(16e-3, RecoveryEvent{});
  sys.schedule_event(8e-3, FaultEvent{tank::TankFault::OpenCoil, {}});  // earlier, added later
  const SimulationResult r = sys.run(30e-3);
  EXPECT_FALSE(r.final_faults.any());  // recovery really ran after the fault
}

TEST(Scenario, SameInstantEventsApplyInScheduleOrder) {
  // Events of one instant fire in the order they were scheduled, however
  // many there are: an introsort of 18 equal-time events used to move
  // the recovery ahead of the open coil, leaving the run latched in the
  // safe state at code 127.
  auto run = [](int temperature_steps) {
    OscillatorSystem sys(scenario_config());
    for (int i = 0; i < temperature_steps; ++i) sys.schedule_event(2e-3, TemperatureEvent{300.0});
    sys.schedule_event(2e-3, FaultEvent{tank::TankFault::OpenCoil, {}});
    sys.schedule_event(2e-3, RecoveryEvent{});
    return sys.run(5e-3);
  };
  const SimulationResult plain = run(0);
  const SimulationResult crowded = run(16);
  EXPECT_FALSE(plain.final_faults.any());
  EXPECT_EQ(plain.final_mode, regulation::RegulationMode::Regulating);
  EXPECT_EQ(plain.final_code, 86);

  ASSERT_EQ(crowded.ticks.size(), plain.ticks.size());
  for (std::size_t i = 0; i < plain.ticks.size(); ++i) {
    EXPECT_EQ(crowded.ticks[i].code, plain.ticks[i].code) << "tick " << i;
    EXPECT_EQ(crowded.ticks[i].vdc1, plain.ticks[i].vdc1) << "tick " << i;
    EXPECT_EQ(crowded.ticks[i].faults, plain.ticks[i].faults) << "tick " << i;
    EXPECT_EQ(crowded.ticks[i].supply_current, plain.ticks[i].supply_current) << "tick " << i;
  }
  EXPECT_EQ(crowded.final_faults, plain.final_faults);
  EXPECT_EQ(crowded.final_mode, plain.final_mode);
  EXPECT_EQ(crowded.final_code, plain.final_code);
}

TEST(Scenario, NegativeEventTimeRejected) {
  OscillatorSystem sys(scenario_config());
  EXPECT_THROW(sys.schedule_event(-1.0, RecoveryEvent{}), ConfigError);
}

}  // namespace
}  // namespace lcosc::system
