// The cycle-accurate engine's bits, locked by a hexfloat fixture recorded
// with the engines that preceded the present RK4 kernel (DESIGN.md §19)
// and exact orbit replay (§20).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "system/fmea_campaign.h"
#include "system/oscillator_system.h"

#ifndef LCOSC_TEST_DATA_DIR
#define LCOSC_TEST_DATA_DIR "tests/data"
#endif

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

constexpr double kDuration = 4e-3;
constexpr double kFaultAt = 2e-3;

std::string fixture_path() {
  return std::string(LCOSC_TEST_DATA_DIR) + "/rk4_engine_reference.txt";
}

// The campaign benchmark's Q=40 system (4 MHz, 3.3 uH, 0.25 ms tick, no
// waveforms, no NVM preset: the code walks on every tick).
OscillatorSystemConfig q40_system() {
  OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.regulation.tick_period = 0.25e-3;
  cfg.waveform_decimation = 0;
  return cfg;
}

// The Section 7 bench severities.
tank::FaultSeverity section7_severity() {
  tank::FaultSeverity severity;
  severity.resistance_factor = 30.0;
  severity.shorted_turn_fraction = 0.9;
  return severity;
}

struct FixtureRun {
  std::string name;
  OscillatorSystemConfig config;
  std::vector<std::pair<double, ScenarioAction>> events;
  // The tank state comes back bit for bit after the fault, so orbit
  // replay takes part of the run.
  bool repeats = false;
};

std::pair<double, ScenarioAction> fault_event(tank::TankFault fault) {
  return {kFaultAt, FaultEvent{fault, section7_severity()}};
}

// The healthy run, every external fault at kFaultAt, a slow driver and
// the Tanh limiter: every branch of the derivative and each kind of
// scenario event.  Then runs that end a replayed stretch by an event
// (between two ticks, so the event and not a tick ends it), replay the
// driver-current states, or keep a faulted Tanh run that never repeats.
std::vector<FixtureRun> fixture_runs() {
  using tank::TankFault;
  std::vector<FixtureRun> runs;
  runs.push_back({"healthy", q40_system(), {}});
  for (const TankFault fault : fmea_fault_list()) {
    runs.push_back({tank::to_string(fault), q40_system(), {fault_event(fault)},
                    fault != TankFault::MissingCosc1 && fault != TankFault::MissingCosc2});
  }
  OscillatorSystemConfig slow = q40_system();
  slow.driver_bandwidth = 40e6;
  runs.push_back({"slow-driver", slow, {}});
  OscillatorSystemConfig tanh = q40_system();
  tanh.driver.shape = driver::LimitShape::Tanh;
  runs.push_back({"tanh", tanh, {}});

  // Recovery restores the healthy tank; a collapsed one is also re-kicked.
  for (const TankFault fault : {TankFault::OpenCoil, TankFault::ShortedTurns}) {
    runs.push_back({tank::to_string(fault) + "+recovery",
                    q40_system(),
                    {fault_event(fault), {kFaultAt + 1.1e-3, RecoveryEvent{}}},
                    true});
  }
  runs.push_back({"open-coil/slow-driver", slow, {fault_event(TankFault::OpenCoil)}, true});
  runs.push_back({"degraded-cosc1/tanh", tanh, {fault_event(TankFault::DegradedCosc1)}});
  runs.push_back({"coil-short-to-ground+temperature",
                  q40_system(),
                  {fault_event(TankFault::CoilShortToGround),
                   {kFaultAt + 1.6e-3, TemperatureEvent{400.0}}},
                  true});
  return runs;
}

OscillatorSystem fixture_system(const FixtureRun& run) {
  OscillatorSystem sys(run.config);
  for (const auto& [at, action] : run.events) sys.schedule_event(at, action);
  return sys;
}

std::string flag_bits(const safety::FaultFlags& f) {
  return std::to_string(f.missing_oscillation) + std::to_string(f.low_amplitude) +
         std::to_string(f.asymmetry) + std::to_string(f.frequency_out_of_band);
}

// One run in the fixture's format: per tick time, code, vdc1, supply
// current and flags; then the final code, mode and flags and the
// envelope's sample count and last sample.
std::string render_run(const std::string& name, const SimulationResult& r) {
  std::string out = "run " + name + "\n";
  char line[256];
  for (const TickRecord& tick : r.ticks) {
    std::snprintf(line, sizeof line, "tick %a %d %a %a %s\n", tick.time, tick.code, tick.vdc1,
                  tick.supply_current, flag_bits(tick.faults).c_str());
    out += line;
  }
  const bool env = !r.envelope.empty();
  std::snprintf(line, sizeof line, "final %d %d %s envelope %zu %a %a\n", r.final_code,
                static_cast<int>(r.final_mode), flag_bits(r.final_faults).c_str(),
                r.envelope.size(), env ? r.envelope.end_time() : 0.0,
                env ? r.envelope.values().back() : 0.0);
  out += line;
  return out;
}

constexpr const char* kFixtureHeader =
    "# cycle-accurate engine reference (hexfloat, exact bits): Q=40 tank at 4 MHz,\n"
    "# 3.3 uH, 0.25 ms tick, 64 steps/period, 4 ms runs; external faults at 2 ms\n"
    "# (Rs x30, 90 % shorted turns); slow-driver = 40 MHz driver bandwidth;\n"
    "# +recovery at 3.1 ms; +temperature = 400 K at 3.6 ms.\n"
    "# Runs healthy to tanh were recorded with the engine that preceded the\n"
    "# one-step RK4 kernel (OscillatorSystem::derivatives + the rk4_step lambda),\n"
    "# the runs after them with the one-step kernel before exact orbit replay.\n"
    "# Both by:\n"
    "#   LCOSC_REGEN_GOLDEN=1 build/tests/test_engine_fixture "
    "--gtest_filter=EngineFixture.RunMatchesFixture\n";

// run() reproduces the fixture bit for bit.
TEST(EngineFixture, RunMatchesFixture) {
  std::string rendered = kFixtureHeader;
  for (const FixtureRun& run : fixture_runs()) {
    OscillatorSystem sys = fixture_system(run);
    rendered += render_run(run.name, sys.run(kDuration));
  }
  if (std::getenv("LCOSC_REGEN_GOLDEN") != nullptr) {
    ASSERT_TRUE(lcosc::write_file_atomic(fixture_path(), rendered))
        << "cannot write " << fixture_path();
    GTEST_SKIP() << "regenerated " << fixture_path();
  }
  std::ifstream in(fixture_path());
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path();
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(rendered, text.str());
}

// A session that records no envelope (the fault sweep's) takes the same
// ticks to the same end; only its envelope is empty.
TEST(EngineFixture, SessionWithoutEnvelopeDiffersOnlyInTheEnvelope) {
  for (const FixtureRun& run : fixture_runs()) {
    SCOPED_TRACE(run.name);
    SimulationResult straight = fixture_system(run).run(kDuration);
    RunSession session(fixture_system(run), kDuration, /*record_envelope=*/false);
    const SimulationResult quiet = session.finish();
    EXPECT_TRUE(quiet.envelope.empty());
    EXPECT_FALSE(straight.envelope.empty());
    straight.envelope = quiet.envelope;
    EXPECT_EQ(render_run(run.name, quiet), render_run(run.name, straight));
  }
}

// Steps the runs finished since `registry` was reset replayed.
std::uint64_t replayed_steps(const obs::MetricsRegistry& registry) {
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  const obs::CounterSnapshot* counter = snapshot.find_counter("system.replayed_steps");
  return counter != nullptr ? counter->value : 0;
}

// Without this a change could switch replay off and still match the
// fixture: every run that repeats must replay, and no other run may.
TEST(EngineFixture, RunsThatRepeatReplayAndNoOtherRunDoes) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  for (const FixtureRun& run : fixture_runs()) {
    SCOPED_TRACE(run.name);
    registry.reset();
    (void)fixture_system(run).run(kDuration);
    if (run.repeats) {
      EXPECT_GT(replayed_steps(registry), 0u);
    } else {
      EXPECT_EQ(replayed_steps(registry), 0u);
    }
  }
  obs::set_metrics_enabled(was_enabled);
}

// A session paused between two ticks of a replayed stretch, and a copy of
// it, both finish as the straight run.  The copy drops the period and
// probes again, so it replays fewer steps; the original replays as many.
TEST(EngineFixture, SessionCopiedMidReplayFinishesLikeTheStraightRun) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  constexpr double kPause = 3.1e-3;  // between the ticks at 3 and 3.25 ms
  for (const FixtureRun& run : fixture_runs()) {
    if (run.name != "coil-short-to-ground" && run.name != "degraded-cosc1") continue;
    SCOPED_TRACE(run.name);
    registry.reset();
    const std::string straight = render_run(run.name, fixture_system(run).run(kDuration));
    const std::uint64_t straight_replayed = replayed_steps(registry);

    RunSession original(fixture_system(run), kDuration);
    original.advance_until(kPause);
    RunSession copy(original);
    registry.reset();
    EXPECT_EQ(render_run(run.name, original.finish()), straight);
    EXPECT_EQ(replayed_steps(registry), straight_replayed);
    registry.reset();
    EXPECT_EQ(render_run(run.name, copy.finish()), straight);
    EXPECT_LT(replayed_steps(registry), straight_replayed);
  }
  obs::set_metrics_enabled(was_enabled);
}

}  // namespace
}  // namespace lcosc::system
