// The cycle-accurate engine's bits, locked by a hexfloat fixture recorded
// with the engine that preceded the present RK4 kernel (DESIGN.md §19).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/units.h"
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
  std::optional<tank::TankFault> fault;
};

// The healthy run, every external fault at kFaultAt, a slow driver and
// the Tanh limiter: every branch of the derivative and each kind of
// scenario event.
std::vector<FixtureRun> fixture_runs() {
  std::vector<FixtureRun> runs;
  runs.push_back({"healthy", q40_system(), std::nullopt});
  for (const tank::TankFault fault : fmea_fault_list()) {
    runs.push_back({tank::to_string(fault), q40_system(), fault});
  }
  OscillatorSystemConfig slow = q40_system();
  slow.driver_bandwidth = 40e6;
  runs.push_back({"slow-driver", slow, std::nullopt});
  OscillatorSystemConfig tanh = q40_system();
  tanh.driver.shape = driver::LimitShape::Tanh;
  runs.push_back({"tanh", tanh, std::nullopt});
  return runs;
}

OscillatorSystem fixture_system(const FixtureRun& run) {
  OscillatorSystem sys(run.config);
  if (run.fault) sys.schedule_fault(*run.fault, kFaultAt, section7_severity());
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
    "# (Rs x30, 90 % shorted turns); slow-driver = 40 MHz driver bandwidth.\n"
    "# Recorded with the engine that preceded the one-step RK4 kernel\n"
    "# (OscillatorSystem::derivatives + the rk4_step lambda), by:\n"
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

}  // namespace
}  // namespace lcosc::system
