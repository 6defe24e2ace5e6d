// Lockstep SoA envelope engine versus the serial EnvelopeSimulator
// reference, plus the building blocks (BatchedState, device banks).
// Every comparison here is EXACT equality: the batched engine's contract
// is bit-identity with the serial path, not closeness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "devices/batched_blocks.h"
#include "devices/lowpass.h"
#include "numeric/batched_state.h"
#include "obs/metrics.h"
#include "system/batched_envelope.h"
#include "system/envelope_simulator.h"

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

EnvelopeSimConfig base_config() {
  EnvelopeSimConfig cfg;
  cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.regulation.tick_period = 0.25e-3;
  return cfg;
}

TEST(BatchedState, ChannelsAreZeroInitializedSpans) {
  BatchedState state(3, 5);
  EXPECT_EQ(state.channels(), 3u);
  EXPECT_EQ(state.lanes(), 5u);
  for (std::size_t c = 0; c < 3; ++c) {
    auto span = state.channel(c);
    ASSERT_EQ(span.size(), 5u);
    for (const double v : span) EXPECT_EQ(v, 0.0);
  }
  state.at(1, 2) = 42.0;
  EXPECT_EQ(state.channel(1)[2], 42.0);
  EXPECT_EQ(state.channel(0)[2], 0.0);
}

TEST(BatchedState, DeactivationTracksActiveLanes) {
  BatchedState state(1, 3);
  EXPECT_TRUE(state.any_active());
  EXPECT_EQ(state.active_count(), 3u);
  state.deactivate(1);
  state.deactivate(1);  // idempotent
  EXPECT_EQ(state.active_count(), 2u);
  EXPECT_TRUE(state.active(0));
  EXPECT_FALSE(state.active(1));
  state.deactivate(0);
  state.deactivate(2);
  EXPECT_FALSE(state.any_active());
}

TEST(BatchedState, InvalidShapesRejected) {
  EXPECT_THROW(BatchedState(0, 4), Error);
  EXPECT_THROW(BatchedState(2, 0), Error);
}

TEST(DeviceBanks, LowPassBankMatchesScalarFilterExactly) {
  const double tau = 20e-6;
  constexpr std::size_t kLanes = 7;
  devices::LowPassBank bank(tau, kLanes);
  std::vector<devices::LowPassFilter> scalars(kLanes, devices::LowPassFilter(tau));

  std::vector<double> x(kLanes);
  for (int step = 0; step < 200; ++step) {
    // Mid-run dt change exercises the memoized alpha.
    const double dt = step < 120 ? 2e-6 : 1e-6;
    for (std::size_t i = 0; i < kLanes; ++i) {
      x[i] = std::sin(0.1 * step + 0.37 * static_cast<double>(i));
      scalars[i].step(dt, x[i]);
    }
    bank.step(dt, x);
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_EQ(bank.output(i), scalars[i].output()) << "lane " << i << " step " << step;
    }
  }
}

TEST(DeviceBanks, RectifiedMeanBankMatchesScalarExpression) {
  const std::vector<double> amps = {0.05, 1.0, 2.7, 3.3};
  std::vector<double> out(amps.size());
  devices::rectified_mean_bank(amps, out);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    EXPECT_EQ(out[i], amps[i] / kPi);
  }
}

TEST(DeviceBanks, WindowVerdictBankMatchesSerialClassification) {
  const std::vector<double> vdc1 = {0.5, 0.8, 1.2, 0.8600000000000001, 0.86};
  const std::vector<double> vr3 = {0.86, 0.86, 0.86, 0.86, 0.86};
  const std::vector<double> vr4 = {0.94, 0.94, 0.94, 0.94, 0.94};
  std::vector<devices::WindowState> out(vdc1.size());
  devices::window_verdict_bank(vdc1, vr3, vr4, out);
  for (std::size_t i = 0; i < vdc1.size(); ++i) {
    devices::WindowState expected = devices::WindowState::Inside;
    if (vdc1[i] < vr3[i]) expected = devices::WindowState::Below;
    else if (vdc1[i] > vr4[i]) expected = devices::WindowState::Above;
    EXPECT_EQ(out[i], expected) << "lane " << i;
  }
}

TEST(BatchedEnvelope, MatchesSerialSimulatorExactly) {
  // Heterogeneous lanes: component spread plus one mismatched DAC.
  std::vector<BatchedEnvelopeLane> lanes;
  const double scale[4] = {1.0, 0.93, 1.08, 1.02};
  for (int i = 0; i < 4; ++i) {
    BatchedEnvelopeLane lane;
    lane.config = base_config();
    lane.config.tank.inductance *= scale[i];
    lane.config.tank.capacitance1 *= scale[(i + 1) % 4];
    lane.config.tank.series_resistance *= scale[(i + 2) % 4];
    if (i == 2) {
      dac::MismatchConfig mismatch;
      lane.mismatch_dac = std::make_shared<const dac::CurrentLimitationDac>(
          lane.config.driver.unit_current, mismatch, 77u);
    }
    lanes.push_back(lane);
  }

  const double duration = 20e-3;
  const auto batched = run_batched_envelope(lanes, duration);
  ASSERT_EQ(batched.size(), lanes.size());

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EnvelopeSimulator sim(lanes[i].config);
    if (lanes[i].mismatch_dac != nullptr) {
      sim.driver().use_mismatched_dac(lanes[i].mismatch_dac);
    }
    const EnvelopeRunResult serial = sim.run(duration);

    EXPECT_FALSE(batched[i].setup_failed) << "lane " << i;
    EXPECT_FALSE(batched[i].diverged) << "lane " << i;
    EXPECT_EQ(batched[i].final_code, serial.final_code) << "lane " << i;
    EXPECT_EQ(batched[i].settled_amplitude, serial.settled_amplitude()) << "lane " << i;
    ASSERT_FALSE(serial.ticks.empty());
    EXPECT_EQ(batched[i].supply_current, serial.ticks.back().supply_current)
        << "lane " << i;
    EXPECT_EQ(batched[i].substeps, serial.substeps) << "lane " << i;
  }
}

TEST(BatchedEnvelope, MemoizedStepsMatchSerialAcrossTwoDecadesOfQ) {
  // The benchmark's Q sweep regime: 4 MHz tanks at Q = 5, 40 and 320,
  // each with its own mismatched DAC, over 40 ms.  Low-Q lanes sit at
  // their balance point and replay their last step; Q = 320 lanes keep
  // moving, so both the memo and the guarded step run.
  std::vector<BatchedEnvelopeLane> lanes;
  std::uint64_t dac_seed = 11;
  for (const double q : {5.0, 40.0, 320.0}) {
    for (int k = 0; k < 2; ++k) {
      BatchedEnvelopeLane lane;
      lane.config = base_config();
      lane.config.tank = tank::design_tank(4.0_MHz, q, 3.3_uH);
      lane.mismatch_dac = std::make_shared<const dac::CurrentLimitationDac>(
          lane.config.driver.unit_current, dac::MismatchConfig{}, dac_seed++);
      lanes.push_back(lane);
    }
  }

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();
  const std::uint64_t hits_before = registry.counter("envelope.batched.memo_hits").total();
  const std::uint64_t steps_before = registry.counter("envelope.batched.lane_steps").total();
  const double duration = 40e-3;
  const auto batched = run_batched_envelope(lanes, duration);
  const std::uint64_t hits = registry.counter("envelope.batched.memo_hits").total() - hits_before;
  const std::uint64_t steps =
      registry.counter("envelope.batched.lane_steps").total() - steps_before;
  obs::set_metrics_enabled(was_enabled);
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, steps);

  ASSERT_EQ(batched.size(), lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EnvelopeSimulator sim(lanes[i].config);
    sim.driver().use_mismatched_dac(lanes[i].mismatch_dac);
    const EnvelopeRunResult serial = sim.run(duration);

    ASSERT_FALSE(batched[i].setup_failed) << "lane " << i;
    ASSERT_FALSE(batched[i].diverged) << "lane " << i;
    EXPECT_EQ(batched[i].final_code, serial.final_code) << "lane " << i;
    EXPECT_EQ(batched[i].settled_amplitude, serial.settled_amplitude()) << "lane " << i;
    ASSERT_FALSE(serial.ticks.empty());
    EXPECT_EQ(batched[i].supply_current, serial.ticks.back().supply_current)
        << "lane " << i;
    EXPECT_EQ(batched[i].substeps, serial.substeps) << "lane " << i;
  }
}

TEST(BatchedEnvelope, BadLaneIsFlaggedNotFatal) {
  // A lane with a nonsense tank must not poison its batch mates.
  std::vector<BatchedEnvelopeLane> lanes(2);
  lanes[0].config = base_config();
  lanes[1].config = base_config();
  lanes[1].config.tank.inductance = -1.0;  // RlcTank construction throws
  const auto results = run_batched_envelope(lanes, 5e-3);
  EXPECT_FALSE(results[0].setup_failed);
  EXPECT_TRUE(results[1].setup_failed);

  EnvelopeSimulator reference(lanes[0].config);
  const auto serial = reference.run(5e-3);
  EXPECT_EQ(results[0].final_code, serial.final_code);
  EXPECT_EQ(results[0].settled_amplitude, serial.settled_amplitude());
}

TEST(BatchedEnvelope, StreamingEngineMatchesOneShotBatch) {
  // The rolling-window engine must produce, lane for lane, exactly the
  // result a single all-lanes-at-once batch produces -- lanes are
  // arithmetically independent, so grouping is invisible.  chunk sizes
  // that do not divide the total exercise the ragged final window.
  constexpr std::size_t kTotal = 11;
  const double scale[4] = {1.0, 0.93, 1.08, 1.02};
  auto make_lane = [&](std::size_t i) {
    BatchedEnvelopeLane lane;
    lane.config = base_config();
    lane.config.tank.inductance *= scale[i % 4];
    lane.config.tank.series_resistance *= scale[(i + 2) % 4];
    return lane;
  };

  std::vector<BatchedEnvelopeLane> all;
  for (std::size_t i = 0; i < kTotal; ++i) all.push_back(make_lane(i));
  const double duration = 5e-3;
  const std::vector<BatchedLaneResult> one_shot = run_batched_envelope(all, duration);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
    const BatchedEnvelopeEngine engine(chunk);
    EXPECT_EQ(engine.chunk_lanes(), chunk);
    std::vector<BatchedLaneResult> streamed(kTotal);
    std::vector<std::size_t> order;
    engine.run(kTotal, duration, make_lane,
               [&](std::size_t index, const BatchedLaneResult& result) {
                 order.push_back(index);
                 streamed[index] = result;
               });
    // Sink fires once per lane, in lane order.
    ASSERT_EQ(order.size(), kTotal) << "chunk " << chunk;
    for (std::size_t i = 0; i < kTotal; ++i) EXPECT_EQ(order[i], i) << "chunk " << chunk;
    for (std::size_t i = 0; i < kTotal; ++i) {
      EXPECT_EQ(streamed[i].final_code, one_shot[i].final_code)
          << "chunk " << chunk << " lane " << i;
      EXPECT_EQ(streamed[i].settled_amplitude, one_shot[i].settled_amplitude)
          << "chunk " << chunk << " lane " << i;
      EXPECT_EQ(streamed[i].supply_current, one_shot[i].supply_current)
          << "chunk " << chunk << " lane " << i;
      EXPECT_EQ(streamed[i].substeps, one_shot[i].substeps)
          << "chunk " << chunk << " lane " << i;
    }
  }
}

TEST(BatchedEnvelope, StreamingEngineRejectsZeroChunk) {
  EXPECT_THROW(BatchedEnvelopeEngine(0), Error);
}

TEST(BatchedEnvelope, SharedGridIsRequired) {
  EXPECT_THROW((void)run_batched_envelope({}, 1e-3), Error);

  std::vector<BatchedEnvelopeLane> lanes(2);
  lanes[0].config = base_config();
  lanes[1].config = base_config();
  EXPECT_THROW((void)run_batched_envelope(lanes, 0.0), Error);

  lanes[1].config.dt *= 2.0;  // mismatched step grid
  EXPECT_THROW((void)run_batched_envelope(lanes, 1e-3), Error);

  lanes[1].config = base_config();
  lanes[1].config.adaptive = true;  // lockstep engine is fixed-step only
  EXPECT_THROW((void)run_batched_envelope(lanes, 1e-3), Error);
}

}  // namespace
}  // namespace lcosc::system
