#include "system/magnetic_sensor.h"

#include <array>
#include <cmath>

#include "common/constants.h"
#include "common/error.h"
#include "devices/lowpass.h"

namespace lcosc::system {

tank::InductanceMatrix MagneticSensorSystem::build_magnetics(
    const MagneticSensorConfig& config) {
  Matrix k(3, 3);
  const double k1 = config.peak_coupling * std::sin(config.rotor_angle);
  const double k2 = config.peak_coupling * std::cos(config.rotor_angle);
  k(0, 1) = k(1, 0) = k1;
  k(0, 2) = k(2, 0) = k2;
  k(1, 2) = k(2, 1) = config.receive_cross_coupling;
  return tank::InductanceMatrix(
      {config.tank.inductance, config.receive_inductance, config.receive_inductance}, k);
}

MagneticSensorSystem::MagneticSensorSystem(MagneticSensorConfig config)
    : config_(config),
      magnetics_(build_magnetics(config)),
      driver_(config.driver),
      detector_(config.detector),
      fsm_(config.regulation) {
  LCOSC_REQUIRE(config_.load_resistance > 0.0 && config_.receive_resistance > 0.0,
                "receiving coil resistances must be positive");
  LCOSC_REQUIRE(config_.steps_per_period >= 16, "need at least 16 steps per period");
  // Guard against a stiff receiving-coil pole relative to the RF step:
  // tau_rx = L/(Rcoil+Rload) must stay above ~2 integration steps.
  const double dt = 1.0 / (tank::RlcTank(config_.tank).resonance_frequency() *
                           config_.steps_per_period);
  const double tau_rx = config_.receive_inductance /
                        (config_.receive_resistance + config_.load_resistance);
  LCOSC_REQUIRE(tau_rx > 2.0 * dt,
                "receiving-coil pole too fast for the integration step; lower the load "
                "resistance or raise steps_per_period");
}

MagneticSensorResult MagneticSensorSystem::run(double duration) {
  LCOSC_REQUIRE(duration > 0.0, "duration must be positive");
  const tank::RlcTank tk(config_.tank);
  const double dt = 1.0 / (tk.resonance_frequency() * config_.steps_per_period);

  fsm_.por_reset();
  driver_.set_code(fsm_.code());
  driver_.set_enabled(true);
  detector_.reset();

  // States: v1, v2 (excitation pins), i_exc, i_rx1, i_rx2.
  std::array<double, 5> s{0.5 * config_.startup_kick, -0.5 * config_.startup_kick, 0.0, 0.0,
                          0.0};

  // Synchronous demodulation of the receiving-coil load voltages against
  // the excitation differential.
  devices::SynchronousRectifierFilter demod_sin(config_.demod_filter_tau);
  devices::SynchronousRectifierFilter demod_cos(config_.demod_filter_tau);

  auto derivatives = [&](const std::array<double, 5>& x) {
    std::array<double, 5> d{};
    const driver::NodeCurrents drv = driver_.output(x[0], x[1]);
    // Coil terminal voltages.
    const Vector v_coils = {
        (x[0] - x[1]) - config_.tank.series_resistance * x[2],
        -(config_.receive_resistance + config_.load_resistance) * x[3],
        -(config_.receive_resistance + config_.load_resistance) * x[4],
    };
    const Vector di = magnetics_.current_derivatives(v_coils);
    d[0] = (drv.into_lc1 - x[2]) / config_.tank.capacitance1;
    d[1] = (drv.into_lc2 + x[2]) / config_.tank.capacitance2;
    d[2] = di[0];
    d[3] = di[1];
    d[4] = di[2];
    return d;
  };

  MagneticSensorResult result;
  result.envelope.set_name("envelope");

  double env_peak = 0.0;
  double env_peak_time = 0.0;
  bool env_have = false;
  bool env_last_positive = true;

  bool nvm = false;
  double next_tick = fsm_.config().tick_period;
  const std::size_t total_steps = static_cast<std::size_t>(std::ceil(duration / dt));

  double t = 0.0;
  for (std::size_t step = 0; step < total_steps; ++step) {
    if (!nvm && t >= fsm_.config().nvm_delay) {
      fsm_.apply_nvm_preset();
      driver_.set_code(fsm_.code());
      nvm = true;
    }

    // RK4.
    const auto k1 = derivatives(s);
    std::array<double, 5> mid{};
    for (std::size_t i = 0; i < 5; ++i) mid[i] = s[i] + 0.5 * dt * k1[i];
    const auto k2 = derivatives(mid);
    for (std::size_t i = 0; i < 5; ++i) mid[i] = s[i] + 0.5 * dt * k2[i];
    const auto k3 = derivatives(mid);
    std::array<double, 5> end{};
    for (std::size_t i = 0; i < 5; ++i) end[i] = s[i] + dt * k3[i];
    const auto k4 = derivatives(end);
    for (std::size_t i = 0; i < 5; ++i) {
      s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    t += dt;

    const double vd = s[0] - s[1];
    detector_.step(dt, s[0], s[1]);

    // Receiving-coil sense voltages (across the loads) demodulated by the
    // excitation phase.  The sign convention picks the sense-winding
    // polarity that makes a positive coupling read positive (the induced
    // current opposes the flux -- Lenz -- so the load is wired inverted).
    demod_sin.step(dt, -s[3] * config_.load_resistance, vd);
    demod_cos.step(dt, -s[4] * config_.load_resistance, vd);

    // Envelope tracking.
    const bool positive = vd >= 0.0;
    if (positive != env_last_positive) {
      if (env_have &&
          (result.envelope.empty() || env_peak_time > result.envelope.end_time())) {
        result.envelope.append(env_peak_time, env_peak);
      }
      env_peak = 0.0;
      env_have = false;
      env_last_positive = positive;
    }
    if (std::abs(vd) >= env_peak) {
      env_peak = std::abs(vd);
      env_peak_time = t;
      env_have = true;
    }

    if (t >= next_tick) {
      fsm_.tick(detector_.window_state());
      driver_.set_code(fsm_.code());
      next_tick += fsm_.config().tick_period;
    }
  }

  // Summary.
  double acc = 0.0;
  std::size_t n = 0;
  const double t0 = result.envelope.end_time() - 0.2 * result.envelope.duration();
  for (std::size_t i = 0; i < result.envelope.size(); ++i) {
    if (result.envelope.time(i) >= t0) {
      acc += result.envelope.value(i);
      ++n;
    }
  }
  result.settled_amplitude = n ? acc / static_cast<double>(n) : 0.0;
  result.final_code = fsm_.code();
  result.sin_channel = demod_sin.output();
  result.cos_channel = demod_cos.output();
  result.estimated_angle = std::atan2(result.sin_channel, result.cos_channel);
  double err = result.estimated_angle - config_.rotor_angle;
  while (err > kPi) err -= kTwoPi;
  while (err < -kPi) err += kTwoPi;
  result.angle_error = err;
  fsm_.flush_metrics();
  return result;
}

}  // namespace lcosc::system
