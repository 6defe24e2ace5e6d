#include "system/dual_system.h"

#include <array>
#include <cmath>

#include "common/error.h"

namespace lcosc::system {

double DualRunResult::mean_envelope1(double t0, double t1) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < envelope1.size(); ++i) {
    if (envelope1.time(i) >= t0 && envelope1.time(i) <= t1) {
      acc += envelope1.value(i);
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

DualSystem::DualSystem(DualSystemConfig config)
    : config_(config),
      coils_(config.tanks),
      driver1_(config.driver),
      driver2_(config.driver),
      detector1_(config.detector),
      detector2_(config.detector),
      fsm1_(config.regulation),
      fsm2_(config.regulation) {
  LCOSC_REQUIRE(config_.steps_per_period >= 16, "need at least 16 steps per period");
}

void DualSystem::schedule_supply_loss(double at_time, PwlTable dead_chip_iv) {
  LCOSC_REQUIRE(at_time >= 0.0, "event time must be non-negative");
  supply_loss_time_ = at_time;
  dead_iv_ = std::move(dead_chip_iv);
}

DualRunResult DualSystem::run(double duration) {
  LCOSC_REQUIRE(duration > 0.0, "duration must be positive");

  const tank::TankConfig& t1 = config_.tanks.tank1;
  const tank::TankConfig& t2 = config_.tanks.tank2;
  const double f0 = tank::RlcTank(t1).resonance_frequency();
  const double dt = 1.0 / (f0 * config_.steps_per_period);

  fsm1_.por_reset();
  fsm2_.por_reset();
  driver1_.set_code(fsm1_.code());
  driver2_.set_code(fsm2_.code());
  driver1_.set_enabled(true);
  driver2_.set_enabled(true);
  detector1_.reset();
  detector2_.reset();

  // State: v11, v21, il1, v12, v22, il2.
  std::array<double, 6> s{0.5 * config_.startup_kick, -0.5 * config_.startup_kick, 0.0,
                          0.45 * config_.startup_kick, -0.45 * config_.startup_kick, 0.0};

  bool system2_dead = false;

  auto derivatives = [&](const std::array<double, 6>& x) {
    std::array<double, 6> d{};
    const double vd1 = x[0] - x[1];
    const double vd2 = x[3] - x[4];

    const driver::NodeCurrents drv1 = driver1_.output(x[0], x[1]);
    driver::NodeCurrents drv2{};
    double dead_i1 = 0.0;  // current absorbed at system 2's LC1 pin
    if (system2_dead) {
      dead_i1 = dead_iv_(vd2);
    } else {
      drv2 = driver2_.output(x[3], x[4]);
    }

    // Inductor loop voltages (coil terminal voltage minus series loss).
    const double vl1 = vd1 - t1.series_resistance * x[2];
    const double vl2 = vd2 - t2.series_resistance * x[5];
    const auto dil = coils_.current_derivatives(vl1, vl2);

    d[0] = (drv1.into_lc1 - x[2]) / t1.capacitance1;
    d[1] = (drv1.into_lc2 + x[2]) / t1.capacitance2;
    d[2] = dil[0];
    d[3] = (drv2.into_lc1 - dead_i1 - x[5]) / t2.capacitance1;
    d[4] = (drv2.into_lc2 + dead_i1 + x[5]) / t2.capacitance2;
    d[5] = dil[1];
    return d;
  };

  DualRunResult result;
  result.envelope1.set_name("envelope1");
  result.envelope2.set_name("envelope2");
  result.differential1.set_name("v_diff1");
  result.differential2.set_name("v_diff2");
  result.event_time = supply_loss_time_.value_or(-1.0);
  const bool record = config_.waveform_decimation > 0;

  // Per-system inline envelope trackers.
  struct EnvTracker {
    double peak = 0.0;
    double peak_time = 0.0;
    bool have = false;
    bool last_positive = true;
  };
  std::array<EnvTracker, 2> env;

  auto track = [&](EnvTracker& e, Trace& out, double t, double vd) {
    const bool positive = vd >= 0.0;
    if (positive != e.last_positive) {
      if (e.have && (out.empty() || e.peak_time > out.end_time())) {
        out.append(e.peak_time, e.peak);
      }
      e.peak = 0.0;
      e.have = false;
      e.last_positive = positive;
    }
    if (std::abs(vd) >= e.peak) {
      e.peak = std::abs(vd);
      e.peak_time = t;
      e.have = true;
    }
  };

  bool nvm1 = false;
  bool nvm2 = false;
  double next_tick = fsm1_.config().tick_period;
  const std::size_t total_steps = static_cast<std::size_t>(std::ceil(duration / dt));

  double t = 0.0;
  for (std::size_t step = 0; step < total_steps; ++step) {
    if (!nvm1 && t >= fsm1_.config().nvm_delay) {
      fsm1_.apply_nvm_preset();
      driver1_.set_code(fsm1_.code());
      nvm1 = true;
    }
    if (!nvm2 && t >= fsm2_.config().nvm_delay) {
      fsm2_.apply_nvm_preset();
      driver2_.set_code(fsm2_.code());
      nvm2 = true;
    }
    if (supply_loss_time_ && !system2_dead && t >= *supply_loss_time_) {
      system2_dead = true;
      driver2_.set_enabled(false);
      LCOSC_REQUIRE(!dead_iv_.empty(), "supply loss scheduled without a dead-chip I-V table");
    }

    // RK4 over the coupled 6-state system.
    const auto k1 = derivatives(s);
    std::array<double, 6> mid{};
    for (std::size_t i = 0; i < 6; ++i) mid[i] = s[i] + 0.5 * dt * k1[i];
    const auto k2 = derivatives(mid);
    for (std::size_t i = 0; i < 6; ++i) mid[i] = s[i] + 0.5 * dt * k2[i];
    const auto k3 = derivatives(mid);
    std::array<double, 6> end{};
    for (std::size_t i = 0; i < 6; ++i) end[i] = s[i] + dt * k3[i];
    const auto k4 = derivatives(end);
    for (std::size_t i = 0; i < 6; ++i) {
      s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    t += dt;

    detector1_.step(dt, s[0], s[1]);
    if (!system2_dead) detector2_.step(dt, s[3], s[4]);

    track(env[0], result.envelope1, t, s[0] - s[1]);
    track(env[1], result.envelope2, t, s[3] - s[4]);

    if (record && step % static_cast<std::size_t>(config_.waveform_decimation) == 0) {
      result.differential1.append(t, s[0] - s[1]);
      result.differential2.append(t, s[3] - s[4]);
    }

    if (t >= next_tick) {
      fsm1_.tick(detector1_.window_state());
      driver1_.set_code(fsm1_.code());
      result.codes1.push_back(fsm1_.code());
      if (!system2_dead) {
        fsm2_.tick(detector2_.window_state());
        driver2_.set_code(fsm2_.code());
      }
      result.codes2.push_back(system2_dead ? -1 : fsm2_.code());
      next_tick += fsm1_.config().tick_period;
    }
  }
  fsm1_.flush_metrics();
  fsm2_.flush_metrics();
  return result;
}

}  // namespace lcosc::system
