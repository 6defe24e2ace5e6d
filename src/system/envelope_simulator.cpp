#include "system/envelope_simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/constants.h"
#include "common/error.h"
#include "devices/comparator.h"
#include "numeric/interpolate.h"
#include "system/envelope_kernel.h"
#include "numeric/step_control.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::system {

double EnvelopeRunResult::settled_amplitude(double tail_fraction) const {
  LCOSC_REQUIRE(!amplitude.empty(), "no amplitude trace");
  const double t0 =
      amplitude.end_time() - tail_fraction * (amplitude.end_time() - amplitude.start_time());
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < amplitude.size(); ++i) {
    if (amplitude.time(i) >= t0) {
      acc += amplitude.value(i);
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

int EnvelopeRunResult::settling_tick(double lo, double hi) const {
  int candidate = -1;
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    const bool inside = ticks[i].amplitude >= lo && ticks[i].amplitude <= hi;
    if (inside && candidate < 0) candidate = static_cast<int>(i);
    if (!inside) candidate = -1;
  }
  return candidate;
}

double EnvelopeRunResult::steady_ripple(double tail_fraction) const {
  LCOSC_REQUIRE(!amplitude.empty(), "no amplitude trace");
  const double t0 =
      amplitude.end_time() - tail_fraction * (amplitude.end_time() - amplitude.start_time());
  double lo = 1e300;
  double hi = -1e300;
  for (std::size_t i = 0; i < amplitude.size(); ++i) {
    if (amplitude.time(i) >= t0) {
      lo = std::min(lo, amplitude.value(i));
      hi = std::max(hi, amplitude.value(i));
    }
  }
  return hi > lo ? hi - lo : 0.0;
}

namespace {

// Guarded explicit advance; the integrator body lives in
// envelope_kernel.h, shared verbatim with the batched lockstep engine.
double advance_envelope(driver::OscillatorDriver& driver, double rp, double ceff, double a,
                        double h, std::uint64_t& substeps) {
  auto lambda_of = [&](double amp) {
    const double n_eff = driver.fundamental_port_current(amp) / amp;
    return (n_eff - 1.0 / rp) / (2.0 * ceff);
  };
  return advance_envelope_guarded(lambda_of, a, h, substeps);
}

// Implicit (backward) log-Euler advance over h: solve
//   u' = u + h * lambda(exp(u')),   u = ln A,
// by Newton with the finite-difference slope d(lambda)/d(ln A).  Being
// L-stable it needs no stability substepping, so a macro step costs a
// handful of driver evaluations regardless of h -- the explicit guarded
// integrator above pays ~h / min(0.2/|lam|, 0.5/|slope|) substeps, which
// near the regulated balance point is one substep per microsecond no
// matter the step.  Accuracy is the caller's job (step-doubling LTE);
// this routine only promises stability.  Falls back to the explicit
// integrator if Newton stalls (e.g. right after a large code change).
double advance_envelope_implicit(driver::OscillatorDriver& driver, double rp, double ceff,
                                 double a, double h, std::uint64_t& substeps) {
  auto lambda_of = [&](double amp) {
    const double n_eff = driver.fundamental_port_current(amp) / amp;
    return (n_eff - 1.0 / rp) / (2.0 * ceff);
  };
  const double u0 = std::log(a);
  double u = u0;  // predictor: constant amplitude
  for (int iter = 0; iter < 25; ++iter) {
    ++substeps;
    const double ai = std::clamp(std::exp(u), 1e-9, 1e3);
    const double lam = lambda_of(ai);
    const double eps = 1e-3;
    const double slope = (lambda_of(ai * (1.0 + eps)) - lam) / eps;
    const double residual = u - u0 - h * lam;
    double jacobian = 1.0 - h * slope;
    // Keep Newton descending when the expanding region makes the
    // Jacobian tiny or negative.
    if (std::abs(jacobian) < 1e-3) jacobian = jacobian < 0.0 ? -1e-3 : 1e-3;
    // Trust region of half a decade in log amplitude per iteration.
    const double du = std::clamp(-residual / jacobian, -0.5, 0.5);
    u += du;
    if (std::abs(du) < 1e-12) {
      return std::clamp(std::exp(u), 1e-9, 1e3);
    }
  }
  return advance_envelope(driver, rp, ceff, a, h, substeps);
}

void flush_envelope_metrics(const EnvelopeRunResult& result) {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::instance();
  static obs::Counter& runs = registry.counter("envelope.runs");
  static obs::Counter& step_count = registry.counter("envelope.steps");
  static obs::Counter& substep_count = registry.counter("envelope.substeps");
  static obs::Counter& tick_count = registry.counter("envelope.ticks");
  static obs::Counter& rejected = registry.counter("envelope.adaptive.rejected_steps");
  runs.add(1);
  step_count.add(result.macro_steps);
  substep_count.add(result.substeps);
  tick_count.add(result.ticks.size());
  rejected.add(result.rejected_steps);
}

}  // namespace

EnvelopeSimulator::EnvelopeSimulator(EnvelopeSimConfig config)
    : config_(config),
      tank_(config.tank),
      driver_(config.driver),
      fsm_(config.regulation) {
  LCOSC_REQUIRE(config_.dt > 0.0, "envelope step must be positive");
  LCOSC_REQUIRE(config_.initial_amplitude > 0.0, "initial amplitude must be positive");
  LCOSC_REQUIRE(config_.max_step_multiple >= 1, "envelope max_step_multiple must be >= 1");
}

EnvelopeRunResult EnvelopeSimulator::run(double duration) {
  LCOSC_SPAN("envelope.run");
  LCOSC_REQUIRE(duration > 0.0, "duration must be positive");
  EnvelopeRunResult result = config_.adaptive ? run_adaptive(duration) : run_fixed(duration);
  fsm_.flush_metrics();
  return result;
}

EnvelopeRunResult EnvelopeSimulator::run_fixed(double duration) {
  const double rp = tank_.parallel_resistance();
  const double ceff = tank_.effective_capacitance();

  fsm_.por_reset();
  driver_.set_code(fsm_.code());
  driver_.set_enabled(true);

  regulation::AmplitudeDetector detector(config_.detector);
  devices::LowPassFilter vdc1(config_.detector.filter_tau);

  EnvelopeRunResult result;
  result.amplitude.set_name("amplitude");

  double a = config_.initial_amplitude;
  bool nvm_applied = false;
  const double dt = config_.dt;
  // Index the loop by step count instead of accumulating t += dt: over a
  // 40 ms run at a 2 us step the accumulated sum drifts by ~1e4 ulp,
  // which can drop the final step (and with it the regulation tick that
  // lands exactly on `duration`).  Durations within one part in 1e12 of
  // an integer step count are treated as exact.
  const auto steps =
      static_cast<std::int64_t>(std::ceil(duration / dt * (1.0 - 1e-12)));
  // Tick times are likewise computed as tick_index * tick_period; the
  // same relative slack absorbs the ulp mismatch between the two grids.
  const double tick_period = fsm_.config().tick_period;
  std::int64_t tick_index = 1;
  result.amplitude.reserve(static_cast<std::size_t>(steps) + 2);

  // Engine counters accumulate locally and flush once per run, keeping
  // the per-step loop free of registry traffic.
  std::uint64_t substeps = 0;

  for (std::int64_t step = 0; step < steps; ++step) {
    const double t_step = static_cast<double>(step) * dt;
    if (!nvm_applied && t_step >= fsm_.config().nvm_delay) {
      fsm_.apply_nvm_preset();
      driver_.set_code(fsm_.code());
      nvm_applied = true;
    }

    a = advance_envelope(driver_, rp, ceff, a, dt, substeps);
    if (!std::isfinite(a)) {
      throw ConvergenceError("envelope diverged (non-finite amplitude) at t=" +
                             std::to_string(static_cast<double>(step + 1) * dt));
    }
    const double t = static_cast<double>(step + 1) * dt;

    // Detector: rectified mean of the pin swing is A/pi.
    vdc1.step(dt, a / kPi);
    result.amplitude.append(t, a);

    if (t >= static_cast<double>(tick_index) * tick_period * (1.0 - 1e-12)) {
      // Window verdict directly on the filtered VDC1.
      devices::WindowState window = devices::WindowState::Inside;
      if (vdc1.output() < detector.vr3()) window = devices::WindowState::Below;
      else if (vdc1.output() > detector.vr4()) window = devices::WindowState::Above;
      fsm_.tick(window);
      driver_.set_code(fsm_.code());

      EnvelopeTick tick;
      tick.time = t;
      tick.code = fsm_.code();
      tick.amplitude = a;
      tick.vdc1 = vdc1.output();
      tick.supply_current = driver_.supply_current(a);
      result.ticks.push_back(tick);
      ++tick_index;
    }
  }
  result.final_code = fsm_.code();
  result.macro_steps = static_cast<std::size_t>(steps);
  result.substeps = static_cast<std::size_t>(substeps);
  flush_envelope_metrics(result);
  return result;
}

EnvelopeRunResult EnvelopeSimulator::run_adaptive(double duration) {
  const double rp = tank_.parallel_resistance();
  const double ceff = tank_.effective_capacitance();

  fsm_.por_reset();
  driver_.set_code(fsm_.code());
  driver_.set_enabled(true);

  regulation::AmplitudeDetector detector(config_.detector);
  devices::LowPassFilter vdc1(config_.detector.filter_tau);

  EnvelopeRunResult result;
  result.amplitude.set_name("amplitude");

  double a = config_.initial_amplitude;
  const double dt = config_.dt;
  const auto steps =
      static_cast<std::int64_t>(std::ceil(duration / dt * (1.0 - 1e-12)));
  const double tick_period = fsm_.config().tick_period;
  std::int64_t tick_index = 1;

  // Macro steps are integer multiples n * dt with n a power of two, so
  // every accepted step lands exactly on the fixed grid: tick decisions
  // and the NVM preset read the state at the same times as the fixed
  // loop, and the trace resampling below hits accepted samples exactly.
  int n_max = 1;
  while (n_max * 2 <= config_.max_step_multiple) n_max *= 2;

  // Smallest step index s with s * dt at-or-after the target time,
  // matching the fixed loop's comparison (`cmp` reproduces its slack).
  auto first_index = [&](auto cmp) {
    std::int64_t s = 0;
    while (s < steps && !cmp(static_cast<double>(s) * dt)) ++s;
    return s;
  };
  const double nvm_delay = fsm_.config().nvm_delay;
  std::int64_t s_nvm = first_index([&](double t) { return t >= nvm_delay; });
  auto tick_target = [&] {
    const double threshold = static_cast<double>(tick_index) * tick_period * (1.0 - 1e-12);
    std::int64_t s = std::max<std::int64_t>(
        static_cast<std::int64_t>(std::floor(threshold / dt)) - 1, 1);
    while (s < steps && static_cast<double>(s) * dt < threshold) ++s;
    return s;
  };
  std::int64_t s_tick = tick_target();

  // The log-Euler advance is 1st order in the macro step; step doubling
  // gives LTE = a_half - a_full.
  StepControlOptions sc;
  sc.order = 1;
  PiStepController controller(sc);

  // Internal accepted samples; resampled onto the fixed grid afterwards
  // so the result trace has the fixed path's shape.
  SampledCurve curve;
  curve.reserve(static_cast<std::size_t>(std::min<std::int64_t>(steps, 4096)) + 2);
  curve.append(0.0, a);

  std::uint64_t substeps = 0;
  bool nvm_applied = false;
  std::int64_t s = 0;
  int n = 1;
  while (s < steps) {
    if (!nvm_applied && s >= s_nvm) {
      fsm_.apply_nvm_preset();
      driver_.set_code(fsm_.code());
      nvm_applied = true;
    }
    // Cap the step at the run end and at the next exact-time boundary.
    std::int64_t limit = steps - s;
    if (!nvm_applied) limit = std::min(limit, s_nvm - s);
    limit = std::min(limit, std::max<std::int64_t>(s_tick - s, 1));
    const int n_try = static_cast<int>(std::min<std::int64_t>(n, limit));
    const double h = static_cast<double>(n_try) * dt;

    // Step doubling: one macro step against two halves from the same state.
    const double a_full = advance_envelope_implicit(driver_, rp, ceff, a, h, substeps);
    const double a_mid = advance_envelope_implicit(driver_, rp, ceff, a, 0.5 * h, substeps);
    const double a_half = advance_envelope_implicit(driver_, rp, ceff, a_mid, 0.5 * h, substeps);
    if (!std::isfinite(a_full) || !std::isfinite(a_half)) {
      throw ConvergenceError("envelope diverged (non-finite amplitude) at t=" +
                             std::to_string(static_cast<double>(s) * dt + h));
    }
    // Two error sources bound the accepted step.  The Richardson term
    // |a_half - a_full| is the integrator LTE -- it goes quiet when the
    // advance is internally substep-limited (both trials resolve the
    // dynamics), which is exactly when the second term matters: the
    // midpoint-versus-chord deviation bounds what the piecewise-linear
    // dense output loses across the macro step (post-tick exponential
    // relaxations have strong curvature and must stay resolved).
    const double richardson = std::abs(a_half - a_full);
    const double curvature = std::abs(a_mid - 0.5 * (a + a_half));
    const double err = std::max(richardson, curvature) /
                       (config_.lte_abstol +
                        config_.lte_reltol * std::max(std::abs(a), std::abs(a_half)));

    if (err > 1.0 && n_try > 1) {
      ++result.rejected_steps;
      const double factor = controller.propose_factor(err, false);
      int shrunk = n_try;
      while (shrunk > 1 && static_cast<double>(shrunk) > static_cast<double>(n_try) * factor) {
        shrunk /= 2;
      }
      n = std::max(shrunk, 1);
      continue;
    }

    const double t_mid = static_cast<double>(s) * dt + 0.5 * h;
    if (err > 1.0) {
      // At the floor (n_try == 1) with the tolerance still violated the
      // dynamics outrun a dt-sized implicit step -- the startup growth
      // phase.  Advance exactly like the fixed path does, with the
      // guarded explicit integrator over one dt; the controller's
      // post-rejection cap keeps n at 1 until the error settles.
      a = advance_envelope(driver_, rp, ceff, a, h, substeps);
      if (!std::isfinite(a)) {
        throw ConvergenceError("envelope diverged (non-finite amplitude) at t=" +
                               std::to_string(static_cast<double>(s) * dt + h));
      }
    } else {
      // Accept the implicit half-step solution; keep the midpoint sample
      // (already paid for), halving the dense-output segment length.
      a = a_half;
      curve.append(t_mid, a_mid);
    }
    s += n_try;
    const double t = static_cast<double>(s) * dt;
    // One ZOH filter update over the whole macro step: exact for the
    // first-order filter under piecewise-constant input, and the input
    // a / pi moves by less than the LTE tolerance per accepted step.
    vdc1.step(h, a / kPi);
    curve.append(t, a);
    ++result.macro_steps;

    if (s >= s_tick && static_cast<double>(s) * dt >=
                           static_cast<double>(tick_index) * tick_period * (1.0 - 1e-12)) {
      devices::WindowState window = devices::WindowState::Inside;
      if (vdc1.output() < detector.vr3()) window = devices::WindowState::Below;
      else if (vdc1.output() > detector.vr4()) window = devices::WindowState::Above;
      fsm_.tick(window);
      driver_.set_code(fsm_.code());

      EnvelopeTick tick;
      tick.time = t;
      tick.code = fsm_.code();
      tick.amplitude = a;
      tick.vdc1 = vdc1.output();
      tick.supply_current = driver_.supply_current(a);
      result.ticks.push_back(tick);
      ++tick_index;
      s_tick = tick_target();
    }

    const double factor = controller.propose_factor(err, true);
    int grown = n_try;
    while (grown * 2 <= n_max &&
           static_cast<double>(grown * 2) <= static_cast<double>(n_try) * factor) {
      grown *= 2;
    }
    n = grown;
  }

  result.final_code = fsm_.code();
  result.substeps = static_cast<std::size_t>(substeps);

  // Resample onto the fixed output grid: one sample per dt at
  // (step + 1) * dt, exactly the fixed loop's sample times.
  result.amplitude.reserve(static_cast<std::size_t>(steps) + 2);
  for (std::int64_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step + 1) * dt;
    result.amplitude.append(t, curve(t));
  }
  flush_envelope_metrics(result);
  return result;
}

}  // namespace lcosc::system
