#include "system/oscillator_system.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

#include "common/constants.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::system {
namespace {

// Flush-to-zero (FTZ) for the RK4 loop (DESIGN.md §17).  A tank driven
// below its oscillation condition decays geometrically; rounded to
// nearest, that decay stalls at the smallest subnormals instead of
// reaching 0, and every later step then pays the subnormal penalty.
// Under FTZ a result that would be subnormal becomes 0; no other value
// changes.  The guard saves the thread's FP control word and restores it
// on every exit, including the ConvergenceError / BudgetExceededError
// throws, so the caller's mode (FTZ or not) survives the run.
class FlushToZeroScope {
 public:
  FlushToZeroScope() : saved_(read()) { write(saved_ | kFlushToZero); }
  ~FlushToZeroScope() { write(saved_); }
  FlushToZeroScope(const FlushToZeroScope&) = delete;
  FlushToZeroScope& operator=(const FlushToZeroScope&) = delete;

 private:
#if defined(__x86_64__) || defined(_M_X64)
  using Word = unsigned int;
  static constexpr Word kFlushToZero = 1u << 15;  // MXCSR.FTZ
  static Word read() { return _mm_getcsr(); }
  static void write(Word word) { _mm_setcsr(word); }
#elif defined(__aarch64__)
  using Word = std::uint64_t;
  static constexpr Word kFlushToZero = Word{1} << 24;  // FPCR.FZ
  static Word read() {
    Word word = 0;
    __asm__ volatile("mrs %0, fpcr" : "=r"(word));
    return word;
  }
  static void write(Word word) { __asm__ volatile("msr fpcr, %0" : : "r"(word)); }
#else
  // No portable control: results stay correct, a collapsed tank stays slow.
  using Word = unsigned int;
  static constexpr Word kFlushToZero = 0;
  static Word read() { return 0; }
  static void write(Word) {}
#endif
  Word saved_;
};

}  // namespace

double SimulationResult::settled_amplitude(double tail_fraction) const {
  LCOSC_REQUIRE(tail_fraction > 0.0 && tail_fraction <= 1.0, "tail fraction in (0,1]");
  LCOSC_REQUIRE(!envelope.empty(), "no envelope recorded");
  const double t0 =
      envelope.end_time() - tail_fraction * (envelope.end_time() - envelope.start_time());
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    if (envelope.time(i) >= t0) {
      acc += envelope.value(i);
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

int SimulationResult::first_fault_tick() const {
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    if (ticks[i].faults.any()) return static_cast<int>(i);
  }
  return -1;
}

OscillatorSystem::OscillatorSystem(OscillatorSystemConfig config)
    : config_(config),
      driver_(config.driver),
      detector_(config.detector),
      fsm_(config.regulation),
      safety_(config.safety) {
  LCOSC_REQUIRE(config_.steps_per_period >= 16,
                "need at least 16 integration steps per period");
  LCOSC_REQUIRE(config_.startup_kick > 0.0, "startup kick must be positive");
  // Validate the tank through its invariants.
  (void)tank::RlcTank(config_.tank);
  attach_fault_bus();
}

void OscillatorSystem::attach_fault_bus() {
  driver_.attach_fault_bus(&fault_bus_);
  detector_.attach_fault_bus(&fault_bus_);
  fsm_.attach_fault_bus(&fault_bus_);
  safety_.attach_fault_bus(&fault_bus_);
}

void OscillatorSystem::schedule_fault(tank::TankFault fault, double at_time,
                                      const tank::FaultSeverity& severity) {
  schedule_event(at_time, FaultEvent{fault, severity});
}

void OscillatorSystem::schedule_internal_fault(const faults::InternalFault& fault,
                                               double at_time) {
  schedule_event(at_time, InternalFaultEvent{fault});
}

void OscillatorSystem::schedule_event(double at_time, ScenarioAction action) {
  LCOSC_REQUIRE(at_time >= 0.0, "event time must be non-negative");
  // After every event at or before at_time: events of one instant apply
  // in the order they were scheduled.
  const auto at = std::upper_bound(
      events_.begin(), events_.end(), at_time,
      [](double time, const TimedEvent& event) { return time < event.time; });
  events_.insert(at, {at_time, std::move(action)});
}

// Forced inline into advance_run, its one caller, at every optimization level.
[[gnu::always_inline]] inline void OscillatorSystem::rk4_step(RunState& rs) const {
  // What a derivative evaluation reads, looked up once per step: nothing
  // it depends on changes inside a step.
  struct Inputs {
    const ActiveTank* tank;
    const driver::GmStage* stage;  // nullptr: driver disabled, no drive
    const driver::DriverConfig* driver;
    // Finite driver speed: the delivered currents lag the ideal
    // cross-coupled response with a single pole at driver_bandwidth.
    bool slow_driver;
    double w_drv;
    // Soft rail clamps (ESD/junction paths) keep faulted scenarios bounded.
    double v_rail_hi;
    double v_rail_lo;
  };
  const Inputs in{.tank = &rs.active,
                  .stage = driver_.active_stage(),
                  .driver = &driver_.config(),
                  .slow_driver = config_.driver_bandwidth > 0.0,
                  .w_drv = kTwoPi * config_.driver_bandwidth,
                  .v_rail_hi = config_.vdd - config_.vref_dc,
                  .v_rail_lo = -config_.vref_dc};

  // Forced inline at all four call sites, with the pin-current law: an
  // out-of-line call per evaluation would put a store and reload of the
  // state on every link of the step's dependency chain.
  struct Derivative {
    [[gnu::always_inline]] static double rail_current(const Inputs& p, double v) {
      const double g_rail = 2e-3;
      if (v > p.v_rail_hi) return -g_rail * (v - p.v_rail_hi);
      if (v < p.v_rail_lo) return g_rail * (p.v_rail_lo - v);
      return 0.0;
    }
    [[gnu::always_inline]] static TankState of(const Inputs& p, const TankState& s) {
      const driver::NodeCurrents drv =
          p.stage != nullptr
              ? driver::OscillatorDriver::pin_currents(*p.stage, *p.driver, s.v1, s.v2)
              : driver::NodeCurrents{};
      const ActiveTank& t = *p.tank;
      const double il = t.loop_open ? 0.0 : s.il;
      const double i1 = p.slow_driver ? s.i1 : drv.into_lc1;
      const double i2 = p.slow_driver ? s.i2 : drv.into_lc2;

      TankState d;
      if (t.pin1_grounded || t.pin1_to_supply) {
        d.v1 = 0.0;  // pin voltage frozen at the short level
      } else {
        d.v1 = (i1 - il + rail_current(p, s.v1)) / t.config.capacitance1;
      }
      if (t.pin2_grounded) {
        d.v2 = 0.0;
      } else {
        d.v2 = (i2 + il + rail_current(p, s.v2)) / t.config.capacitance2;
      }
      if (t.loop_open) {
        d.il = 0.0;
      } else {
        d.il = ((s.v1 - s.v2) - t.config.series_resistance * s.il) / t.config.inductance;
      }
      if (p.slow_driver) {
        d.i1 = (drv.into_lc1 - s.i1) * p.w_drv;
        d.i2 = (drv.into_lc2 - s.i2) * p.w_drv;
      }
      return d;
    }
  };
  // With an ideal driver the driver-current states stay 0 and no
  // derivative reads them, so their updates are skipped.
  const auto advance = [&in](const TankState& base, double h, const TankState& k) {
    TankState x{base.v1 + h * k.v1, base.v2 + h * k.v2, base.il + h * k.il};
    if (in.slow_driver) {
      x.i1 = base.i1 + h * k.i1;
      x.i2 = base.i2 + h * k.i2;
    }
    return x;
  };

  TankState& s = rs.s;
  const double dt = rs.dt;
  const TankState k1 = Derivative::of(in, s);
  const TankState k2 = Derivative::of(in, advance(s, 0.5 * dt, k1));
  const TankState k3 = Derivative::of(in, advance(s, 0.5 * dt, k2));
  const TankState k4 = Derivative::of(in, advance(s, dt, k3));
  s.v1 += dt / 6.0 * (k1.v1 + 2.0 * k2.v1 + 2.0 * k3.v1 + k4.v1);
  s.v2 += dt / 6.0 * (k1.v2 + 2.0 * k2.v2 + 2.0 * k3.v2 + k4.v2);
  s.il += dt / 6.0 * (k1.il + 2.0 * k2.il + 2.0 * k3.il + k4.il);
  if (in.slow_driver) {
    s.i1 += dt / 6.0 * (k1.i1 + 2.0 * k2.i1 + 2.0 * k3.i1 + k4.i1);
    s.i2 += dt / 6.0 * (k1.i2 + 2.0 * k2.i2 + 2.0 * k3.i2 + k4.i2);
  }
}

bool OscillatorSystem::OrbitReplay::replay(TankState& s) {
  if (mode_ == Mode::Replay) {
    s = period_[phase_];
    if (++phase_ == period_.size()) phase_ = 0;
    ++replayed_;
    return true;
  }
  if (mode_ == Mode::Anchor) {
    anchor_ = s;
    steps_ = 0;
    mode_ = Mode::Probe;
  }
  return false;
}

void OscillatorSystem::OrbitReplay::observe(const TankState& s) {
  if (mode_ == Mode::Probe) {
    // Bits, not values: +0 and -0 compare equal yet can step apart.
    using Words = std::array<std::uint64_t, 5>;
    ++steps_;
    if (std::bit_cast<Words>(s) == std::bit_cast<Words>(anchor_)) {
      // Record one more period, then replay it.
      period_.clear();
      period_.reserve(steps_);
      mode_ = Mode::Record;
    } else if (steps_ == kWindow) {
      mode_ = Mode::Idle;
    }
  } else if (mode_ == Mode::Record) {
    period_.push_back(s);
    if (period_.size() == steps_) {
      phase_ = 0;
      mode_ = Mode::Replay;
    }
  }
}

OscillatorSystem::RunState OscillatorSystem::begin_run(double duration) {
  LCOSC_REQUIRE(duration > 0.0, "duration must be positive");

  const tank::RlcTank healthy(config_.tank);

  RunState rs;
  rs.duration = duration;
  rs.dt = 1.0 / (healthy.resonance_frequency() * config_.steps_per_period);

  // Re-attach and clear the fault bus (a copied system would otherwise
  // still observe the bus of the instance it was copied from).
  attach_fault_bus();
  fault_bus_.clear();
  for (const TimedEvent& ev : events_) {
    if (const auto* ie = std::get_if<InternalFaultEvent>(&ev.action)) {
      LCOSC_REQUIRE(
          ie->fault.kind != faults::InternalFaultKind::SelfTestStall ||
              config_.step_budget > 0,
          "a stall fault needs a positive step_budget to terminate the run");
    }
  }

  // Reset all subsystems.
  detector_.reset();
  safety_.reset(0.0);
  fsm_.por_reset();
  driver_.set_code(fsm_.code());
  driver_.set_enabled(true);

  rs.active.config = config_.tank;

  rs.s.v1 = 0.5 * config_.startup_kick;
  rs.s.v2 = -0.5 * config_.startup_kick;
  rs.s.il = 0.0;

  rs.result.differential.set_name("v_diff");
  rs.result.v_lc1.set_name("v_lc1");
  rs.result.v_lc2.set_name("v_lc2");
  rs.result.envelope.set_name("envelope");

  rs.record = config_.waveform_decimation > 0;
  rs.total_steps = static_cast<std::size_t>(std::ceil(duration / rs.dt));
  if (rs.record) {
    const std::size_t samples =
        rs.total_steps / static_cast<std::size_t>(config_.waveform_decimation) + 2;
    rs.result.differential.reserve(samples);
    rs.result.v_lc1.reserve(samples);
    rs.result.v_lc2.reserve(samples);
  }

  rs.next_tick = fsm_.config().tick_period;
  rs.env_last_positive = rs.s.v1 - rs.s.v2 >= 0.0;
  return rs;
}

void OscillatorSystem::advance_run(RunState& rs, double stop_time) {
  const FlushToZeroScope flush_to_zero;
  const double dt = rs.dt;
  TankState& s = rs.s;
  SimulationResult& result = rs.result;

  while (rs.step < rs.total_steps) {
    // Pause at the loop top: exactly the position where an event
    // scheduled at stop_time would fire on the next iteration.
    if (rs.t >= stop_time) return;
    ++rs.steps_taken;
    if (config_.step_budget > 0 && rs.steps_taken > config_.step_budget) {
      throw BudgetExceededError("integration step budget exceeded (" +
                                std::to_string(config_.step_budget) + " steps)");
    }
    // Discrete events at the step boundary.
    if (!rs.nvm_applied && rs.t >= fsm_.config().nvm_delay) {
      fsm_.apply_nvm_preset();
      driver_.set_code(fsm_.code());
      rs.nvm_applied = true;
      rs.orbit.restart();
    }
    while (rs.next_event < events_.size() && rs.t >= events_[rs.next_event].time) {
      const ScenarioAction& action = events_[rs.next_event].action;
      if (const auto* fe = std::get_if<FaultEvent>(&action)) {
        const tank::FaultedTank faulted =
            tank::apply_fault(config_.tank, fe->fault, fe->severity);
        rs.active.config = faulted.config;
        rs.active.loop_open = faulted.loop_open;
        rs.active.pin1_grounded = faulted.pin1_grounded;
        rs.active.pin2_grounded = faulted.pin2_grounded;
        rs.active.pin1_to_supply = faulted.pin1_to_supply;
        if (rs.active.loop_open) s.il = 0.0;
        if (rs.active.pin1_grounded) s.v1 = -config_.vref_dc;
        if (rs.active.pin1_to_supply) s.v1 = config_.vdd - config_.vref_dc;
        if (rs.active.pin2_grounded) s.v2 = -config_.vref_dc;
      } else if (std::get_if<RecoveryEvent>(&action)) {
        // Components repaired + diagnostic reset: healthy tank back,
        // detectors cleared, safe-state latch released.  Re-kick the
        // oscillation in case it had fully collapsed.
        rs.active = ActiveTank{};
        rs.active.config = config_.tank;
        safety_.reset(rs.t);
        fsm_.clear_safe_state();
        driver_.set_code(fsm_.code());
        if (std::abs(s.v1 - s.v2) < config_.startup_kick) {
          s.v1 = 0.5 * config_.startup_kick;
          s.v2 = -0.5 * config_.startup_kick;
          s.il = 0.0;
        }
      } else if (const auto* te = std::get_if<TemperatureEvent>(&action)) {
        detector_.set_temperature(te->kelvin);
      } else if (const auto* ie = std::get_if<InternalFaultEvent>(&action)) {
        fault_bus_.inject(ie->fault);
        if (ie->fault.kind == faults::InternalFaultKind::SelfTestThrow) {
          throw ConvergenceError("self-test fault: injected convergence failure at t=" +
                                 std::to_string(rs.t));
        }
      }
      ++rs.next_event;
      rs.orbit.restart();
    }

    if (fault_bus_.stalled()) {
      // Frozen simulation clock: t no longer advances, so the loop can
      // only end through the step budget (enforced above).
      continue;
    }

    // Exact orbit replay (DESIGN.md §20): once the state has come back
    // to its anchor, the period is replayed instead of integrated.
    const bool watched = !rs.orbit.idle();
    if (!watched || !rs.orbit.replay(s)) {
      rk4_step(rs);
      if (watched) rs.orbit.observe(s);
    }
    rs.t += dt;

    const double vd = s.v1 - s.v2;
    if (!std::isfinite(vd) || !std::isfinite(s.il)) {
      throw ConvergenceError("tank state diverged (non-finite) at t=" +
                             std::to_string(rs.t));
    }
    detector_.step(dt, s.v1, s.v2);
    safety_.step(rs.t, dt, s.v1, s.v2);

    // Envelope tracking.
    if (rs.record_envelope) {
      const bool positive = vd >= 0.0;
      if (positive != rs.env_last_positive) {
        if (rs.env_have &&
            (result.envelope.empty() || rs.env_peak_time > result.envelope.end_time())) {
          result.envelope.append(rs.env_peak_time, rs.env_peak);
        }
        rs.env_peak = 0.0;
        rs.env_have = false;
        rs.env_last_positive = positive;
      }
      if (std::abs(vd) >= rs.env_peak) {
        rs.env_peak = std::abs(vd);
        rs.env_peak_time = rs.t;
        rs.env_have = true;
      }
    }

    if (rs.record &&
        rs.step % static_cast<std::size_t>(config_.waveform_decimation) == 0) {
      result.differential.append(rs.t, vd);
      result.v_lc1.append(rs.t, s.v1);
      result.v_lc2.append(rs.t, s.v2);
    }

    // Regulation tick every 1 ms.
    if (rs.t >= rs.next_tick) {
      if (safety_.safe_state_requested()) {
        fsm_.enter_safe_state();
      } else {
        fsm_.tick(detector_.window_state());
      }
      driver_.set_code(fsm_.code());
      rs.orbit.restart();

      TickRecord tick;
      tick.time = rs.t;
      tick.code = fsm_.code();
      tick.vdc1 = detector_.vdc1();
      tick.window = detector_.window_state();
      tick.faults = safety_.flags();
      tick.supply_current = tick_supply_current();
      result.ticks.push_back(tick);

      rs.next_tick += fsm_.config().tick_period;
    }
    ++rs.step;
  }
}

double OscillatorSystem::tick_supply_current() const {
  return driver_.supply_current(
      regulation::AmplitudeDetector::vdc1_to_amplitude(detector_.vdc1()));
}

void OscillatorSystem::flush_loop_metrics(std::uint64_t runs) {
  fsm_.flush_metrics(runs);
  safety_.flush_metrics(runs);
}

SimulationResult OscillatorSystem::finish_run(RunState& rs, std::uint64_t runs) {
  rs.result.final_faults = safety_.flags();
  rs.result.final_code = fsm_.code();
  rs.result.final_mode = fsm_.mode();
  flush_loop_metrics(runs);
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    static obs::Counter& run_count = registry.counter("system.runs");
    static obs::Counter& steps = registry.counter("system.steps");
    static obs::Counter& ticks = registry.counter("system.ticks");
    run_count.add(runs);
    steps.add(runs * rs.total_steps);
    ticks.add(runs * rs.result.ticks.size());
    // Registered on its first non-zero add: runs that never repeat keep
    // the snapshot they had before orbit replay.
    if (rs.orbit.replayed() > 0) {
      static obs::Counter& replayed = registry.counter("system.replayed_steps");
      replayed.add(runs * rs.orbit.replayed());
    }
  }
  return std::move(rs.result);
}

SimulationResult OscillatorSystem::run(double duration) {
  LCOSC_SPAN("system.run");
  RunState rs = begin_run(duration);
  try {
    advance_run(rs, std::numeric_limits<double>::infinity());
  } catch (...) {
    // A run that throws still counts the loop work it did.  A throwing
    // RunSession continuation does not: its caller re-runs the case.
    flush_loop_metrics();
    throw;
  }
  return finish_run(rs);
}

RunSession::RunSession(const OscillatorSystem& system, double duration, bool record_envelope)
    : system_(system), state_(system_.begin_run(duration)) {
  state_.record_envelope = record_envelope;
}

RunSession::RunSession(const RunSession& other)
    : system_(other.system_), state_(other.state_) {
  // The copied subsystems still observe the source session's fault bus;
  // repoint them at the copy's own (bit-identical) bus.
  system_.attach_fault_bus();
}

void RunSession::advance_until(double stop_time) {
  system_.advance_run(state_, stop_time);
}

void RunSession::inject(ScenarioAction action) {
  LCOSC_REQUIRE(state_.next_event >= system_.events_.size(),
                "RunSession::inject requires a session with no pending events");
  const auto* ie = std::get_if<InternalFaultEvent>(&action);
  LCOSC_REQUIRE(ie == nullptr || ie->fault.kind != faults::InternalFaultKind::SelfTestStall ||
                    system_.config_.step_budget > 0,
                "a stall fault needs a positive step_budget to terminate the run");
  system_.events_.push_back({state_.t, std::move(action)});
}

driver::GmStageConfig RunSession::drive_stage(const faults::InternalFault& fault) const {
  faults::FaultBus bus;
  bus.inject(fault);
  driver::OscillatorDriver probe = system_.driver_;
  probe.attach_fault_bus(&bus);
  return probe.effective_stage();
}

void RunSession::switch_internal_fault(const faults::InternalFault& fault) {
  const std::vector<TickRecord>& ticks = state_.result.ticks;
  LCOSC_REQUIRE(!ticks.empty() && ticks.back().time == state_.t,
                "switch_internal_fault needs a pause right after a regulation tick");
  LCOSC_REQUIRE(faults::acts_only_through_drive_stage(system_.fault_bus_.fault()) &&
                    faults::acts_only_through_drive_stage(fault),
                "switch_internal_fault swaps only faults that act through the drive stage");
  system_.fault_bus_.inject(fault);
  state_.orbit.restart();
  // The tick step already evaluated the supply current at the new code
  // under the old fault; everything else it did is stage-independent.
  state_.result.ticks.back().supply_current = system_.tick_supply_current();
}

SimulationResult RunSession::finish(std::uint64_t runs) {
  LCOSC_SPAN("system.run_session");
  system_.advance_run(state_, std::numeric_limits<double>::infinity());
  return system_.finish_run(state_, runs);
}

}  // namespace lcosc::system
