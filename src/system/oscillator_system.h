// The complete single-oscillator system: external RLC tank + driver with
// current-limitation DAC + amplitude detector + regulation FSM + safety
// detectors, integrated cycle-accurately (fixed-step RK4 on the tank
// states, discrete 1 ms regulation ticks, fault injection at runtime).
//
// Voltages are deviations from the Vref mid-supply operating point.
// States: v(LC1), v(LC2), i(Losc).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <variant>
#include <vector>

#include "driver/oscillator_driver.h"
#include "faults/fault_bus.h"
#include "faults/internal_fault.h"
#include "regulation/amplitude_detector.h"
#include "regulation/regulation_fsm.h"
#include "safety/safety_controller.h"
#include "tank/rlc_tank.h"
#include "tank/tank_faults.h"
#include "waveform/trace.h"

namespace lcosc::system {

struct OscillatorSystemConfig {
  tank::TankConfig tank{};
  driver::DriverConfig driver{};
  regulation::AmplitudeDetectorConfig detector{};
  regulation::RegulationConfig regulation{};
  safety::SafetyControllerConfig safety{};

  // Integration steps per (healthy-tank) oscillation period.
  int steps_per_period = 64;
  // Driver output bandwidth [Hz]; 0 = ideal (instantaneous).  The paper's
  // Section 5: "to limit losses the driver must be much faster than
  // oscillation frequency" -- a slow driver lags the pin voltages, turning
  // part of the drive current reactive and wasting supply current.
  double driver_bandwidth = 0.0;
  // Initial differential kick applied when the driver is enabled,
  // representing the enable transient that starts the oscillation.
  double startup_kick = 50e-3;
  // Conductance used to model pin-short faults [S] (~5 ohm short).
  double short_conductance = 0.2;
  // Vref DC level (mid supply), used for short-to-ground/supply levels.
  double vref_dc = 2.5;
  double vdd = 5.0;

  // Waveform recording: 0 disables; otherwise record every n-th sample.
  int waveform_decimation = 1;

  // Per-run integration step budget; 0 = unlimited.  When exceeded run()
  // throws BudgetExceededError.  Campaign runners use this to bound a
  // runaway case (e.g. a stalled simulation) instead of hanging.
  std::size_t step_budget = 0;
};

// Snapshot of the discrete state at each regulation tick.
struct TickRecord {
  double time = 0.0;
  int code = 0;
  double vdc1 = 0.0;
  devices::WindowState window = devices::WindowState::Inside;
  safety::FaultFlags faults{};
  double supply_current = 0.0;  // estimated at this tick's amplitude
};

struct SimulationResult {
  // Differential pin voltage v(LC1)-v(LC2); empty when recording disabled.
  Trace differential;
  // Pin voltages (same decimation).
  Trace v_lc1;
  Trace v_lc2;
  // Per-half-cycle envelope of the differential voltage; empty for a
  // RunSession made without it (the fault sweep's).
  Trace envelope;
  // Discrete regulation/safety state per 1 ms tick.
  std::vector<TickRecord> ticks;
  // Final latched state.
  safety::FaultFlags final_faults{};
  int final_code = 0;
  regulation::RegulationMode final_mode = regulation::RegulationMode::PowerOnReset;

  // Mean steady-state amplitude over the trailing fraction of the run.
  [[nodiscard]] double settled_amplitude(double tail_fraction = 0.2) const;
  // First tick index with all faults clear / any fault set, -1 if none.
  [[nodiscard]] int first_fault_tick() const;
};

// Scenario events, applied at their scheduled times during run().
struct FaultEvent {
  tank::TankFault fault{};
  tank::FaultSeverity severity{};
};
// External components repaired + diagnostic reset: healthy tank restored,
// detectors cleared, safe-state latch released (the code stays where the
// safe state left it and regulates back down).
struct RecoveryEvent {};
// Junction temperature step (drifts the bandgap-referred window).
struct TemperatureEvent {
  double kelvin = 300.0;
};
// Internal (on-chip) single-point fault injected on the fault bus.
struct InternalFaultEvent {
  faults::InternalFault fault{};
};
using ScenarioAction =
    std::variant<FaultEvent, RecoveryEvent, TemperatureEvent, InternalFaultEvent>;

class OscillatorSystem {
 public:
  explicit OscillatorSystem(OscillatorSystemConfig config);

  // Inject a fault after `at_time` of simulated time (relative to run
  // start).  Call before run().
  void schedule_fault(tank::TankFault fault, double at_time,
                      const tank::FaultSeverity& severity = {});

  // Inject an internal (on-chip) fault after `at_time`.  Call before
  // run().  A SelfTestStall event requires a positive step_budget (the
  // frozen clock would otherwise never let the run finish).
  void schedule_internal_fault(const faults::InternalFault& fault, double at_time);

  // General scenario scripting: apply `action` at `at_time`.  Events are
  // applied in time order; multiple events are allowed.
  void schedule_event(double at_time, ScenarioAction action);

  // Run the system for `duration` seconds from power-on reset.
  [[nodiscard]] SimulationResult run(double duration);

  // Access to the subsystems for configuration before run().
  [[nodiscard]] driver::OscillatorDriver& driver() { return driver_; }
  [[nodiscard]] const OscillatorSystemConfig& config() const { return config_; }
  [[nodiscard]] tank::RlcTank healthy_tank() const { return tank::RlcTank(config_.tank); }

 private:
  struct TankState {
    double v1 = 0.0;
    double v2 = 0.0;
    double il = 0.0;
    // Driver output currents as states when driver_bandwidth > 0.
    double i1 = 0.0;
    double i2 = 0.0;
  };

  // Exact orbit replay (DESIGN.md §20).  Between two points where an
  // input of rk4_step other than the state can change -- run start, the
  // NVM preset, a scenario event, a regulation tick,
  // RunSession::switch_internal_fault -- a step is a pure function of the
  // state.  The state after such a point is the anchor; if a later step
  // returns to it bit for bit, the steps in between are a period that
  // repeats exactly until the next point, and are replayed from a buffer
  // instead of integrated.
  class OrbitReplay {
   public:
    OrbitReplay() = default;
    // A copy keeps the tally but not the period: it re-probes from its
    // next step, which is exact too, and copies no buffer.
    OrbitReplay(const OrbitReplay& other) : replayed_(other.replayed_) {}

    // At a point: the next step's start state becomes the anchor.
    void restart() { mode_ = Mode::Anchor; }
    // True once the probe window passed without a repeat.
    [[nodiscard]] bool idle() const { return mode_ == Mode::Idle; }
    // Before a step that is not idle: true if it wrote the step's state
    // into s, false if the step is to be integrated and then observed.
    bool replay(TankState& s);
    void observe(const TankState& s);
    [[nodiscard]] std::uint64_t replayed() const { return replayed_; }

   private:
    // Steps a probe compares before it gives up until the next point.  The
    // longest period the §7 faults show (654 steps) fits, and the period
    // buffer stays within 40 KiB.
    static constexpr std::uint32_t kWindow = 1024;
    enum class Mode : std::uint8_t { Anchor, Probe, Record, Replay, Idle };
    Mode mode_ = Mode::Anchor;
    std::uint32_t steps_ = 0;  // steps since the anchor; the period once it repeated
    std::uint32_t phase_ = 0;  // index in period_ of the next replayed state
    TankState anchor_{};
    std::vector<TankState> period_;  // allocated once the anchor came back
    std::uint64_t replayed_ = 0;
  };

  // Structural view of the (possibly faulted) tank during the run.
  struct ActiveTank {
    tank::TankConfig config{};
    bool loop_open = false;
    bool pin1_grounded = false;
    bool pin2_grounded = false;
    bool pin1_to_supply = false;
  };

  // Everything run()'s integration loop carries between steps.  Kept in
  // one value so a paused run can be copied (RunSession) and resumed with
  // the exact state a straight-through run would have had at that point.
  struct RunState {
    double duration = 0.0;
    double dt = 0.0;
    std::size_t total_steps = 0;
    std::size_t step = 0;
    std::size_t steps_taken = 0;
    bool nvm_applied = false;
    std::size_t next_event = 0;
    double next_tick = 0.0;
    double t = 0.0;
    TankState s{};
    OrbitReplay orbit{};
    ActiveTank active{};
    bool record = false;
    // Inline envelope tracker (per-half-cycle peak of |v_diff|); off in
    // sweep sessions, whose rows never read the envelope.
    bool record_envelope = true;
    double env_peak = 0.0;
    double env_peak_time = 0.0;
    bool env_have = false;
    bool env_last_positive = false;
    SimulationResult result{};
  };

  friend class RunSession;

  // One RK4 step of rs's tank state: four derivative evaluations, then
  // the combine.
  void rk4_step(RunState& rs) const;

  // run() split at pausable boundaries: preamble, loop, epilogue.  The
  // loop pauses (returns) when the loop-top time reaches stop_time.
  [[nodiscard]] RunState begin_run(double duration);
  void advance_run(RunState& rs, double stop_time);
  // `runs` > 1 publishes the run's metrics once per run it stands for
  // (RunSession::finish).
  [[nodiscard]] SimulationResult finish_run(RunState& rs, std::uint64_t runs = 1);
  // Publish the FSM and safety counters tallied since the run began.
  void flush_loop_metrics(std::uint64_t runs = 1);
  // TickRecord::supply_current at the present code and VDC1.
  [[nodiscard]] double tick_supply_current() const;

  // Subsystems observe the bus through const pointers; run() re-attaches
  // them so copied systems never alias another instance's bus.
  void attach_fault_bus();

  OscillatorSystemConfig config_;
  driver::OscillatorDriver driver_;
  regulation::AmplitudeDetector detector_;
  regulation::RegulationFsm fsm_;
  safety::SafetyController safety_;
  faults::FaultBus fault_bus_;

  struct TimedEvent {
    double time = 0.0;
    ScenarioAction action;
  };
  std::vector<TimedEvent> events_;
};

// Resumable run: owns a private copy of the system plus the loop state,
// pausable at step boundaries.  advance_until(T) stops at the exact
// loop-top position where an event scheduled at time T would fire, so a
// session paused there, copied, injected into, and run to completion is
// bit-identical to a fresh system with that event scheduled up front.
// Both FMEA families share one healthy settle prefix across all fault
// variants this way (system/fault_sweep.h, DESIGN.md §16-17).
class RunSession {
 public:
  // Copies `system` and performs run()'s preamble (resets, bus clear).
  // With record_envelope false the result's envelope stays empty (the
  // fault sweep's sessions: no row reads it, and it grows by ~2 MiB per
  // 16 ms run); everything else is unchanged.
  RunSession(const OscillatorSystem& system, double duration, bool record_envelope = true);
  // Deep copy; the copy re-attaches its subsystems to its own fault
  // bus (never aliasing the source session's).
  RunSession(const RunSession& other);
  RunSession& operator=(const RunSession&) = delete;

  // Advance until the loop-top time reaches stop_time (or the run
  // ends).  Throws exactly what run() would (ConvergenceError,
  // BudgetExceededError).
  void advance_until(double stop_time);
  // Inject a scenario action firing at the next loop top -- equivalent
  // to scheduling it at the current pause time before the run.  Only
  // valid while the session has no pending scheduled events.
  void inject(ScenarioAction action);
  void inject_internal_fault(const faults::InternalFault& fault) {
    inject(InternalFaultEvent{fault});
  }
  // Run to the end and produce the result; emits the same run metrics
  // a straight run() emits, the settle prefix's loop counters included,
  // `runs` times over (a shared trajectory stands for that many runs).
  // A finish that throws emits none (the caller re-runs the case).  The
  // session is spent afterwards.
  [[nodiscard]] SimulationResult finish(std::uint64_t runs = 1);

  [[nodiscard]] double time() const { return state_.t; }
  // Simulated time of the next regulation tick: advance_until(next_tick())
  // pauses right after that tick's step.
  [[nodiscard]] double next_tick() const { return state_.next_tick; }
  // True once the run has taken its last step.
  [[nodiscard]] bool done() const { return state_.step >= state_.total_steps; }
  // True once the NVM preset instant has passed; from then on the code
  // moves only at regulation ticks.
  [[nodiscard]] bool preset_applied() const { return state_.nvm_applied; }
  [[nodiscard]] int code() const { return system_.driver_.code(); }

  // The driver's effective Gm stage at the present code
  // (OscillatorDriver::effective_stage) ...
  [[nodiscard]] driver::GmStageConfig drive_stage() const {
    return system_.driver_.effective_stage();
  }
  // ... and the one it would have with `fault` on its bus instead (a
  // probe: the session is untouched).
  [[nodiscard]] driver::GmStageConfig drive_stage(const faults::InternalFault& fault) const;
  // At a pause right after a regulation tick, replace the active internal
  // fault by `fault`; both must act only through the drive stage
  // (faults::acts_only_through_drive_stage).  The session then continues
  // exactly as a run with `fault` injected in place of the old one whose
  // stages agreed until this tick: the tick's supply current, the one
  // value of the tick step that already used the new code, is
  // re-evaluated under `fault`.
  void switch_internal_fault(const faults::InternalFault& fault);

 private:
  OscillatorSystem system_;
  OscillatorSystem::RunState state_;
};

}  // namespace lcosc::system
