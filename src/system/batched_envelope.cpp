#include "system/batched_envelope.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "common/error.h"
#include "devices/batched_blocks.h"
#include "driver/oscillator_driver.h"
#include "numeric/batched_state.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "regulation/amplitude_detector.h"
#include "regulation/regulation_fsm.h"
#include "system/envelope_kernel.h"
#include "tank/rlc_tank.h"

namespace lcosc::system {

namespace {

// One guarded envelope step of a lane: input amplitude, output amplitude
// and the substeps it took.
struct StepMemo {
  double in = 0.0;
  double out = 0.0;
  std::uint64_t substeps = 0;
};

// Cold per-lane state: everything the hot loop touches at most once per
// regulation tick.  The per-substep state (amplitude, rectified mean)
// lives in the BatchedState channels instead.
struct Lane {
  double rp = 0.0;
  double ceff = 0.0;
  double quiescent = 0.0;
  std::optional<driver::OscillatorDriver> driver;
  std::optional<regulation::RegulationFsm> fsm;
  // Cached differential-port stage; equals the stage the serial path
  // constructs per call (refreshed on every code change).
  std::optional<driver::GmStage> port;
  // The last step taken from `port` (DESIGN.md §12).  A step is a pure
  // function of the amplitude, the port stage, rp, ceff and dt, and only
  // the first two vary within a lane, so a step from a bitwise-equal
  // amplitude on this stage is this step, bit for bit.
  std::optional<StepMemo> last_step;
  std::uint64_t memo_hits = 0;  // steps taken from last_step
  std::uint64_t substeps = 0;
  std::uint64_t steps = 0;  // macro steps advanced while the lane was active
  std::uint64_t ticks = 0;  // regulation ticks taken while the lane was active
  double tail_acc = 0.0;
  std::uint64_t tail_n = 0;
  double last_tick_amp = 0.0;
  int last_tick_code = 0;
  bool has_tick = false;
  bool ok = false;
};

// Re-read the port stage after a code change.  A code step that leaves
// the stage bitwise unchanged keeps the step memo.
void refresh_port(Lane& lane) {
  const driver::GmStage next = lane.driver->differential_port_stage();
  if (lane.port && driver::same_drive_stage(lane.port->config(), next.config())) return;
  lane.port = next;
  lane.last_step.reset();
}

}  // namespace

std::vector<BatchedLaneResult> run_batched_envelope(
    const std::vector<BatchedEnvelopeLane>& lanes, double duration) {
  LCOSC_SPAN("envelope.batched_run");
  LCOSC_REQUIRE(!lanes.empty(), "batched envelope needs at least one lane");
  LCOSC_REQUIRE(duration > 0.0, "duration must be positive");

  // The lockstep loop shares one time grid: dt, the regulation tick
  // schedule, and the NVM preset time must agree across lanes (they are
  // design constants, not Monte-Carlo variables).  The detector filter
  // tau is shared for the same reason (one LowPassBank decay factor).
  const EnvelopeSimConfig& ref = lanes.front().config;
  for (const auto& lane : lanes) {
    const EnvelopeSimConfig& cfg = lane.config;
    LCOSC_REQUIRE(!cfg.adaptive, "batched envelope engine is fixed-step only");
    LCOSC_REQUIRE(cfg.dt == ref.dt, "all lanes must share the envelope dt");
    LCOSC_REQUIRE(cfg.regulation.tick_period == ref.regulation.tick_period,
                  "all lanes must share the regulation tick period");
    LCOSC_REQUIRE(cfg.regulation.nvm_delay == ref.regulation.nvm_delay,
                  "all lanes must share the NVM preset delay");
    LCOSC_REQUIRE(cfg.detector.filter_tau == ref.detector.filter_tau,
                  "all lanes must share the detector filter tau");
  }
  LCOSC_REQUIRE(ref.dt > 0.0, "envelope step must be positive");

  const std::size_t n = lanes.size();
  std::vector<BatchedLaneResult> results(n);
  std::vector<Lane> state(n);

  // Channels: 0 = amplitude A, 1 = rectified-mean detector input A/pi.
  BatchedState soa(2, n);
  const auto amp = soa.channel(0);
  const auto rect = soa.channel(1);
  devices::LowPassBank vdc1(ref.detector.filter_tau, n);
  std::vector<double> vr3(n, 0.0);
  std::vector<double> vr4(n, 0.0);
  std::vector<devices::WindowState> verdicts(n, devices::WindowState::Inside);

  // Per-lane setup mirrors EnvelopeSimulator's constructor + run preamble;
  // a throwing lane is handed back for the serial fallback instead of
  // failing the whole batch.
  for (std::size_t l = 0; l < n; ++l) {
    try {
      const EnvelopeSimConfig& cfg = lanes[l].config;
      LCOSC_REQUIRE(cfg.initial_amplitude > 0.0, "initial amplitude must be positive");
      LCOSC_REQUIRE(cfg.max_step_multiple >= 1, "envelope max_step_multiple must be >= 1");
      const tank::RlcTank tk(cfg.tank);
      Lane& lane = state[l];
      lane.rp = tk.parallel_resistance();
      lane.ceff = tk.effective_capacitance();
      lane.quiescent = cfg.driver.quiescent_current;
      lane.driver.emplace(cfg.driver);
      lane.fsm.emplace(cfg.regulation);
      if (lanes[l].mismatch_dac != nullptr) {
        lane.driver->use_mismatched_dac(lanes[l].mismatch_dac);
      }
      const regulation::AmplitudeDetector detector(cfg.detector);
      vr3[l] = detector.vr3();
      vr4[l] = detector.vr4();

      lane.fsm->por_reset();
      lane.driver->set_code(lane.fsm->code());
      lane.driver->set_enabled(true);
      refresh_port(lane);
      amp[l] = cfg.initial_amplitude;
      lane.ok = true;
    } catch (const std::exception&) {
      results[l].setup_failed = true;
      soa.deactivate(l);
    }
  }

  const double dt = ref.dt;
  const auto steps = static_cast<std::int64_t>(std::ceil(duration / dt * (1.0 - 1e-12)));
  const double tick_period = ref.regulation.tick_period;
  const double nvm_delay = ref.regulation.nvm_delay;
  std::int64_t tick_index = 1;
  bool nvm_applied = false;

  // Settled-amplitude tail window over the fixed output grid, computed
  // exactly like EnvelopeRunResult::settled_amplitude(): trace samples
  // run from 1*dt to steps*dt, and the tail keeps times >= t0.
  constexpr double kTailFraction = 0.2;
  const double trace_start = 1.0 * dt;
  const double trace_end = static_cast<double>(steps) * dt;
  const double t0 = trace_end - kTailFraction * (trace_end - trace_start);

  for (std::int64_t step = 0; step < steps && soa.any_active(); ++step) {
    const double t_step = static_cast<double>(step) * dt;
    if (!nvm_applied && t_step >= nvm_delay) {
      for (std::size_t l = 0; l < n; ++l) {
        if (!soa.active(l)) continue;
        Lane& lane = state[l];
        lane.fsm->apply_nvm_preset();
        lane.driver->set_code(lane.fsm->code());
        refresh_port(lane);
      }
      nvm_applied = true;
    }

    for (std::size_t l = 0; l < n; ++l) {
      if (!soa.active(l)) continue;
      Lane& lane = state[l];
      const double in = amp[l];
      if (lane.last_step &&
          std::bit_cast<std::uint64_t>(in) == std::bit_cast<std::uint64_t>(lane.last_step->in)) {
        amp[l] = lane.last_step->out;
        lane.substeps += lane.last_step->substeps;
        ++lane.memo_hits;
      } else {
        // The same growth-rate evaluation the serial path performs via
        // fundamental_port_current(), against the cached port stage.
        const driver::GmStage& port = *lane.port;
        const double rp = lane.rp;
        const double ceff = lane.ceff;
        auto lambda_of = [&](double a) {
          const double n_eff = port.fundamental_current(a) / a;
          return (n_eff - 1.0 / rp) / (2.0 * ceff);
        };
        std::uint64_t substeps = 0;
        amp[l] = advance_envelope_guarded(lambda_of, in, dt, substeps);
        lane.substeps += substeps;
        lane.last_step = StepMemo{in, amp[l], substeps};
      }
      ++lane.steps;
      if (!std::isfinite(amp[l])) {
        // The serial path throws ConvergenceError here; the lane drops
        // out and the caller replays it serially (retries included).
        results[l].diverged = true;
        soa.deactivate(l);
      }
    }
    const double t = static_cast<double>(step + 1) * dt;

    // Detector chain in bank form: rectified mean then the shared-tau
    // low-pass.  Inactive lanes ride along (their values are never read).
    devices::rectified_mean_bank(amp, rect);
    vdc1.step(dt, rect);

    if (t >= t0) {
      for (std::size_t l = 0; l < n; ++l) {
        if (!soa.active(l)) continue;
        state[l].tail_acc += amp[l];
        ++state[l].tail_n;
      }
    }

    if (t >= static_cast<double>(tick_index) * tick_period * (1.0 - 1e-12)) {
      window_verdict_bank(vdc1.outputs(), vr3, vr4, verdicts);
      for (std::size_t l = 0; l < n; ++l) {
        if (!soa.active(l)) continue;
        Lane& lane = state[l];
        lane.fsm->tick(verdicts[l]);
        lane.driver->set_code(lane.fsm->code());
        refresh_port(lane);
        lane.last_tick_amp = amp[l];
        lane.last_tick_code = lane.fsm->code();
        lane.has_tick = true;
        ++lane.ticks;
      }
      ++tick_index;
    }
  }

  std::uint64_t total_substeps = 0;
  std::uint64_t total_lane_steps = 0;
  std::uint64_t total_lane_ticks = 0;
  std::uint64_t total_memo_hits = 0;
  for (std::size_t l = 0; l < n; ++l) {
    Lane& lane = state[l];
    BatchedLaneResult& r = results[l];
    r.substeps = lane.substeps;
    total_substeps += lane.substeps;
    total_lane_steps += lane.steps;
    total_lane_ticks += lane.ticks;
    total_memo_hits += lane.memo_hits;
    if (lane.fsm) lane.fsm->flush_metrics();
    if (!lane.ok || r.diverged) continue;
    r.final_code = lane.fsm->code();
    r.settled_amplitude =
        lane.tail_n > 0 ? lane.tail_acc / static_cast<double>(lane.tail_n) : 0.0;
    if (lane.has_tick) {
      // The serial path evaluates supply_current at each tick with the
      // post-tick code; only the last tick's value is consumed, and the
      // evaluation is pure, so one call at the recorded (code, amplitude)
      // reproduces it.  (An NVM preset after the last tick could have
      // moved the code, hence the explicit restore.)
      lane.driver->set_code(lane.last_tick_code);
      r.supply_current = lane.driver->supply_current(lane.last_tick_amp);
    }
  }

  // All envelope.batched.* counters are PURE PER LANE: a lane contributes
  // the same increments no matter how the sweep is sliced into engine
  // invocations (chunk size, shard layout, resume schedule).  That purity
  // is what keeps the fleet's deterministic metrics.json byte-identical
  // across shard counts once the service drains chunks -- a chunk
  // straddling a shard boundary splits into two invocations, so
  // per-invocation counters (a "runs" count, a macro-step total gated on
  // any_active()) would be layout-dependent.
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::instance();
    registry.counter("envelope.batched.lanes").add(n);
    registry.counter("envelope.batched.lane_steps").add(total_lane_steps);
    registry.counter("envelope.batched.substeps").add(total_substeps);
    registry.counter("envelope.batched.lane_ticks").add(total_lane_ticks);
    registry.counter("envelope.batched.memo_hits").add(total_memo_hits);
  }
  return results;
}

BatchedEnvelopeEngine::BatchedEnvelopeEngine(std::size_t chunk_lanes)
    : chunk_lanes_(chunk_lanes) {
  LCOSC_REQUIRE(chunk_lanes > 0, "chunk_lanes must be positive");
}

void BatchedEnvelopeEngine::run(std::size_t total, double duration,
                                const LaneFactory& factory, const ResultSink& sink) const {
  LCOSC_SPAN("envelope.batched_stream");
  std::vector<BatchedEnvelopeLane> window;
  for (std::size_t lo = 0; lo < total; lo += chunk_lanes_) {
    const std::size_t hi = std::min(total, lo + chunk_lanes_);
    window.clear();
    window.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) window.push_back(factory(i));
    const std::vector<BatchedLaneResult> results = run_batched_envelope(window, duration);
    for (std::size_t i = lo; i < hi; ++i) sink(i, results[i - lo]);
    // The window's lane configs (and any mismatch DACs they own) die
    // here; only the caller's folded outputs survive the next window.
  }
}

}  // namespace lcosc::system
