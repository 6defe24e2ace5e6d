#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dac/current_mirror.h"
#include "driver/oscillator_driver.h"
#include "faults/fault_bus.h"
#include "faults/internal_fault.h"
#include "obs/metrics.h"
#include "regulation/amplitude_detector.h"
#include "regulation/regulation_fsm.h"
#include "safety/safety_controller.h"
#include "service/adapters.h"
#include "service/checkpoint.h"
#include "service/supervisor.h"
#include "system/fmea_campaign.h"
#include "system/oscillator_system.h"
#include "system/tolerance_analysis.h"
#include "tank/rlc_tank.h"

namespace perfbench {

using namespace lcosc;

namespace {

// Keep a computed value alive without letting the compiler drop the work.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Median over `reps` timed repetitions of `body`, divided by `calls`.
template <typename Fn>
double ns_per_call(int reps, std::size_t calls, Fn&& body) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    per_call.push_back(seconds_since(t0) * 1e9 / static_cast<double>(calls));
  }
  return median(per_call);
}

// Every RK4 step of a healthy settle plus a MissingCosc1 transient.
struct Trajectory {
  std::vector<double> t;
  std::vector<double> v1;
  std::vector<double> v2;
  double dt = 0.0;
  int settled_code = 0;
  std::size_t samples_per_tick = 1;
};

constexpr double kReplaySettle = 3e-3;
constexpr double kReplayFault = 1e-3;

Trajectory record_trajectory() {
  system::OscillatorSystemConfig cfg = q40_system();
  cfg.waveform_decimation = 1;
  system::OscillatorSystem sys(cfg);
  sys.schedule_fault(tank::TankFault::MissingCosc1, kReplaySettle);
  const system::SimulationResult sim = sys.run(kReplaySettle + kReplayFault);
  Trajectory tr;
  tr.t = sim.v_lc1.times();
  tr.v1 = sim.v_lc1.values();
  tr.v2 = sim.v_lc2.values();
  tr.dt = tr.t.at(1) - tr.t.at(0);
  for (const system::TickRecord& tick : sim.ticks) {
    if (tick.time <= kReplaySettle) tr.settled_code = tick.code;
  }
  tr.samples_per_tick = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.regulation.tick_period / tr.dt + 0.5));
  return tr;
}

}  // namespace

BlockCosts replay_blocks(SpanLog* spans, MetricSet& out) {
  const ScopedSpan root(spans, "layers.block_replay", 0, 0);
  const Trajectory tr = record_trajectory();
  const system::OscillatorSystemConfig cfg = q40_system();
  const std::size_t n = tr.t.size();
  BlockCosts costs;

  const auto replay_driver = [&](const driver::OscillatorDriver& drv) {
    return ns_per_call(15, n, [&] {
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const driver::NodeCurrents c = drv.output(tr.v1[i], tr.v2[i]);
        sum += c.into_lc1 - c.into_lc2;
      }
      keep(sum);
    });
  };
  {
    const ScopedSpan span(spans, "driver.output", root.id(), 0);
    driver::OscillatorDriver drv(cfg.driver);
    drv.set_code(tr.settled_code);
    costs.driver_output_ns = replay_driver(drv);
  }
  {
    const ScopedSpan span(spans, "driver.output_faulted", root.id(), 0);
    faults::FaultBus bus;
    bus.inject(faults::make_line_stuck(faults::DacBus::OscF, 3, true));
    driver::OscillatorDriver drv(cfg.driver);
    drv.attach_fault_bus(&bus);
    drv.set_code(tr.settled_code);
    out.set("driver.output_faulted_ns", replay_driver(drv), "ns");
  }

  // The detector replay also records the window verdict at every
  // regulation tick, which the FSM replay below feeds back.
  std::vector<devices::WindowState> windows;
  {
    const ScopedSpan span(spans, "regulation.detector_step", root.id(), 0);
    regulation::AmplitudeDetector det(cfg.detector);
    costs.detector_step_ns = ns_per_call(9, n, [&] {
      det.reset();
      windows.clear();
      for (std::size_t i = 0; i < n; ++i) {
        det.step(tr.dt, tr.v1[i], tr.v2[i]);
        if (i % tr.samples_per_tick == 0) windows.push_back(det.window_state());
      }
      keep(det.vdc1());
    });
  }
  {
    const ScopedSpan span(spans, "safety.step", root.id(), 0);
    safety::SafetyController sc(cfg.safety);
    costs.safety_step_ns = ns_per_call(9, n, [&] {
      sc.reset(0.0);
      bool any = false;
      for (std::size_t i = 0; i < n; ++i) any ^= sc.step(tr.t[i], tr.dt, tr.v1[i], tr.v2[i]);
      keep(any);
    });
  }
  {
    const ScopedSpan span(spans, "regulation.fsm_tick", root.id(), 0);
    regulation::RegulationFsm fsm(cfg.regulation);
    constexpr std::size_t kTicks = 200000;
    costs.fsm_tick_ns = ns_per_call(9, kTicks, [&] {
      fsm.por_reset();
      int code = 0;
      for (std::size_t i = 0; i < kTicks; ++i) code += fsm.tick(windows[i % windows.size()]);
      keep(code);
    });
  }

  out.set("driver.output_ns", costs.driver_output_ns, "ns");
  out.set("regulation.detector_step_ns", costs.detector_step_ns, "ns");
  out.set("safety.step_ns", costs.safety_step_ns, "ns");
  out.set("regulation.fsm_tick_ns", costs.fsm_tick_ns, "ns");
  return costs;
}

double block_share(const BlockCosts& costs, const StepBudget& budget) {
  const auto steps = static_cast<double>(budget.steps);
  const double block_ns = steps * (4.0 * costs.driver_output_ns + costs.detector_step_ns +
                                   costs.safety_step_ns) +
                          static_cast<double>(budget.fsm_ticks) * costs.fsm_tick_ns;
  return block_ns * 1e-9 / budget.case_seconds;
}

void probe_envelope_blocks(MetricSet& out) {
  driver::OscillatorDriver drv;
  drv.set_code(45);
  constexpr std::size_t kAmplitudes = 2000;
  out.set("driver.port_current_ns", ns_per_call(9, kAmplitudes, [&] {
            double sum = 0.0;
            for (std::size_t i = 0; i < kAmplitudes; ++i) {
              sum += drv.fundamental_port_current(0.05 + 5.0 * static_cast<double>(i) / kAmplitudes);
            }
            keep(sum);
          }),
          "ns");

  constexpr std::size_t kBuilds = 200;
  const dac::MismatchConfig mismatch{};
  out.set("dac.mismatch_build_us", ns_per_call(7, kBuilds, [&] {
            for (std::size_t i = 0; i < kBuilds; ++i) {
              const dac::CurrentLimitationDac dac(drv.config().unit_current, mismatch, i + 1);
              keep(dac);
            }
          }) * 1e-3,
          "us");
}

void probe_fmea_case(SpanLog* spans, MetricSet& out, StepBudget& budget) {
  if (budget.steps > 0 && out.has("system.case_ms.p50") && out.has("system.post_fault_ms")) {
    return;
  }
  const ScopedSpan root(spans, "layers.fmea_case_probe", 0, 0);
  const system::FmeaCampaignConfig cfg = fmea_config(6e-3);
  const std::vector<tank::TankFault> faults = system::fmea_fault_list();
  const auto index = static_cast<std::size_t>(
      std::find(faults.begin(), faults.end(), tank::TankFault::MissingCosc1) - faults.begin());

  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  double case_s = 0.0;
  {
    const ScopedSpan span(spans, "system.run_fmea_case_at", root.id(), 0);
    const Clock::time_point t0 = Clock::now();
    (void)system::run_fmea_case_at(cfg, index);
    case_s = seconds_since(t0);
  }
  const std::uint64_t steps = counter_now("system.steps");
  const std::uint64_t ticks = counter_now("fsm.ticks");
  obs::set_metrics_enabled(false);

  double settle_s = 0.0;
  {
    const ScopedSpan span(spans, "system.settle", root.id(), 0);
    system::OscillatorSystem sys(cfg.system);
    const Clock::time_point t0 = Clock::now();
    (void)sys.run(cfg.settle_time);
    settle_s = seconds_since(t0);
  }

  const auto fill = [&](const char* name, double value, const char* unit) {
    if (!out.has(name)) out.set(name, value, unit);
  };
  fill("system.case_ms.p50", case_s * 1e3, "ms");
  fill("system.case_ms.max", case_s * 1e3, "ms");
  fill("system.settle_ms", settle_s * 1e3, "ms");
  fill("system.post_fault_ms", (case_s - settle_s) * 1e3, "ms");
  fill("system.ns_per_step", case_s / static_cast<double>(steps) * 1e9, "ns");
  if (budget.steps == 0) budget = {case_s, steps, ticks};
}

void probe_envelope_chunk(SpanLog* spans, MetricSet& out) {
  if (out.has("envelope.chunk_ms")) return;
  const ScopedSpan root(spans, "layers.envelope_chunk_probe", 0, 0);
  const system::ToleranceConfig cfg = tolerance_config(40.0, 1);
  std::vector<double> chunk_s;
  std::uint64_t lane_steps = 0;
  for (int rep = 0; rep < 5; ++rep) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    const ScopedSpan span(spans, "system.run_tolerance_samples", root.id(), 0);
    const Clock::time_point t0 = Clock::now();
    (void)system::run_tolerance_samples(cfg, 0, cfg.chunk_lanes);
    chunk_s.push_back(seconds_since(t0));
    lane_steps = counter_now("envelope.batched.lane_steps");
    obs::set_metrics_enabled(false);
  }
  out.set("envelope.chunk_ms", median(chunk_s) * 1e3, "ms");
  out.set("envelope.lane_step_ns", median(chunk_s) / static_cast<double>(lane_steps) * 1e9, "ns");
}

void probe_session(SpanLog* spans, MetricSet& out) {
  if (out.has("system.session_copy_us")) return;
  const ScopedSpan root(spans, "layers.session_probe", 0, 0);
  system::OscillatorSystemConfig cfg = q40_system();
  cfg.regulation.nvm_code = 45;
  const system::OscillatorSystem base(cfg);
  system::RunSession prefix(base, kCaseSimSeconds);
  prefix.advance_until(6e-3);
  std::vector<double> copy_s;
  for (const faults::InternalFault& fault : faults::internal_fault_list()) {
    const Clock::time_point t0 = Clock::now();
    system::RunSession session(prefix);
    session.inject_internal_fault(fault);
    copy_s.push_back(seconds_since(t0));
  }
  out.set("system.session_copy_us", median(copy_s) * 1e6, "us");
}

void probe_service(SpanLog* spans, const std::string& work_dir, MetricSet& out) {
  if (out.has("service.run_cases_ms")) return;
  const ScopedSpan root(spans, "layers.service_probe", 0, 0);
  const ScratchDir scratch(work_dir, "service_probe");
  const std::string& dir = scratch.path();

  service::CampaignSpec spec;
  spec.kind = service::CampaignKind::Tolerance;
  spec.samples = 16;
  spec.run_duration = 10e-3;
  spec.shards = 2;
  spec.chunk_lanes = 8;
  spec.checkpoint_dir = dir;
  double wall = 0.0;
  service::ServiceResult result;
  {
    const ScopedSpan span(spans, "service.run_campaign_service", root.id(), 0);
    const Clock::time_point t0 = Clock::now();
    result = service::run_campaign_service(spec);
    wall = seconds_since(t0);
  }
  double active_max = 0.0;
  for (const service::ShardStatus& shard : result.shards) {
    active_max = std::max(active_max, shard.active_seconds);
  }

  const std::unique_ptr<ShardableCampaign> campaign = service::make_campaign(spec);
  std::vector<double> group_s;
  for (std::size_t first = 0; first < 16; first += 8) {
    const ScopedSpan span(spans, "service.run_cases", root.id(), 0);
    const Clock::time_point t0 = Clock::now();
    (void)campaign->run_cases(first, 8);
    group_s.push_back(seconds_since(t0));
  }

  double merge_s = 0.0;
  std::map<std::uint32_t, std::string> records;
  {
    const ScopedSpan span(spans, "service.merge", root.id(), 0);
    const Clock::time_point t0 = Clock::now();
    records = service::scan_checkpoint_dir(dir);
    std::vector<std::string> ordered;
    for (const auto& [index, payload] : records) ordered.push_back(payload);
    (void)campaign->report(ordered);
    merge_s = seconds_since(t0);
  }

  std::vector<double> commit_s;
  {
    const ScopedSpan span(spans, "service.commit", root.id(), 0);
    service::CheckpointWriter writer(dir + "/commit_probe.ckpt");
    for (const auto& [index, payload] : records) {
      const Clock::time_point t0 = Clock::now();
      writer.append(index, payload);
      commit_s.push_back(seconds_since(t0));
    }
  }

  out.set("service.run_cases_ms", median(group_s) * 1e3, "ms");
  out.set("service.commit_us", median(commit_s) * 1e6, "us");
  out.set("service.merge_ms", merge_s * 1e3, "ms");
  out.set("service.coordinator_overhead_s", wall - active_max, "s");
}

}  // namespace perfbench
