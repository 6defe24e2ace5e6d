// Per-layer measurements of the traced run, each timed from outside
// through the layer's public functions.
//
// The block replay records one realistic trajectory (healthy settle of
// the 4 MHz Q=40 tank plus a MissingCosc1 transient, every RK4 step) and
// replays it through the four blocks of the cycle-accurate step.  The
// probes give the layers a workload does not exercise a small, fixed
// measurement, so every traced run reports every per-layer metric.
#pragma once

#include "util.h"
#include "workloads.h"

namespace perfbench {

struct BlockCosts {
  double driver_output_ns = 0.0;
  double detector_step_ns = 0.0;
  double safety_step_ns = 0.0;
  double fsm_tick_ns = 0.0;
};

// driver.output_ns, driver.output_faulted_ns, regulation.detector_step_ns,
// safety.step_ns, regulation.fsm_tick_ns.
[[nodiscard]] BlockCosts replay_blocks(SpanLog* spans, MetricSet& out);

// Share of the cycle-accurate case time the four blocks explain:
// 4 driver outputs per RK4 step, one detector and safety step per step,
// one FSM tick per fsm.ticks count.
[[nodiscard]] double block_share(const BlockCosts& costs, const StepBudget& budget);

// driver.port_current_ns and dac.mismatch_build_us.
void probe_envelope_blocks(MetricSet& out);

// One serial MissingCosc1 case of the fmea_external configuration:
// fills the system.* case metrics that are still absent and, when the
// workload ran no cycle-accurate steps, the step budget.
void probe_fmea_case(SpanLog* spans, MetricSet& out, StepBudget& budget);

// One 64-lane chunk of the Q=40 sweep: envelope.chunk_ms and
// envelope.lane_step_ns when absent.
void probe_envelope_chunk(SpanLog* spans, MetricSet& out);

// Settle prefix copies: system.session_copy_us when absent.
void probe_session(SpanLog* spans, MetricSet& out);

// A small two-shard tolerance campaign through the service: the
// service.* timings that are still absent.
void probe_service(SpanLog* spans, const std::string& work_dir, MetricSet& out);

}  // namespace perfbench
