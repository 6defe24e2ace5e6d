// End-to-end telemetry checks over the campaign engines (ISSUE
// acceptance): the metrics snapshot of a campaign is identical for 1 and
// 8 workers (counters and histograms; gauges model instantaneous pool
// state and are exempt by design), and the Chrome trace JSON written
// with tracing on is well-formed with monotone timestamps per thread.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "json_validator.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "spice/circuit.h"
#include "spice/transient_solver.h"
#include "system/fmea_campaign.h"
#include "system/internal_fmea.h"

namespace lcosc::system {
namespace {

using namespace lcosc::literals;

InternalFmeaConfig small_campaign() {
  InternalFmeaConfig cfg;
  cfg.system.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.system.regulation.tick_period = 0.25e-3;
  cfg.system.regulation.nvm_code = 45;
  cfg.system.waveform_decimation = 0;
  cfg.settle_time = 6e-3;
  cfg.observe_time = 2e-3;
  // A detected fault, an overdrive fault, a dead rectifier and the
  // control case: enough to exercise safety trips, FSM transitions and
  // the detection-latency histogram.
  cfg.faults = {faults::make_gm_collapse(),
                faults::make_fault(faults::InternalFaultKind::WindowStuckLow),
                faults::make_fault(faults::InternalFaultKind::RectifierDead),
                faults::make_fault(faults::InternalFaultKind::None)};
  return cfg;
}

// JSON well-formedness validation lives in tests/json_validator.h,
// shared with test_fleet_obs.cpp and test_service.cpp.
using lcosc::testutil::JsonValidator;

TEST(JsonValidatorSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonValidator(R"({"a": [1, -2.5e3, "x\"y"], "b": {"c": true}})").valid());
  EXPECT_TRUE(JsonValidator("[]").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": })").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1,})").valid());
  EXPECT_FALSE(JsonValidator(R"({"a": 1} trailing)").valid());
  EXPECT_FALSE(JsonValidator(R"({"a" 1})").valid());
}

// --- acceptance: metrics determinism across worker counts -----------------

void expect_counters_and_histograms_equal(const obs::MetricsSnapshot& a,
                                          const obs::MetricsSnapshot& b) {
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i], b.counters[i]) << "counter " << a.counters[i].name;
  }
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    EXPECT_EQ(a.histograms[i], b.histograms[i]) << "histogram " << a.histograms[i].name;
  }
}

TEST(TelemetryDeterminism, CampaignSnapshotsIdenticalForOneAndEightWorkers) {
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();

  InternalFmeaConfig cfg = small_campaign();

  cfg.workers = 1;
  registry.reset();
  const InternalFmeaReport serial = run_internal_fmea_campaign(cfg);
  const obs::MetricsSnapshot snap1 = registry.snapshot();

  cfg.workers = 8;
  registry.reset();
  const InternalFmeaReport parallel = run_internal_fmea_campaign(cfg);
  const obs::MetricsSnapshot snap8 = registry.snapshot();

  obs::set_metrics_enabled(false);

  // The campaign itself must agree before the metrics can.
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].detected, parallel.rows[i].detected) << "row " << i;
    EXPECT_EQ(serial.rows[i].detection_latency, parallel.rows[i].detection_latency)
        << "row " << i;
  }

  // Counters and histograms merge order-independently, so the snapshots
  // are identical for any LCOSC_THREADS (gauges track live pool state
  // and are exempt from this contract by design, DESIGN.md §10).
  expect_counters_and_histograms_equal(snap1, snap8);

  // The campaign recorded the expected shape: one case counter per row
  // and a detection latency for each detected fault.
  const obs::CounterSnapshot* cases = snap8.find_counter("campaign.cases");
  ASSERT_NE(cases, nullptr);
  EXPECT_EQ(cases->value, cfg.faults.size());
  const obs::HistogramSnapshot* latency =
      snap8.find_histogram("internal_fmea.detection_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, static_cast<std::uint64_t>(parallel.detected_count()));
}

TEST(TelemetryDeterminism, SharedPrefixCampaignsCountLikeThePerCasePath) {
  // Both campaigns settle once and finish every fault on a copy of that
  // prefix.  The loop-side counters (fsm.*, safety.trips.*) are tallied
  // per run, so each variant counts the prefix it inherited -- and a
  // continuation that throws and falls back to the serial case counts
  // only once: the snapshots equal the per-case path's.
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::instance();

  InternalFmeaConfig internal = small_campaign();
  internal.faults.push_back(faults::make_fault(faults::InternalFaultKind::SelfTestThrow));
  internal.workers = 4;
  registry.reset();
  for (std::size_t i = 0; i < internal.faults.size(); ++i) {
    (void)run_internal_fmea_case_at(internal, i);
  }
  const obs::MetricsSnapshot internal_cases = registry.snapshot();
  registry.reset();
  (void)run_internal_fmea_campaign(internal);
  const obs::MetricsSnapshot internal_sweep = registry.snapshot();

  FmeaCampaignConfig external;
  external.system = internal.system;
  external.severity.resistance_factor = 30.0;
  external.severity.shorted_turn_fraction = 0.9;
  external.settle_time = 3e-3;
  external.observe_time = 3e-3;
  external.workers = 4;
  registry.reset();
  for (std::size_t i = 0; i < fmea_case_count(); ++i) (void)run_fmea_case_at(external, i);
  const obs::MetricsSnapshot external_cases = registry.snapshot();
  registry.reset();
  (void)run_fmea_campaign(external);
  const obs::MetricsSnapshot external_sweep = registry.snapshot();

  obs::set_metrics_enabled(false);

  {
    SCOPED_TRACE("internal FMEA");
    expect_counters_and_histograms_equal(internal_cases, internal_sweep);
  }
  {
    SCOPED_TRACE("external FMEA");
    expect_counters_and_histograms_equal(external_cases, external_sweep);
  }
  // The prefix ticks are in: every case counts the 12 ticks of its 3 ms
  // settle, not just its continuation.
  const obs::CounterSnapshot* ticks = external_sweep.find_counter("fsm.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GE(ticks->value, fmea_case_count() * 12);
  const obs::CounterSnapshot* trips = external_sweep.find_counter("safety.trips");
  ASSERT_NE(trips, nullptr);
  EXPECT_GE(trips->value, fmea_case_count());
}

// --- acceptance: trace JSON validity --------------------------------------

TEST(TelemetryTrace, ChromeTraceIsWellFormedWithMonotoneTimestamps) {
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  // Keep the capture bounded: the per-step solver spans of even a short
  // campaign are plentiful.
  obs::set_trace_event_limit(200000);

  InternalFmeaConfig cfg = small_campaign();
  cfg.faults = {faults::make_gm_collapse()};
  cfg.settle_time = 2e-3;
  cfg.observe_time = 2e-3;
  cfg.workers = 2;
  (void)run_internal_fmea_campaign(cfg);

  // The system-level campaign uses its own fixed-step integrator; run a
  // short spice transient too so the solver-step spans land in the same
  // trace.
  {
    spice::Circuit c;
    spice::VoltageSource& vs = c.voltage_source("Vs", "in", "0", 0.0);
    vs.set_sine({.offset = 0.0, .amplitude = 1.0, .frequency = 4.0_MHz, .phase_deg = 0.0});
    c.resistor("R", "in", "a", 50.0);
    c.capacitor("C", "a", "0", 1e-9);
    spice::TransientOptions options;
    options.dt = 1.0 / (4.0_MHz * 32.0);
    options.t_stop = 100.0 * options.dt;
    options.start_from_dc = false;
    (void)run_transient(c, options, {"a"});
  }

  obs::set_trace_enabled(false);
  const std::vector<obs::TraceEventRecord> events = obs::trace_snapshot();
  ASSERT_FALSE(events.empty());

  // Monotone timestamps per thread in snapshot (= file) order.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i - 1].tid != events[i].tid) continue;
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us) << "event " << i;
  }

  // The expected span names all made it in.
  auto has = [&](const std::string& name) {
    for (const auto& e : events) {
      if (e.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("internal_fmea:gm-collapse"));
  // The campaign settles once and finishes each fault on a session copy.
  EXPECT_TRUE(has("internal_fmea:settle_prefix"));
  EXPECT_TRUE(has("system.run_session"));
  EXPECT_TRUE(has("transient.run"));
  EXPECT_TRUE(has("transient.step"));

  const std::string path = "telemetry_test_artifacts/trace_campaign.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  obs::clear_trace();
  obs::set_trace_event_limit(1u << 20);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << "trace JSON is not well-formed";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"transient.step\""), std::string::npos);
  std::filesystem::remove_all("telemetry_test_artifacts");
}

}  // namespace
}  // namespace lcosc::system
