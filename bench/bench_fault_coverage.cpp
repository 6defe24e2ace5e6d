// Internal single-point fault coverage: inject every fault of the
// on-chip taxonomy (DAC control lines stuck, dead PWL segments, stuck
// window comparator, dead rectifier, frozen regulation FSM, dead
// watchdog, gm collapse) into the running system, and report the
// fault x detection-channel coverage matrix, the diagnostic-coverage
// percentage, per-fault detection latency, and the explicit list of
// uncovered gaps.  Also demonstrates the hardened campaign runner: a
// case that throws or exceeds its step budget is recorded as a
// simulation-error / timeout row instead of aborting the campaign.
// Writes a machine-readable BENCH_fault_coverage.json.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/si_format.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "system/internal_fmea.h"

using namespace lcosc;
using namespace lcosc::literals;
using namespace lcosc::system;

namespace {

InternalFmeaConfig campaign_config() {
  InternalFmeaConfig cfg;
  cfg.system.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  // Faster regulation ticks shorten the stuck-comparator code walk so the
  // whole campaign fits a short observation window, and the NVM preset
  // (paper Section 4) lands the loop at its settled code well before the
  // injection instant.
  cfg.system.regulation.tick_period = 0.25e-3;
  cfg.system.regulation.nvm_code = 45;
  cfg.system.waveform_decimation = 0;
  cfg.settle_time = 6e-3;
  cfg.observe_time = 12e-3;
  return cfg;
}

void write_json(const std::string& path, const InternalFmeaReport& report,
                const std::vector<InternalFmeaRow>& hardening) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"bench_fault_coverage\",\n"
      << "  \"faults\": " << report.rows.size() << ",\n"
      << "  \"detected\": " << report.detected_count() << ",\n"
      << "  \"completed\": " << report.completed_count() << ",\n"
      << "  \"errors\": " << report.error_count() << ",\n"
      << "  \"diagnostic_coverage\": " << report.diagnostic_coverage() << ",\n";

  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const InternalFmeaRow& r = report.rows[i];
    out << "    {\"fault\": \"" << faults::to_string(r.fault) << "\", \"expected\": \""
        << faults::to_string(r.expected) << "\", \"observed\": \""
        << faults::to_string(r.observed_channel()) << "\", \"detected\": "
        << (r.detected ? "true" : "false") << ", \"safe_state\": "
        << (r.safe_state_entered ? "true" : "false") << ", \"latency_s\": "
        << (r.detection_latency ? std::to_string(*r.detection_latency) : "null")
        << ", \"final_code\": " << r.final_code << ", \"outcome\": \""
        << to_string(r.status.outcome) << "\", \"retries\": " << r.status.retries << "}"
        << (i + 1 < report.rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  const std::vector<CoverageEntry> matrix = report.coverage_matrix();
  out << "  \"coverage_matrix\": [\n";
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const CoverageEntry& e = matrix[i];
    out << "    {\"kind\": \"" << faults::to_string(e.kind) << "\", \"undetected\": "
        << e.by_channel[0] << ", \"missing_oscillation\": " << e.by_channel[1]
        << ", \"low_amplitude\": " << e.by_channel[2] << ", \"asymmetry\": "
        << e.by_channel[3] << ", \"frequency_out_of_band\": " << e.by_channel[4]
        << ", \"errors\": " << e.errors << ", \"total\": " << e.total << "}"
        << (i + 1 < matrix.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  const std::vector<std::string> gaps = report.uncovered_gaps();
  out << "  \"uncovered_gaps\": [\n";
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    out << "    \"" << obs::json::escaped(gaps[i]) << "\"" << (i + 1 < gaps.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";

  out << "  \"runner_hardening\": [\n";
  for (std::size_t i = 0; i < hardening.size(); ++i) {
    const InternalFmeaRow& r = hardening[i];
    out << "    {\"fault\": \"" << faults::to_string(r.fault) << "\", \"outcome\": \""
        << to_string(r.status.outcome) << "\", \"retries\": " << r.status.retries
        << ", \"error\": \"" << obs::json::escaped(r.status.error) << "\"}"
        << (i + 1 < hardening.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  // Telemetry: the registry snapshot includes the per-fault detection
  // latency histogram (internal_fmea.detection_latency_ms) recorded by
  // the campaign runner.  The pool.* gauges are left out: their peaks
  // depend on how fast pool threads pick up work, outside the determinism
  // contract (common/parallel.cpp), so with them the record would differ
  // between runs of one binary.
  obs::MetricsSnapshot metrics = obs::MetricsRegistry::instance().snapshot();
  std::erase_if(metrics.gauges,
                [](const obs::GaugeSnapshot& g) { return g.name.starts_with("pool."); });
  out << "  \"telemetry\": {\n"
      << "    \"metrics_enabled\": " << (obs::metrics_enabled() ? "true" : "false") << ",\n"
      << "    \"trace_enabled\": " << (obs::trace_enabled() ? "true" : "false") << ",\n"
      << "    \"trace_events\": " << obs::trace_event_count() << ",\n"
      << "    \"metrics\": " << metrics.to_json(4)
      << "\n  }\n}\n";

  // Atomic write (temp + rename): a bench killed mid-emit must never
  // leave a truncated BENCH_*.json for the drift checker to trip over.
  if (!write_file_atomic(path, out.str())) {
    std::cerr << "warning: cannot write " << path << "\n";
  }
}

}  // namespace

int main() {
  // Metrics on by default so the JSON gets the detection-latency
  // histogram; tracing is opt-in via LCOSC_TRACE=1.
  lcosc::obs::set_metrics_enabled(lcosc::obs::env_flag("LCOSC_METRICS", true));
  lcosc::obs::set_trace_enabled(lcosc::obs::env_flag("LCOSC_TRACE", false));

  std::cout << "=== Internal single-point fault coverage (on-chip FMEA) ===\n\n";

  const InternalFmeaConfig cfg = campaign_config();
  const InternalFmeaReport report = run_internal_fmea_campaign(cfg);

  TablePrinter table({"fault", "expected", "observed", "latency", "safe state",
                      "final code", "outcome"});
  for (const auto& row : report.rows) {
    table.add_values(faults::to_string(row.fault), faults::to_string(row.expected),
                     faults::to_string(row.observed_channel()),
                     row.detection_latency ? si_format(*row.detection_latency, "s")
                                           : std::string("-"),
                     row.safe_state_entered, row.final_code, to_string(row.status.outcome));
  }
  table.print(std::cout);

  std::cout << "\n--- Coverage matrix (cases per observed channel) ---\n";
  TablePrinter matrix_table({"fault kind", "undetected", "missing-osc", "low-amp",
                             "asymmetry", "freq-band", "errors", "total"});
  for (const CoverageEntry& e : report.coverage_matrix()) {
    matrix_table.add_values(faults::to_string(e.kind), e.by_channel[0], e.by_channel[1],
                            e.by_channel[2], e.by_channel[3], e.by_channel[4], e.errors,
                            e.total);
  }
  matrix_table.print(std::cout);

  std::cout << "\nDiagnostic coverage: " << report.detected_count() << "/"
            << report.completed_count() << " completed cases detected ("
            << format_significant(100.0 * report.diagnostic_coverage(), 3) << " %), "
            << report.error_count() << " case errors.\n";

  std::cout << "\n--- Uncovered gaps (completed, no channel fired) ---\n";
  for (const std::string& gap : report.uncovered_gaps()) {
    std::cout << "  - " << gap << "\n";
  }

  // Runner hardening demo: a case that throws at the injection instant
  // and a case whose frozen simulation clock trips the step budget must
  // both produce recorded rows, never abort the campaign.
  std::cout << "\n--- Campaign runner hardening (self-test faults) ---\n";
  InternalFmeaConfig hard_cfg = campaign_config();
  hard_cfg.observe_time = 2e-3;
  hard_cfg.faults = {faults::make_fault(faults::InternalFaultKind::SelfTestThrow),
                     faults::make_fault(faults::InternalFaultKind::SelfTestStall),
                     faults::make_fault(faults::InternalFaultKind::None)};
  const InternalFmeaReport hard = run_internal_fmea_campaign(hard_cfg);
  TablePrinter hard_table({"case", "outcome", "retries", "error"});
  for (const auto& row : hard.rows) {
    hard_table.add_values(faults::to_string(row.fault.kind), to_string(row.status.outcome),
                          row.status.retries,
                          row.status.error.empty() ? std::string("-") : row.status.error);
  }
  hard_table.print(std::cout);

  write_json("BENCH_fault_coverage.json", report, hard.rows);
  if (lcosc::obs::trace_enabled()) {
    lcosc::obs::write_chrome_trace("artifacts/trace_fault_coverage.json");
    std::cout << "\n(trace: artifacts/trace_fault_coverage.json, "
              << lcosc::obs::trace_event_count() << " events)\n";
  }
  std::cout << "\n(machine-readable record: BENCH_fault_coverage.json)\n"
            << "\nShape checks:\n"
            << "  - gm collapse -> missing-oscillation and window-comparator-stuck-high\n"
            << "    -> low-amplitude are detected with the safety reaction engaged;\n"
            << "  - overdrive faults (comparator stuck low, dead rectifier), the frozen\n"
            << "    FSM and the dead watchdog are honest uncovered gaps (the paper's\n"
            << "    channels observe the amplitude, not the supply current);\n"
            << "  - the self-test rows show simulation-error / timeout outcomes with\n"
            << "    the campaign still completing every other case.\n";
  return 0;
}
