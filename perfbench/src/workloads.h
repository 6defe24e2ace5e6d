// The benchmark's three workloads (perfbench/README.md): external FMEA,
// the Q-sweep tolerance campaign and the sharded internal FMEA service.
// Each one derives its inputs from the seed, runs closed-loop campaign
// passes through the library's public entry points, reduces every pass
// to semantic rows for the correctness gate, and knows how to run its
// traced pass.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "system/fmea_campaign.h"
#include "system/oscillator_system.h"
#include "system/tolerance_analysis.h"
#include "util.h"

namespace perfbench {

// Simulated time of one FMEA case: settle + observe.
inline constexpr double kCaseSimSeconds = 16e-3;
// In-process worker threads (pinned; the host has 4 cores).
inline constexpr int kWorkers = 4;

// The 4 MHz, Q=40, 3.3 uH system with 0.25 ms regulation ticks that the
// FMEA workloads and the block replay share (waveform recording off).
[[nodiscard]] lcosc::system::OscillatorSystemConfig q40_system();
// fmea_external's campaign (paper Sec. 7 severities) with the fault
// injected at `settle` of the kCaseSimSeconds case.
[[nodiscard]] lcosc::system::FmeaCampaignConfig fmea_config(double settle);
// tolerance_q_sweep's Monte-Carlo config at one nominal Q.
[[nodiscard]] lcosc::system::ToleranceConfig tolerance_config(double q, std::uint64_t seed);

// Registry counter value (0 when the counter was never touched).
[[nodiscard]] std::uint64_t counter(const lcosc::obs::MetricsSnapshot& snap, const char* name);
[[nodiscard]] std::uint64_t counter_now(const char* name);

struct RunContext {
  std::uint64_t seed = 1;
  std::string work_dir;  // per-run scratch root inside the checkout
  SpanLog* spans = nullptr;
};

// One case reduced to what the correctness gate compares.
struct Row {
  std::string key;       // case label, e.g. "open-coil" or "q40:17"
  std::string semantic;  // fields whose change is a mismatch
  std::string info;      // fields reported when they drift (latency)
  double amplitude = std::numeric_limits<double>::quiet_NaN();
};

struct Pass {
  double wall_s = 0.0;
  std::vector<Row> rows;
  std::size_t failed = 0;  // SimulationError / Timeout rows
};

// Committed rows for one seed plus seed-independent control rows.
struct Reference {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<Row> rows;
  std::vector<Row> controls;
};

[[nodiscard]] std::optional<Reference> load_reference(const std::string& path);
void save_reference(const std::string& path, const Reference& reference);

// Correctness tallies of one run.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed_cases = 0;
  std::size_t reference_mismatches = 0;
  std::size_t reference_rows_checked = 0;
  std::size_t oracle_checks = 0;
  std::size_t latency_drift = 0;
  double amplitude_rel_err_max = 0.0;
  std::vector<std::string> notes;

  void mismatch(const std::string& note);
  void amplitude(double got, double want);
  [[nodiscard]] bool ok() const { return failed_cases == 0 && reference_mismatches == 0; }
};

// Compare rows against the reference by key and position.
void compare_rows(const std::vector<Row>& got, const std::vector<Row>& want, Verdict& verdict);

// Cycle-accurate work of a traced pass, for system.block_share: the
// summed case time and the registry counts the block calls scale with.
struct StepBudget {
  double case_seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t fsm_ticks = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  // Inputs and pinned parallelism, for the report header.
  [[nodiscard]] virtual std::string describe() const = 0;
  [[nodiscard]] virtual std::size_t cases_per_pass() const = 0;
  // Simulated milliseconds one pass covers (cases x per-case duration).
  [[nodiscard]] virtual double sim_ms_per_pass() const = 0;
  // Worker processes alive at once (peak RSS accounting).
  [[nodiscard]] virtual int worker_processes() const { return 0; }
  // Set-up repetitions per run and one repetition of the work a pass
  // does before its first case computes.
  [[nodiscard]] virtual int setup_reps() const = 0;
  virtual void setup_once(const RunContext& ctx) = 0;
  // Untimed warm-up passes before the measured loop.
  [[nodiscard]] virtual int warmup_passes() const { return 0; }
  // One campaign pass; wall_s covers the library call only.
  [[nodiscard]] virtual Pass run_pass(const RunContext& ctx) = 0;
  // Per-pass live oracles (any seed).
  virtual void check_pass(const Pass& pass, Verdict& verdict) const { (void)pass, (void)verdict; }
  // Oracles that re-run work, once per run, outside the timed region.
  // `controls` receives seed-independent control rows.
  virtual void run_oracles(const RunContext& ctx, Verdict& verdict,
                           std::vector<Row>& controls) = 0;
  // Traced pass: per-layer metrics this workload exercises, plus the
  // traced and untraced harness walls for obs.trace_overhead.  `budget`
  // receives the cycle-accurate work the pass did (steps == 0 when the
  // workload bypasses that engine).
  virtual void traced(const RunContext& ctx, MetricSet& out, StepBudget& budget) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);
[[nodiscard]] std::vector<std::string> workload_names();

}  // namespace perfbench
