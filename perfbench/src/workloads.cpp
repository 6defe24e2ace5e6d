#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/campaign.h"
#include "common/parallel.h"
#include "common/random.h"
#include "dac/current_mirror.h"
#include "obs/metrics.h"
#include "obs/snapshot_io.h"
#include "service/adapters.h"
#include "service/checkpoint.h"
#include "service/spec.h"
#include "service/supervisor.h"
#include "system/fmea_campaign.h"
#include "system/internal_fmea.h"
#include "system/oscillator_system.h"
#include "system/tolerance_analysis.h"
#include "tank/rlc_tank.h"

namespace perfbench {

using namespace lcosc;

// --- reference rows ------------------------------------------------------------

namespace {

std::vector<std::string> split(const std::string& line, const std::string& sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = line.find(sep, pos);
    if (next == std::string::npos) {
      out.push_back(line.substr(pos));
      return out;
    }
    out.push_back(line.substr(pos, next - pos));
    pos = next + sep.size();
  }
}

std::string row_line(const char* kind, const Row& row) {
  return std::string(kind) + "\t" + row.key + "\t" + row.semantic + "\t" + row.info + "\t" +
         (std::isnan(row.amplitude) ? std::string("-") : exact(row.amplitude));
}

}  // namespace

std::optional<Reference> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = split(line, "\t");
    if (f[0] == "workload" && f.size() == 2) {
      ref.workload = f[1];
    } else if (f[0] == "seed" && f.size() == 2) {
      ref.seed = std::stoull(f[1]);
    } else if ((f[0] == "row" || f[0] == "control") && f.size() == 5) {
      Row row{f[1], f[2], f[3], std::numeric_limits<double>::quiet_NaN()};
      if (f[4] != "-") row.amplitude = std::strtod(f[4].c_str(), nullptr);
      (f[0] == "row" ? ref.rows : ref.controls).push_back(row);
    } else {
      throw std::runtime_error(path + ": malformed reference line: " + line);
    }
  }
  return ref;
}

void save_reference(const std::string& path, const Reference& ref) {
  std::ofstream out(path);
  out << "# perfbench reference rows (perfbench/README.md, \"Correctness gate\").\n"
      << "# row: key, semantic fields, drift-only fields, settled amplitude [V].\n"
      << "# control rows do not depend on the seed.\n"
      << "workload\t" << ref.workload << "\n"
      << "seed\t" << ref.seed << "\n";
  for (const Row& row : ref.rows) out << row_line("row", row) << "\n";
  for (const Row& row : ref.controls) out << row_line("control", row) << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

void Verdict::mismatch(const std::string& note) {
  ++reference_mismatches;
  if (notes.size() < 8) notes.push_back(note);
}

void Verdict::amplitude(double got, double want) {
  const double err = want != 0.0 ? std::abs(got - want) / std::abs(want) : std::abs(got - want);
  amplitude_rel_err_max = std::max(amplitude_rel_err_max, err);
}

void compare_rows(const std::vector<Row>& got, const std::vector<Row>& want, Verdict& verdict) {
  if (got.size() != want.size()) {
    verdict.mismatch("row count " + std::to_string(got.size()) + " vs reference " +
                     std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const Row& g = got[i];
    const Row& w = want[i];
    ++verdict.reference_rows_checked;
    if (g.key != w.key || g.semantic != w.semantic) {
      verdict.mismatch(g.key + ": " + g.semantic + " vs reference " + w.key + ": " + w.semantic);
    }
    if (g.info != w.info) ++verdict.latency_drift;
    if (!std::isnan(g.amplitude) && !std::isnan(w.amplitude)) verdict.amplitude(g.amplitude, w.amplitude);
  }
}

// --- shared configs and helpers ---------------------------------------------

namespace {
constexpr int kToleranceSamples = 256;
// 16 chunks per Q keep the 4 threads balanced when one is slowed.
constexpr std::size_t kChunkLanes = 16;
}  // namespace

system::OscillatorSystemConfig q40_system() {
  system::OscillatorSystemConfig cfg;
  cfg.tank = tank::design_tank(4.0e6, 40.0, 3.3e-6);
  cfg.regulation.tick_period = 0.25e-3;
  cfg.waveform_decimation = 0;
  return cfg;
}

system::FmeaCampaignConfig fmea_config(double settle) {
  system::FmeaCampaignConfig cfg;
  cfg.system = q40_system();
  cfg.severity.resistance_factor = 30.0;
  cfg.severity.shorted_turn_fraction = 0.9;
  cfg.settle_time = settle;
  cfg.observe_time = kCaseSimSeconds - settle;
  return cfg;
}

system::ToleranceConfig tolerance_config(double q, std::uint64_t seed) {
  system::ToleranceConfig cfg;
  cfg.nominal.tank = tank::design_tank(4.0e6, q, 3.3e-6);
  cfg.nominal.regulation.tick_period = 0.25e-3;
  cfg.samples = kToleranceSamples;
  cfg.seed = seed;
  cfg.run_duration = 40e-3;
  cfg.include_dac_mismatch = true;
  cfg.engine = system::ToleranceEngine::Batched;
  cfg.chunk_lanes = kChunkLanes;
  cfg.workers = kWorkers;
  return cfg;
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::CounterSnapshot* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0;
}

std::uint64_t counter_now(const char* name) {
  return counter(obs::MetricsRegistry::instance().snapshot(), name);
}

namespace {

bool failed_outcome(const CampaignCase& status) { return !status.completed(); }

std::string yes_no(bool v) { return v ? "1" : "0"; }

std::string flag_bits(const safety::FaultFlags& f) {
  return yes_no(f.missing_oscillation) + yes_no(f.low_amplitude) + yes_no(f.asymmetry) +
         yes_no(f.frequency_out_of_band);
}

// Fault-injection instant drawn from the seed: 6 ms +- 0.125 ms (half a
// regulation tick) in 1/128 ms steps, observe window = the rest of the
// 16 ms case.  The case length, and with it the step count, does not
// depend on the seed; the phase of the fault against the regulation tick
// and the oscillation does.
double settle_for_seed(std::uint64_t seed) {
  Rng rng(seed);
  const int k = rng.uniform_int(0, 32);
  return (6.0 + (k - 16) / 128.0) * 1e-3;
}

// Healthy control: the same system without a fault, settled amplitude over
// the case length.  Seed-independent, so its reference holds for any seed.
Row healthy_control(const std::string& key, const system::OscillatorSystemConfig& config) {
  system::OscillatorSystem sys(config);
  const system::SimulationResult sim = sys.run(kCaseSimSeconds);
  Row row;
  row.key = key;
  row.semantic = "code=" + std::to_string(sim.final_code) + ",flags=" + flag_bits(sim.final_faults);
  row.amplitude = sim.settled_amplitude();
  return row;
}

// Per-case timings of a traced or untraced harness pass.
struct HarnessPass {
  double wall_s = 0.0;
  std::vector<double> case_s;
};

void set_case_metrics(MetricSet& out, const std::vector<double>& case_s, double wall_s,
                      int workers) {
  double sum = 0.0;
  for (const double s : case_s) sum += s;
  out.set("system.case_ms.p50", median(case_s) * 1e3, "ms");
  out.set("system.case_ms.max", *std::max_element(case_s.begin(), case_s.end()) * 1e3, "ms");
  out.set("parallel.utilization", sum / (wall_s * workers), "ratio");
}

// --- external FMEA -------------------------------------------------------------

class FmeaExternal final : public Workload {
 public:
  explicit FmeaExternal(std::uint64_t seed) : config_(fmea_config(settle_for_seed(seed))) {
    config_.workers = kWorkers;
  }

  [[nodiscard]] std::string name() const override { return "fmea_external"; }
  [[nodiscard]] std::string describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "run_fmea_campaign: %zu faults, 4 MHz Q=40 3.3 uH, tick 0.25 ms, Rs x30, "
                  "90%% shorted turns, inject at %.5g ms of %.3g ms, %d threads",
                  cases_per_pass(), config_.settle_time * 1e3, kCaseSimSeconds * 1e3, kWorkers);
    return buf;
  }
  [[nodiscard]] std::size_t cases_per_pass() const override { return system::fmea_case_count(); }
  [[nodiscard]] double sim_ms_per_pass() const override {
    return static_cast<double>(cases_per_pass()) * kCaseSimSeconds * 1e3;
  }
  [[nodiscard]] int setup_reps() const override { return 21; }

  // Per case: build the system, schedule the fault, run the preamble.
  void setup_once(const RunContext&) override {
    const double duration = config_.settle_time + config_.observe_time;
    for (const tank::TankFault fault : system::fmea_fault_list()) {
      system::OscillatorSystem sys(config_.system);
      sys.schedule_fault(fault, config_.settle_time, config_.severity);
      const system::RunSession session(sys, duration);
      (void)session;
    }
  }

  [[nodiscard]] Pass run_pass(const RunContext&) override {
    const Clock::time_point start = Clock::now();
    const system::FmeaReport report = system::run_fmea_campaign(config_);
    Pass pass;
    pass.wall_s = seconds_since(start);
    for (const system::FmeaRow& r : report.rows) {
      pass.rows.push_back(row_of(r));
      if (failed_outcome(r.status)) ++pass.failed;
    }
    return pass;
  }

  // Live oracle: every fault reaches its designated detection channel.
  void check_pass(const Pass& pass, Verdict& verdict) const override {
    for (const Row& row : pass.rows) {
      ++verdict.oracle_checks;
      if (row.semantic.find("hit=1") == std::string::npos) {
        verdict.mismatch(row.key + ": expected detection channel not hit (" + row.semantic + ")");
      }
    }
  }

  void run_oracles(const RunContext&, Verdict&, std::vector<Row>& controls) override {
    controls.push_back(healthy_control("healthy", config_.system));
  }

  void traced(const RunContext& ctx, MetricSet& out, StepBudget& budget) override {
    const std::size_t n = cases_per_pass();

    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    const HarnessPass traced = harness_pass(ctx.spans);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    obs::set_metrics_enabled(false);

    // The healthy settle each case re-simulates, timed on its own under
    // the same 4-way concurrency.
    std::vector<double> settle_s(n);
    parallel_for(n, [&](std::size_t i) {
      const ScopedSpan span(ctx.spans, "system.settle", 0, 0);
      system::OscillatorSystem sys(config_.system);
      const Clock::time_point t0 = Clock::now();
      (void)sys.run(config_.settle_time);
      settle_s[i] = seconds_since(t0);
    }, kWorkers);
    const HarnessPass plain = harness_pass(nullptr);

    const std::uint64_t steps = counter(snap, "system.steps");
    double case_sum = 0.0;
    for (const double s : traced.case_s) case_sum += s;
    std::vector<double> post_fault_s(n);
    for (std::size_t i = 0; i < n; ++i) post_fault_s[i] = traced.case_s[i] - median(settle_s);

    out.set("system.steps", static_cast<double>(steps), "count");
    out.set("fsm.ticks", static_cast<double>(counter(snap, "fsm.ticks")), "count");
    out.set("system.ns_per_step", case_sum / static_cast<double>(steps) * 1e9, "ns");
    set_case_metrics(out, traced.case_s, traced.wall_s, kWorkers);
    out.set("system.settle_ms", median(settle_s) * 1e3, "ms");
    out.set("system.post_fault_ms", median(post_fault_s) * 1e3, "ms");
    out.set("obs.trace_overhead", traced.wall_s / plain.wall_s, "ratio");
    budget = {case_sum, steps, counter(snap, "fsm.ticks")};
  }

 private:
  static Row row_of(const system::FmeaRow& r) {
    Row row;
    row.key = tank::to_string(r.fault);
    row.semantic = "flags=" + flag_bits(r.observed) + ",hit=" + yes_no(r.expected_channel_hit) +
                   ",safe=" + yes_no(r.safe_state_entered) +
                   ",code=" + std::to_string(r.final_code) + ",outcome=" + to_string(r.status.outcome);
    row.info = r.detection_latency ? exact(*r.detection_latency * 1e3) : "-";
    return row;
  }

  // Each case through run_fmea_case_at on kWorkers threads, one span per case.
  HarnessPass harness_pass(SpanLog* spans) const {
    const std::size_t n = cases_per_pass();
    HarnessPass pass;
    pass.case_s.resize(n);
    const ScopedSpan root(spans, "workload.fmea_external", 0, 0);
    const Clock::time_point start = Clock::now();
    parallel_for(n, [&](std::size_t i) {
      const std::uint64_t group = spans != nullptr ? spans->new_group() : 0;
      const ScopedSpan span(spans, "case." + tank::to_string(system::fmea_fault_list()[i]),
                            root.id(), group);
      const ScopedSpan call(spans, "system.run_fmea_case_at", span.id(), group);
      const Clock::time_point t0 = Clock::now();
      (void)system::run_fmea_case_at(config_, i);
      pass.case_s[i] = seconds_since(t0);
    }, kWorkers);
    pass.wall_s = seconds_since(start);
    return pass;
  }

  system::FmeaCampaignConfig config_;
};

// --- tolerance Q sweep ---------------------------------------------------------

inline constexpr double kQs[] = {5.0, 40.0, 320.0};
inline constexpr int kSerialOraclesPerQ = 3;

class ToleranceQSweep final : public Workload {
 public:
  explicit ToleranceQSweep(std::uint64_t seed) : seed_(seed) {
    for (const double q : kQs) configs_.push_back(tolerance_config(q, seed));
  }

  [[nodiscard]] std::string name() const override { return "tolerance_q_sweep"; }
  [[nodiscard]] std::string describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "run_tolerance_analysis (batched): Q = 5, 40, 320 at 4 MHz, %d samples each, "
                  "%.3g ms runs, DAC mismatch, seed %llu, %zu-lane chunks, %d threads",
                  kToleranceSamples, configs_[0].run_duration * 1e3,
                  static_cast<unsigned long long>(seed_), kChunkLanes, kWorkers);
    return buf;
  }
  [[nodiscard]] std::size_t cases_per_pass() const override {
    return configs_.size() * kToleranceSamples;
  }
  [[nodiscard]] double sim_ms_per_pass() const override {
    return static_cast<double>(cases_per_pass()) * configs_[0].run_duration * 1e3;
  }
  [[nodiscard]] int setup_reps() const override { return 7; }
  [[nodiscard]] int warmup_passes() const override { return 1; }

  // The per-sample mismatched DAC every lane builds before stepping.
  void setup_once(const RunContext&) override {
    const Rng master(seed_);
    for (const system::ToleranceConfig& cfg : configs_) {
      for (int i = 0; i < cfg.samples; ++i) {
        const dac::CurrentLimitationDac dac(cfg.nominal.driver.unit_current, cfg.mismatch,
                                            master.fork(0x1000 + static_cast<std::uint64_t>(i))());
        (void)dac;
      }
    }
  }

  [[nodiscard]] Pass run_pass(const RunContext&) override {
    Pass pass;
    std::vector<system::ToleranceReport> reports;
    const Clock::time_point start = Clock::now();
    for (const system::ToleranceConfig& cfg : configs_) {
      reports.push_back(system::run_tolerance_analysis(cfg));
    }
    pass.wall_s = seconds_since(start);
    for (std::size_t q = 0; q < configs_.size(); ++q) {
      const std::vector<system::ToleranceSample>& samples = reports[q].samples;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        pass.rows.push_back(row_of(q, i, samples[i]));
        if (failed_outcome(samples[i].status)) ++pass.failed;
      }
    }
    last_rows_ = pass.rows;
    return pass;
  }

  // Live oracle on any seed: a few samples per Q re-run through the
  // bit-exact serial reference engine.
  void run_oracles(const RunContext&, Verdict& verdict, std::vector<Row>&) override {
    Rng pick(seed_ ^ 0x5EEDULL);
    for (std::size_t q = 0; q < configs_.size(); ++q) {
      for (int k = 0; k < kSerialOraclesPerQ; ++k) {
        const int i = pick.uniform_int(0, kToleranceSamples - 1);
        const Row serial = row_of(q, static_cast<std::size_t>(i),
                                  system::run_tolerance_sample(configs_[q], i));
        const Row& batched = last_rows_.at(q * kToleranceSamples + static_cast<std::size_t>(i));
        ++verdict.oracle_checks;
        if (serial.semantic != batched.semantic) {
          verdict.mismatch(batched.key + ": batched " + batched.semantic + " vs serial " +
                           serial.semantic);
        }
        verdict.amplitude(batched.amplitude, serial.amplitude);
      }
    }
  }

  void traced(const RunContext& ctx, MetricSet& out, StepBudget&) override {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::instance().reset();
    const HarnessPass traced = harness_pass(ctx.spans);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    obs::set_metrics_enabled(false);
    const HarnessPass plain = harness_pass(nullptr);

    double chunk_sum = 0.0;
    for (const double s : traced.case_s) chunk_sum += s;
    const std::uint64_t lane_steps = counter(snap, "envelope.batched.lane_steps");
    out.set("system.steps", static_cast<double>(counter(snap, "system.steps")), "count");
    out.set("fsm.ticks", static_cast<double>(counter(snap, "fsm.ticks")), "count");
    out.set("envelope.lane_steps", static_cast<double>(lane_steps), "count");
    out.set("envelope.substeps", static_cast<double>(counter(snap, "envelope.batched.substeps")),
            "count");
    // Lanes the batched engine flagged are replayed through the serial
    // engine, the only path that counts envelope.runs.
    out.set("envelope.fallback_lanes", static_cast<double>(counter(snap, "envelope.runs")),
            "count");
    out.set("envelope.lane_step_ns", chunk_sum / static_cast<double>(lane_steps) * 1e9, "ns");
    out.set("envelope.chunk_ms", median(traced.case_s) * 1e3, "ms");
    out.set("parallel.utilization", chunk_sum / (traced.wall_s * kWorkers), "ratio");
    out.set("obs.trace_overhead", traced.wall_s / plain.wall_s, "ratio");
  }

 private:
  [[nodiscard]] Row row_of(std::size_t q, std::size_t i, const system::ToleranceSample& s) const {
    Row row;
    row.key = "q" + std::to_string(static_cast<int>(kQs[q])) + ":" + std::to_string(i);
    row.semantic = "code=" + std::to_string(s.settled_code) + ",window=" + yes_no(s.in_window) +
                   ",outcome=" + to_string(s.status.outcome);
    row.amplitude = s.settled_amplitude;
    return row;
  }

  // Each (Q, chunk) through run_tolerance_samples on kWorkers threads.
  HarnessPass harness_pass(SpanLog* spans) const {
    const std::size_t chunks_per_q = kToleranceSamples / kChunkLanes;
    const std::size_t n = configs_.size() * chunks_per_q;
    HarnessPass pass;
    pass.case_s.resize(n);
    const ScopedSpan root(spans, "workload.tolerance_q_sweep", 0, 0);
    const Clock::time_point start = Clock::now();
    parallel_for(n, [&](std::size_t c) {
      const std::size_t q = c / chunks_per_q;
      const std::size_t first = (c % chunks_per_q) * kChunkLanes;
      const std::uint64_t group = spans != nullptr ? spans->new_group() : 0;
      const ScopedSpan span(spans, "chunk.q" + std::to_string(static_cast<int>(kQs[q])),
                            root.id(), group);
      const ScopedSpan call(spans, "system.run_tolerance_samples", span.id(), group);
      const Clock::time_point t0 = Clock::now();
      (void)system::run_tolerance_samples(configs_[q], first, kChunkLanes);
      pass.case_s[c] = seconds_since(t0);
    }, kWorkers);
    pass.wall_s = seconds_since(start);
    return pass;
  }

  std::uint64_t seed_;
  std::vector<system::ToleranceConfig> configs_;
  std::vector<Row> last_rows_;
};

// --- sharded internal FMEA -----------------------------------------------------

inline constexpr int kShards = 2;
inline constexpr int kServiceOracleCases = 2;

class ShardedInternalFmea final : public Workload {
 public:
  explicit ShardedInternalFmea(std::uint64_t seed) : seed_(seed) {
    spec_.kind = service::CampaignKind::InternalFmea;
    spec_.settle_time = settle_for_seed(seed);
    spec_.observe_time = kCaseSimSeconds - spec_.settle_time;
    spec_.shards = kShards;
    spec_.workers_per_shard = 1;
    spec_.chunk_lanes = 64;
    case_count_ = service::make_campaign(spec_)->case_count();
  }

  [[nodiscard]] std::string name() const override { return "sharded_internal_fmea"; }
  [[nodiscard]] std::string describe() const override {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "run_campaign_service(internal_fmea): %zu faults, inject at %.5g ms of %.3g ms, "
                  "%d shard workers x %d thread, %d-case chunked drain, fresh checkpoint dir",
                  case_count_, spec_.settle_time * 1e3, kCaseSimSeconds * 1e3, kShards,
                  spec_.workers_per_shard, spec_.chunk_lanes);
    return buf;
  }
  [[nodiscard]] std::size_t cases_per_pass() const override { return case_count_; }
  [[nodiscard]] double sim_ms_per_pass() const override {
    return static_cast<double>(case_count_) * kCaseSimSeconds * 1e3;
  }
  [[nodiscard]] int worker_processes() const override { return kShards; }
  [[nodiscard]] int setup_reps() const override { return 21; }

  // The in-memory part of what the coordinator and each shard worker do
  // before their first case: read the spec back and build the campaign
  // from it.  Process spawn and the fsync'd spec write are left out: their
  // host-I/O noise is several times the set-up bound.  They show in wall_s
  // and service.coordinator_overhead_s.
  void setup_once(const RunContext&) override {
    for (int process = 0; process <= kShards; ++process) {
      const service::CampaignSpec spec = service::parse_campaign_spec(service::to_json(spec_));
      (void)service::make_campaign(spec)->case_count();
    }
  }

  [[nodiscard]] Pass run_pass(const RunContext& ctx) override {
    const ScratchDir dir(ctx.work_dir, "pass");
    service::CampaignSpec spec = spec_;
    spec.checkpoint_dir = dir.path();
    const Clock::time_point start = Clock::now();
    const service::ServiceResult result = service::run_campaign_service(spec);
    Pass pass;
    pass.wall_s = seconds_since(start);
    pass.rows = parse_report(result.report);
    pass.failed = result.cases_failed;
    for (const Row& row : pass.rows) {
      if (row.semantic.find("outcome=" + to_string(CaseOutcome::SimulationError)) !=
              std::string::npos ||
          row.semantic.find("outcome=" + to_string(CaseOutcome::Timeout)) != std::string::npos) {
        ++pass.failed;
      }
    }
    last_records_ = service::scan_checkpoint_dir(dir.path());
    return pass;
  }

  // Live oracles on any seed: a few cases re-run per case in-process (no
  // session copy, no fault-bus reuse) must reproduce the checkpointed
  // record byte for byte; plus the healthy control amplitude.
  void run_oracles(const RunContext&, Verdict& verdict, std::vector<Row>& controls) override {
    // Workers read the spec back from disk; use the same round-tripped copy.
    const service::CampaignSpec spec = service::parse_campaign_spec(service::to_json(spec_));
    const std::unique_ptr<ShardableCampaign> campaign = service::make_campaign(spec);
    Rng pick(seed_ ^ 0x5EEDULL);
    for (int k = 0; k < kServiceOracleCases; ++k) {
      const auto i = static_cast<std::uint32_t>(pick.uniform_int(0, static_cast<int>(case_count_) - 1));
      ++verdict.oracle_checks;
      const auto it = last_records_.find(i);
      if (it == last_records_.end() || it->second != campaign->run_case(i)) {
        verdict.mismatch(campaign->case_label(i) + ": checkpointed record differs from a "
                         "per-case re-run");
      }
    }
    controls.push_back(healthy_control("healthy", internal_system()));
  }

  void traced(const RunContext& ctx, MetricSet& out, StepBudget& budget) override;

 private:
  // The system config of the service's internal-FMEA adapter.
  static system::OscillatorSystemConfig internal_system() {
    system::OscillatorSystemConfig sys = q40_system();
    sys.regulation.nvm_code = 45;
    return sys;
  }

  // Case lines of the internal-FMEA report:
  // fault | expected | observed | detected | safe_state | latency_ms |
  // final_code | outcome | retries | error
  static std::vector<Row> parse_report(const std::string& report) {
    std::vector<Row> rows;
    std::istringstream in(report);
    std::string line;
    bool in_table = false;
    while (std::getline(in, line)) {
      if (line.rfind("fault | ", 0) == 0) {
        in_table = true;
        continue;
      }
      if (!in_table) continue;
      if (line.rfind("completed:", 0) == 0) break;
      const std::vector<std::string> f = split(line, " | ");
      if (f.size() < 9) throw std::runtime_error("unparseable report line: " + line);
      Row row;
      row.key = f[0];
      row.semantic = "observed=" + f[2] + ",detected=" + f[3] + ",safe=" + f[4] +
                     ",code=" + f[6] + ",outcome=" + f[7];
      row.info = f[5];
      rows.push_back(row);
    }
    return rows;
  }

  std::uint64_t seed_;
  service::CampaignSpec spec_;
  std::size_t case_count_ = 0;
  std::map<std::uint32_t, std::string> last_records_;
};

void ShardedInternalFmea::traced(const RunContext& ctx, MetricSet& out, StepBudget& budget) {
  const ScopedSpan root(ctx.spans, "workload.sharded_internal_fmea", 0, 0);
  service::CampaignSpec spec = spec_;

  // Traced service pass: every shard worker counts into its registry and
  // the coordinator merges the fleet metrics.json into the checkpoint dir.
  ::setenv("LCOSC_METRICS", "1", 1);
  double traced_wall = 0.0;
  service::ServiceResult result;
  obs::MetricsSnapshot fleet;
  std::map<std::uint32_t, std::string> records;
  double merge_s = 0.0;
  std::vector<double> commit_s;
  {
    const ScratchDir dir(ctx.work_dir, "traced");
    spec.checkpoint_dir = dir.path();
    {
      const std::uint64_t group = ctx.spans != nullptr ? ctx.spans->new_group() : 0;
      const ScopedSpan span(ctx.spans, "service.run_campaign_service", root.id(), group);
      const Clock::time_point start = Clock::now();
      result = service::run_campaign_service(spec);
      traced_wall = seconds_since(start);
    }
    ::setenv("LCOSC_METRICS", "0", 1);
    std::ifstream in(dir.path() + "/telemetry/metrics.json");
    std::stringstream text;
    text << in.rdbuf();
    if (!obs::parse_metrics_snapshot(text.str(), fleet)) {
      throw std::runtime_error("cannot read the fleet metrics.json of the traced pass");
    }

    // Merge: scan the checkpoint streams and render the report.
    {
      const ScopedSpan span(ctx.spans, "service.merge", root.id(), 0);
      const Clock::time_point t0 = Clock::now();
      records = service::scan_checkpoint_dir(dir.path());
      std::vector<std::string> ordered;
      for (const auto& [index, payload] : records) ordered.push_back(payload);
      (void)service::make_campaign(spec)->report(ordered);
      merge_s = seconds_since(t0);
    }

    // Commit: the same records appended (write + fsync) to a fresh stream.
    const ScopedSpan span(ctx.spans, "service.commit", root.id(), 0);
    service::CheckpointWriter writer(dir.path() + "/commit_probe.ckpt");
    for (const auto& [index, payload] : records) {
      const Clock::time_point t0 = Clock::now();
      writer.append(index, payload);
      commit_s.push_back(seconds_since(t0));
    }
  }

  // The drain groups, in-process: each shard's span through
  // ShardableCampaign::run_cases, on as many threads as there are shards.
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::instance().reset();
  const std::unique_ptr<ShardableCampaign> campaign = service::make_campaign(spec_);
  std::vector<double> group_s(kShards);
  parallel_for(kShards, [&](std::size_t s) {
    const service::CaseRange range = service::shard_case_range(case_count_, static_cast<int>(s), kShards);
    const std::uint64_t group = ctx.spans != nullptr ? ctx.spans->new_group() : 0;
    const ScopedSpan span(ctx.spans, "shard." + std::to_string(s), root.id(), group);
    const ScopedSpan call(ctx.spans, "service.run_cases", span.id(), group);
    const Clock::time_point t0 = Clock::now();
    (void)campaign->run_cases(range.begin, range.size());
    group_s[s] = seconds_since(t0);
  }, kShards);
  const std::uint64_t local_steps = counter_now("system.steps");
  const std::uint64_t local_ticks = counter_now("fsm.ticks");
  obs::set_metrics_enabled(false);

  // The shared settle prefix and the per-fault session copy.
  const system::OscillatorSystemConfig sys = internal_system();
  const system::OscillatorSystem base(sys);
  const double duration = spec_.settle_time + spec_.observe_time;
  std::vector<double> settle_s;
  std::vector<double> copy_s;
  for (int rep = 0; rep < 3; ++rep) {
    const ScopedSpan span(ctx.spans, "system.settle_prefix", root.id(), 0);
    const Clock::time_point t0 = Clock::now();
    system::RunSession prefix(base, duration);
    prefix.advance_until(spec_.settle_time);
    settle_s.push_back(seconds_since(t0));
    if (rep == 0) {
      for (const faults::InternalFault& fault : faults::internal_fault_list()) {
        const Clock::time_point c0 = Clock::now();
        system::RunSession session(prefix);
        session.inject_internal_fault(fault);
        copy_s.push_back(seconds_since(c0));
      }
    }
  }

  // Untraced service pass for the tracing overhead.
  double plain_wall = 0.0;
  {
    const ScratchDir dir(ctx.work_dir, "plain");
    spec.checkpoint_dir = dir.path();
    const Clock::time_point start = Clock::now();
    (void)service::run_campaign_service(spec);
    plain_wall = seconds_since(start);
  }

  double active_max = 0.0;
  double active_sum = 0.0;
  int restarts = 0;
  for (const service::ShardStatus& shard : result.shards) {
    active_max = std::max(active_max, shard.active_seconds);
    active_sum += shard.active_seconds;
    restarts += shard.restarts;
  }
  double group_sum = 0.0;
  for (const double s : group_s) group_sum += s;

  out.set("system.steps", static_cast<double>(counter(fleet, "system.steps")), "count");
  out.set("fsm.ticks", static_cast<double>(counter(fleet, "fsm.ticks")), "count");
  out.set("system.ns_per_step", group_sum / static_cast<double>(local_steps) * 1e9, "ns");
  out.set("system.settle_ms", median(settle_s) * 1e3, "ms");
  out.set("system.session_copy_us", median(copy_s) * 1e6, "us");
  out.set("service.run_cases_ms", median(group_s) * 1e3, "ms");
  out.set("service.commit_us", median(commit_s) * 1e6, "us");
  out.set("service.merge_ms", merge_s * 1e3, "ms");
  out.set("service.coordinator_overhead_s", traced_wall - active_max, "s");
  out.set("service.restarts", restarts, "count");
  out.set("parallel.utilization", active_sum / (traced_wall * kShards), "ratio");
  out.set("obs.trace_overhead", traced_wall / plain_wall, "ratio");
  budget = {group_sum, local_steps, local_ticks};
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fmea_external") return std::make_unique<FmeaExternal>(seed);
  if (name == "tolerance_q_sweep") return std::make_unique<ToleranceQSweep>(seed);
  if (name == "sharded_internal_fmea") return std::make_unique<ShardedInternalFmea>(seed);
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"fmea_external", "tolerance_q_sweep", "sharded_internal_fmea"};
}

}  // namespace perfbench
