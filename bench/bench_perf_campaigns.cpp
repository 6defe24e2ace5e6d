// Serial-vs-parallel wall time of the campaign-shaped workloads driven
// by common/parallel.h (the Monte-Carlo tolerance campaign, the FMEA
// fault sweep, and the AC impedance sweep) plus the cached-vs-uncached
// spice transient hot path with its solver counters.  Prints tables and
// writes a machine-readable BENCH_campaigns.json so later PRs can track
// the perf trajectory (speedup is ~1x on single-core hosts; the JSON
// records the hardware concurrency so runs are comparable).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/parallel.h"
#include "common/si_format.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "service/adapters.h"
#include "service/supervisor.h"
#include "service/telemetry_merge.h"
#include "spice/ac_solver.h"
#include "spice/circuit.h"
#include "spice/sweep.h"
#include "spice/transient_solver.h"
#include "system/batched_envelope.h"
#include "system/envelope_simulator.h"
#include "system/fmea_campaign.h"
#include "system/tolerance_analysis.h"

using namespace lcosc;
using namespace lcosc::literals;

namespace {

struct CampaignTiming {
  std::string name;
  std::size_t items = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;  // parallel result matches the serial one

  [[nodiscard]] double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

CampaignTiming bench_tolerance() {
  system::ToleranceConfig cfg;
  cfg.nominal.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.nominal.regulation.tick_period = 0.25e-3;
  cfg.samples = 48;
  cfg.run_duration = 20e-3;

  CampaignTiming t;
  t.name = "tolerance_monte_carlo";
  t.items = static_cast<std::size_t>(cfg.samples);

  system::ToleranceReport serial;
  system::ToleranceReport parallel;
  cfg.workers = 1;
  t.serial_ms = time_ms([&] { serial = run_tolerance_analysis(cfg); });
  cfg.workers = 0;
  t.parallel_ms = time_ms([&] { parallel = run_tolerance_analysis(cfg); });

  t.identical = serial.samples.size() == parallel.samples.size();
  for (std::size_t i = 0; t.identical && i < serial.samples.size(); ++i) {
    t.identical = serial.samples[i].settled_amplitude == parallel.samples[i].settled_amplitude &&
                  serial.samples[i].settled_code == parallel.samples[i].settled_code &&
                  serial.samples[i].supply_current == parallel.samples[i].supply_current;
  }
  return t;
}

CampaignTiming bench_fmea() {
  system::FmeaCampaignConfig cfg;
  cfg.system.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.system.regulation.tick_period = 0.25e-3;
  cfg.system.waveform_decimation = 0;

  CampaignTiming t;
  t.name = "fmea_fault_sweep";
  t.items = system::fmea_fault_list().size();

  system::FmeaReport serial;
  system::FmeaReport parallel;
  cfg.workers = 1;
  t.serial_ms = time_ms([&] { serial = run_fmea_campaign(cfg); });
  cfg.workers = 0;
  t.parallel_ms = time_ms([&] { parallel = run_fmea_campaign(cfg); });

  t.identical = serial.rows.size() == parallel.rows.size();
  for (std::size_t i = 0; t.identical && i < serial.rows.size(); ++i) {
    t.identical = serial.rows[i].fault == parallel.rows[i].fault &&
                  serial.rows[i].detected == parallel.rows[i].detected &&
                  serial.rows[i].final_code == parallel.rows[i].final_code &&
                  serial.rows[i].detection_latency == parallel.rows[i].detection_latency;
  }
  return t;
}

CampaignTiming bench_ac_sweep() {
  const tank::TankConfig tk = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  spice::Circuit c;
  c.inductor("L", "a", "b", tk.inductance);
  c.resistor("Rs", "b", "0", tk.series_resistance);
  c.capacitor("C1", "a", "0", tk.capacitance1);
  c.capacitor("C2", "a", "0", tk.capacitance2);
  spice::CurrentSource& probe = c.current_source("Iprobe", "0", "a", 0.0);
  c.finalize();
  const Vector dc_op(c.unknown_count(), 0.0);
  const std::vector<double> freqs = spice::logspace(1.0_MHz, 16.0_MHz, 2000);

  CampaignTiming t;
  t.name = "ac_impedance_sweep";
  t.items = freqs.size();

  std::vector<spice::ImpedancePoint> serial;
  std::vector<spice::ImpedancePoint> parallel;
  t.serial_ms =
      time_ms([&] { serial = measure_impedance(c, probe, "a", "0", dc_op, freqs, 1); });
  t.parallel_ms =
      time_ms([&] { parallel = measure_impedance(c, probe, "a", "0", dc_op, freqs, 0); });

  t.identical = serial.size() == parallel.size();
  for (std::size_t i = 0; t.identical && i < serial.size(); ++i) {
    t.identical = serial[i].impedance == parallel[i].impedance;
  }
  return t;
}

// Cached-vs-uncached transient solve of one circuit (identical traces
// required), with the solver counters of the cached run.
struct TransientTiming {
  std::string name;
  double cached_ms = 0.0;
  double uncached_ms = 0.0;
  bool identical = false;  // cached traces match the uncached ones exactly
  spice::TransientStats stats;  // counters of the cached run

  [[nodiscard]] double speedup() const {
    return cached_ms > 0.0 ? uncached_ms / cached_ms : 0.0;
  }
};

// Series-RLC tank driven by a sine source: fully linear, so the cached
// path factors once and only re-solves the rhs each step.
void build_linear_rlc(spice::Circuit& c) {
  const tank::TankConfig tk = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  spice::VoltageSource& vs = c.voltage_source("Vs", "in", "0", 0.0);
  vs.set_sine({.offset = 0.0, .amplitude = 1.0, .frequency = 4.0_MHz, .phase_deg = 0.0});
  c.resistor("Rs", "in", "a", 5.0);
  c.inductor("L", "a", "b", tk.inductance);
  c.resistor("Rl", "b", "0", tk.series_resistance);
  c.capacitor("C1", "a", "0", tk.capacitance1);
  c.capacitor("C2", "a", "0", tk.capacitance2);
}

// The same tank with a diode clamp: the nonlinear overlay is re-stamped
// per Newton iteration on top of the cached linear base.
void build_clamped_rlc(spice::Circuit& c) {
  build_linear_rlc(c);
  c.diode("Dclamp", "a", "0");
}

TransientTiming bench_transient(const std::string& name, bool nonlinear) {
  spice::TransientOptions options;
  options.dt = 1.0 / (4.0_MHz * 64.0);
  options.t_stop = 2000.0 * options.dt;
  options.start_from_dc = false;

  TransientTiming t;
  t.name = name;

  spice::TransientResult cached;
  spice::TransientResult uncached;
  // A fresh circuit per run: element transient history must not leak
  // between the A and B runs.
  auto run = [&](bool reuse) {
    spice::Circuit c;
    if (nonlinear) build_clamped_rlc(c);
    else build_linear_rlc(c);
    options.reuse_lu = reuse;
    return run_transient(c, options, {"a", "b"});
  };
  t.uncached_ms = time_ms([&] { uncached = run(false); });
  t.cached_ms = time_ms([&] { cached = run(true); });
  t.stats = cached.stats;

  t.identical = cached.traces.size() == uncached.traces.size();
  for (std::size_t p = 0; t.identical && p < cached.traces.size(); ++p) {
    const Trace& a = cached.traces[p];
    const Trace& b = uncached.traces[p];
    t.identical = a.size() == b.size();
    for (std::size_t i = 0; t.identical && i < a.size(); ++i) {
      t.identical = a.time(i) == b.time(i) && a.value(i) == b.value(i);
    }
  }
  return t;
}

// Fixed-grid vs adaptive LTE-controlled stepping of the same workload.
// The adaptive run must stay inside a reltol-scaled band of the fixed
// trace; the interesting numbers are the accepted-step reduction and the
// wall-time ratio.
struct AdaptiveTiming {
  std::string name;
  double fixed_ms = 0.0;
  double adaptive_ms = 0.0;
  std::size_t fixed_steps = 0;
  std::size_t adaptive_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  double max_deviation = 0.0;  // against the fixed trace, same grid
  double tolerance = 0.0;      // acceptance band for max_deviation
  bool within_tolerance = false;

  [[nodiscard]] double speedup() const {
    return adaptive_ms > 0.0 ? fixed_ms / adaptive_ms : 0.0;
  }
  [[nodiscard]] double step_reduction() const {
    return adaptive_steps > 0 ? static_cast<double>(fixed_steps) / adaptive_steps : 0.0;
  }
};

// Startup-shaped spice transient: an RC charging edge resolved on a grid
// fine enough for the initial slope, where the LTE controller coarsens
// by ~2 orders of magnitude once the exponential flattens.
AdaptiveTiming bench_transient_startup() {
  spice::TransientOptions options;
  options.dt = 1e-6;
  options.t_stop = 4000.0 * options.dt;  // 4 time constants
  options.start_from_dc = false;
  auto run = [&](bool adaptive) {
    spice::Circuit c;
    c.voltage_source("Vs", "in", "0", 5.0);
    c.resistor("R", "in", "out", 1e3);
    c.capacitor("C", "out", "0", 1e-6);
    options.adaptive = adaptive;
    return run_transient(c, options, {"out"});
  };

  AdaptiveTiming t;
  t.name = "transient_startup_rc";
  spice::TransientResult fixed;
  spice::TransientResult adaptive;
  t.fixed_ms = time_ms([&] { fixed = run(false); });
  t.adaptive_ms = time_ms([&] { adaptive = run(true); });
  t.fixed_steps = fixed.steps;
  t.adaptive_steps = adaptive.stats.accepted_steps;
  t.rejected_steps = adaptive.stats.rejected_steps;
  t.cache_hits = adaptive.stats.base_cache_hits;
  t.cache_misses = adaptive.stats.base_cache_misses;
  t.cache_evictions = adaptive.stats.base_cache_evictions;

  const Trace& a = adaptive.traces[0];
  const Trace& b = fixed.traces[0];
  double scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) scale = std::max(scale, std::abs(b.value(i)));
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    t.max_deviation = std::max(t.max_deviation, std::abs(a.value(i) - b.value(i)));
  }
  t.tolerance = 0.01 * scale;  // 10x the default lte_reltol, same as the tests
  t.within_tolerance = a.size() == b.size() && t.max_deviation <= t.tolerance;
  return t;
}

// The envelope regulation campaign run: fixed dt grid vs adaptive macro
// stepping (implicit log-Euler trials on power-of-two multiples of dt).
AdaptiveTiming bench_envelope_regulation() {
  const double duration = 30e-3;
  auto make_config = [](bool adaptive) {
    system::EnvelopeSimConfig cfg;
    cfg.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
    cfg.regulation.tick_period = 0.25e-3;
    cfg.adaptive = adaptive;
    return cfg;
  };

  AdaptiveTiming t;
  t.name = "envelope_regulation";
  system::EnvelopeRunResult fixed;
  system::EnvelopeRunResult adaptive;
  t.fixed_ms = time_ms([&] {
    system::EnvelopeSimulator sim(make_config(false));
    fixed = sim.run(duration);
  });
  t.adaptive_ms = time_ms([&] {
    system::EnvelopeSimulator sim(make_config(true));
    adaptive = sim.run(duration);
  });
  t.fixed_steps = fixed.macro_steps;
  t.adaptive_steps = adaptive.macro_steps;
  t.rejected_steps = adaptive.rejected_steps;

  double scale = 0.0;
  for (std::size_t i = 0; i < fixed.amplitude.size(); ++i) {
    scale = std::max(scale, std::abs(fixed.amplitude.value(i)));
  }
  const std::size_t n = std::min(fixed.amplitude.size(), adaptive.amplitude.size());
  for (std::size_t i = 0; i < n; ++i) {
    t.max_deviation =
        std::max(t.max_deviation, std::abs(adaptive.amplitude.value(i) - fixed.amplitude.value(i)));
  }
  // The regulation loop quantizes through the DAC code, so a one-tick
  // code shift is legitimate; 2% of full scale absorbs it (same band as
  // tests/test_envelope.cpp).
  t.tolerance = 0.02 * scale;
  t.within_tolerance =
      fixed.amplitude.size() == adaptive.amplitude.size() && t.max_deviation <= t.tolerance;
  return t;
}

// The tolerance Monte-Carlo campaign with its envelope engine flipped to
// adaptive: the yield and per-sample settle amplitudes must hold.  (The
// fixed side now runs the batched SoA engine by default, which beats the
// adaptive serial path on wall time; this row keeps tracking the
// accuracy contract of the adaptive fallback.)
AdaptiveTiming bench_tolerance_adaptive() {
  system::ToleranceConfig cfg;
  cfg.nominal.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.nominal.regulation.tick_period = 0.25e-3;
  cfg.samples = 48;
  cfg.run_duration = 20e-3;
  cfg.workers = 1;  // serial: wall time comparable across hosts

  AdaptiveTiming t;
  t.name = "tolerance_monte_carlo_adaptive";
  system::ToleranceReport fixed;
  system::ToleranceReport adaptive;
  t.fixed_ms = time_ms([&] { fixed = run_tolerance_analysis(cfg); });
  cfg.nominal.adaptive = true;
  t.adaptive_ms = time_ms([&] { adaptive = run_tolerance_analysis(cfg); });

  const double target = cfg.nominal.detector.target_amplitude;
  bool ok = fixed.samples.size() == adaptive.samples.size() && fixed.yield() == adaptive.yield();
  for (std::size_t i = 0; ok && i < fixed.samples.size(); ++i) {
    t.max_deviation = std::max(
        t.max_deviation,
        std::abs(adaptive.samples[i].settled_amplitude - fixed.samples[i].settled_amplitude));
    ok = adaptive.samples[i].in_window == fixed.samples[i].in_window;
  }
  t.tolerance = 0.02 * target;
  t.within_tolerance = ok && t.max_deviation <= t.tolerance;
  return t;
}

// Serial reference vs lockstep batched engine over the same variant set
// (DESIGN.md §12).  `identical` demands byte equality of the full result
// set -- the batched engine is only allowed to be faster, never
// different.
struct BatchedTiming {
  std::string name;
  std::size_t items = 0;
  double serial_ms = 0.0;
  double batched_ms = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return batched_ms > 0.0 ? serial_ms / batched_ms : 0.0;
  }
};

// The acceptance row: the tolerance Monte-Carlo campaign through the
// SoA envelope engine vs one EnvelopeSimulator per sample, single
// worker so the ratio is pure engine speedup, not thread count.
BatchedTiming bench_tolerance_batched() {
  system::ToleranceConfig cfg;
  cfg.nominal.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  cfg.nominal.regulation.tick_period = 0.25e-3;
  cfg.samples = 48;
  cfg.run_duration = 20e-3;
  cfg.workers = 1;

  BatchedTiming t;
  t.name = "tolerance_monte_carlo";
  t.items = static_cast<std::size_t>(cfg.samples);

  system::ToleranceReport serial;
  system::ToleranceReport batched;
  cfg.engine = system::ToleranceEngine::Serial;
  t.serial_ms = time_ms([&] { serial = run_tolerance_analysis(cfg); });
  cfg.engine = system::ToleranceEngine::Batched;
  t.batched_ms = time_ms([&] { batched = run_tolerance_analysis(cfg); });

  t.identical = serial.samples.size() == batched.samples.size();
  for (std::size_t i = 0; t.identical && i < serial.samples.size(); ++i) {
    const auto& a = serial.samples[i];
    const auto& b = batched.samples[i];
    t.identical = a.tank.inductance == b.tank.inductance &&
                  a.tank.capacitance1 == b.tank.capacitance1 &&
                  a.tank.series_resistance == b.tank.series_resistance &&
                  a.settled_amplitude == b.settled_amplitude &&
                  a.settled_code == b.settled_code &&
                  a.supply_current == b.supply_current && a.in_window == b.in_window;
  }
  return t;
}

// 1-process vs N-process sharding through the crash-resilient campaign
// service (DESIGN.md §13).  `identical` demands byte equality of the two
// rendered reports -- the service's core determinism contract.  The
// sharded run pays the fork/exec + checkpoint-fsync tax, so its speedup
// is below the in-process engines' on the same workload; the row exists
// to keep that overhead visible and bounded.
struct ServiceTiming {
  std::string name;
  std::size_t items = 0;
  int shards = 1;
  double single_ms = 0.0;
  double sharded_ms = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return sharded_ms > 0.0 ? single_ms / sharded_ms : 0.0;
  }
};

ServiceTiming bench_service_sharding() {
  namespace fs = std::filesystem;
  service::CampaignSpec spec;
  spec.kind = service::CampaignKind::Tolerance;
  spec.samples = 48;
  spec.run_duration = 20e-3;

  ServiceTiming t;
  t.name = "tolerance_service";
  t.items = static_cast<std::size_t>(spec.samples);
  t.shards = std::thread::hardware_concurrency() > 1 ? 2 : 1;

  auto run_with = [&](int shards, const std::string& dir) {
    fs::remove_all(dir);
    spec.shards = shards;
    spec.checkpoint_dir = dir;
    service::ServiceResult result;
    const double ms = time_ms([&] { result = run_campaign_service(spec); });
    fs::remove_all(dir);
    return std::pair<double, std::string>(ms, std::move(result.report));
  };

  const auto [single_ms, single_report] = run_with(1, "artifacts/bench_service_1");
  const auto [sharded_ms, sharded_report] =
      run_with(t.shards, "artifacts/bench_service_n");
  t.single_ms = single_ms;
  t.sharded_ms = sharded_ms;
  t.identical = single_report == sharded_report;
  return t;
}

// Chunked shard drain vs per-case shard drain (DESIGN.md §16).  The
// timed loops are exactly what a shard worker executes per checkpoint
// record: the pre-chunk worker called run_case (one EnvelopeSimulator
// per case) for every remaining index; the chunked worker calls
// run_cases once per chunk-aligned group and commits the same
// one-record-per-case checkpoints.  The fork/exec + fsync tax is
// identical on both sides (the "service" row keeps it visible), so it is
// excluded here.  `identical` demands (a) record-for-record equality of
// the two drains and (b) byte equality of full service reports run with
// chunk_lanes=1 vs 64 -- chunking must never move a result bit.
struct BatchedServiceTiming {
  std::string name;
  std::size_t items = 0;
  int chunk_lanes = 1;
  double per_case_ms = 0.0;
  double chunked_ms = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return chunked_ms > 0.0 ? per_case_ms / chunked_ms : 0.0;
  }
};

BatchedServiceTiming bench_batched_service() {
  namespace fs = std::filesystem;
  service::CampaignSpec spec;
  spec.kind = service::CampaignKind::Tolerance;
  spec.samples = 48;
  spec.run_duration = 20e-3;

  BatchedServiceTiming t;
  t.name = "tolerance_shard_drain";
  t.items = static_cast<std::size_t>(spec.samples);
  t.chunk_lanes = 64;
  spec.chunk_lanes = t.chunk_lanes;

  const std::unique_ptr<ShardableCampaign> campaign = service::make_campaign(spec);
  const std::size_t n = campaign->case_count();
  const std::size_t stride = campaign->chunk_stride();

  std::vector<std::string> per_case_records;
  t.per_case_ms = time_ms([&] {
    for (std::size_t i = 0; i < n; ++i) per_case_records.push_back(campaign->run_case(i));
  });

  std::vector<std::string> chunked_records;
  t.chunked_ms = time_ms([&] {
    for (std::size_t first = 0; first < n; first += stride) {
      const std::size_t count = std::min(stride, n - first);
      for (std::string& r : campaign->run_cases(first, count)) {
        chunked_records.push_back(std::move(r));
      }
    }
  });
  t.identical = per_case_records == chunked_records;

  // Full-service cross-check: the rendered report must not depend on the
  // chunk layout either.
  auto report_with = [&](int chunk_lanes, const std::string& dir) {
    fs::remove_all(dir);
    spec.chunk_lanes = chunk_lanes;
    spec.checkpoint_dir = dir;
    std::string report = run_campaign_service(spec).report;
    fs::remove_all(dir);
    return report;
  };
  t.identical = t.identical && report_with(1, "artifacts/bench_chunk_1") ==
                                   report_with(t.chunk_lanes, "artifacts/bench_chunk_n");
  return t;
}

// Streaming sweep memory (DESIGN.md §16): the same 10,000-variant
// envelope sweep once through the bounded rolling window and once as a
// single materialized batch, each in a forked child so wait4's ru_maxrss
// isolates that path's peak RSS.  Both children fork from the same
// parent image back to back, so the delta is the path's own footprint:
// the one-shot side holds every lane's config + SoA state at once, the
// streaming side only chunk_lanes of them.
struct StreamingTiming {
  std::string name;
  std::size_t lanes = 0;
  std::size_t chunk = 0;
  double streaming_ms = 0.0;
  double one_shot_ms = 0.0;
  long streaming_rss_kb = 0;
  long one_shot_rss_kb = 0;
  bool identical = false;    // per-lane result checksums match
  bool rss_bounded = false;  // streaming peak RSS <= one-shot peak RSS
};

system::BatchedEnvelopeLane streaming_lane(std::size_t i) {
  static const double scale[5] = {1.0, 0.94, 1.07, 1.02, 0.98};
  system::BatchedEnvelopeLane lane;
  lane.config.tank = tank::design_tank(4.0_MHz, 40.0, 3.3_uH);
  lane.config.regulation.tick_period = 0.25e-3;
  lane.config.tank.inductance *= scale[i % 5];
  lane.config.tank.series_resistance *= scale[(i + 2) % 5];
  lane.config.tank.capacitance1 *= scale[(i + 3) % 5];
  return lane;
}

// Order-sensitive checksum over the fields campaign code consumes; equal
// sums across the two paths is the bit-identity check without shipping
// 10k results through a pipe.
std::uint64_t mix_result(std::uint64_t h, std::size_t index,
                         const system::BatchedLaneResult& r) {
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  std::uint64_t amp = 0;
  std::uint64_t supply = 0;
  std::memcpy(&amp, &r.settled_amplitude, sizeof(amp));
  std::memcpy(&supply, &r.supply_current, sizeof(supply));
  mix(static_cast<std::uint64_t>(index));
  mix(static_cast<std::uint64_t>(r.final_code));
  mix(amp);
  mix(supply);
  mix(r.substeps);
  return h;
}

// Runs `body` in a forked child: the child writes "<checksum> <ms>" to
// `result_path` and exits 0; the parent reads the child's peak RSS from
// wait4 (ru_maxrss, kilobytes on Linux).
bool run_rss_child(const std::string& result_path,
                   const std::function<std::pair<std::uint64_t, double>()>& body,
                   std::uint64_t& checksum, double& ms, long& rss_kb) {
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const std::pair<std::uint64_t, double> r = body();
    std::ostringstream line;
    line << r.first << " " << r.second << "\n";
    (void)write_file_atomic(result_path, line.str());
    std::_Exit(0);
  }
  int status = 0;
  struct rusage usage {};
  if (::wait4(pid, &status, 0, &usage) != pid) return false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  std::ifstream in(result_path);
  if (!(in >> checksum >> ms)) return false;
  rss_kb = usage.ru_maxrss;
  return true;
}

StreamingTiming bench_streaming_sweep() {
  namespace fs = std::filesystem;
  StreamingTiming t;
  t.name = "streaming_sweep_10k";
  t.lanes = 10000;
  t.chunk = 64;
  const double duration = 2e-3;
  std::error_code ec;
  fs::create_directories("artifacts", ec);

  auto streaming_body = [&] {
    std::uint64_t sum = 0;
    const system::BatchedEnvelopeEngine engine(t.chunk);
    const double ms = time_ms([&] {
      engine.run(t.lanes, duration, streaming_lane,
                 [&](std::size_t index, const system::BatchedLaneResult& r) {
                   sum = mix_result(sum, index, r);
                 });
    });
    return std::pair<std::uint64_t, double>(sum, ms);
  };
  auto one_shot_body = [&] {
    std::uint64_t sum = 0;
    std::vector<system::BatchedLaneResult> results;
    const double ms = time_ms([&] {
      std::vector<system::BatchedEnvelopeLane> lanes;
      lanes.reserve(t.lanes);
      for (std::size_t i = 0; i < t.lanes; ++i) lanes.push_back(streaming_lane(i));
      results = system::run_batched_envelope(lanes, duration);
    });
    for (std::size_t i = 0; i < results.size(); ++i) sum = mix_result(sum, i, results[i]);
    return std::pair<std::uint64_t, double>(sum, ms);
  };

  std::uint64_t stream_sum = 0;
  std::uint64_t one_shot_sum = 0;
  const bool stream_ok = run_rss_child("artifacts/bench_stream_windowed.txt", streaming_body,
                                       stream_sum, t.streaming_ms, t.streaming_rss_kb);
  const bool one_ok = run_rss_child("artifacts/bench_stream_one_shot.txt", one_shot_body,
                                    one_shot_sum, t.one_shot_ms, t.one_shot_rss_kb);
  t.identical = stream_ok && one_ok && stream_sum == one_shot_sum;
  t.rss_bounded = stream_ok && one_ok && t.streaming_rss_kb <= t.one_shot_rss_kb;
  fs::remove("artifacts/bench_stream_windowed.txt", ec);
  fs::remove("artifacts/bench_stream_one_shot.txt", ec);
  return t;
}

// Telemetry tax on the sharded service (DESIGN.md §15): the same
// campaign with the fleet observability pipeline off vs on.  The LCOSC_*
// toggles travel through the environment across the coordinator's
// fork/exec, so the on-run's workers flush metrics + trace snapshots and
// the coordinator merges them.  `identical` demands byte equality of the
// two reports -- telemetry must never leak into results -- and the
// "fleet_obs" phases feed the check_bench_drift.py gate, which keeps the
// overhead bounded.
struct FleetObsTiming {
  std::string name;
  std::size_t items = 0;
  int shards = 1;
  double off_ms = 0.0;
  double on_ms = 0.0;
  bool identical = false;    // telemetry-on report == telemetry-off report
  bool artifacts_ok = false;  // merged metrics/trace/summary all present

  [[nodiscard]] double overhead() const { return off_ms > 0.0 ? on_ms / off_ms : 0.0; }
};

FleetObsTiming bench_fleet_obs() {
  namespace fs = std::filesystem;
  service::CampaignSpec spec;
  spec.kind = service::CampaignKind::Tolerance;
  spec.samples = 48;
  spec.run_duration = 20e-3;
  spec.shards = std::thread::hardware_concurrency() > 1 ? 2 : 1;

  FleetObsTiming t;
  t.name = "tolerance_fleet_obs";
  t.items = static_cast<std::size_t>(spec.samples);
  t.shards = spec.shards;

  // Remember the caller's toggles; this process's own latched obs flags
  // are unaffected (env is read once at first use), only the exec'd
  // workers see these changes.
  const char* saved_metrics = std::getenv("LCOSC_METRICS");
  const char* saved_trace = std::getenv("LCOSC_TRACE");
  const std::string old_metrics = saved_metrics ? saved_metrics : "";
  const std::string old_trace = saved_trace ? saved_trace : "";

  auto run_with = [&](bool telemetry, const std::string& dir) {
    if (telemetry) {
      ::setenv("LCOSC_METRICS", "1", 1);
      ::setenv("LCOSC_TRACE", "1", 1);
    } else {
      ::unsetenv("LCOSC_METRICS");
      ::unsetenv("LCOSC_TRACE");
    }
    fs::remove_all(dir);
    spec.checkpoint_dir = dir;
    service::ServiceResult result;
    const double ms = time_ms([&] { result = run_campaign_service(spec); });
    return std::pair<double, std::string>(ms, std::move(result.report));
  };

  const auto [off_ms, off_report] = run_with(false, "artifacts/bench_fleet_obs_off");
  const auto [on_ms, on_report] = run_with(true, "artifacts/bench_fleet_obs_on");
  t.off_ms = off_ms;
  t.on_ms = on_ms;
  t.identical = off_report == on_report;

  const std::string tdir = service::telemetry_dir("artifacts/bench_fleet_obs_on");
  t.artifacts_ok = fs::exists(tdir + "/metrics.json") && fs::exists(tdir + "/trace.json") &&
                   fs::exists(tdir + "/summary.json");

  if (saved_metrics) ::setenv("LCOSC_METRICS", old_metrics.c_str(), 1);
  else ::unsetenv("LCOSC_METRICS");
  if (saved_trace) ::setenv("LCOSC_TRACE", old_trace.c_str(), 1);
  else ::unsetenv("LCOSC_TRACE");
  fs::remove_all("artifacts/bench_fleet_obs_off");
  fs::remove_all("artifacts/bench_fleet_obs_on");
  return t;
}

void write_json(const std::string& path, const std::vector<CampaignTiming>& timings,
                const std::vector<TransientTiming>& transients,
                const std::vector<AdaptiveTiming>& adaptives,
                const std::vector<BatchedTiming>& batched,
                const std::vector<ServiceTiming>& services,
                const std::vector<BatchedServiceTiming>& batched_services,
                const std::vector<StreamingTiming>& streams,
                const std::vector<FleetObsTiming>& fleet_obs) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"bench_perf_campaigns\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"default_worker_count\": " << default_worker_count() << ",\n"
      << "  \"campaigns\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const CampaignTiming& t = timings[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"items\": " << t.items << ",\n"
        << "      \"serial_ms\": " << t.serial_ms << ",\n"
        << "      \"parallel_ms\": " << t.parallel_ms << ",\n"
        << "      \"speedup\": " << t.speedup() << ",\n"
        << "      \"identical_results\": " << (t.identical ? "true" : "false") << "\n"
        << "    }" << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"transient_solver\": [\n";
  for (std::size_t i = 0; i < transients.size(); ++i) {
    const TransientTiming& t = transients[i];
    const spice::TransientStats& s = t.stats;
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"cached_ms\": " << t.cached_ms << ",\n"
        << "      \"uncached_ms\": " << t.uncached_ms << ",\n"
        << "      \"speedup\": " << t.speedup() << ",\n"
        << "      \"identical_traces\": " << (t.identical ? "true" : "false") << ",\n"
        << "      \"matrix_stamps\": " << s.matrix_stamps << ",\n"
        << "      \"rhs_stamps\": " << s.rhs_stamps << ",\n"
        << "      \"factorizations\": " << s.factorizations << ",\n"
        << "      \"rhs_solves\": " << s.rhs_solves << ",\n"
        << "      \"newton_iterations\": " << s.newton_iterations << ",\n"
        << "      \"retried_steps\": " << s.retried_steps << ",\n"
        << "      \"halvings\": " << s.halvings << ",\n"
        << "      \"newton_histogram\": [";
    for (std::size_t b = 0; b < s.newton_histogram.size(); ++b) {
      out << s.newton_histogram[b] << (b + 1 < s.newton_histogram.size() ? ", " : "");
    }
    out << "],\n"
        << "      \"stamp_seconds\": " << s.stamp_seconds << ",\n"
        << "      \"factor_seconds\": " << s.factor_seconds << ",\n"
        << "      \"solve_seconds\": " << s.solve_seconds << "\n"
        << "    }" << (i + 1 < transients.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"adaptive\": [\n";
  for (std::size_t i = 0; i < adaptives.size(); ++i) {
    const AdaptiveTiming& t = adaptives[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"fixed_ms\": " << t.fixed_ms << ",\n"
        << "      \"adaptive_ms\": " << t.adaptive_ms << ",\n"
        << "      \"speedup\": " << t.speedup() << ",\n"
        << "      \"fixed_steps\": " << t.fixed_steps << ",\n"
        << "      \"adaptive_steps\": " << t.adaptive_steps << ",\n"
        << "      \"step_reduction\": " << t.step_reduction() << ",\n"
        << "      \"rejected_steps\": " << t.rejected_steps << ",\n"
        << "      \"base_cache_hits\": " << t.cache_hits << ",\n"
        << "      \"base_cache_misses\": " << t.cache_misses << ",\n"
        << "      \"base_cache_evictions\": " << t.cache_evictions << ",\n"
        << "      \"max_deviation\": " << t.max_deviation << ",\n"
        << "      \"tolerance\": " << t.tolerance << ",\n"
        << "      \"within_tolerance\": " << (t.within_tolerance ? "true" : "false") << "\n"
        << "    }" << (i + 1 < adaptives.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"batched\": [\n";
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const BatchedTiming& t = batched[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"items\": " << t.items << ",\n"
        << "      \"serial_ms\": " << t.serial_ms << ",\n"
        << "      \"batched_ms\": " << t.batched_ms << ",\n"
        << "      \"speedup\": " << t.speedup() << ",\n"
        << "      \"identical_results\": " << (t.identical ? "true" : "false") << "\n"
        << "    }" << (i + 1 < batched.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"service\": [\n";
  for (std::size_t i = 0; i < services.size(); ++i) {
    const ServiceTiming& t = services[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"items\": " << t.items << ",\n"
        << "      \"shards\": " << t.shards << ",\n"
        << "      \"single_process_ms\": " << t.single_ms << ",\n"
        << "      \"sharded_ms\": " << t.sharded_ms << ",\n"
        << "      \"speedup\": " << t.speedup() << ",\n"
        << "      \"identical_reports\": " << (t.identical ? "true" : "false") << "\n"
        << "    }" << (i + 1 < services.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"batched_service\": [\n";
  for (std::size_t i = 0; i < batched_services.size(); ++i) {
    const BatchedServiceTiming& t = batched_services[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"items\": " << t.items << ",\n"
        << "      \"chunk_lanes\": " << t.chunk_lanes << ",\n"
        << "      \"per_case_ms\": " << t.per_case_ms << ",\n"
        << "      \"chunked_ms\": " << t.chunked_ms << ",\n"
        << "      \"speedup\": " << t.speedup() << ",\n"
        << "      \"identical_reports\": " << (t.identical ? "true" : "false") << "\n"
        << "    }" << (i + 1 < batched_services.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"streaming\": [\n";
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamingTiming& t = streams[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"lanes\": " << t.lanes << ",\n"
        << "      \"chunk_lanes\": " << t.chunk << ",\n"
        << "      \"streaming_ms\": " << t.streaming_ms << ",\n"
        << "      \"one_shot_ms\": " << t.one_shot_ms << ",\n"
        << "      \"streaming_peak_rss_kb\": " << t.streaming_rss_kb << ",\n"
        << "      \"one_shot_peak_rss_kb\": " << t.one_shot_rss_kb << ",\n"
        << "      \"identical_results\": " << (t.identical ? "true" : "false") << ",\n"
        << "      \"rss_bounded\": " << (t.rss_bounded ? "true" : "false") << "\n"
        << "    }" << (i + 1 < streams.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fleet_obs\": [\n";
  for (std::size_t i = 0; i < fleet_obs.size(); ++i) {
    const FleetObsTiming& t = fleet_obs[i];
    out << "    {\n"
        << "      \"name\": \"" << t.name << "\",\n"
        << "      \"items\": " << t.items << ",\n"
        << "      \"shards\": " << t.shards << ",\n"
        << "      \"telemetry_off_ms\": " << t.off_ms << ",\n"
        << "      \"telemetry_on_ms\": " << t.on_ms << ",\n"
        << "      \"overhead\": " << t.overhead() << ",\n"
        << "      \"identical_reports\": " << (t.identical ? "true" : "false") << ",\n"
        << "      \"artifacts_present\": " << (t.artifacts_ok ? "true" : "false") << "\n"
        << "    }" << (i + 1 < fleet_obs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";

  // Telemetry: a flat phase->milliseconds map (the drift checker's
  // contract, scripts/check_bench_drift.py), the full metrics snapshot
  // and the span accounting of this run.
  out << "  \"telemetry\": {\n    \"phases\": {\n";
  bool first = true;
  auto phase = [&](const std::string& name, double ms) {
    out << (first ? "" : ",\n") << "      \"" << name << "\": " << ms;
    first = false;
  };
  for (const CampaignTiming& t : timings) {
    phase(t.name + ".serial", t.serial_ms);
    phase(t.name + ".parallel", t.parallel_ms);
  }
  for (const TransientTiming& t : transients) {
    phase(t.name + ".uncached", t.uncached_ms);
    phase(t.name + ".cached", t.cached_ms);
  }
  for (const AdaptiveTiming& t : adaptives) {
    phase(t.name + ".fixed", t.fixed_ms);
    phase(t.name + ".adaptive", t.adaptive_ms);
  }
  // ".serial_ref"/".batched" suffixes keep these distinct from the
  // campaigns section's ".serial"/".parallel" keys for the same workload.
  for (const BatchedTiming& t : batched) {
    phase(t.name + ".serial_ref", t.serial_ms);
    phase(t.name + ".batched", t.batched_ms);
  }
  for (const ServiceTiming& t : services) {
    phase(t.name + ".single_process", t.single_ms);
    phase(t.name + ".sharded", t.sharded_ms);
  }
  for (const BatchedServiceTiming& t : batched_services) {
    phase(t.name + ".per_case", t.per_case_ms);
    phase(t.name + ".chunked", t.chunked_ms);
  }
  for (const StreamingTiming& t : streams) {
    phase(t.name + ".windowed", t.streaming_ms);
    phase(t.name + ".one_shot", t.one_shot_ms);
  }
  // The drift gate holds these two phases together: telemetry-on wall
  // time regressing against its own baseline is the overhead signal.
  for (const FleetObsTiming& t : fleet_obs) {
    phase("fleet_obs.telemetry_off", t.off_ms);
    phase("fleet_obs.telemetry_on", t.on_ms);
  }
  out << "\n    },\n"
      << "    \"metrics_enabled\": " << (obs::metrics_enabled() ? "true" : "false") << ",\n"
      << "    \"trace_enabled\": " << (obs::trace_enabled() ? "true" : "false") << ",\n"
      << "    \"trace_events\": " << obs::trace_event_count() << ",\n"
      << "    \"trace_dropped\": " << obs::trace_dropped_count() << ",\n"
      << "    \"metrics\": " << obs::MetricsRegistry::instance().snapshot().to_json(4)
      << "\n  }\n}\n";

  // Atomic write (temp + rename): a bench killed mid-emit must never
  // leave a truncated BENCH_*.json for the drift checker to trip over.
  if (!write_file_atomic(path, out.str())) {
    std::cerr << "warning: cannot write " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The service bench re-execs this binary as its shard worker.
  if (const auto shard_exit = service::maybe_run_shard(argc, argv)) return *shard_exit;

  // Telemetry defaults for the bench: metrics on (they cost one relaxed
  // atomic per event and feed the "telemetry" JSON section), tracing off
  // (opt in with LCOSC_TRACE=1 to get a Perfetto-loadable span file).
  obs::set_metrics_enabled(obs::env_flag("LCOSC_METRICS", true));
  obs::set_trace_enabled(obs::env_flag("LCOSC_TRACE", false));

  std::cout << "=== Campaign engine: serial vs parallel wall time ===\n\n"
            << "hardware threads: " << std::thread::hardware_concurrency()
            << ", default workers: " << default_worker_count() << "\n\n";

  const std::vector<CampaignTiming> timings = {
      bench_tolerance(), bench_fmea(), bench_ac_sweep()};

  TablePrinter table({"campaign", "items", "serial [ms]", "parallel [ms]", "speedup",
                      "identical"});
  for (const CampaignTiming& t : timings) {
    table.add_values(t.name, t.items, format_significant(t.serial_ms, 4),
                     format_significant(t.parallel_ms, 4), format_significant(t.speedup(), 3),
                     t.identical);
  }
  table.print(std::cout);

  std::cout << "\n=== Transient solver: cached base + LU reuse vs full re-stamp ===\n\n";
  const std::vector<TransientTiming> transients = {
      bench_transient("transient_linear_rlc", false),
      bench_transient("transient_clamped_rlc", true)};
  TablePrinter ttable({"circuit", "uncached [ms]", "cached [ms]", "speedup", "identical",
                       "factorizations", "rhs solves", "newton iters"});
  for (const TransientTiming& t : transients) {
    ttable.add_values(t.name, format_significant(t.uncached_ms, 4),
                      format_significant(t.cached_ms, 4), format_significant(t.speedup(), 3),
                      t.identical, t.stats.factorizations, t.stats.rhs_solves,
                      t.stats.newton_iterations);
  }
  ttable.print(std::cout);

  std::cout << "\n=== Batched lockstep engines vs serial reference ===\n\n";
  const std::vector<BatchedTiming> batched = {bench_tolerance_batched()};
  TablePrinter btable({"workload", "items", "serial [ms]", "batched [ms]", "speedup",
                       "identical"});
  for (const BatchedTiming& t : batched) {
    btable.add_values(t.name, t.items, format_significant(t.serial_ms, 4),
                      format_significant(t.batched_ms, 4), format_significant(t.speedup(), 3),
                      t.identical);
  }
  btable.print(std::cout);

  std::cout << "\n=== Campaign service: 1 process vs sharded subprocesses ===\n\n";
  const std::vector<ServiceTiming> services = {bench_service_sharding()};
  TablePrinter stable({"workload", "items", "shards", "1-proc [ms]", "sharded [ms]",
                       "speedup", "identical"});
  for (const ServiceTiming& t : services) {
    stable.add_values(t.name, t.items, t.shards, format_significant(t.single_ms, 4),
                      format_significant(t.sharded_ms, 4), format_significant(t.speedup(), 3),
                      t.identical);
  }
  stable.print(std::cout);

  std::cout << "\n=== Shard worker: per-case drain vs chunked drain ===\n\n";
  const std::vector<BatchedServiceTiming> batched_services = {bench_batched_service()};
  TablePrinter cstable({"workload", "items", "chunk", "per-case [ms]", "chunked [ms]",
                        "speedup", "identical"});
  for (const BatchedServiceTiming& t : batched_services) {
    cstable.add_values(t.name, t.items, t.chunk_lanes,
                       format_significant(t.per_case_ms, 4),
                       format_significant(t.chunked_ms, 4),
                       format_significant(t.speedup(), 3), t.identical);
  }
  cstable.print(std::cout);

  std::cout << "\n=== Streaming sweep: rolling window vs one-shot batch (peak RSS) ===\n\n";
  const std::vector<StreamingTiming> streams = {bench_streaming_sweep()};
  TablePrinter wtable({"workload", "lanes", "chunk", "windowed [ms]", "one-shot [ms]",
                       "windowed RSS [kB]", "one-shot RSS [kB]", "identical", "bounded"});
  for (const StreamingTiming& t : streams) {
    wtable.add_values(t.name, t.lanes, t.chunk, format_significant(t.streaming_ms, 4),
                      format_significant(t.one_shot_ms, 4), t.streaming_rss_kb,
                      t.one_shot_rss_kb, t.identical, t.rss_bounded);
  }
  wtable.print(std::cout);

  std::cout << "\n=== Fleet observability: telemetry off vs on ===\n\n";
  const std::vector<FleetObsTiming> fleet_obs = {bench_fleet_obs()};
  TablePrinter otable({"workload", "items", "shards", "telemetry off [ms]",
                       "telemetry on [ms]", "overhead", "identical", "artifacts"});
  for (const FleetObsTiming& t : fleet_obs) {
    otable.add_values(t.name, t.items, t.shards, format_significant(t.off_ms, 4),
                      format_significant(t.on_ms, 4), format_significant(t.overhead(), 3),
                      t.identical, t.artifacts_ok);
  }
  otable.print(std::cout);

  // Fixed-vs-adaptive A/B (skip with LCOSC_ADAPTIVE=0, e.g. to time the
  // classic sections alone; the drift checker tolerates missing phases).
  std::vector<AdaptiveTiming> adaptives;
  if (obs::env_flag("LCOSC_ADAPTIVE", true)) {
    std::cout << "\n=== Adaptive LTE stepping vs fixed grid ===\n\n";
    adaptives = {bench_transient_startup(), bench_envelope_regulation(),
                 bench_tolerance_adaptive()};
    TablePrinter atable({"workload", "fixed [ms]", "adaptive [ms]", "speedup", "steps",
                         "adaptive steps", "rejected", "max dev", "ok"});
    for (const AdaptiveTiming& t : adaptives) {
      atable.add_values(t.name, format_significant(t.fixed_ms, 4),
                        format_significant(t.adaptive_ms, 4),
                        format_significant(t.speedup(), 3), t.fixed_steps, t.adaptive_steps,
                        t.rejected_steps, format_significant(t.max_deviation, 3),
                        t.within_tolerance);
    }
    atable.print(std::cout);
  }

  write_json("BENCH_campaigns.json", timings, transients, adaptives, batched, services,
             batched_services, streams, fleet_obs);
  if (obs::trace_enabled()) {
    obs::write_chrome_trace("artifacts/trace_campaigns.json");
    std::cout << "\n(trace: artifacts/trace_campaigns.json, "
              << obs::trace_event_count() << " events)\n";
  }
  std::cout << "\n(machine-readable record: BENCH_campaigns.json)\n"
            << "\nShape checks:\n"
            << "  - identical=true on every row: the parallel campaigns are\n"
            << "    byte-identical to serial (per-index Rng forking, order-preserving\n"
            << "    parallel_map);\n"
            << "  - speedup approaches the worker count on multi-core hosts and ~1.0\n"
            << "    on a single core (the engine adds no meaningful overhead);\n"
            << "  - ok=true on every adaptive row: the LTE-controlled runs stay inside\n"
            << "    the reltol-scaled band of their fixed-grid references while cutting\n"
            << "    the accepted-step count (>= 3x on the startup and regulation rows);\n"
            << "  - identical=true on every batched row at >= 3x speedup on the\n"
            << "    tolerance campaign: the lockstep engine returns byte-identical\n"
            << "    results while sharing work across variants;\n"
            << "  - identical=true on the service row: sharding the campaign across\n"
            << "    worker subprocesses (fork/exec + checkpoint fsync per case)\n"
            << "    reproduces the single-process report byte for byte;\n"
            << "  - identical=true on the batched_service row at >= 2x speedup: the\n"
            << "    chunked shard drain (lockstep chunks per run_cases call, one\n"
            << "    checkpoint record per case) reproduces the per-case drain's report\n"
            << "    byte for byte while amortizing the envelope time loop;\n"
            << "  - identical=true and bounded=true on the streaming row: the 10k-lane\n"
            << "    rolling-window sweep matches the one-shot batch checksum for\n"
            << "    checksum while its peak RSS stays at the O(chunk_lanes) floor\n"
            << "    instead of the one-shot side's O(total);\n"
            << "  - identical=true and artifacts=true on the fleet_obs row: turning\n"
            << "    the telemetry pipeline on changes no report byte, produces the\n"
            << "    merged metrics/trace/summary artifacts, and its overhead stays\n"
            << "    inside the bench drift gate.\n";
  return 0;
}
