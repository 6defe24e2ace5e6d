// lcosc_perfbench: the repository benchmark binary (perfbench/README.md).
//
//   lcosc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --reference FILE --work-dir DIR
//                   [--write-reference] [--trace-out FILE]
//
// --trace 0 runs closed-loop campaign passes for S seconds and reports
// the end-to-end metrics; --trace 1 runs one checked pass plus the
// traced pass and the layer probes and reports the per-layer metrics.
// Either way the last stdout line is the JSON result and the exit code is
// non-zero when any output is wrong.  The same binary serves as the shard
// worker of the sharded workload.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "service/supervisor.h"
#include "util.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string work_dir;
  std::string trace_out;
  bool write_reference = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = value() == "1";
    else if (arg == "--reference") a.reference = value();
    else if (arg == "--work-dir") a.work_dir = value();
    else if (arg == "--trace-out") a.trace_out = value();
    else if (arg == "--write-reference") a.write_reference = true;
    else throw std::runtime_error("unknown argument " + arg);
  }
  if (a.workload.empty() || a.work_dir.empty() || a.reference.empty()) {
    throw std::runtime_error("--workload, --reference and --work-dir are required");
  }
  return a;
}

// Checked passes: every pass against the live oracles and, for the
// reference seed, the committed rows; then the re-running oracles.
struct CheckedPasses {
  Verdict verdict;
  std::vector<double> walls;
  std::vector<double> cpu;  // CPU seconds per pass, workers included
  std::vector<Row> last_rows;
  std::vector<Row> controls;
};

CheckedPasses run_checked(Workload& wl, const RunContext& ctx, const std::optional<Reference>& ref,
                          double seconds) {
  CheckedPasses out;
  const bool compare = ref.has_value() && ref->seed == ctx.seed;
  const Clock::time_point start = Clock::now();
  do {
    const double cpu0 = process_cpu_seconds();
    Pass pass = wl.run_pass(ctx);
    out.cpu.push_back(process_cpu_seconds() - cpu0);
    out.walls.push_back(pass.wall_s);
    out.verdict.attempted += pass.rows.size();
    out.verdict.failed_cases += pass.failed;
    wl.check_pass(pass, out.verdict);
    if (compare) compare_rows(pass.rows, ref->rows, out.verdict);
    out.last_rows = std::move(pass.rows);
  } while (seconds_since(start) < seconds);

  wl.run_oracles(ctx, out.verdict, out.controls);
  if (ref.has_value()) {
    for (const Row& got : out.controls) {
      bool found = false;
      for (const Row& want : ref->controls) {
        if (want.key != got.key) continue;
        found = true;
        ++out.verdict.reference_rows_checked;
        if (want.semantic != got.semantic) {
          out.verdict.mismatch("control " + got.key + ": " + got.semantic + " vs reference " +
                               want.semantic);
        }
        out.verdict.amplitude(got.amplitude, want.amplitude);
      }
      if (!found) out.verdict.mismatch("control " + got.key + " missing from the reference");
    }
  }
  return out;
}

void print_verdict(const Workload& wl, const Verdict& v, const std::optional<Reference>& ref,
                   std::uint64_t seed) {
  const double fail_ratio =
      v.attempted > 0 ? static_cast<double>(v.failed_cases) / static_cast<double>(v.attempted) : 0.0;
  std::printf("correctness (%s):\n", wl.name().c_str());
  std::printf("  case_fail_ratio          %.6g  (%zu SimulationError/Timeout of %zu cases)\n",
              fail_ratio, v.failed_cases, v.attempted);
  std::printf("  reference_mismatches     %zu  (%zu reference rows, %zu live oracle checks)\n",
              v.reference_mismatches, v.reference_rows_checked, v.oracle_checks);
  std::printf("  amplitude_rel_err_max    %.6g  (engine drift vs reference/serial engines)\n",
              v.amplitude_rel_err_max);
  if (ref.has_value() && ref->seed != seed) {
    std::printf("  rows: no committed rows for seed %llu (reference seed %llu): live oracles "
                "and control rows only\n",
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(ref->seed));
  }
  if (v.latency_drift > 0) {
    std::printf("  detection latency differs from the reference on %zu rows (not a mismatch)\n",
                v.latency_drift);
  }
  for (const std::string& note : v.notes) std::printf("  MISMATCH %s\n", note.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricSet& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.to_json().c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  lcosc::obs::set_metrics_enabled(false);
  lcosc::obs::set_trace_enabled(false);
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) throw std::runtime_error("unknown workload " + args.workload);
  std::filesystem::create_directories(args.work_dir);
  RunContext ctx{args.seed, args.work_dir, nullptr};

  std::optional<Reference> ref;
  if (!args.write_reference) {
    ref = load_reference(args.reference);
    if (!ref) throw std::runtime_error("missing reference rows " + args.reference);
    if (ref->workload != wl->name()) {
      throw std::runtime_error(args.reference + " holds rows of " + ref->workload);
    }
  }

  std::printf("workload: %s  seed: %llu  mode: %s\n", wl->name().c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced");
  std::printf("inputs:   %s\n", wl->describe().c_str());
  std::printf("load:     closed loop, one process; the next pass starts when the previous one "
              "ends\n");
  std::printf("clocks:   host = this process: CPU time (getrusage) and wall time "
              "(steady_clock); sim = time of the modelled chip\n");

  if (!args.trace) {
    for (int w = 0; w < wl->warmup_passes(); ++w) (void)wl->run_pass(ctx);
    const CheckedPasses checked = run_checked(*wl, ctx, ref, args.seconds);

    // Set-up is timed after the passes, with the core at full clock: timed
    // right after process start it read up to 1.8x slower whenever the core
    // was still clocked down.  It runs on this thread only, and its CPU
    // time excludes stolen time.
    std::vector<double> setup_s;
    for (int r = 0; r < wl->setup_reps(); ++r) {
      const double t0 = thread_cpu_seconds();
      wl->setup_once(ctx);
      setup_s.push_back(thread_cpu_seconds() - t0);
    }
    if (args.write_reference) {
      save_reference(args.reference, {wl->name(), args.seed, checked.last_rows, checked.controls});
      std::printf("wrote %s\n", args.reference.c_str());
    }
    // The gated times are CPU times: they exclude the time the host steals
    // from this VM, which moves wall-clock medians by 10-30 % in bursts
    // (perfbench/README.md, "Noise").  Wall-clock figures are reported.
    const double wall = median(checked.walls);
    const double cpu = median(checked.cpu);
    MetricSet metrics;
    metrics.set("cpu_s", cpu, "s");
    metrics.set("sim_ms_per_cpu_s", wl->sim_ms_per_pass() / cpu, "ms/s");
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(wl->worker_processes()), "MiB");

    std::printf("passes:   %zu of %zu cases, %.4g simulated ms each\n", checked.walls.size(),
                wl->cases_per_pass(), wl->sim_ms_per_pass());
    std::printf("cpu_s:    %s (host CPU per pass, workers included)\n",
                describe_timing(checked.cpu, 1.0, "s").c_str());
    std::printf("setup_s:  %s (host CPU)\n", describe_timing(setup_s, 1.0, "s").c_str());
    std::printf("wall-clock (reported, not gated):\n");
    std::printf("  wall_s                   %s (host)\n",
                describe_timing(checked.walls, 1.0, "s").c_str());
    std::printf("  sim_ms_per_s             %.6g ms/s (simulated ms per host wall second)\n",
                wl->sim_ms_per_pass() / wall);
    std::printf("  passes_s                ");
    for (const double w : checked.walls) std::printf(" %.4g", w);
    std::printf("\n");
    print_verdict(*wl, checked.verdict, ref, args.seed);
    std::printf("end-to-end metrics:\n");
    metrics.print_table();
    const Verdict& v = checked.verdict;
    print_result(v.ok(), v.attempted, v.failed_cases + v.reference_mismatches, metrics);
    return v.ok() ? 0 : 1;
  }

  // Traced run: one checked pass, then the traced pass and the probes.
  const CheckedPasses checked = run_checked(*wl, ctx, ref, 0.0);
  print_verdict(*wl, checked.verdict, ref, args.seed);

  SpanLog spans;
  ctx.spans = &spans;
  MetricSet metrics;
  StepBudget budget;
  wl->traced(ctx, metrics, budget);
  const BlockCosts costs = replay_blocks(&spans, metrics);
  probe_envelope_blocks(metrics);
  probe_fmea_case(&spans, metrics, budget);
  probe_envelope_chunk(&spans, metrics);
  probe_session(&spans, metrics);
  probe_service(&spans, args.work_dir, metrics);
  metrics.set("system.block_share", block_share(costs, budget), "ratio");
  // Counts of engines the workload bypasses are genuinely zero.
  for (const char* count : {"system.steps", "fsm.ticks", "envelope.lane_steps",
                            "envelope.substeps", "envelope.fallback_lanes", "service.restarts"}) {
    if (!metrics.has(count)) metrics.set(count, 0.0, "count");
  }

  std::printf("spans (benchmark side, %zu recorded):\n", spans.size());
  spans.print_summary();
  const std::string trace_path =
      args.trace_out.empty() ? args.work_dir + "/spans.json" : args.trace_out;
  if (!spans.write_json(trace_path)) throw std::runtime_error("cannot write " + trace_path);
  std::printf("per-layer metrics (block_share over %.4g s of cases, %llu steps):\n",
              budget.case_seconds, static_cast<unsigned long long>(budget.steps));
  metrics.print_table();
  const Verdict& v = checked.verdict;
  print_result(v.ok(), v.attempted, v.failed_cases + v.reference_mismatches, metrics);
  return v.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const std::optional<int> code = lcosc::service::maybe_run_shard(argc, argv)) return *code;
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcosc_perfbench: %s\n", e.what());
    return 2;
  }
}
