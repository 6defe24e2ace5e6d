// Sharded campaign service CLI (DESIGN.md §13, README "Running
// campaigns as a service" / "Watching the fleet").
//
// Direct mode (no subcommand) runs one spec to completion with
// checkpointed resume:
//
//   campaign_service --spec job.json            # run / resume from a spec file
//   campaign_service --kind tolerance --samples 96 --shards 4
//       --checkpoint-dir /tmp/tol --report /tmp/tol/report.txt
//
// Flags override --spec values, so a parameter scan is a shell loop over
// direct runs, one checkpoint directory each.
//
// Two read-only views of a checkpoint directory, with or without a
// coordinator running on it:
//
//   campaign_service top     --dir /tmp/tol [--interval-ms 1000] [--once]
//   campaign_service inspect --dir /tmp/tol
//
// The same binary doubles as the shard worker: the coordinator re-execs
// it with --lcosc-shard flags, which maybe_run_shard() intercepts first
// thing in main().
#include <charconv>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli_parse.h"
#include "common/error.h"
#include "service/flat_json.h"
#include "service/supervisor.h"
#include "service/telemetry_merge.h"

using namespace lcosc;
using namespace lcosc::service;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--spec FILE] [--kind tolerance|fmea|internal_fmea]\n"
      "          [--samples N] [--seed N] [--shards N] [--workers-per-shard N]\n"
      "          [--max-restarts N] [--shard-timeout-ms MS] [--chunk-lanes N]\n"
      "          --checkpoint-dir DIR [--report FILE] [--quiet]\n"
      "   or: %s top --dir CHECKPOINT_DIR [--interval-ms MS] [--once]\n"
      "   or: %s inspect --dir CHECKPOINT_DIR\n"
      "\nFlags override values from --spec.  Re-running with the same\n"
      "checkpoint directory resumes: finished cases are never recomputed.\n",
      argv0, argv0, argv0);
  return 2;
}

// --- top / inspect ---------------------------------------------------------

// One forensics.jsonl row: member name -> raw value (strings decoded).
using FlatRow = std::map<std::string, std::string>;

// Every parseable row of <checkpoint_dir>/telemetry/forensics.jsonl, in
// file order; a torn last line is skipped.  Empty when there is no file.
std::vector<FlatRow> read_forensics(const std::string& checkpoint_dir) {
  std::vector<FlatRow> rows;
  std::ifstream in(forensics_path(checkpoint_dir));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    FlatRow row;
    try {
      parse_flat_object(line, "forensics", [&](const std::string& key,
                                               const std::string& value,
                                               bool) { row[key] = value; });
    } catch (const std::exception&) {
      continue;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string row_text(const FlatRow& row, const std::string& key) {
  const auto it = row.find(key);
  return it == row.end() ? std::string() : it->second;
}

// Numeric member of a row this program wrote; `fallback` when absent or
// not a number.
template <typename T>
T row_number(const FlatRow& row, const std::string& key, T fallback) {
  const auto it = row.find(key);
  if (it == row.end()) return fallback;
  T value = fallback;
  const std::string& raw = it->second;
  const std::from_chars_result r = std::from_chars(raw.data(), raw.data() + raw.size(), value);
  return r.ec == std::errc() && r.ptr == raw.data() + raw.size() ? value : fallback;
}

// Worker exits that were not clean, from forensics.jsonl.  The log is
// append-only, so the counts cover every run of the directory.
struct ShardFailures {
  long long crashes = 0;
  long long timeouts = 0;
  long long spawn_errors = 0;
};

struct FailureCounts {
  // Per shard index, rows written under the current layout.
  std::map<long long, ShardFailures> shards;
  // Rows of any other shard count (an earlier run of the directory), or
  // rows that do not name their layout: their index means a different
  // case range, so they count apart.
  ShardFailures earlier_layouts;
};

FailureCounts count_failures(const std::string& checkpoint_dir, std::size_t shard_count) {
  FailureCounts counts;
  for (const FlatRow& row : read_forensics(checkpoint_dir)) {
    const bool current =
        row_number<long long>(row, "shards", -1) == static_cast<long long>(shard_count);
    ShardFailures& shard = current ? counts.shards[row_number<long long>(row, "shard", -1)]
                                   : counts.earlier_layouts;
    const std::string event = row_text(row, "event");
    if (event == "crash") ++shard.crashes;
    if (event == "timeout") ++shard.timeouts;
    if (event == "spawn_error") ++shard.spawn_errors;
  }
  return counts;
}

// One poll's committed-case count.  The cases/s line averages over a
// sliding window of these, never a single poll-to-poll delta: a chunked
// shard drain commits up to chunk_lanes cases in one burst, so
// adjacent-poll deltas whipsaw between 0 and hundreds while the true
// throughput is steady.
struct TopSample {
  std::size_t cases_done = 0;
  std::chrono::steady_clock::time_point at{};
};
constexpr double kTopRateWindowSeconds = 10.0;

// Live view of one checkpoint directory: campaign progress from spec.json
// and the checkpoint streams, per-shard failure counts from the forensics
// log (rows of earlier shard layouts as one total after the shard rows).
// It reads only files the run keeps anyway, so it shows the same
// numbers whether a coordinator is running, was killed, or finished.
int cmd_top(const std::string& checkpoint_dir, int interval_ms, bool once) {
  std::deque<TopSample> window;
  while (true) {
    const auto poll_at = std::chrono::steady_clock::now();
    const CheckpointProgress progress = checkpoint_progress(checkpoint_dir);
    const FailureCounts failures = count_failures(checkpoint_dir, progress.shards.size());

    // Throughput over the trailing sample window (burst-tolerant).
    std::string rate = "-";
    window.push_back({progress.cases_done, poll_at});
    // Trim samples whose removal still leaves the full window span.
    while (window.size() > 2 &&
           std::chrono::duration<double>(poll_at - window[1].at).count() >=
               kTopRateWindowSeconds) {
      window.pop_front();
    }
    const TopSample& oldest = window.front();
    const double dt = std::chrono::duration<double>(poll_at - oldest.at).count();
    if (dt > 0.0 && progress.cases_done >= oldest.cases_done) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f",
                    static_cast<double>(progress.cases_done - oldest.cases_done) / dt);
      rate = buf;
    }

    std::ostringstream screen;
    screen << "checkpoint dir: " << checkpoint_dir << "\n"
           << "done          : " << progress.cases_done << "/" << progress.cases_total
           << " cases checkpointed\n"
           << "cases/s       : " << rate << "\n\n";
    char line[160];
    std::snprintf(line, sizeof(line), "%-6s %-18s %12s %8s %9s %12s\n", "SHARD", "RANGE",
                  "DONE/TOTAL", "CRASHES", "TIMEOUTS", "SPAWN_ERRORS");
    screen << line;
    for (const CheckpointProgress::Shard& shard : progress.shards) {
      const auto it = failures.shards.find(shard.index);
      const ShardFailures counts = it == failures.shards.end() ? ShardFailures{} : it->second;
      const std::string range = "[" + std::to_string(shard.range.begin) + ", " +
                                std::to_string(shard.range.end) + ")";
      const std::string done =
          std::to_string(shard.done) + "/" + std::to_string(shard.range.size());
      std::snprintf(line, sizeof(line), "%-6d %-18s %12s %8lld %9lld %12lld\n", shard.index,
                    range.c_str(), done.c_str(), counts.crashes, counts.timeouts,
                    counts.spawn_errors);
      screen << line;
    }
    const ShardFailures& earlier = failures.earlier_layouts;
    std::snprintf(line, sizeof(line), "%-38s %8lld %9lld %12lld\n", "earlier layouts",
                  earlier.crashes, earlier.timeouts, earlier.spawn_errors);
    screen << line;

    if (!once) std::fputs("\033[H\033[2J", stdout);  // home + clear
    std::fputs(screen.str().c_str(), stdout);
    std::fflush(stdout);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

// Pretty-print a checkpoint directory's summary.json and forensics.jsonl.
int cmd_inspect(const std::string& checkpoint_dir) {
  const std::string tdir = telemetry_dir(checkpoint_dir);
  bool printed = false;

  std::ifstream summary(tdir + "/summary.json");
  if (summary) {
    std::cout << "--- summary (" << tdir << "/summary.json) ---\n" << summary.rdbuf() << "\n";
    printed = true;
  }

  const std::vector<FlatRow> rows = read_forensics(checkpoint_dir);
  if (!rows.empty()) {
    std::cout << "--- forensics (" << forensics_path(checkpoint_dir) << ") ---\n";
    std::printf("%-14s %5s %7s %-11s %5s %-8s %8s %8s %9s %9s\n", "TS_UNIX_MS", "SHARD",
                "ATTEMPT", "EVENT", "EXIT", "SIGNAL", "WALL_S", "CPU_S", "RSS_KB",
                "LAST_CKPT");
    std::vector<std::pair<std::string, std::string>> tails;  // (who, tail)
    for (const FlatRow& row : rows) {
      const double cpu =
          row_number(row, "cpu_user_s", 0.0) + row_number(row, "cpu_sys_s", 0.0);
      std::printf("%-14lld %5lld %7lld %-11s %5lld %-8s %8.2f %8.2f %9lld %9lld\n",
                  row_number<long long>(row, "ts_unix_ms", 0),
                  row_number<long long>(row, "shard", -1),
                  row_number<long long>(row, "attempt", 0), row_text(row, "event").c_str(),
                  row_number<long long>(row, "exit_code", 0),
                  row_text(row, "signal_name").c_str(), row_number(row, "wall_s", 0.0), cpu,
                  row_number<long long>(row, "max_rss_kb", 0),
                  row_number<long long>(row, "last_checkpoint_index", -1));
      const std::string tail = row_text(row, "stderr_tail");
      if (!tail.empty()) {
        tails.emplace_back("shard " + row_text(row, "shard") + " attempt " +
                               row_text(row, "attempt") + " (" + row_text(row, "event") + ")",
                           tail);
      }
    }
    for (const auto& [who, tail] : tails) {
      std::cout << "\nstderr tail of " << who << ":\n" << tail;
      if (tail.back() != '\n') std::cout << "\n";
    }
    printed = true;
  }

  if (!printed) {
    std::fprintf(stderr,
                 "no telemetry under %s\n(run the campaign with LCOSC_METRICS=1 and/or "
                 "LCOSC_TRACE=1 to produce summary.json; forensics.jsonl appears once a "
                 "worker has exited)\n",
                 tdir.c_str());
    return 1;
  }
  return 0;
}

int run_view(int argc, char** argv) {
  const std::string command = argv[1];
  if (command != "top" && command != "inspect") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage(argv[0]);
  }
  std::string dir;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--dir") {
      dir = value();
    } else if (command == "top" && arg == "--interval-ms") {
      interval_ms = parse_cli_int(arg, value());
    } else if (command == "top" && arg == "--once") {
      once = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s for '%s'\n", arg.c_str(), command.c_str());
      return usage(argv[0]);
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "'%s' needs --dir CHECKPOINT_DIR\n", command.c_str());
    return usage(argv[0]);
  }
  return command == "top" ? cmd_top(dir, interval_ms, once) : cmd_inspect(dir);
}

int run_direct(int argc, char** argv) {
  CampaignSpec spec;
  ServiceOptions options;
  options.verbose = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--spec") {
      std::ifstream in(value());
      if (!in) throw ConfigError("cannot read spec file");
      std::stringstream buffer;
      buffer << in.rdbuf();
      spec = parse_campaign_spec(buffer.str());
    } else if (arg == "--kind") {
      spec.kind = parse_campaign_kind(value());
    } else if (arg == "--samples") {
      spec.samples = parse_cli_int(arg, value());
    } else if (arg == "--seed") {
      spec.seed = parse_cli_u64(arg, value());
    } else if (arg == "--shards") {
      spec.shards = parse_cli_int(arg, value());
    } else if (arg == "--workers-per-shard") {
      spec.workers_per_shard = parse_cli_int(arg, value());
    } else if (arg == "--max-restarts") {
      spec.max_restarts = parse_cli_int(arg, value());
    } else if (arg == "--chunk-lanes") {
      spec.chunk_lanes = parse_cli_int(arg, value());
    } else if (arg == "--shard-timeout-ms") {
      spec.shard_timeout_ms = parse_cli_double(arg, value());
    } else if (arg == "--checkpoint-dir") {
      spec.checkpoint_dir = value();
    } else if (arg == "--report") {
      spec.report_path = value();
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (spec.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--checkpoint-dir is required\n");
    return usage(argv[0]);
  }

  const ServiceResult result = run_campaign_service(spec, options);

  std::cout << result.report;
  std::cout << "\n--- service summary ---\n";
  std::cout << "campaign       : " << to_string(spec.kind) << " (" << result.cases_total
            << " cases, " << spec.shards << " shard" << (spec.shards == 1 ? "" : "s")
            << ")\n";
  std::cout << "resumed        : " << result.cases_resumed << " cases from checkpoints\n";
  for (const ShardStatus& shard : result.shards) {
    std::cout << "shard " << shard.index << "        : cases [" << shard.range.begin << ", "
              << shard.range.end << "), " << shard.cases_computed << " computed, "
              << shard.spawns << " spawn(s), " << shard.restarts << " restart(s), "
              << shard.timeouts << " timeout(s), "
              << (shard.ok ? "ok" : "FAILED PERMANENTLY") << "\n";
  }
  if (result.degraded()) {
    std::cout << "DEGRADED       : " << result.cases_failed
              << " case(s) reported as SimulationError rows\n";
    return 1;
  }
  std::cout << "status         : complete\n";
  if (!spec.report_path.empty()) {
    std::cout << "report written : " << spec.report_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: the coordinator re-execs this binary with --lcosc-shard.
  if (const auto shard_exit = maybe_run_shard(argc, argv)) return *shard_exit;

  try {
    // A first argument that is not a flag names a view (top / inspect).
    if (argc > 1 && argv[1][0] != '-') return run_view(argc, argv);
    return run_direct(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_service: %s\n", e.what());
    return 2;
  }
}
