// Sharded campaign service CLI (DESIGN.md §13–14, README "Running
// campaigns as a service" / "Submitting jobs to the queue").
//
// Direct mode (no subcommand) runs one spec to completion with
// checkpointed resume, exactly as before:
//
//   campaign_service --spec job.json            # run / resume from a spec file
//   campaign_service --kind tolerance --samples 96 --shards 4
//       --checkpoint-dir /tmp/tol --report /tmp/tol/report.txt
//
// Queue mode layers a persistent multi-job queue on the same supervisor:
//
//   campaign_service submit --queue Q --kind tolerance --samples 96 --shards 2
//   campaign_service submit --queue Q --spec tmpl.json --sweep seed=1,2,3 --priority 5
//   campaign_service serve  --queue Q --shard-slots 4      # run until drained
//   campaign_service list   --queue Q
//   campaign_service status --queue Q 000001
//   campaign_service result --queue Q 000001 > report.txt
//   campaign_service cancel --queue Q 000002
//
// Observability (README "Watching the fleet"):
//
//   campaign_service top     --queue Q [--interval-ms 1000] [--once]
//   campaign_service inspect --queue Q 000001
//   campaign_service inspect --dir /tmp/tol        # direct checkpoint dir
//
// The same binary doubles as the shard worker: the coordinator re-execs
// it with --lcosc-shard flags, which maybe_run_shard() intercepts first
// thing in main().
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_parse.h"
#include "service/flat_json.h"
#include "service/queue.h"
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
      "   or: %s submit --queue DIR [spec flags] [--priority N] [--name S]\n"
      "          [--sweep KEY=V1,V2,...]\n"
      "   or: %s serve --queue DIR [--shard-slots N] [--max-parallel-jobs N]\n"
      "          [--follow] [--quiet]\n"
      "   or: %s list|status|result|cancel --queue DIR [JOB]\n"
      "   or: %s top --queue DIR [--interval-ms MS] [--once]\n"
      "   or: %s inspect --queue DIR JOB | inspect --dir CHECKPOINT_DIR\n"
      "\nFlags override values from --spec.  Re-running with the same\n"
      "checkpoint directory resumes: finished cases are never recomputed.\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

// Spec flags shared by direct mode and `submit`; returns false when the
// flag is not a spec flag (so each mode layers its own flags on top).
bool handle_spec_flag(CampaignSpec& spec, const std::string& arg,
                      const std::function<std::string()>& value) {
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
  } else {
    return false;
  }
  return true;
}

void print_progress(const JobQueue& queue, const JobRecord& job) {
  try {
    const JobProgress progress = queue.progress(job);
    std::cout << "progress : " << progress.cases_done << "/" << progress.cases_total
              << " cases checkpointed\n";
    for (const JobProgress::Shard& shard : progress.shards) {
      std::cout << "shard " << shard.index << "  : [" << shard.range.begin << ", "
                << shard.range.end << ") " << shard.done << "/" << shard.range.size()
                << " done\n";
    }
  } catch (const std::exception& e) {
    std::cout << "progress : unavailable (" << e.what() << ")\n";
  }
}

int cmd_submit(JobQueue& queue, CampaignSpec& spec, int priority, const std::string& name,
               const std::string& sweep) {
  std::vector<JobRecord> jobs;
  if (sweep.empty()) {
    jobs.push_back(queue.submit(spec, priority, name));
  } else {
    const std::size_t eq = sweep.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= sweep.size()) {
      throw ConfigError("--sweep wants KEY=V1,V2,... , got '" + sweep + "'");
    }
    const std::string key = sweep.substr(0, eq);
    std::vector<std::string> values;
    std::stringstream list(sweep.substr(eq + 1));
    std::string value;
    while (std::getline(list, value, ',')) {
      if (!value.empty()) values.push_back(value);
    }
    if (values.empty()) throw ConfigError("--sweep has no values");
    jobs = queue.submit_sweep(spec, key, values, priority, name);
  }
  for (const JobRecord& job : jobs) {
    std::cout << "submitted " << job.id << " (priority " << job.priority << ")\n";
  }
  return 0;
}

int cmd_list(const JobQueue& queue) {
  const std::vector<JobRecord> jobs = queue.list();
  if (jobs.empty()) {
    std::cout << "queue is empty\n";
    return 0;
  }
  std::printf("%-24s %-10s %8s %5s %6s  %s\n", "JOB", "STATE", "PRIORITY", "RUNS",
              "CANCEL", "ERROR");
  for (const JobRecord& job : jobs) {
    std::printf("%-24s %-10s %8d %5d %6s  %s\n", job.id.c_str(),
                to_string(job.state).c_str(), job.priority, job.runs,
                job.cancel_requested ? "yes" : "", job.error.c_str());
  }
  return 0;
}

int cmd_status(const JobQueue& queue, const std::string& id) {
  const std::optional<JobRecord> job = queue.find(id);
  if (!job) {
    std::fprintf(stderr, "no job '%s'\n", id.c_str());
    return 1;
  }
  std::cout << "job      : " << job->id << "\n"
            << "state    : " << to_string(job->state)
            << (job->cancel_requested && !job->terminal() ? " (cancel requested)" : "")
            << "\n"
            << "priority : " << job->priority << "\n"
            << "runs     : " << job->runs << "\n";
  if (job->run_order >= 0) std::cout << "run order: " << job->run_order << "\n";
  if (!job->error.empty()) std::cout << "error    : " << job->error << "\n";
  print_progress(queue, *job);
  std::ifstream stream(job->progress_path);
  if (stream) {
    std::cout << "last coordinator snapshot (progress.json):\n" << stream.rdbuf();
  }
  return 0;
}

int cmd_result(const JobQueue& queue, const std::string& id) {
  const std::optional<JobRecord> job = queue.find(id);
  if (!job) {
    std::fprintf(stderr, "no job '%s'\n", id.c_str());
    return 1;
  }
  const std::optional<std::string> report = queue.report(*job);
  if (!report) {
    std::fprintf(stderr, "job %s has no report yet (state %s)\n", job->id.c_str(),
                 to_string(job->state).c_str());
    return 1;
  }
  std::cout << *report;
  return 0;
}

int cmd_cancel(JobQueue& queue, const std::string& id) {
  if (!queue.cancel(id)) {
    std::fprintf(stderr, "cannot cancel '%s' (unknown or already terminal)\n", id.c_str());
    return 1;
  }
  std::cout << "cancel requested for " << id << "\n";
  return 0;
}

int cmd_serve(JobQueue& queue, const QueueCoordinatorOptions& options) {
  const QueueCoordinatorResult result = run_queue_coordinator(queue, options);
  std::cout << "queue drained: " << result.jobs_done << " done, " << result.jobs_failed
            << " failed, " << result.jobs_cancelled << " cancelled\n";
  return result.jobs_failed > 0 ? 1 : 0;
}

// --- top / inspect ---------------------------------------------------------

// progress.json / forensics rows are flat objects; collect key -> raw value.
bool read_flat_object(const std::string& text, std::map<std::string, std::string>& out) {
  try {
    parse_flat_object(text, "telemetry", [&](const std::string& key, const std::string& value,
                                             bool) { out[key] = value; });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool read_flat_file(const std::string& path, std::map<std::string, std::string>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return read_flat_object(buffer.str(), out);
}

long long flat_ll(const std::map<std::string, std::string>& obj, const std::string& key,
                  long long fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  try {
    return static_cast<long long>(json_to_number(key, it->second));
  } catch (const std::exception&) {
    return fallback;
  }
}

// One poll's view of a job's committed-case count.  The CASES/S column
// averages over a sliding window of these, never a single poll-to-poll
// delta: a chunked shard drain commits up to chunk_lanes cases in one
// burst, so adjacent-poll deltas whipsaw between 0 and hundreds while
// the true throughput is steady.
struct TopSample {
  long long cases_done = 0;
  std::chrono::steady_clock::time_point at{};
};
constexpr double kTopRateWindowSeconds = 10.0;

int cmd_top(const JobQueue& queue, int interval_ms, bool once) {
  std::map<std::string, std::deque<TopSample>> history;
  const bool live = !once;
  while (true) {
    const auto poll_at = std::chrono::steady_clock::now();
    const long long now_unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                      std::chrono::system_clock::now().time_since_epoch())
                                      .count();
    std::vector<JobRecord> jobs = queue.list();

    std::ostringstream screen;
    int slots_in_use = -1;
    int slots_capacity = -1;
    long long freshest_heartbeat = -1;

    screen << "queue: " << queue.root() << "  (" << jobs.size() << " job"
           << (jobs.size() == 1 ? "" : "s") << ")\n\n";
    char line[256];
    std::snprintf(line, sizeof(line), "%-24s %-10s %12s %9s %9s %9s %10s %9s\n", "JOB",
                  "STATE", "DONE/TOTAL", "SPAWNS", "RESTARTS", "TIMEOUTS", "CASES/S",
                  "HEARTBEAT");
    screen << line;

    std::vector<std::string> shard_blocks;
    for (const JobRecord& job : jobs) {
      std::map<std::string, std::string> progress;
      const bool have_progress = read_flat_file(job.progress_path, progress);

      long long total = flat_ll(progress, "cases_total", -1);
      long long done = flat_ll(progress, "cases_done", -1);
      if (total < 0 || done < 0) {
        // No coordinator snapshot yet: fall back to the durable
        // checkpoint scan (works with no coordinator alive at all).
        try {
          const JobProgress durable = queue.progress(job);
          total = static_cast<long long>(durable.cases_total);
          done = static_cast<long long>(durable.cases_done);
        } catch (const std::exception&) {
        }
      }

      long long spawns = 0;
      long long restarts = 0;
      long long timeouts = 0;
      const long long shards = flat_ll(progress, "shards", 0);
      std::ostringstream block;
      for (long long s = 0; s < shards; ++s) {
        const std::string prefix = "shard_" + std::to_string(s) + "_";
        spawns += flat_ll(progress, prefix + "spawns", 0);
        restarts += flat_ll(progress, prefix + "restarts", 0);
        timeouts += flat_ll(progress, prefix + "timeouts", 0);
        if (job.state == JobState::Running) {
          const long long begin = flat_ll(progress, prefix + "begin", 0);
          const long long end = flat_ll(progress, prefix + "end", 0);
          const long long shard_done = flat_ll(progress, prefix + "done", 0);
          block << "    shard " << s << "  [" << begin << ", " << end << ")  " << shard_done
                << "/" << (end - begin) << " done  spawns="
                << flat_ll(progress, prefix + "spawns", 0)
                << " restarts=" << flat_ll(progress, prefix + "restarts", 0)
                << " timeouts=" << flat_ll(progress, prefix + "timeouts", 0) << "\n";
        }
      }
      if (block.tellp() > 0) shard_blocks.push_back(job.id + "\n" + block.str());

      // Fleet slot utilization: every running job's snapshot carries the
      // shared pool's state; take the freshest heartbeat's view.
      const long long heartbeat = flat_ll(progress, "heartbeat_unix_ms", -1);
      if (heartbeat > freshest_heartbeat && flat_ll(progress, "fleet_slots_capacity", -1) >= 0) {
        freshest_heartbeat = heartbeat;
        slots_in_use = static_cast<int>(flat_ll(progress, "fleet_slots_in_use", -1));
        slots_capacity = static_cast<int>(flat_ll(progress, "fleet_slots_capacity", -1));
      }

      // Throughput over the trailing sample window (burst-tolerant).
      std::string rate = "-";
      std::deque<TopSample>& window = history[job.id];
      if (done >= 0) {
        window.push_back({done, poll_at});
        // Trim samples whose removal still leaves the full window span.
        while (window.size() > 2 &&
               std::chrono::duration<double>(poll_at - window[1].at).count() >=
                   kTopRateWindowSeconds) {
          window.pop_front();
        }
        const TopSample& oldest = window.front();
        const double dt = std::chrono::duration<double>(poll_at - oldest.at).count();
        if (dt > 0.0 && done >= oldest.cases_done) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.1f",
                        static_cast<double>(done - oldest.cases_done) / dt);
          rate = buf;
        }
      }

      std::string beat = "-";
      if (heartbeat > 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1fs ago",
                      static_cast<double>(now_unix_ms - heartbeat) * 1e-3);
        beat = buf;
      }

      std::string done_total = "-";
      if (total >= 0) done_total = std::to_string(done) + "/" + std::to_string(total);
      std::snprintf(line, sizeof(line), "%-24s %-10s %12s %9lld %9lld %9lld %10s %9s\n",
                    job.id.c_str(), to_string(job.state).c_str(), done_total.c_str(), spawns,
                    restarts, timeouts, rate.c_str(), beat.c_str());
      screen << line;
      (void)have_progress;
    }

    screen << "\nfleet slots: ";
    if (slots_capacity > 0) {
      screen << slots_in_use << "/" << slots_capacity << " in use";
    } else if (slots_capacity == 0) {
      screen << slots_in_use << " in use (unlimited)";
    } else {
      screen << "unknown (no running coordinator snapshot)";
    }
    screen << "\n";
    for (const std::string& block : shard_blocks) screen << "\n" << block;

    if (live) std::fputs("\033[H\033[2J", stdout);  // home + clear
    std::fputs(screen.str().c_str(), stdout);
    std::fflush(stdout);
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

// Pretty-print one finished job's summary.json and forensics.jsonl.
int inspect_checkpoint_dir(const std::string& checkpoint_dir) {
  const std::string tdir = telemetry_dir(checkpoint_dir);
  bool printed = false;

  std::ifstream summary(tdir + "/summary.json");
  if (summary) {
    std::cout << "--- summary (" << tdir << "/summary.json) ---\n" << summary.rdbuf() << "\n";
    printed = true;
  }

  std::ifstream forensics(forensics_path(checkpoint_dir));
  if (forensics) {
    std::cout << "--- forensics (" << forensics_path(checkpoint_dir) << ") ---\n";
    std::printf("%-14s %5s %7s %-11s %5s %-8s %8s %8s %9s %9s\n", "TS_UNIX_MS", "SHARD",
                "ATTEMPT", "EVENT", "EXIT", "SIGNAL", "WALL_S", "CPU_S", "RSS_KB",
                "LAST_CKPT");
    std::vector<std::pair<std::string, std::string>> tails;  // (who, tail)
    std::string row_text;
    while (std::getline(forensics, row_text)) {
      if (row_text.empty()) continue;
      std::map<std::string, std::string> row;
      if (!read_flat_object(row_text, row)) continue;
      const auto str = [&](const std::string& key) {
        const auto it = row.find(key);
        return it == row.end() ? std::string() : it->second;
      };
      const auto num = [&](const std::string& key) {
        try {
          return json_to_number(key, str(key));
        } catch (const std::exception&) {
          return 0.0;
        }
      };
      const double cpu = num("cpu_user_s") + num("cpu_sys_s");
      const double wall = num("wall_s");
      std::printf("%-14lld %5lld %7lld %-11s %5lld %-8s %8.2f %8.2f %9lld %9lld\n",
                  flat_ll(row, "ts_unix_ms", 0), flat_ll(row, "shard", -1),
                  flat_ll(row, "attempt", 0), str("event").c_str(),
                  flat_ll(row, "exit_code", 0), str("signal_name").c_str(), wall, cpu,
                  flat_ll(row, "max_rss_kb", 0), flat_ll(row, "last_checkpoint_index", -1));
      const std::string tail = str("stderr_tail");
      if (!tail.empty()) {
        tails.emplace_back("shard " + str("shard") + " attempt " + str("attempt") + " (" +
                               str("event") + ")",
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

int cmd_inspect(const JobQueue& queue, const std::string& id) {
  const std::optional<JobRecord> job = queue.find(id);
  if (!job) {
    std::fprintf(stderr, "no job '%s'\n", id.c_str());
    return 1;
  }
  std::cout << "job      : " << job->id << "\n"
            << "state    : " << to_string(job->state) << "\n";
  return inspect_checkpoint_dir(job->checkpoint_dir);
}

int run_queue_command(int argc, char** argv) {
  const std::string command = argv[1];
  CampaignSpec spec;
  QueueCoordinatorOptions serve_options;
  serve_options.verbose = true;
  std::string queue_root;
  std::string job_id;
  std::string name;
  std::string sweep;
  std::string inspect_dir;
  int priority = 0;
  int top_interval_ms = 1000;
  bool top_once = false;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--queue") {
      queue_root = value();
    } else if (arg == "--quiet") {
      serve_options.verbose = false;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (command == "submit" && handle_spec_flag(spec, arg, value)) {
      // spec flag consumed
    } else if (command == "submit" && arg == "--priority") {
      priority = parse_cli_int(arg, value());
    } else if (command == "submit" && arg == "--name") {
      name = value();
    } else if (command == "submit" && arg == "--sweep") {
      sweep = value();
    } else if (command == "serve" && arg == "--shard-slots") {
      serve_options.shard_slots = parse_cli_int(arg, value());
    } else if (command == "serve" && arg == "--max-parallel-jobs") {
      serve_options.max_parallel_jobs = parse_cli_int(arg, value());
    } else if (command == "serve" && arg == "--poll-ms") {
      serve_options.poll_ms = parse_cli_int(arg, value());
    } else if (command == "serve" && arg == "--follow") {
      serve_options.drain_and_exit = false;
    } else if (command == "top" && arg == "--interval-ms") {
      top_interval_ms = parse_cli_int(arg, value());
    } else if (command == "top" && arg == "--once") {
      top_once = true;
    } else if (command == "inspect" && arg == "--dir") {
      inspect_dir = value();
    } else if (arg[0] != '-' && job_id.empty()) {
      job_id = arg;
    } else {
      std::fprintf(stderr, "unknown flag %s for '%s'\n", arg.c_str(), command.c_str());
      return usage(argv[0]);
    }
  }
  // `inspect --dir` works directly on a checkpoint directory, no queue.
  if (command == "inspect" && !inspect_dir.empty()) {
    return inspect_checkpoint_dir(inspect_dir);
  }
  if (queue_root.empty()) {
    std::fprintf(stderr, "--queue is required\n");
    return usage(argv[0]);
  }

  JobQueue queue(queue_root);
  if (command == "submit") return cmd_submit(queue, spec, priority, name, sweep);
  if (command == "list") return cmd_list(queue);
  if (command == "serve") return cmd_serve(queue, serve_options);
  if (command == "top") return cmd_top(queue, top_interval_ms, top_once);
  if (command == "inspect") {
    if (job_id.empty()) {
      std::fprintf(stderr, "'inspect' needs a job id (or --dir CHECKPOINT_DIR)\n");
      return usage(argv[0]);
    }
    return cmd_inspect(queue, job_id);
  }
  if (command == "status" || command == "result" || command == "cancel") {
    if (job_id.empty()) {
      std::fprintf(stderr, "'%s' needs a job id\n", command.c_str());
      return usage(argv[0]);
    }
    if (command == "status") return cmd_status(queue, job_id);
    if (command == "result") return cmd_result(queue, job_id);
    return cmd_cancel(queue, job_id);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return usage(argv[0]);
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
    if (handle_spec_flag(spec, arg, value)) {
      continue;
    }
    if (arg == "--quiet") {
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
    // A first argument that is not a flag selects queue mode.
    if (argc > 1 && argv[1][0] != '-') return run_queue_command(argc, argv);
    return run_direct(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_service: %s\n", e.what());
    return 2;
  }
}
