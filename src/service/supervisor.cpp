#include "service/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/campaign.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/adapters.h"
#include "service/checkpoint.h"
#include "service/telemetry_merge.h"

namespace lcosc::service {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string shard_checkpoint_path(const CampaignSpec& spec, int shard_index,
                                  int shard_count) {
  return spec.checkpoint_dir + "/shard_" + std::to_string(shard_index) + "_of_" +
         std::to_string(shard_count) + ".ckpt";
}

std::string spec_file_path(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/spec.json";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// All committed records in the checkpoint directory.  Scanning every
// *.ckpt (not just the current shard layout's files) lets a resume with
// a different shard count inherit all prior work: records carry absolute
// case indices, so the shard layout that produced them is irrelevant.
// Files merge in numeric-aware name order with real records preferred
// over degraded SimulationError rows (scan_checkpoint_dir).
std::map<std::uint32_t, std::string> scan_checkpoints(const std::string& dir,
                                                      const ShardableCampaign& campaign) {
  return scan_checkpoint_dir(
      dir, [&campaign](const std::string& record) { return campaign.is_error_record(record); });
}

void emit_shard_event(const char* action, int shard, long long pid, int detail = 0) {
  if (!obs::events_enabled()) return;
  obs::Event event("service.shard");
  event.str("action", action).integer("shard", shard).integer("pid", pid);
  if (detail != 0) event.integer("detail", detail);
}

void count_metric(const char* name, std::uint64_t delta = 1) {
  if (obs::metrics_enabled()) obs::MetricsRegistry::instance().counter(name).add(delta);
}

void live_gauge_add(double delta) {
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::instance().gauge("service.shards.live").add(delta);
  }
}

}  // namespace

CaseRange shard_case_range(std::size_t total, int shard_index, int shard_count) {
  LCOSC_REQUIRE(shard_count >= 1 && shard_index >= 0 && shard_index < shard_count,
                "shard index out of range");
  const auto count = static_cast<std::size_t>(shard_count);
  const auto index = static_cast<std::size_t>(shard_index);
  const std::size_t base = total / count;
  const std::size_t remainder = total % count;
  CaseRange range;
  range.begin = index * base + std::min(index, remainder);
  range.end = range.begin + base + (index < remainder ? 1 : 0);
  return range;
}

void run_shard(const CampaignSpec& spec, int shard_index, int shard_count) {
  LCOSC_REQUIRE(!spec.checkpoint_dir.empty(), "spec.checkpoint_dir is required");
  const std::unique_ptr<ShardableCampaign> campaign = make_campaign(spec);
  const CaseRange range = shard_case_range(campaign->case_count(), shard_index, shard_count);

  // Test hook: the first spawn of each shard wedges forever so the
  // coordinator's timeout -> SIGKILL -> restart path runs; the sentinel
  // disarms every later spawn.
  if (spec.test_stall_once) {
    const std::string sentinel =
        spec.checkpoint_dir + "/stall_" + std::to_string(shard_index) + ".flag";
    if (!fs::exists(sentinel)) {
      write_file_atomic(sentinel, "armed\n");
      while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }

  // Skip set: every case already committed by ANY checkpoint in the
  // directory (prior runs may have used a different shard count).
  const std::map<std::uint32_t, std::string> done =
      scan_checkpoints(spec.checkpoint_dir, *campaign);

  CheckpointWriter writer(shard_checkpoint_path(spec, shard_index, shard_count));

  std::vector<std::size_t> remaining;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    if (done.find(static_cast<std::uint32_t>(i)) == done.end()) remaining.push_back(i);
  }

  // Chunk-group drain (DESIGN.md §16): contiguous runs of missing cases,
  // cut at multiples of the campaign's chunk stride in GLOBAL case
  // index, drain through run_cases() -- the tolerance adapter advances a
  // whole group in one lockstep batched sweep instead of one simulator
  // per case.  Cutting at global boundaries keeps the lane grouping a
  // pure function of the case indices themselves, so the record bytes
  // cannot depend on the shard layout or on which cases a killed worker
  // had already committed.
  const std::size_t stride = std::max<std::size_t>(1, campaign->chunk_stride());
  struct CaseGroup {
    std::size_t first = 0;
    std::size_t count = 0;
  };
  std::vector<CaseGroup> groups;
  for (std::size_t k = 0; k < remaining.size();) {
    const std::size_t first = remaining[k];
    const std::size_t boundary = (first / stride + 1) * stride;
    std::size_t count = 1;
    while (k + count < remaining.size() && remaining[k + count] == first + count &&
           first + count < boundary) {
      ++count;
    }
    groups.push_back({first, count});
    k += count;
  }

  std::mutex append_mutex;
  int fresh = 0;
  auto run_group = [&](std::size_t slot) {
    const CaseGroup group = groups[slot];
    const Clock::time_point group_start = Clock::now();
    const std::vector<std::string> records = campaign->run_cases(group.first, group.count);
    LCOSC_REQUIRE(records.size() == group.count, "run_cases returned a short batch");
    if (obs::metrics_enabled()) {
      // Wall-clock per-case latency; a chunked group is timed as a whole
      // and amortized evenly over its cases.  The ".wall_ms" suffix keeps
      // this histogram out of the deterministic fleet metrics.json merge;
      // the coordinator surfaces its p50/p95/p99 through summary.json.
      static const std::vector<double> bounds{0.5,  1,    2,    5,    10,   20,  50,
                                              100,  200,  500,  1000, 2000, 5000, 10000};
      const double per_case =
          std::chrono::duration<double, std::milli>(Clock::now() - group_start).count() /
          static_cast<double>(group.count);
      auto& histogram =
          obs::MetricsRegistry::instance().histogram("service.case.wall_ms", bounds);
      for (std::size_t c = 0; c < group.count; ++c) histogram.record(per_case);
    }
    {
      const std::lock_guard<std::mutex> lock(append_mutex);
      for (std::size_t c = 0; c < group.count; ++c) {
        writer.append(static_cast<std::uint32_t>(group.first + c), records[c]);
        count_metric("service.cases.computed");
        ++fresh;
        // Test hook: die abruptly (no atexit, like a kill -9 landing just
        // after the fsync) once this spawn has committed its quota --
        // possibly mid-group, leaving the chunk partially checkpointed.
        if (spec.test_kill_after_cases > 0 && fresh >= spec.test_kill_after_cases) {
          std::_Exit(137);
        }
      }
    }
    return 0;
  };

  const auto workers = static_cast<std::size_t>(std::max(0, spec.workers_per_shard));
  if (workers == 1 || groups.size() <= 1) {
    for (std::size_t slot = 0; slot < groups.size(); ++slot) run_group(slot);
  } else {
    // In-shard thread parallelism over chunk groups: append order becomes
    // completion order, which is safe -- records carry their case index,
    // and the merge step orders by index, never by file position.
    (void)parallel_map(groups.size(), run_group, workers);
  }
}

std::optional<int> maybe_run_shard(int argc, char** argv) {
  // Strict integer parse: '--lcosc-shard garbage' must fail loudly, not
  // silently become shard 0 and duplicate shard 0's work.
  auto parse_shard_int = [](const char* s) -> int {
    if (s == nullptr || *s == '\0') return -1;
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || v < 0 || v > INT_MAX) return -1;
    return static_cast<int>(v);
  };
  int shard_index = -1;
  int shard_count = -1;
  int attempt = 1;
  std::string spec_path;
  bool is_shard = false;
  bool bad_value = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--lcosc-shard") {
      is_shard = true;
      shard_index = parse_shard_int(value());
      bad_value |= shard_index < 0;
    } else if (arg == "--lcosc-shard-count") {
      shard_count = parse_shard_int(value());
      bad_value |= shard_count < 0;
    } else if (arg == "--lcosc-spec") {
      if (const char* v = value()) spec_path = v;
    } else if (arg == "--lcosc-shard-attempt") {
      attempt = parse_shard_int(value());
      bad_value |= attempt < 1;
    }
  }
  if (!is_shard) return std::nullopt;

  try {
    if (bad_value || shard_index < 0 || shard_count < 1 || spec_path.empty()) {
      throw ConfigError("shard mode needs --lcosc-shard N --lcosc-shard-count M --lcosc-spec F");
    }
    const std::optional<std::string> text = read_file(spec_path);
    if (!text) throw ConfigError("cannot read spec file " + spec_path);
    const CampaignSpec spec = parse_campaign_spec(*text);

    // Per-shard telemetry (DESIGN.md §15): tag event lines with this
    // shard, re-route the event log into the job's telemetry directory
    // and flush metrics/trace snapshots periodically + at exit, so this
    // process's counters and spans survive _exit for the coordinator to
    // merge.  All of it is inert when the LCOSC_* toggles are off.
    obs::set_event_shard(shard_index);
    const std::string dir = telemetry_dir(spec.checkpoint_dir);
    const std::string base = shard_telemetry_base(shard_index, shard_count, attempt);
    if (obs::events_enabled()) obs::open_event_log(dir + "/" + base + ".events.jsonl");
    TelemetryFlusher flusher(dir, base);

    run_shard(spec, shard_index, shard_count);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcosc shard worker: %s\n", e.what());
    return 3;
  }
}

namespace {

std::string self_exe_path() {
  char buf[4096];
  const ::ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  LCOSC_REQUIRE(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

struct SpawnedWorker {
  pid_t pid = -1;
  int stderr_fd = -1;   // nonblocking read end of the worker's stderr pipe
  int fork_errno = 0;   // errno of a failed fork (pid < 0)
};

SpawnedWorker spawn_worker(const std::string& exe, int shard_index, int shard_count,
                           const std::string& spec_path, int attempt) {
  SpawnedWorker out;
  // Give the worker its own stderr: several shards crashing or retrying
  // at once must not interleave on the coordinator's stderr.  The parent
  // drains the read end into a bounded tail (forensics + verbose
  // diagnostics).  A failed pipe() degrades to the inherited stderr.
  int fds[2] = {-1, -1};
  const bool piped = ::pipe(fds) == 0;
  const std::string idx = std::to_string(shard_index);
  const std::string count = std::to_string(shard_count);
  const std::string att = std::to_string(attempt);
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (piped) {
      ::close(fds[0]);
      ::dup2(fds[1], 2);
      if (fds[1] != 2) ::close(fds[1]);
    }
    const char* argv[] = {exe.c_str(),    "--lcosc-shard",       idx.c_str(),
                          "--lcosc-shard-count", count.c_str(),  "--lcosc-spec",
                          spec_path.c_str(),     "--lcosc-shard-attempt", att.c_str(),
                          nullptr};
    ::execv(exe.c_str(), const_cast<char* const*>(argv));
    std::_Exit(127);  // exec failed
  }
  out.fork_errno = pid < 0 ? errno : 0;
  if (piped) {
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
    } else {
      const int flags = ::fcntl(fds[0], F_GETFL, 0);
      ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
      out.stderr_fd = fds[0];
    }
  }
  out.pid = pid;
  return out;
}

// One campaign's supervision state machine.  Construction validates the
// checkpoint directory (spec signature match), persists the effective
// spec, and seeds the resume set; step() then advances supervision one
// poll at a time until every shard is terminal, and finish() merges the
// checkpoint streams into the final report.  The destructor SIGKILLs and
// reaps any still-live workers, so a supervisor abandoned mid-run (error
// unwind, coordinator shutdown) never leaks subprocesses.
class CampaignSupervisor {
 public:
  CampaignSupervisor(const CampaignSpec& spec, const ServiceOptions& options);
  ~CampaignSupervisor();

  CampaignSupervisor(const CampaignSupervisor&) = delete;
  CampaignSupervisor& operator=(const CampaignSupervisor&) = delete;

  // One supervision poll: reap exited workers, SIGKILL the timed-out,
  // spawn pending/backed-off shards.  Returns true once every shard is
  // terminal (Done or Failed).
  bool step();

  // SIGKILL and reap every live worker.  The shards stay resumable: a
  // later run inherits their checkpoints.
  void kill_all();

  // Merge all checkpointed records in case-index order, synthesize
  // SimulationError rows for cases no shard delivered, render the report
  // and (when spec.report_path is set) write it atomically.  Call after
  // step() returns true.
  [[nodiscard]] ServiceResult finish();

 private:
  enum class ShardPhase { Pending, Running, Backoff, Done, Failed };

  struct ShardRuntime {
    ShardStatus status;
    ShardPhase phase = ShardPhase::Pending;
    pid_t pid = -1;
    Clock::time_point spawned_at{};
    Clock::time_point next_spawn{};
    std::size_t checkpoint_records_before = 0;
    // Worker stderr capture: nonblocking read end of the worker's stderr
    // pipe, drained each poll into a bounded tail for forensics.
    int stderr_fd = -1;
    std::string stderr_tail;
  };

  void step_spawn(ShardRuntime& shard, Clock::time_point now);
  void step_running(ShardRuntime& shard, Clock::time_point now);
  void drain_stderr(ShardRuntime& shard);
  void close_stderr(ShardRuntime& shard);
  // One forensics.jsonl row per worker exit (exit/crash/timeout/shutdown/
  // spawn_error): decoded status, rusage, last checkpoint index, stderr
  // tail.  Always on -- forensics never touches the report bytes.
  void record_forensics(const ShardRuntime& shard, const char* event, int exit_code,
                        int signal, double wall_s, const struct ::rusage* usage) const;
  void note(const char* fmt, int shard, long long a = 0, long long b = 0) const;

  CampaignSpec spec_;
  ServiceOptions options_;
  std::unique_ptr<ShardableCampaign> campaign_;
  std::size_t total_ = 0;
  std::string exe_;
  std::string spec_path_;
  std::size_t cases_resumed_ = 0;
  std::vector<ShardRuntime> shards_;
};

}  // namespace

CampaignSupervisor::CampaignSupervisor(const CampaignSpec& spec, const ServiceOptions& options)
    : spec_(spec), options_(options) {
  LCOSC_REQUIRE(!spec_.checkpoint_dir.empty(), "spec.checkpoint_dir is required");
  std::error_code ec;
  fs::create_directories(spec_.checkpoint_dir, ec);

  campaign_ = make_campaign(spec_);
  total_ = campaign_->case_count();

  // Persist the effective spec next to the checkpoints: the shard
  // workers re-exec from it, and a later resume invocation can point at
  // the directory alone.  If the directory already holds a spec, the
  // record-content fields must match: resuming checkpoints computed
  // under a different seed/samples/durations would silently merge stale
  // records into the new report.  (Sharding/supervision knobs may
  // change freely -- records carry absolute case indices.)
  spec_path_ = spec_file_path(spec_.checkpoint_dir);
  if (const std::optional<std::string> existing = read_file(spec_path_)) {
    std::string prior_signature;
    try {
      prior_signature = determinism_signature(parse_campaign_spec(*existing));
    } catch (const std::exception& e) {
      throw ConfigError("checkpoint_dir holds an unreadable spec (" + spec_path_ +
                        "): " + e.what() +
                        "; delete the directory to start this campaign fresh");
    }
    if (prior_signature != determinism_signature(spec_)) {
      throw ConfigError(
          "checkpoint_dir was written under a different campaign spec (" +
          prior_signature + " vs " + determinism_signature(spec_) +
          "); resuming would merge stale records -- use a fresh checkpoint_dir "
          "or delete " + spec_.checkpoint_dir);
    }
  }
  LCOSC_REQUIRE(write_file_atomic(spec_path_, to_json(spec_)),
                "cannot write effective spec to " + spec_path_);

  exe_ = options_.worker_exe.empty() ? self_exe_path() : options_.worker_exe;

  // Resume set: work inherited from any prior run of this directory.
  const std::map<std::uint32_t, std::string> prior =
      scan_checkpoints(spec_.checkpoint_dir, *campaign_);
  for (const auto& [index, payload] : prior) {
    (void)payload;
    if (index < total_) ++cases_resumed_;
  }

  shards_.resize(static_cast<std::size_t>(spec_.shards));
  for (int i = 0; i < spec_.shards; ++i) {
    ShardRuntime& shard = shards_[static_cast<std::size_t>(i)];
    shard.status.index = i;
    shard.status.range = shard_case_range(total_, i, spec_.shards);
    shard.checkpoint_records_before =
        read_checkpoint(shard_checkpoint_path(spec_, i, spec_.shards)).records.size();

    bool complete = true;
    for (std::size_t c = shard.status.range.begin; complete && c < shard.status.range.end;
         ++c) {
      complete = prior.find(static_cast<std::uint32_t>(c)) != prior.end();
    }
    if (complete) {
      // Nothing left for this shard (fully checkpointed, or empty range).
      shard.phase = ShardPhase::Done;
      shard.status.ok = true;
    } else {
      shard.next_spawn = Clock::now();
    }
  }
}

CampaignSupervisor::~CampaignSupervisor() {
  // Never leak workers past the supervisor's lifetime: an error unwind
  // or a coordinator shutdown mid-run must not orphan subprocesses.
  kill_all();
}

void CampaignSupervisor::note(const char* fmt, int shard, long long a, long long b) const {
  if (!options_.verbose) return;
  std::fprintf(stderr, "[campaign_service] shard %d: ", shard);
  std::fprintf(stderr, fmt, a, b);
  std::fputc('\n', stderr);
}

void CampaignSupervisor::step_spawn(ShardRuntime& shard, Clock::time_point now) {
  const int i = shard.status.index;
  if (now < shard.next_spawn) return;
  const SpawnedWorker worker =
      spawn_worker(exe_, i, spec_.shards, spec_path_, shard.status.spawns + 1);
  if (worker.pid < 0) {
    // fork() failed (EAGAIN/ENOMEM).  A -1 pid must never reach the
    // Running phase: waitpid(-1) would reap arbitrary children and
    // kill(-1) would SIGKILL everything we can signal.  Retry on the
    // restart budget like a crash.
    shard.pid = -1;
    count_metric("service.shard.spawn_errors");
    emit_shard_event("spawn_error", i, -1, worker.fork_errno);
    record_forensics(shard, "spawn_error", worker.fork_errno, 0, 0.0, nullptr);
    if (shard.status.restarts >= spec_.max_restarts) {
      shard.phase = ShardPhase::Failed;
      count_metric("service.shard.failed");
      emit_shard_event("failed", i, -1, worker.fork_errno);
      note("permanently failed (fork errno %lld)", i, worker.fork_errno);
      return;
    }
    ++shard.status.restarts;
    count_metric("service.shard.restarts");
    const int delay_ms = retry_backoff_delay_ms(spec_.restart_backoff, shard.status.restarts);
    shard.next_spawn = now + std::chrono::milliseconds(delay_ms);
    shard.phase = ShardPhase::Backoff;
    note("fork failed (errno %lld), retrying in %lld ms", i, worker.fork_errno, delay_ms);
    return;
  }
  shard.pid = worker.pid;
  shard.stderr_fd = worker.stderr_fd;
  shard.stderr_tail.clear();
  shard.spawned_at = now;
  shard.phase = ShardPhase::Running;
  ++shard.status.spawns;
  count_metric("service.shard.spawned");
  live_gauge_add(1.0);
  emit_shard_event("spawn", i, shard.pid);
  note("spawned pid %lld (attempt %lld)", i, shard.pid, shard.status.spawns);
}

void CampaignSupervisor::step_running(ShardRuntime& shard, Clock::time_point now) {
  const int i = shard.status.index;
  if (shard.pid <= 0) {
    // Defensive: cannot happen after the spawn guard above, but
    // waitpid/kill on pid <= 0 address process groups, not a child --
    // never risk it.  Fall back to a respawn.
    shard.phase = ShardPhase::Backoff;
    shard.next_spawn = now;
    return;
  }
  drain_stderr(shard);
  int wait_status = 0;
  struct ::rusage usage {};
  const pid_t r = ::wait4(shard.pid, &wait_status, WNOHANG, &usage);
  const double up_ms =
      std::chrono::duration<double, std::milli>(now - shard.spawned_at).count();

  bool exited = r == shard.pid;
  bool timed_out = false;
  if (!exited && spec_.shard_timeout_ms > 0 && up_ms > spec_.shard_timeout_ms) {
    // Wedged (or just too slow): kill and account it as a
    // timeout-restart, backoff included.
    ::kill(shard.pid, SIGKILL);
    ::wait4(shard.pid, &wait_status, 0, &usage);
    exited = true;
    timed_out = true;
    ++shard.status.timeouts;
    count_metric("service.shard.timeouts");
    emit_shard_event("timeout", i, shard.pid);
    note("timed out after %lld ms, killed", i, static_cast<long long>(up_ms));
  }
  if (!exited) return;

  live_gauge_add(-1.0);
  drain_stderr(shard);
  close_stderr(shard);
  shard.status.active_seconds += up_ms * 1e-3;
  const int exit_code = WIFEXITED(wait_status)    ? WEXITSTATUS(wait_status)
                        : WIFSIGNALED(wait_status) ? 128 + WTERMSIG(wait_status)
                                                   : -1;
  const int term_signal = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  record_forensics(shard,
                   timed_out ? "timeout" : (exit_code == 0 ? "exit" : "crash"),
                   exit_code, term_signal, up_ms * 1e-3, &usage);
  if (options_.verbose && (timed_out || exit_code != 0) && !shard.stderr_tail.empty()) {
    std::fprintf(stderr, "[campaign_service] shard %d stderr tail:\n%s%s", i,
                 shard.stderr_tail.c_str(),
                 shard.stderr_tail.back() == '\n' ? "" : "\n");
  }

  if (exit_code == 0 && !timed_out) {
    shard.phase = ShardPhase::Done;
    shard.status.ok = true;
    count_metric("service.shard.completed");
    emit_shard_event("exit", i, shard.pid, exit_code);
    note("completed (pid %lld)", i, shard.pid);
    return;
  }

  emit_shard_event(timed_out ? "killed" : "crashed", i, shard.pid, exit_code);
  if (shard.status.restarts >= spec_.max_restarts) {
    // Restart budget exhausted: degrade instead of aborting -- the merge
    // step fills this shard's missing cases with SimulationError rows.
    shard.phase = ShardPhase::Failed;
    count_metric("service.shard.failed");
    emit_shard_event("failed", i, shard.pid, exit_code);
    note("permanently failed (exit %lld)", i, exit_code);
    return;
  }
  ++shard.status.restarts;
  count_metric("service.shard.restarts");
  const int delay_ms = retry_backoff_delay_ms(spec_.restart_backoff, shard.status.restarts);
  shard.next_spawn = now + std::chrono::milliseconds(delay_ms);
  shard.phase = ShardPhase::Backoff;
  emit_shard_event("restart", i, shard.pid, delay_ms);
  note("restarting in %lld ms (exit %lld)", i, delay_ms, exit_code);
}

bool CampaignSupervisor::step() {
  bool all_terminal = true;
  const Clock::time_point now = Clock::now();
  for (ShardRuntime& shard : shards_) {
    switch (shard.phase) {
      case ShardPhase::Done:
      case ShardPhase::Failed:
        continue;
      case ShardPhase::Pending:
      case ShardPhase::Backoff:
        all_terminal = false;
        step_spawn(shard, now);
        break;
      case ShardPhase::Running:
        all_terminal = false;
        step_running(shard, now);
        break;
    }
  }
  return all_terminal;
}

void CampaignSupervisor::kill_all() {
  for (ShardRuntime& shard : shards_) {
    if (shard.phase != ShardPhase::Running || shard.pid <= 0) continue;
    drain_stderr(shard);
    ::kill(shard.pid, SIGKILL);
    int wait_status = 0;
    struct ::rusage usage {};
    ::wait4(shard.pid, &wait_status, 0, &usage);
    live_gauge_add(-1.0);
    drain_stderr(shard);
    close_stderr(shard);
    emit_shard_event("shutdown", shard.status.index, shard.pid);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - shard.spawned_at).count();
    shard.status.active_seconds += wall_s;
    record_forensics(shard, "shutdown", 128 + SIGKILL, SIGKILL, wall_s, &usage);
    // Resumable, not failed: the checkpoints the worker committed stay
    // inherited by the next run of this directory.
    shard.phase = ShardPhase::Pending;
    shard.pid = -1;
    shard.next_spawn = Clock::now();
  }
}

void CampaignSupervisor::drain_stderr(ShardRuntime& shard) {
  if (shard.stderr_fd < 0) return;
  // Bounded ring tail: keep the newest bytes, drop the oldest.  4 KiB is
  // enough for the exception + a few context lines a dying worker prints.
  constexpr std::size_t kTailMax = 4096;
  char buf[1024];
  while (true) {
    const ::ssize_t n = ::read(shard.stderr_fd, buf, sizeof buf);
    if (n <= 0) break;  // 0 = EOF, -1 = would-block or error
    shard.stderr_tail.append(buf, static_cast<std::size_t>(n));
    if (shard.stderr_tail.size() > kTailMax) {
      shard.stderr_tail.erase(0, shard.stderr_tail.size() - kTailMax);
    }
  }
}

void CampaignSupervisor::close_stderr(ShardRuntime& shard) {
  if (shard.stderr_fd >= 0) {
    ::close(shard.stderr_fd);
    shard.stderr_fd = -1;
  }
}

void CampaignSupervisor::record_forensics(const ShardRuntime& shard, const char* event,
                                          int exit_code, int signal, double wall_s,
                                          const struct ::rusage* usage) const {
  ForensicsRow row;
  row.ts_unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  row.shard = shard.status.index;
  row.shards = spec_.shards;
  row.attempt = std::max(1, shard.status.spawns);
  row.pid = shard.pid;
  row.event = event;
  row.exit_code = exit_code;
  row.signal = signal;
  row.wall_s = wall_s;
  if (usage != nullptr) {
    row.cpu_user_s = static_cast<double>(usage->ru_utime.tv_sec) +
                     static_cast<double>(usage->ru_utime.tv_usec) * 1e-6;
    row.cpu_sys_s = static_cast<double>(usage->ru_stime.tv_sec) +
                    static_cast<double>(usage->ru_stime.tv_usec) * 1e-6;
    row.max_rss_kb = usage->ru_maxrss;
  }
  const CheckpointReadResult ckpt =
      read_checkpoint(shard_checkpoint_path(spec_, shard.status.index, spec_.shards));
  row.checkpoint_records = ckpt.records.size();
  for (const CheckpointRecord& record : ckpt.records) {
    row.last_checkpoint_index =
        std::max(row.last_checkpoint_index, static_cast<long long>(record.index));
  }
  row.stderr_tail = shard.stderr_tail;
  append_forensics_row(forensics_path(spec_.checkpoint_dir), row);
}

ServiceResult CampaignSupervisor::finish() {
  ServiceResult result;
  result.cases_total = total_;
  result.cases_resumed = cases_resumed_;

  // Merge in case-index order.  Every record is a pure function of its
  // index, so first-wins over any mix of shard layouts and restart
  // generations yields the same bytes as an uninterrupted run.
  const std::map<std::uint32_t, std::string> merged =
      scan_checkpoints(spec_.checkpoint_dir, *campaign_);
  std::vector<std::string> records;
  records.reserve(total_);
  for (std::size_t i = 0; i < total_; ++i) {
    const auto it = merged.find(static_cast<std::uint32_t>(i));
    if (it != merged.end()) {
      records.push_back(it->second);
    } else {
      records.push_back(campaign_->error_record(i, "shard failed permanently"));
      ++result.cases_failed;
      count_metric("service.cases.synthesized");
    }
  }

  auto& registry = obs::MetricsRegistry::instance();
  for (ShardRuntime& shard : shards_) {
    const std::size_t after =
        read_checkpoint(shard_checkpoint_path(spec_, shard.status.index, spec_.shards))
            .records.size();
    shard.status.cases_computed = after - std::min(after, shard.checkpoint_records_before);
    if (obs::metrics_enabled() && shard.status.active_seconds > 0.0) {
      registry
          .gauge("service.shard." + std::to_string(shard.status.index) + ".cases_per_s")
          .set(static_cast<double>(shard.status.cases_computed) /
               shard.status.active_seconds);
    }
    result.shards.push_back(shard.status);
  }

  // Fold whatever per-shard telemetry the workers flushed into the
  // per-job artifacts (metrics.json / trace.json / events.jsonl /
  // summary.json).  A telemetry-off run has no shard files and this is
  // a no-op, so campaign artifacts stay exactly as before.
  FleetSummaryInfo fleet;
  fleet.campaign = to_string(spec_.kind);
  fleet.cases_total = result.cases_total;
  fleet.cases_resumed = result.cases_resumed;
  fleet.cases_failed = result.cases_failed;
  fleet.shards = spec_.shards;
  for (const ShardStatus& shard : result.shards) {
    fleet.per_shard.push_back({shard.index, shard.range.begin, shard.range.end,
                               shard.spawns, shard.restarts, shard.timeouts,
                               shard.cases_computed, shard.active_seconds, shard.ok});
  }
  merge_fleet_telemetry(spec_.checkpoint_dir, fleet);

  result.report = campaign_->report(records);
  if (!spec_.report_path.empty()) {
    LCOSC_REQUIRE(write_file_atomic(spec_.report_path, result.report),
                  "cannot write report to " + spec_.report_path);
  }
  return result;
}

// --- SIGINT/SIGTERM capture -------------------------------------------------

namespace {

std::atomic<int> g_pending_signal{0};

void record_signal(int sig) { g_pending_signal.store(sig, std::memory_order_relaxed); }

// Scoped SIGINT/SIGTERM capture for the coordinator loop.  The handler
// records the signal; the loop polls pending() and shuts its workers
// down before dying.  Without this, killing a coordinator orphans its
// fork/exec'd shard workers (they keep running and writing checkpoints
// with nobody left to reap or merge them).  The destructor restores the
// previous handlers.
class ScopedSignalCapture {
 public:
  ScopedSignalCapture() {
    g_pending_signal.store(0, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = record_signal;
    sigemptyset(&action.sa_mask);
    for (std::size_t k = 0; k < 2; ++k) ::sigaction(kSignals[k], &action, &saved_[k]);
  }
  ~ScopedSignalCapture() {
    for (std::size_t k = 0; k < 2; ++k) ::sigaction(kSignals[k], &saved_[k], nullptr);
  }

  ScopedSignalCapture(const ScopedSignalCapture&) = delete;
  ScopedSignalCapture& operator=(const ScopedSignalCapture&) = delete;

  // Signal number received since construction, or 0.
  [[nodiscard]] int pending() const { return g_pending_signal.load(std::memory_order_relaxed); }

  // Restore the default disposition and re-raise `sig`, so the process
  // exits with the conventional signal status.  Call after worker
  // cleanup; does not return.
  [[noreturn]] static void exit_via(int sig) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    std::_Exit(128 + sig);  // unreachable unless the signal is blocked
  }

 private:
  static constexpr int kSignals[2] = {SIGINT, SIGTERM};
  struct sigaction saved_[2] {};
};

}  // namespace

ServiceResult run_campaign_service(const CampaignSpec& spec, const ServiceOptions& options) {
  CampaignSupervisor supervisor(spec, options);
  // A coordinator killed by Ctrl-C / SIGTERM must take its workers with
  // it: kill and reap every live shard, then die with the conventional
  // signal status.  (The checkpoints keep the run resumable.)
  ScopedSignalCapture signals;
  while (!supervisor.step()) {
    if (const int sig = signals.pending()) {
      supervisor.kill_all();
      count_metric("service.coordinator.interrupted");
      ScopedSignalCapture::exit_via(sig);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
  return supervisor.finish();
}

CheckpointProgress checkpoint_progress(const std::string& checkpoint_dir) {
  const std::optional<std::string> text = read_file(spec_file_path(checkpoint_dir));
  if (!text) {
    throw ConfigError("no spec.json in " + checkpoint_dir +
                      " (not a campaign checkpoint directory)");
  }
  const CampaignSpec spec = parse_campaign_spec(*text);
  CheckpointProgress progress;
  progress.cases_total = make_campaign(spec)->case_count();
  // Distinct committed case indices per shard range: which record would
  // win the merge for an index does not matter to a count.
  const std::map<std::uint32_t, std::string> merged = scan_checkpoint_dir(checkpoint_dir);
  for (int i = 0; i < spec.shards; ++i) {
    CheckpointProgress::Shard shard;
    shard.index = i;
    shard.range = shard_case_range(progress.cases_total, i, spec.shards);
    shard.done = static_cast<std::size_t>(
        std::distance(merged.lower_bound(static_cast<std::uint32_t>(shard.range.begin)),
                      merged.lower_bound(static_cast<std::uint32_t>(shard.range.end))));
    progress.cases_done += shard.done;
    progress.shards.push_back(shard);
  }
  return progress;
}

}  // namespace lcosc::service
