#include "service/queue.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common/atomic_file.h"
#include "common/campaign.h"
#include "common/error.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/adapters.h"
#include "service/checkpoint.h"
#include "service/flat_json.h"

namespace lcosc::service {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

void count_metric(const char* name, std::uint64_t delta = 1) {
  if (obs::metrics_enabled()) obs::MetricsRegistry::instance().counter(name).add(delta);
}

void gauge_set(const char* name, double value) {
  if (obs::metrics_enabled()) obs::MetricsRegistry::instance().gauge(name).set(value);
}

void emit_job_event(const char* action, const JobRecord& job) {
  if (!obs::events_enabled()) return;
  obs::Event event("queue.job");
  event.str("action", action)
      .str("id", job.id)
      .str("state", to_string(job.state))
      .integer("priority", job.priority)
      .integer("runs", job.runs);
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Directory-name suffix: anything outside [A-Za-z0-9_-] maps to '_' so a
// sweep value like "2.5e-3" still yields a portable path component.
std::string sanitize_name(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(u) != 0 || c == '-' || c == '_' ? c : '_');
    if (out.size() >= 40) break;
  }
  return out;
}

void fill_paths(JobRecord& job, const std::string& dir) {
  job.dir = dir;
  job.spec_path = dir + "/spec.json";
  job.checkpoint_dir = dir + "/checkpoints";
  job.report_path = dir + "/report.txt";
  job.progress_path = dir + "/progress.json";
}

// Committed records bucketed by absolute case index (no degraded
// preference: for progress accounting a synthesized row still counts as
// a delivered case).
std::size_t count_in_range(const std::map<std::uint32_t, std::string>& merged,
                           const CaseRange& range) {
  const auto lo = merged.lower_bound(static_cast<std::uint32_t>(range.begin));
  const auto hi = merged.lower_bound(static_cast<std::uint32_t>(range.end));
  return static_cast<std::size_t>(std::distance(lo, hi));
}

}  // namespace

std::string to_string(JobState state) {
  switch (state) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Cancelled:
      return "cancelled";
  }
  return "?";
}

JobState parse_job_state(const std::string& name) {
  if (name == "queued") return JobState::Queued;
  if (name == "running") return JobState::Running;
  if (name == "done") return JobState::Done;
  if (name == "failed") return JobState::Failed;
  if (name == "cancelled") return JobState::Cancelled;
  throw ConfigError("unknown job state '" + name + "'");
}

bool claim_order_less(const JobRecord& a, const JobRecord& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.sequence < b.sequence;
}

CampaignSpec apply_spec_override(const CampaignSpec& templ, const std::string& key,
                                 const std::string& value) {
  // Rewrite the template's own JSON with one value swapped, then re-parse:
  // the override inherits exactly the spec grammar (key set, types,
  // validation) with no second switch over the fields to keep in sync.
  const std::string json = to_json(templ);
  std::ostringstream out;
  out << "{";
  bool found = false;
  bool first = true;
  parse_flat_object(json, "spec template", [&](const std::string& k, const std::string& raw,
                                                bool is_string) {
    const bool here = k == key;
    found = found || here;
    const std::string& use = here ? value : raw;
    out << (first ? "\n" : ",\n") << "  \"" << obs::json::escaped(k) << "\": ";
    first = false;
    if (is_string) {
      out << '"' << obs::json::escaped(use) << '"';
    } else {
      out << use;
    }
  });
  out << "\n}\n";
  if (!found) throw ConfigError("sweep key '" + key + "' is not a campaign spec key");
  return parse_campaign_spec(out.str());
}

JobQueue::JobQueue(std::string root) : root_(std::move(root)) {
  LCOSC_REQUIRE(!root_.empty(), "queue root is required");
  std::error_code ec;
  fs::create_directories(jobs_dir(), ec);
  if (ec) throw Error("queue: cannot create " + jobs_dir() + ": " + ec.message());
}

JobRecord JobQueue::submit(const CampaignSpec& spec, int priority, const std::string& name) {
  const std::string suffix = sanitize_name(name);

  // Next submit-order number: one past the largest numeric prefix of any
  // existing entry (committed or not, so a half-created directory never
  // gets its number reused).
  std::uint64_t seq = 0;
  for (const auto& entry : fs::directory_iterator(jobs_dir())) {
    const std::string base = entry.path().filename().string();
    std::uint64_t value = 0;
    std::size_t i = 0;
    while (i < base.size() && std::isdigit(static_cast<unsigned char>(base[i])) != 0) {
      value = value * 10 + static_cast<std::uint64_t>(base[i] - '0');
      ++i;
    }
    if (i > 0) seq = std::max(seq, value);
  }
  ++seq;

  JobRecord job;
  while (true) {
    char number[16];
    std::snprintf(number, sizeof number, "%06llu", static_cast<unsigned long long>(seq));
    job.id = suffix.empty() ? std::string(number) : std::string(number) + "-" + suffix;
    const std::string dir = jobs_dir() + "/" + job.id;
    std::error_code ec;
    if (fs::create_directory(dir, ec)) {
      fill_paths(job, dir);
      break;
    }
    if (ec) throw Error("queue: cannot create " + dir + ": " + ec.message());
    ++seq;  // lost a race with a concurrent submitter; take the next number
  }
  job.sequence = seq;
  job.priority = priority;

  CampaignSpec effective = spec;
  effective.checkpoint_dir = job.checkpoint_dir;
  effective.report_path = job.report_path;
  if (!write_file_atomic(job.spec_path, to_json(effective))) {
    throw Error("queue: cannot write " + job.spec_path);
  }
  write_job(job);  // commit point: the job is now visible to list()/claim

  count_metric("queue.jobs.submitted");
  emit_job_event("submit", job);
  return job;
}

std::vector<JobRecord> JobQueue::submit_sweep(const CampaignSpec& templ,
                                              const std::string& key,
                                              const std::vector<std::string>& values,
                                              int priority, const std::string& name) {
  LCOSC_REQUIRE(!values.empty(), "sweep needs at least one value");
  std::vector<JobRecord> jobs;
  jobs.reserve(values.size());
  for (const std::string& value : values) {
    jobs.push_back(submit(apply_spec_override(templ, key, value), priority, name + value));
  }
  return jobs;
}

std::optional<JobRecord> JobQueue::read_job(const std::string& dir) const {
  const std::optional<std::string> text = read_text_file(dir + "/job.json");
  if (!text) return std::nullopt;
  JobRecord job;
  try {
    parse_flat_object(*text, "queue job", [&](const std::string& key, const std::string& raw,
                                              bool) {
      if (key == "id") {
        job.id = raw;
      } else if (key == "sequence") {
        job.sequence = json_to_u64(key, raw);
      } else if (key == "priority") {
        job.priority = json_to_int(key, raw);
      } else if (key == "state") {
        job.state = parse_job_state(raw);
      } else if (key == "runs") {
        job.runs = json_to_int(key, raw);
      } else if (key == "run_order") {
        job.run_order = json_to_int(key, raw);
      } else if (key == "error") {
        job.error = raw;
      } else {
        throw ConfigError("queue job: unknown key '" + key + "'");
      }
    });
  } catch (const Error&) {
    return std::nullopt;  // torn or foreign record: invisible, never claimable
  }
  if (job.id.empty()) job.id = fs::path(dir).filename().string();
  fill_paths(job, dir);
  job.cancel_requested = fs::exists(dir + "/cancel.flag");
  return job;
}

std::vector<JobRecord> JobQueue::list() const {
  std::vector<JobRecord> jobs;
  for (const auto& entry : fs::directory_iterator(jobs_dir())) {
    if (!entry.is_directory()) continue;
    if (std::optional<JobRecord> job = read_job(entry.path().string())) {
      jobs.push_back(std::move(*job));
    }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.sequence < b.sequence; });
  return jobs;
}

std::optional<JobRecord> JobQueue::find(const std::string& id) const {
  if (id.empty() || id.find('/') != std::string::npos) return std::nullopt;
  return read_job(jobs_dir() + "/" + id);
}

bool JobQueue::cancel(const std::string& id) {
  const std::optional<JobRecord> job = find(id);
  if (!job || job->terminal()) return false;
  if (!write_file_atomic(job->dir + "/cancel.flag", "cancel\n")) {
    throw Error("queue: cannot write " + job->dir + "/cancel.flag");
  }
  count_metric("queue.jobs.cancel_requested");
  emit_job_event("cancel_request", *job);
  return true;
}

bool JobQueue::cancel_requested(const JobRecord& job) const {
  return fs::exists(job.dir + "/cancel.flag");
}

JobProgress JobQueue::progress(const JobRecord& job) const {
  const CampaignSpec spec = load_spec(job);
  JobProgress progress;
  progress.cases_total = make_campaign(spec)->case_count();
  const std::map<std::uint32_t, std::string> merged = scan_checkpoint_dir(job.checkpoint_dir);
  for (const auto& [index, payload] : merged) {
    (void)payload;
    if (index < progress.cases_total) ++progress.cases_done;
  }
  progress.shards.reserve(static_cast<std::size_t>(spec.shards));
  for (int i = 0; i < spec.shards; ++i) {
    JobProgress::Shard shard;
    shard.index = i;
    shard.range = shard_case_range(progress.cases_total, i, spec.shards);
    shard.done = count_in_range(merged, shard.range);
    progress.shards.push_back(shard);
  }
  return progress;
}

CampaignSpec JobQueue::load_spec(const JobRecord& job) const {
  const std::optional<std::string> text = read_text_file(job.spec_path);
  if (!text) throw ConfigError("queue: cannot read " + job.spec_path);
  return parse_campaign_spec(*text);
}

std::optional<std::string> JobQueue::report(const JobRecord& job) const {
  return read_text_file(job.report_path);
}

void JobQueue::mark(JobRecord& job, JobState state, const std::string& error) {
  job.state = state;
  job.error = error;
  write_job(job);
}

void JobQueue::claim(JobRecord& job, long long run_order) {
  job.state = JobState::Running;
  ++job.runs;
  if (job.run_order < 0) job.run_order = run_order;
  write_job(job);
}

std::vector<JobRecord> JobQueue::claimable(const std::vector<std::string>& exclude) const {
  std::vector<JobRecord> ready;
  for (JobRecord& job : list()) {
    const bool mine = std::find(exclude.begin(), exclude.end(), job.id) != exclude.end();
    if (job.state == JobState::Queued || (job.state == JobState::Running && !mine)) {
      ready.push_back(std::move(job));
    }
  }
  std::sort(ready.begin(), ready.end(), claim_order_less);
  return ready;
}

long long JobQueue::max_run_order() const {
  long long max_order = -1;
  for (const JobRecord& job : list()) max_order = std::max(max_order, job.run_order);
  return max_order;
}

void JobQueue::write_progress(const JobRecord& job, const std::vector<ShardStatus>& shards,
                              int slots_in_use, int slots_capacity) const {
  const std::map<std::uint32_t, std::string> merged = scan_checkpoint_dir(job.checkpoint_dir);
  std::size_t total = 0;
  for (const ShardStatus& shard : shards) total = std::max(total, shard.range.end);
  std::size_t done = 0;
  for (const auto& [index, payload] : merged) {
    (void)payload;
    if (index < total) ++done;
  }

  // Fleet-wide context from the metrics snapshot (live workers and fresh
  // cases span every concurrent campaign sharing the pool).
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  double fleet_live = 0.0;
  std::uint64_t fleet_computed = 0;
  if (const obs::GaugeSnapshot* gauge = snapshot.find_gauge("service.shards.live")) {
    fleet_live = gauge->value;
  }
  if (const obs::CounterSnapshot* counter = snapshot.find_counter("service.cases.computed")) {
    fleet_computed = counter->value;
  }

  // Wall clock, not steady: external tooling compares the heartbeat to
  // its own clock to tell a slow job from a dead coordinator.
  const long long heartbeat_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                     std::chrono::system_clock::now().time_since_epoch())
                                     .count();

  // Windowed throughput: average the committed-case delta over a
  // trailing ~10 s of snapshots.  A chunked shard drain commits up to
  // chunk_lanes cases in one fsync burst, so the delta between adjacent
  // snapshots (250 ms apart) alternates between 0 and a whole chunk; the
  // window smooths the bursts into the true rate.
  constexpr double kRateWindowSeconds = 10.0;
  const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
  std::deque<ProgressSample>& window = rate_history_[job.id];
  window.push_back({done, now});
  while (window.size() > 2 &&
         std::chrono::duration<double>(now - window[1].at).count() >= kRateWindowSeconds) {
    window.pop_front();
  }
  double cases_per_s = -1.0;
  const ProgressSample& oldest = window.front();
  const double window_s = std::chrono::duration<double>(now - oldest.at).count();
  if (window_s > 0.0 && done >= oldest.cases_done) {
    cases_per_s = static_cast<double>(done - oldest.cases_done) / window_s;
  }

  std::ostringstream out;
  out << "{\n"
      << "  \"job\": \"" << obs::json::escaped(job.id) << "\",\n"
      << "  \"state\": \"" << to_string(job.state) << "\",\n"
      << "  \"heartbeat_unix_ms\": " << heartbeat_ms << ",\n"
      << "  \"cases_total\": " << total << ",\n"
      << "  \"cases_done\": " << done << ",\n";
  if (cases_per_s >= 0.0) {
    char rate_buf[32];
    std::snprintf(rate_buf, sizeof(rate_buf), "%.3f", cases_per_s);
    out << "  \"cases_per_s\": " << rate_buf << ",\n";
  }
  out
      << "  \"fleet_shards_live\": " << static_cast<long long>(fleet_live) << ",\n"
      << "  \"fleet_cases_computed\": " << fleet_computed << ",\n"
      << "  \"fleet_slots_in_use\": " << slots_in_use << ",\n"
      << "  \"fleet_slots_capacity\": " << slots_capacity << ",\n"
      << "  \"shards\": " << shards.size();
  // Flat numeric keys per shard so parse_flat_object consumers (`top`)
  // read them without string-splitting.
  for (const ShardStatus& shard : shards) {
    const std::string prefix = "\n  \"shard_" + std::to_string(shard.index) + "_";
    out << "," << prefix << "begin\": " << shard.range.begin
        << "," << prefix << "end\": " << shard.range.end
        << "," << prefix << "done\": " << count_in_range(merged, shard.range)
        << "," << prefix << "spawns\": " << shard.spawns
        << "," << prefix << "restarts\": " << shard.restarts
        << "," << prefix << "timeouts\": " << shard.timeouts;
  }
  out << "\n}\n";
  write_file_atomic(job.progress_path, out.str());  // best-effort stream
}

void JobQueue::write_job(const JobRecord& job) const {
  std::ostringstream out;
  out << "{\n"
      << "  \"id\": \"" << obs::json::escaped(job.id) << "\",\n"
      << "  \"sequence\": " << job.sequence << ",\n"
      << "  \"priority\": " << job.priority << ",\n"
      << "  \"state\": \"" << to_string(job.state) << "\",\n"
      << "  \"runs\": " << job.runs << ",\n"
      << "  \"run_order\": " << job.run_order << ",\n"
      << "  \"error\": \"" << obs::json::escaped(job.error) << "\"\n"
      << "}\n";
  if (!write_file_atomic(job.dir + "/job.json", out.str())) {
    throw Error("queue: cannot write " + job.dir + "/job.json");
  }
}

QueueCoordinatorResult run_queue_coordinator(JobQueue& queue,
                                             const QueueCoordinatorOptions& options) {
  struct ActiveJob {
    JobRecord job;
    std::unique_ptr<CampaignSupervisor> supervisor;
    Clock::time_point last_progress{};
  };

  ScopedSignalCapture signals;
  ShardSlotPool slots(options.shard_slots);
  std::vector<ActiveJob> active;
  QueueCoordinatorResult result;
  long long next_run_order = queue.max_run_order() + 1;
  const int max_jobs = std::max(1, options.max_parallel_jobs);
  const auto progress_period =
      std::chrono::milliseconds(std::max(0, options.progress_every_ms));

  const auto note = [&options](const JobRecord& job, const char* what,
                               const std::string& detail = "") {
    if (!options.verbose) return;
    std::fprintf(stderr, "[queue] job %s %s%s%s\n", job.id.c_str(), what,
                 detail.empty() ? "" : ": ", detail.c_str());
  };
  const auto settle = [&queue, &result, &note](JobRecord& job, JobState state,
                                               const std::string& error) {
    queue.mark(job, state, error);
    switch (state) {
      case JobState::Done:
        ++result.jobs_done;
        count_metric("queue.jobs.completed");
        emit_job_event("done", job);
        note(job, "done");
        break;
      case JobState::Failed:
        ++result.jobs_failed;
        count_metric("queue.jobs.failed");
        emit_job_event("failed", job);
        note(job, "failed", error);
        break;
      default:
        ++result.jobs_cancelled;
        count_metric("queue.jobs.cancelled");
        emit_job_event("cancelled", job);
        note(job, "cancelled");
        break;
    }
  };

  while (true) {
    if (const int sig = signals.pending()) {
      // Leave every active job `running` on disk: it is a lease, and the
      // next coordinator resumes it from its checkpoints.
      for (ActiveJob& entry : active) {
        if (entry.supervisor) entry.supervisor->kill_all();
      }
      count_metric("queue.coordinator.interrupted");
      ScopedSignalCapture::exit_via(sig);
    }

    // Advance every active campaign by one supervision poll.
    for (auto it = active.begin(); it != active.end();) {
      ActiveJob& entry = *it;
      if (queue.cancel_requested(entry.job)) {
        entry.supervisor->kill_all();
        entry.supervisor.reset();
        settle(entry.job, JobState::Cancelled, "");
        it = active.erase(it);
        continue;
      }
      bool finished = false;
      try {
        finished = entry.supervisor->step();
      } catch (const std::exception& e) {
        entry.supervisor.reset();  // destructor reaps any live workers
        settle(entry.job, JobState::Failed, e.what());
        it = active.erase(it);
        continue;
      }
      const auto now = Clock::now();
      if (finished || now - entry.last_progress >= progress_period) {
        entry.last_progress = now;
        queue.write_progress(entry.job, entry.supervisor->shard_statuses(), slots.in_use(),
                             slots.capacity());
      }
      if (finished) {
        try {
          const ServiceResult service = entry.supervisor->finish();
          if (service.degraded()) {
            settle(entry.job, JobState::Failed,
                   std::to_string(service.cases_failed) +
                       " cases degraded to SimulationError");
          } else {
            settle(entry.job, JobState::Done, "");
          }
        } catch (const std::exception& e) {
          settle(entry.job, JobState::Failed, e.what());
        }
        it = active.erase(it);
        continue;
      }
      ++it;
    }

    // Claim new work in (priority desc, submit order) while slots allow.
    std::vector<std::string> mine;
    mine.reserve(active.size());
    for (const ActiveJob& entry : active) mine.push_back(entry.job.id);
    std::vector<JobRecord> ready = queue.claimable(mine);
    int queued_depth = 0;
    for (const JobRecord& job : ready) {
      if (job.state == JobState::Queued) ++queued_depth;
    }
    for (JobRecord& job : ready) {
      if (static_cast<int>(active.size()) >= max_jobs) break;
      const bool was_queued = job.state == JobState::Queued;
      if (job.cancel_requested) {
        settle(job, JobState::Cancelled, "");
        if (was_queued) --queued_depth;
        continue;
      }
      const bool resumed = job.runs > 0;
      const long long before = job.run_order;
      queue.claim(job, next_run_order);
      if (before < 0) ++next_run_order;
      count_metric("queue.jobs.claimed");
      if (resumed) count_metric("queue.jobs.resumed");
      emit_job_event(resumed ? "resume" : "claim", job);
      note(job, resumed ? "resumed" : "claimed");
      if (was_queued) --queued_depth;

      ServiceOptions service_options;
      service_options.worker_exe = options.worker_exe;
      service_options.poll_ms = options.poll_ms;
      service_options.verbose = options.verbose;
      try {
        const CampaignSpec spec = queue.load_spec(job);
        ActiveJob entry;
        entry.job = job;
        entry.supervisor = std::make_unique<CampaignSupervisor>(spec, service_options, &slots);
        entry.last_progress = Clock::now();
        queue.write_progress(entry.job, entry.supervisor->shard_statuses(), slots.in_use(),
                             slots.capacity());
        active.push_back(std::move(entry));
      } catch (const std::exception& e) {
        settle(job, JobState::Failed, e.what());
      }
    }

    gauge_set("queue.depth", static_cast<double>(std::max(0, queued_depth)));
    gauge_set("queue.jobs.running", static_cast<double>(active.size()));

    if (active.empty()) {
      if (options.drain_and_exit) {
        bool open_jobs = false;
        for (const JobRecord& job : queue.list()) {
          if (!job.terminal()) {
            open_jobs = true;
            break;
          }
        }
        if (!open_jobs) break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(std::max(1, options.poll_ms)));
  }

  gauge_set("queue.jobs.running", 0.0);
  return result;
}

}  // namespace lcosc::service
