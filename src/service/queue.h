// Persistent, queryable multi-job campaign queue (DESIGN.md §14).
//
// A queue is a directory of jobs, each a self-contained resumable
// campaign: the submitted spec (spec.json, with checkpoint/report paths
// rewritten into the job directory), a small state record (job.json,
// updated only via atomic temp+rename writes so the queue itself
// survives `kill -9` at any instant), the shard checkpoint streams, and
// the finished report.  Clients submit specs with a priority (optionally
// expanding a template over a sweep list); a coordinator claims jobs in
// (priority desc, submit-order) order and runs each through the sharded
// CampaignSupervisor with checkpointed resume.  Concurrent campaigns
// share one ShardSlotPool, so the worker fleet stays bounded no matter
// how many jobs run at once, and every report is byte-identical to a
// solo run of the same spec.
//
// On-disk layout (everything under one queue root):
//
//   <root>/jobs/000042[-name]/
//     job.json        id, sequence, priority, state, runs, run_order, error
//     spec.json       effective CampaignSpec (paths point into this dir)
//     checkpoints/    per-shard CRC-framed record streams (service/checkpoint.h)
//     report.txt      final report (atomic write, present once finished)
//     progress.json   coordinator's last streamed progress snapshot
//     cancel.flag     cancellation request (written by any client)
//
// Job state machine (job.json "state"):
//
//   queued --claim--> running --all shards ok--> done
//     |                  |  \--degraded/error--> failed
//     |                  \--cancel.flag--------> cancelled
//     \--cancel.flag--> cancelled
//
// A `running` job is a lease, not a lock: a coordinator killed mid-job
// leaves it `running` on disk, and the next coordinator re-claims and
// resumes it from its checkpoints.  Submission commits by writing
// job.json last, so a half-created job directory is invisible to
// list()/claim and harmless.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "service/spec.h"
#include "service/supervisor.h"

namespace lcosc::service {

enum class JobState { Queued, Running, Done, Failed, Cancelled };

[[nodiscard]] std::string to_string(JobState state);
[[nodiscard]] JobState parse_job_state(const std::string& name);

struct JobRecord {
  std::string id;             // directory name: zero-padded sequence [+ "-name"]
  std::uint64_t sequence = 0;  // submit order (monotonic per queue)
  int priority = 0;            // higher claims first
  JobState state = JobState::Queued;
  int runs = 0;                // coordinator claims (first run + resumes)
  long long run_order = -1;    // global claim order; -1 = never claimed
  std::string error;           // failure reason (state == Failed)
  bool cancel_requested = false;  // cancel.flag present (overlay, not in job.json)

  // Paths inside the job directory (derived, not persisted).
  std::string dir;
  std::string spec_path;
  std::string checkpoint_dir;
  std::string report_path;
  std::string progress_path;

  [[nodiscard]] bool terminal() const {
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled;
  }
};

// Per-shard completion derived from the durable checkpoint streams, so
// it is queryable with or without a live coordinator.
struct JobProgress {
  std::size_t cases_total = 0;
  std::size_t cases_done = 0;
  struct Shard {
    int index = 0;
    CaseRange range{};
    std::size_t done = 0;
  };
  std::vector<Shard> shards;  // layout of the job's current spec.shards
};

// Claim ordering: priority desc, then submit order.  Total, so the
// coordinator's claim sequence is deterministic for a fixed queue state.
[[nodiscard]] bool claim_order_less(const JobRecord& a, const JobRecord& b);

// Override one spec key (the JSON key names of service/spec.h, e.g.
// "seed", "samples", "run_duration_ms") with a raw value string and
// re-validate.  Used by sweep submission to expand a template.
[[nodiscard]] CampaignSpec apply_spec_override(const CampaignSpec& templ,
                                               const std::string& key,
                                               const std::string& value);

class JobQueue {
 public:
  // Opens (creating if needed) the queue rooted at `root`.
  explicit JobQueue(std::string root);

  [[nodiscard]] const std::string& root() const { return root_; }

  // Append one job.  The spec's checkpoint_dir/report_path are rewritten
  // into the job directory; `name` ([A-Za-z0-9_-], other bytes mapped to
  // '_') suffixes the directory name for humans.  Commit point is the
  // atomic job.json write: a crash mid-submit leaves no claimable job.
  JobRecord submit(const CampaignSpec& spec, int priority = 0, const std::string& name = "");

  // Expand `templ` over a sweep: one job per value, with `key` (a spec
  // JSON key) overridden.  Jobs are named "<name><value>" and submitted
  // in value order at equal priority (submit order breaks the tie).
  std::vector<JobRecord> submit_sweep(const CampaignSpec& templ, const std::string& key,
                                      const std::vector<std::string>& values,
                                      int priority = 0, const std::string& name = "");

  // All committed jobs, in submit order.  Unreadable/incomplete job
  // directories are skipped.
  [[nodiscard]] std::vector<JobRecord> list() const;
  [[nodiscard]] std::optional<JobRecord> find(const std::string& id) const;

  // Record a cancellation request (atomic cancel.flag write).  The
  // coordinator honors it at its next poll: a queued job is marked
  // cancelled without running; a running job's workers are killed and
  // reaped first.  Returns false for unknown or already-terminal jobs.
  bool cancel(const std::string& id);
  [[nodiscard]] bool cancel_requested(const JobRecord& job) const;

  // Durable per-shard completion counts (scans the checkpoint streams).
  [[nodiscard]] JobProgress progress(const JobRecord& job) const;

  // The job's effective spec / finished report, read from the job dir.
  [[nodiscard]] CampaignSpec load_spec(const JobRecord& job) const;
  [[nodiscard]] std::optional<std::string> report(const JobRecord& job) const;

  // Persist a state transition (atomic job.json rewrite).  `job` is
  // updated in place.  The coordinator is the only state writer after
  // submission, so transitions never race.
  void mark(JobRecord& job, JobState state, const std::string& error = "");
  // Persist a claim: state=running, runs+1, run_order assigned on the
  // first claim.
  void claim(JobRecord& job, long long run_order);

  // Jobs a coordinator may claim: queued, plus running jobs abandoned by
  // a dead coordinator (`exclude` holds ids this coordinator already
  // supervises), in claim order.
  [[nodiscard]] std::vector<JobRecord> claimable(
      const std::vector<std::string>& exclude = {}) const;

  // Largest run_order ever assigned (-1 when none): the next coordinator
  // continues the global claim sequence from here.
  [[nodiscard]] long long max_run_order() const;

  // Stream the coordinator's live view into progress.json (atomic): a
  // flat JSON object (parse_flat_object reads it, so `campaign_service
  // top` and external tooling can poll it) with per-shard checkpoint
  // completion and supervision counters, a `heartbeat_unix_ms` wall
  // clock (distinguishes a slow job from a dead coordinator), fleet
  // slot utilization when the caller knows it (pass -1 when not), and a
  // `cases_per_s` throughput averaged over a trailing ~10 s window --
  // chunked shard drains commit up to chunk_lanes cases per burst, so a
  // snapshot-to-snapshot delta would whipsaw between 0 and hundreds.
  void write_progress(const JobRecord& job, const std::vector<ShardStatus>& shards,
                      int slots_in_use = -1, int slots_capacity = -1) const;

 private:
  [[nodiscard]] std::string jobs_dir() const { return root_ + "/jobs"; }
  [[nodiscard]] std::optional<JobRecord> read_job(const std::string& dir) const;
  void write_job(const JobRecord& job) const;

  std::string root_;

  // Trailing completion samples per job id, feeding the windowed
  // cases_per_s in write_progress (live telemetry only -- never part of
  // the deterministic artifacts).
  struct ProgressSample {
    std::size_t cases_done = 0;
    std::chrono::steady_clock::time_point at{};
  };
  mutable std::map<std::string, std::deque<ProgressSample>> rate_history_;
};

struct QueueCoordinatorOptions {
  int shard_slots = 0;        // global live-worker cap across jobs; 0 = unlimited
  int max_parallel_jobs = 2;  // campaigns supervised concurrently
  int poll_ms = 20;           // supervision + claim poll period
  int progress_every_ms = 250;  // progress.json refresh period per job
  bool drain_and_exit = true;   // exit once no claimable or running job remains
  bool verbose = false;         // job/shard lifecycle lines to stderr
  std::string worker_exe;       // forwarded to ServiceOptions::worker_exe
};

struct QueueCoordinatorResult {
  int jobs_done = 0;
  int jobs_failed = 0;
  int jobs_cancelled = 0;
};

// Claim-and-run loop: claims claimable jobs up to max_parallel_jobs,
// steps every active CampaignSupervisor against one shared ShardSlotPool
// of `shard_slots`, streams progress, and settles each job's terminal
// state.  SIGINT/SIGTERM kill and reap all live shard workers, leave the
// active jobs `running` (resumable leases), and re-raise.  With
// drain_and_exit=false the loop keeps polling for new submissions until
// a signal arrives.
QueueCoordinatorResult run_queue_coordinator(JobQueue& queue,
                                             const QueueCoordinatorOptions& options = {});

}  // namespace lcosc::service
