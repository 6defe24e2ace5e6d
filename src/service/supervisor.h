// Crash-resilient sharded campaign coordinator.
//
// run_campaign_service() splits a campaign's case range contiguously
// across `spec.shards` worker subprocesses (fork/exec of the same binary
// in --lcosc-shard mode), supervises them with per-shard wall timeouts
// and a bounded exponential-backoff restart budget, and merges the
// per-shard checkpoint streams into the final report in case-index
// order.  The report is byte-identical for any shard count, any kill or
// resume schedule, and any restart count (DESIGN.md §13); a shard that
// exhausts its restart budget degrades gracefully -- its undelivered
// cases become SimulationError rows instead of aborting the run.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "service/spec.h"

namespace lcosc::service {

// Contiguous case range [begin, end) of one shard.
struct CaseRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
  friend bool operator==(const CaseRange&, const CaseRange&) = default;
};

// Deterministic contiguous split: ranges cover [0, total) in order, and
// sizes differ by at most one.
[[nodiscard]] CaseRange shard_case_range(std::size_t total, int shard_index, int shard_count);

struct ShardStatus {
  int index = 0;
  CaseRange range{};
  int spawns = 0;
  int restarts = 0;
  int timeouts = 0;
  bool ok = false;                // delivered (or inherited) all its cases
  std::size_t cases_computed = 0;  // fresh records this run
  double active_seconds = 0.0;     // summed subprocess lifetimes
};

struct ServiceResult {
  std::string report;
  std::size_t cases_total = 0;
  std::size_t cases_resumed = 0;  // replayed from pre-existing checkpoints
  std::size_t cases_failed = 0;   // synthesized SimulationError rows
  std::vector<ShardStatus> shards;

  // True when a permanently-failed shard forced synthesized rows.
  [[nodiscard]] bool degraded() const { return cases_failed > 0; }
};

struct ServiceOptions {
  // Binary re-exec'd in --lcosc-shard mode; empty = this binary
  // (/proc/self/exe).  Its main() must call maybe_run_shard() first.
  std::string worker_exe;
  int poll_ms = 20;      // supervision poll period
  bool verbose = false;  // stream shard lifecycle lines to stderr
};

// Coordinator entry.  Requires spec.checkpoint_dir; re-running with the
// same directory resumes (checkpointed cases are never recomputed).
// Writes the report to spec.report_path (atomically) when set.  SIGINT/
// SIGTERM during supervision kill and reap all live shard workers before
// the signal is re-raised, so no subprocess outlives the coordinator.
[[nodiscard]] ServiceResult run_campaign_service(const CampaignSpec& spec,
                                                 const ServiceOptions& options = {});

// Worker-mode guard: when argv carries --lcosc-shard, runs that shard to
// completion and returns the process exit code; std::nullopt otherwise.
// Call first thing in main() of any binary used as a coordinator.  The
// optional --lcosc-shard-attempt N (1-based spawn number, default 1)
// names this attempt's telemetry flush files so a restarted worker never
// overwrites what a killed predecessor already flushed (DESIGN.md §15).
[[nodiscard]] std::optional<int> maybe_run_shard(int argc, char** argv);

// In-process body of one shard (exposed for tests): runs the cases of
// shard `shard_index` of `shard_count` not already present in any
// checkpoint of spec.checkpoint_dir, appending to this shard's stream.
void run_shard(const CampaignSpec& spec, int shard_index, int shard_count);

// Durable completion of a checkpoint directory: the shard layout of its
// spec.json and, per shard, how many of its cases any *.ckpt stream in
// the directory has committed.  Reads only the directory, so it works
// with or without a live coordinator.  Throws lcosc::ConfigError when
// the directory holds no readable spec.json.
struct CheckpointProgress {
  std::size_t cases_total = 0;
  std::size_t cases_done = 0;
  struct Shard {
    int index = 0;
    CaseRange range{};
    std::size_t done = 0;
  };
  std::vector<Shard> shards;
};
[[nodiscard]] CheckpointProgress checkpoint_progress(const std::string& checkpoint_dir);

}  // namespace lcosc::service
