// Fleet telemetry pipeline for the sharded campaign service
// (DESIGN.md §15).
//
// Worker side: a TelemetryFlusher in the shard process persists the
// metrics registry and span buffer to per-shard, per-attempt files under
// <checkpoint_dir>/telemetry/ (periodic + at-exit, atomic temp+rename),
// so the work a worker counted survives its _exit — or its SIGKILL, up
// to the last flush.
//
// Coordinator side: merge_fleet_telemetry() folds every shard file into
// the per-job artifacts —
//   metrics.json    deterministic fleet merge (counters + sim-time
//                   histograms; byte-identical for any shard count)
//   trace.json      one Chrome trace, pid = shard index (Perfetto shows
//                   the whole fleet on one timeline)
//   events.jsonl    per-shard JSONL event logs concatenated in shard
//                   order (lines carry a "shard" field)
//   summary.json    wall-clock case-latency histograms with p50/p95/p99
//                   plus per-shard supervision counters
//
// Wall-clock metrics (histogram names ending ".wall_ms") and gauges are
// nondeterministic per-process measurements: they are excluded from
// metrics.json (which must stay byte-identical across shard layouts)
// and surfaced through summary.json instead.
//
// Crash forensics: append_forensics_row() records one flat JSONL row per
// worker exit (exit code / signal, rusage, last checkpoint index, stderr
// tail) into <checkpoint_dir>/telemetry/forensics.jsonl — always on, so
// a SIGKILL'd or wedged shard is diagnosable after the fact.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace lcosc::service {

// <checkpoint_dir>/telemetry — per-shard flush files, merged artifacts
// and forensics all live here (never collides with the *.ckpt scan).
[[nodiscard]] std::string telemetry_dir(const std::string& checkpoint_dir);

// Base name of one worker attempt's flush files: "shard_3_of_8.a2"
// (+ ".metrics.json" / ".trace.jsonl" / ".events.jsonl").  Attempts get
// distinct files so a restarted worker never overwrites the telemetry a
// killed predecessor already flushed.
[[nodiscard]] std::string shard_telemetry_base(int shard_index, int shard_count, int attempt);

// Histogram naming convention: names ending ".wall_ms" hold wall-clock
// measurements and are excluded from the deterministic fleet merge.
[[nodiscard]] bool is_wall_metric(std::string_view name);

// Worker-side flusher.  Inert (no thread, no files) when neither metrics
// nor tracing is enabled; otherwise flushes every `period` from a
// background thread and once more from the destructor.  period <= 0
// keeps only the at-exit flush.
class TelemetryFlusher {
 public:
  TelemetryFlusher(const std::string& dir, const std::string& base,
                   std::chrono::milliseconds period = std::chrono::milliseconds(500));
  ~TelemetryFlusher();

  void flush_now();

  TelemetryFlusher(const TelemetryFlusher&) = delete;
  TelemetryFlusher& operator=(const TelemetryFlusher&) = delete;

 private:
  std::string metrics_path_;
  std::string trace_path_;
  bool metrics_on_ = false;
  bool trace_on_ = false;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// --- crash forensics -------------------------------------------------------

struct ForensicsRow {
  long long ts_unix_ms = 0;
  int shard = -1;
  int shards = 0;      // shard count of the layout `shard` indexes
  int attempt = 0;     // 1-based spawn number of this worker
  long long pid = -1;
  std::string event;   // exit | crash | timeout | shutdown | spawn_error
  int exit_code = 0;   // decoded wait status (128+sig when signaled); errno for spawn_error
  int signal = 0;      // terminating signal, 0 when none
  double wall_s = 0.0;
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
  long long max_rss_kb = 0;
  long long last_checkpoint_index = -1;  // highest committed case index, -1 = none
  std::uint64_t checkpoint_records = 0;
  std::string stderr_tail;
};

[[nodiscard]] std::string forensics_path(const std::string& checkpoint_dir);

// Conventional name for a signal number ("SIGKILL"); "signal_<n>" for
// anything unmapped.
[[nodiscard]] std::string signal_name(int sig);

// Append one flat JSONL row (single O_APPEND write, so concurrent
// coordinators never interleave and a crash loses at most this row).
bool append_forensics_row(const std::string& path, const ForensicsRow& row);

// --- fleet merge -----------------------------------------------------------

struct FleetTelemetry {
  obs::MetricsSnapshot metrics;  // deterministic merge: no gauges, no *.wall_ms
  std::vector<obs::HistogramSnapshot> wall_histograms;  // merged, name-sorted
  int metrics_files = 0;
  int trace_files = 0;
  int event_files = 0;
};

// Parse and merge every shard_*.metrics.json under `dir` (unreadable or
// torn files are skipped — the atomic flush makes them whole-or-absent).
[[nodiscard]] FleetTelemetry merge_fleet_metrics(const std::string& dir);

// Merge every shard_*.trace.jsonl under `dir` into one Chrome trace at
// `out_path` (pid = shard index).  Returns the number of shard trace
// files merged; 0 writes nothing.
int write_fleet_trace(const std::string& dir, const std::string& out_path);

// Concatenate every shard_*.events.jsonl under `dir` (numeric shard
// order, torn tail lines dropped) into `out_path`.  Returns the number
// of event files merged; 0 writes nothing.
int merge_fleet_events(const std::string& dir, const std::string& out_path);

// Supervision stats feeding summary.json (mirrors ShardStatus without
// depending on supervisor.h).
struct ShardSummary {
  int index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  int spawns = 0;
  int restarts = 0;
  int timeouts = 0;
  std::size_t cases_computed = 0;
  double active_seconds = 0.0;
  bool ok = true;
};

struct FleetSummaryInfo {
  std::string campaign;  // kind name ("tolerance", "internal_fmea", ...)
  std::size_t cases_total = 0;
  std::size_t cases_resumed = 0;
  std::size_t cases_failed = 0;
  int shards = 0;
  std::vector<ShardSummary> per_shard;
};

// Write summary.json: campaign identity, fleet/per-shard supervision
// counters, and p50/p95/p99 for every wall-clock latency histogram.
bool write_fleet_summary(const std::string& path, const FleetSummaryInfo& info,
                         const FleetTelemetry& telemetry);

// Coordinator entry, called from CampaignSupervisor::finish(): merge all
// per-shard telemetry under <checkpoint_dir>/telemetry into metrics.json
// / trace.json / events.jsonl and write summary.json.  A run with
// telemetry disabled has no shard files and produces no artifacts.
// Returns true when anything was written.
bool merge_fleet_telemetry(const std::string& checkpoint_dir, const FleetSummaryInfo& info);

}  // namespace lcosc::service
