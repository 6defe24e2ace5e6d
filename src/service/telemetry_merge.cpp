#include "service/telemetry_merge.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/atomic_file.h"
#include "obs/json.h"
#include "obs/snapshot_io.h"
#include "obs/span_tracer.h"
#include "service/checkpoint.h"

namespace lcosc::service {

namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

// "shard_<i>_of_<n>.a<k>" + suffix; returns false for anything else.
struct ShardFileName {
  int shard = -1;
  int count = -1;
  int attempt = -1;
};

bool parse_shard_file(const std::string& name, std::string_view suffix, ShardFileName& out) {
  if (name.size() <= suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  int consumed = 0;
  if (std::sscanf(name.c_str(), "shard_%d_of_%d.a%d%n", &out.shard, &out.count,
                  &out.attempt, &consumed) != 3) {
    return false;
  }
  return static_cast<std::size_t>(consumed) + suffix.size() == name.size() &&
         out.shard >= 0 && out.count >= 1 && out.attempt >= 1;
}

// Shard flush files under `dir` with the given suffix, sorted in
// numeric-aware name order (shard 2 before shard 10, attempt order
// within a shard) so concatenated artifacts are deterministic.
std::vector<std::pair<ShardFileName, std::string>> shard_files(const std::string& dir,
                                                               std::string_view suffix) {
  std::vector<std::pair<ShardFileName, std::string>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    ShardFileName parsed;
    if (parse_shard_file(name, suffix, parsed)) out.emplace_back(parsed, entry.path().string());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return numeric_name_less(a.second, b.second);
  });
  return out;
}

void append_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  out << v;
}

}  // namespace

std::string telemetry_dir(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/telemetry";
}

std::string shard_telemetry_base(int shard_index, int shard_count, int attempt) {
  return "shard_" + std::to_string(shard_index) + "_of_" + std::to_string(shard_count) +
         ".a" + std::to_string(attempt);
}

bool is_wall_metric(std::string_view name) {
  constexpr std::string_view kSuffix = ".wall_ms";
  return name.size() >= kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

// --- TelemetryFlusher ------------------------------------------------------

TelemetryFlusher::TelemetryFlusher(const std::string& dir, const std::string& base,
                                   std::chrono::milliseconds period)
    : metrics_path_(dir + "/" + base + ".metrics.json"),
      trace_path_(dir + "/" + base + ".trace.jsonl"),
      metrics_on_(obs::metrics_enabled()),
      trace_on_(obs::trace_enabled()) {
  if (!metrics_on_ && !trace_on_) return;
  if (period.count() <= 0) return;
  thread_ = std::thread([this, period] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      flush_now();
      lock.lock();
    }
  });
}

TelemetryFlusher::~TelemetryFlusher() {
  if (thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  flush_now();  // at-exit flush: the authoritative full snapshot
}

void TelemetryFlusher::flush_now() {
  if (metrics_on_) {
    obs::write_metrics_snapshot_json(obs::MetricsRegistry::instance().snapshot(),
                                     metrics_path_);
  }
  if (trace_on_) {
    obs::write_trace_jsonl(obs::trace_snapshot(), trace_path_);
  }
}

// --- crash forensics -------------------------------------------------------

std::string forensics_path(const std::string& checkpoint_dir) {
  return telemetry_dir(checkpoint_dir) + "/forensics.jsonl";
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    default: return "signal_" + std::to_string(sig);
  }
}

bool append_forensics_row(const std::string& path, const ForensicsRow& row) {
  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
  }
  std::ostringstream line;
  line << "{\"ts_unix_ms\": " << row.ts_unix_ms << ", \"shard\": " << row.shard
       << ", \"shards\": " << row.shards << ", \"attempt\": " << row.attempt
       << ", \"pid\": " << row.pid << ", \"event\": \"" << obs::json::escaped(row.event)
       << "\", \"exit_code\": " << row.exit_code
       << ", \"signal\": " << row.signal << ", \"signal_name\": \""
       << obs::json::escaped(row.signal == 0 ? std::string() : signal_name(row.signal))
       << "\", \"wall_s\": ";
  append_number(line, row.wall_s);
  line << ", \"cpu_user_s\": ";
  append_number(line, row.cpu_user_s);
  line << ", \"cpu_sys_s\": ";
  append_number(line, row.cpu_sys_s);
  line << ", \"max_rss_kb\": " << row.max_rss_kb
       << ", \"last_checkpoint_index\": " << row.last_checkpoint_index
       << ", \"checkpoint_records\": " << row.checkpoint_records << ", \"stderr_tail\": \""
       << obs::json::escaped(row.stderr_tail) << "\"}\n";
  const std::string text = line.str();

  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // One write per row: concurrent appenders never interleave (O_APPEND),
  // and a crash mid-write loses at most this row's tail.
  const ::ssize_t n = ::write(fd, text.data(), text.size());
  ::close(fd);
  return n == static_cast<::ssize_t>(text.size());
}

// --- fleet merge -----------------------------------------------------------

FleetTelemetry merge_fleet_metrics(const std::string& dir) {
  FleetTelemetry out;
  std::vector<obs::MetricsSnapshot> deterministic;
  std::vector<obs::MetricsSnapshot> wall;
  for (const auto& [parsed, path] : shard_files(dir, ".metrics.json")) {
    (void)parsed;
    std::string text;
    obs::MetricsSnapshot snap;
    if (!read_file(path, text) || !obs::parse_metrics_snapshot(text, snap)) continue;
    ++out.metrics_files;
    obs::MetricsSnapshot det;
    obs::MetricsSnapshot wall_part;
    det.counters = std::move(snap.counters);
    for (obs::HistogramSnapshot& h : snap.histograms) {
      (is_wall_metric(h.name) ? wall_part : det).histograms.push_back(std::move(h));
    }
    deterministic.push_back(std::move(det));
    wall.push_back(std::move(wall_part));
  }
  out.metrics = obs::merge_metrics_snapshots(deterministic);
  out.wall_histograms = obs::merge_metrics_snapshots(wall).histograms;
  return out;
}

int write_fleet_trace(const std::string& dir, const std::string& out_path) {
  std::map<int, obs::FleetTraceProcess> processes;
  int files = 0;
  for (const auto& [parsed, path] : shard_files(dir, ".trace.jsonl")) {
    std::string text;
    if (!read_file(path, text)) continue;
    std::vector<obs::TraceEventRecord> events;
    if (!obs::parse_trace_jsonl(text, events)) continue;
    ++files;
    obs::FleetTraceProcess& proc = processes[parsed.shard];
    if (proc.name.empty()) {
      proc.pid = parsed.shard;
      proc.name = "shard " + std::to_string(parsed.shard) + " of " +
                  std::to_string(parsed.count);
    }
    proc.events.insert(proc.events.end(), std::make_move_iterator(events.begin()),
                       std::make_move_iterator(events.end()));
  }
  if (files == 0) return 0;
  std::vector<obs::FleetTraceProcess> list;
  list.reserve(processes.size());
  for (auto& [shard, proc] : processes) list.push_back(std::move(proc));
  if (!obs::write_fleet_chrome_trace(std::move(list), out_path)) return 0;
  return files;
}

int merge_fleet_events(const std::string& dir, const std::string& out_path) {
  std::string merged;
  int files = 0;
  for (const auto& [parsed, path] : shard_files(dir, ".events.jsonl")) {
    (void)parsed;
    std::string text;
    if (!read_file(path, text)) continue;
    ++files;
    if (text.empty()) continue;
    if (text.back() != '\n') {
      // Torn tail from a killed writer: drop the incomplete last line.
      const std::size_t cut = text.find_last_of('\n');
      text = cut == std::string::npos ? std::string() : text.substr(0, cut + 1);
    }
    merged += text;
  }
  if (files == 0) return 0;
  if (!write_file_atomic(out_path, merged)) return 0;
  return files;
}

bool write_fleet_summary(const std::string& path, const FleetSummaryInfo& info,
                         const FleetTelemetry& telemetry) {
  int spawns = 0;
  int restarts = 0;
  int timeouts = 0;
  std::size_t cases_computed = 0;
  double active_seconds = 0.0;
  for (const ShardSummary& shard : info.per_shard) {
    spawns += shard.spawns;
    restarts += shard.restarts;
    timeouts += shard.timeouts;
    cases_computed += shard.cases_computed;
    active_seconds += shard.active_seconds;
  }

  std::ostringstream out;
  out << "{\n"
      << "  \"campaign\": \"" << obs::json::escaped(info.campaign) << "\",\n"
      << "  \"cases_total\": " << info.cases_total << ",\n"
      << "  \"cases_resumed\": " << info.cases_resumed << ",\n"
      << "  \"cases_failed\": " << info.cases_failed << ",\n"
      << "  \"shards\": " << info.shards << ",\n"
      << "  \"fleet\": {\"spawns\": " << spawns << ", \"restarts\": " << restarts
      << ", \"timeouts\": " << timeouts << ", \"cases_computed\": " << cases_computed
      << ", \"active_seconds\": ";
  append_number(out, active_seconds);
  out << ", \"cases_per_s\": ";
  append_number(out, active_seconds > 0.0
                         ? static_cast<double>(cases_computed) / active_seconds
                         : std::numeric_limits<double>::quiet_NaN());
  out << "},\n  \"per_shard\": [";
  for (std::size_t i = 0; i < info.per_shard.size(); ++i) {
    const ShardSummary& shard = info.per_shard[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"shard\": " << shard.index
        << ", \"begin\": " << shard.begin << ", \"end\": " << shard.end
        << ", \"spawns\": " << shard.spawns << ", \"restarts\": " << shard.restarts
        << ", \"timeouts\": " << shard.timeouts
        << ", \"cases_computed\": " << shard.cases_computed << ", \"active_seconds\": ";
    append_number(out, shard.active_seconds);
    out << ", \"ok\": " << (shard.ok ? "true" : "false") << "}";
  }
  out << (info.per_shard.empty() ? "" : "\n  ") << "],\n";

  // Wall-clock latency histograms: excluded from the deterministic
  // metrics.json merge, reported here with interpolated percentiles.
  out << "  \"latency\": {";
  for (std::size_t i = 0; i < telemetry.wall_histograms.size(); ++i) {
    const obs::HistogramSnapshot& h = telemetry.wall_histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << obs::json::escaped(h.name)
        << "\": {\"count\": " << h.count << ", \"min\": ";
    append_number(out, h.count > 0 ? h.min : std::numeric_limits<double>::quiet_NaN());
    out << ", \"max\": ";
    append_number(out, h.count > 0 ? h.max : std::numeric_limits<double>::quiet_NaN());
    out << ", \"p50\": ";
    append_number(out, obs::histogram_quantile(h, 0.50));
    out << ", \"p95\": ";
    append_number(out, obs::histogram_quantile(h, 0.95));
    out << ", \"p99\": ";
    append_number(out, obs::histogram_quantile(h, 0.99));
    out << "}";
  }
  out << (telemetry.wall_histograms.empty() ? "" : "\n  ") << "},\n";

  out << "  \"telemetry\": {\"metrics_files\": " << telemetry.metrics_files
      << ", \"trace_files\": " << telemetry.trace_files
      << ", \"event_files\": " << telemetry.event_files << "}\n}\n";
  return write_file_atomic(path, out.str());
}

bool merge_fleet_telemetry(const std::string& checkpoint_dir, const FleetSummaryInfo& info) {
  const std::string dir = telemetry_dir(checkpoint_dir);
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return false;

  FleetTelemetry telemetry = merge_fleet_metrics(dir);
  telemetry.trace_files = write_fleet_trace(dir, dir + "/trace.json");
  telemetry.event_files = merge_fleet_events(dir, dir + "/events.jsonl");
  if (telemetry.metrics_files == 0 && telemetry.trace_files == 0 &&
      telemetry.event_files == 0) {
    return false;  // telemetry was off: leave no artifacts behind
  }
  if (telemetry.metrics_files > 0) {
    obs::write_metrics_snapshot_json(telemetry.metrics, dir + "/metrics.json");
  }
  write_fleet_summary(dir + "/summary.json", info, telemetry);
  return true;
}

}  // namespace lcosc::service
