// Small shared pieces of the benchmark driver: clocks and order
// statistics, the metric set printed as the result line, the in-memory
// span log of the traced run, and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

// Order statistics (linear interpolation between closest ranks).
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);

// Highest of p90 / p99 / p99.9 that still has at least ten samples
// beyond it; percent == 0 when there are too few samples for any.
struct TailPercentile {
  double percent = 0.0;
  double value = 0.0;
};
[[nodiscard]] TailPercentile tail_percentile(const std::vector<double>& values);

// "median 1.23 ms, p90 1.40 ms (n=120)" -- the timing summary line form.
[[nodiscard]] std::string describe_timing(const std::vector<double>& values, double scale,
                                          const char* unit);

// Metrics of one run, in print order.  Names are unique.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  // {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string to_json() const;
  void print_table() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Spans recorded by the benchmark around its calls into the library:
// workload -> case / chunk / shard -> layer call.  Spans of one case share
// a group id.  Kept in memory; written once when the run ends.
class SpanLog {
 public:
  std::uint64_t begin(const std::string& name, std::uint64_t parent, std::uint64_t group);
  void end(std::uint64_t id);
  [[nodiscard]] std::uint64_t new_group();

  // Chrome trace-event JSON; one "tid" per group.
  bool write_json(const std::string& path) const;
  // Per span name: count, total and self time (minus child spans).
  void print_summary() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t group = 0;
    std::string name;
    Clock::time_point start{};
    Clock::time_point end{};
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_group_ = 1;
  Clock::time_point origin_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::uint64_t parent, std::uint64_t group)
      : log_(log), id_(log != nullptr ? log->begin(name, parent, group) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

// Scratch directory (root/name), emptied on entry and removed when the
// scope ends.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Peak resident set of this process plus the largest reaped child
// (shard workers), in MiB.
[[nodiscard]] double peak_rss_mb(int concurrent_children);

// User + system CPU seconds of this process and its reaped children.
[[nodiscard]] double process_cpu_seconds();
// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_seconds();

// Full-precision decimal ("%.17g").
[[nodiscard]] std::string exact(double value);

}  // namespace perfbench
