#include "util.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

TailPercentile tail_percentile(const std::vector<double>& values) {
  TailPercentile best;
  const auto n = static_cast<double>(values.size());
  for (const double percent : {90.0, 99.0, 99.9}) {
    if (n * (1.0 - percent / 100.0) >= 10.0) {
      best.percent = percent;
      best.value = quantile(values, percent / 100.0);
    }
  }
  return best;
}

std::string describe_timing(const std::vector<double>& values, double scale, const char* unit) {
  char buf[160];
  const TailPercentile tail = tail_percentile(values);
  if (tail.percent > 0.0) {
    std::snprintf(buf, sizeof buf, "median %.4g %s, p%g %.4g %s (n=%zu)",
                  median(values) * scale, unit, tail.percent, tail.value * scale, unit,
                  values.size());
  } else {
    std::snprintf(buf, sizeof buf, "median %.4g %s, max %.4g %s (n=%zu, too few for a tail)",
                  median(values) * scale, unit,
                  values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()) * scale,
                  unit, values.size());
  }
  return buf;
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void MetricSet::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool MetricSet::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (!std::isfinite(m.value)) throw std::runtime_error("metric " + m.name + " is not finite");
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + exact(m.value) + ", \"unit\": \"" + m.unit +
           "\"}";
  }
  return out + "}";
}

void MetricSet::print_table() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::uint64_t SpanLog::begin(const std::string& name, std::uint64_t parent,
                             std::uint64_t group) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.group = group;
  span.name = name;
  span.start = now;
  span.end = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end = now;
}

std::uint64_t SpanLog::new_group() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_group_++;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.group
        << ", \"ts\": " << exact(us(s.start)) << ", \"dur\": " << exact(us(s.end) - us(s.start))
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void SpanLog::print_summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double child_s = 0.0;
  };
  // Self time subtracts the union of the child intervals, so children
  // that ran in parallel are not counted twice.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> children(
      spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, Totals> by_name;
  for (const Span& s : spans_) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [begin, end] : kids) {
      const Clock::time_point from = std::max(begin, reach);
      if (end > from) {
        covered += std::chrono::duration<double>(end - from).count();
        reach = end;
      }
    }
    Totals& t = by_name[s.name];
    ++t.count;
    t.total_s += std::chrono::duration<double>(s.end - s.start).count();
    t.child_s += covered;
  }
  std::printf("  %-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : by_name) {
    std::printf("  %-34s %8zu %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                t.total_s - t.child_s);
  }
}

ScratchDir::ScratchDir(const std::string& root, const std::string& name)
    : path_(root + "/" + name) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

double process_cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage usage {};
    ::getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  }
  return total;
}

double thread_cpu_seconds() {
  struct timespec ts {};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb(int concurrent_children) {
  struct rusage self {};
  struct rusage children {};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  const double kb = static_cast<double>(self.ru_maxrss) +
                    static_cast<double>(concurrent_children) *
                        static_cast<double>(children.ru_maxrss);
  return kb / 1024.0;
}

}  // namespace perfbench
