#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace lcosc::obs {
namespace {

std::atomic<bool> g_metrics_enabled{false};

bool parse_flag(const char* text, bool fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  std::string v(text);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  return fallback;
}

bool apply_metrics_env() {
  g_metrics_enabled.store(parse_flag(std::getenv("LCOSC_METRICS"), false),
                          std::memory_order_relaxed);
  return true;
}

// Atomic min/max over doubles via CAS (order-independent merge).
void atomic_min(std::atomic<double>& cell, double candidate) {
  double cur = cell.load(std::memory_order_relaxed);
  while (candidate < cur &&
         !cell.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& cell, double candidate) {
  double cur = cell.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !cell.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
  }
}

void append_json_number(std::ostringstream& out, double v) {
  // JSON has no inf/nan literals; clamp to null.
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  out << v;
}

}  // namespace

bool metrics_enabled() {
  static const bool init = apply_metrics_env();
  (void)init;
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  // Force the env read first so a later first call cannot overwrite this.
  (void)metrics_enabled();
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool env_flag(const char* name, bool fallback) {
  return parse_flag(std::getenv(name), fallback);
}

namespace detail {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace detail

// --- Counter --------------------------------------------------------------

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

// --- Gauge ----------------------------------------------------------------

void Gauge::set(double value) {
  if (!metrics_enabled()) return;
  value_.store(value, std::memory_order_relaxed);
  raise_peak(value);
}

void Gauge::add(double delta) {
  if (!metrics_enabled()) return;
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
  raise_peak(cur + delta);
}

void Gauge::raise_peak(double candidate) { atomic_max(peak_, candidate); }

void Gauge::reset() {
  value_.store(0.0, std::memory_order_relaxed);
  peak_.store(0.0, std::memory_order_relaxed);
}

// --- Histogram ------------------------------------------------------------

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty() || bounds_.size() > kMaxHistogramBounds ||
      !std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram '" + name_ +
                                "': bounds must be non-empty, ascending and at most " +
                                std::to_string(kMaxHistogramBounds) + " long");
  }
}

std::size_t Histogram::bucket_of(double value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::record_many(double value, std::uint64_t count) {
  if (!metrics_enabled() || count == 0) return;
  shards_[detail::thread_shard()].counts[bucket_of(value)].fetch_add(
      count, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : bucket_counts()) sum += c;
  return sum;
}

void Histogram::reset() {
  for (Shard& s : shards_) {
    for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

// --- snapshot -------------------------------------------------------------

namespace {

template <typename T>
const T* find_by_name(const std::vector<T>& items, std::string_view name) {
  for (const T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::find_counter(std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(std::string_view name) const {
  return find_by_name(histograms, name);
}

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  std::ostringstream out;
  out << "{\n" << pad << "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << json::escaped(counters[i].name)
        << "\": " << counters[i].value;
  }
  out << (counters.empty() ? "" : "\n" + pad + "  ") << "},\n";

  out << pad << "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << json::escaped(gauges[i].name)
        << "\": {\"value\": ";
    append_json_number(out, gauges[i].value);
    out << ", \"peak\": ";
    append_json_number(out, gauges[i].peak);
    out << "}";
  }
  out << (gauges.empty() ? "" : "\n" + pad + "  ") << "},\n";

  out << pad << "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out << (i == 0 ? "\n" : ",\n") << pad << "    \"" << json::escaped(h.name)
        << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out << ", ";
      append_json_number(out, h.bounds[b]);
    }
    out << "], \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out << ", ";
      out << h.counts[b];
    }
    out << "], \"count\": " << h.count;
    if (h.count > 0) {
      out << ", \"min\": ";
      append_json_number(out, h.min);
      out << ", \"max\": ";
      append_json_number(out, h.max);
    }
    out << "}";
  }
  out << (histograms.empty() ? "" : "\n" + pad + "  ") << "}\n" << pad << "}";
  return out.str();
}

double histogram_quantile(const HistogramSnapshot& histogram, double q) {
  if (histogram.count == 0 || histogram.counts.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(histogram.count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(histogram.counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    const double lo = (i == 0) ? histogram.min : histogram.bounds[i - 1];
    const double hi = (i < histogram.bounds.size()) ? histogram.bounds[i] : histogram.max;
    const double fraction = std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
    return std::clamp(lo + fraction * (hi - lo), histogram.min, histogram.max);
  }
  return histogram.max;  // q == 1 landing past the last occupied bucket
}

// --- registry -------------------------------------------------------------

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: campaign threads may flush counters during static
  // teardown, after a normal static's destructor would have run.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) {
    if (c->name_ == name) return *c;
  }
  counters_.push_back(std::unique_ptr<Counter>(new Counter(std::string(name))));
  return *counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& g : gauges_) {
    if (g->name_ == name) return *g;
  }
  gauges_.push_back(std::unique_ptr<Gauge>(new Gauge(std::string(name))));
  return *gauges_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& h : histograms_) {
    if (h->name_ == name) return *h;
  }
  histograms_.push_back(
      std::unique_ptr<Histogram>(new Histogram(std::string(name), std::move(bounds))));
  return *histograms_.back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& c : counters_) {
      snap.counters.push_back({c->name_, c->total()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& g : gauges_) {
      snap.gauges.push_back({g->name_, g->value(), g->peak()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& h : histograms_) {
      HistogramSnapshot hs;
      hs.name = h->name_;
      hs.bounds = h->bounds_;
      hs.counts = h->bucket_counts();
      hs.count = 0;
      for (const std::uint64_t c : hs.counts) hs.count += c;
      hs.min = h->min_seen();
      hs.max = h->max_seen();
      snap.histograms.push_back(std::move(hs));
    }
  }
  // Registration order depends on which thread touched a metric first;
  // sort by name so snapshots are comparable across worker counts.
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : counters_) c->reset();
  for (const auto& g : gauges_) g->reset();
  for (const auto& h : histograms_) h->reset();
}

}  // namespace lcosc::obs
