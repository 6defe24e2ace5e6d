#include "obs/span_tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"  // env_flag

namespace lcosc::obs {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_trace_enabled{false};
std::atomic<std::size_t> g_event_count{0};
std::atomic<std::size_t> g_dropped_count{0};
std::atomic<std::size_t> g_event_limit{1u << 20};  // ~1M events

double now_us() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Per-thread event buffer.  The owning thread appends under the buffer
// mutex (uncontended except during snapshot/clear), so snapshots from
// another thread are race-free under TSan.
struct ThreadBuffer {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::vector<TraceEventRecord> events;
};

struct Tracer {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
};

Tracer& tracer() {
  static Tracer* t = new Tracer();  // leaked: see MetricsRegistry::instance
  return *t;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Tracer& t = tracer();
    const std::lock_guard<std::mutex> lock(t.mutex);
    b->tid = t.next_tid++;
    t.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void push_event(TraceEventRecord&& event) {
  if (g_event_count.fetch_add(1, std::memory_order_relaxed) >=
      g_event_limit.load(std::memory_order_relaxed)) {
    g_event_count.fetch_sub(1, std::memory_order_relaxed);
    g_dropped_count.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
}

bool apply_trace_env() {
  g_trace_enabled.store(env_flag("LCOSC_TRACE", false), std::memory_order_relaxed);
  return true;
}

}  // namespace

bool trace_enabled() {
  static const bool init = apply_trace_env();
  (void)init;
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool enabled) {
  (void)trace_enabled();  // force the env read first
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void set_trace_event_limit(std::size_t limit) {
  g_event_limit.store(limit, std::memory_order_relaxed);
}

Span::Span(const char* name) {
  if (!trace_enabled()) return;
  literal_ = name;
  start_us_ = now_us();
  active_ = true;
}

Span::Span(std::string name) {
  if (!trace_enabled()) return;
  name_ = std::move(name);
  start_us_ = now_us();
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  TraceEventRecord event;
  event.name = literal_ != nullptr ? std::string(literal_) : std::move(name_);
  event.phase = 'X';
  event.ts_us = start_us_;
  event.dur_us = now_us() - start_us_;
  push_event(std::move(event));
}

void trace_instant(std::string name) {
  if (!trace_enabled()) return;
  TraceEventRecord event;
  event.name = std::move(name);
  event.phase = 'i';
  event.ts_us = now_us();
  push_event(std::move(event));
}

std::vector<TraceEventRecord> trace_snapshot() {
  std::vector<TraceEventRecord> out;
  Tracer& t = tracer();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(t.mutex);
    buffers = t.buffers;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEventRecord& a, const TraceEventRecord& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;  // enclosing span first
  });
  return out;
}

std::size_t trace_event_count() { return g_event_count.load(std::memory_order_relaxed); }

std::size_t trace_dropped_count() { return g_dropped_count.load(std::memory_order_relaxed); }

void clear_trace() {
  Tracer& t = tracer();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(t.mutex);
    buffers = t.buffers;
  }
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
  }
  g_event_count.store(0, std::memory_order_relaxed);
  g_dropped_count.store(0, std::memory_order_relaxed);
}

bool write_chrome_trace(const std::string& path) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  // Write-to-temp + rename so a process killed mid-emit never leaves a
  // truncated trace file (inline here: the obs layer sits below
  // common/atomic_file.h in the link order).
  const std::string temp = path + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) return false;

  const std::vector<TraceEventRecord> events = trace_snapshot();
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n"
      << "    \"process\": \"lcosc\",\n"
      << "    \"dropped_events\": " << trace_dropped_count() << "\n  },\n"
      << "  \"traceEvents\": [\n"
      << "    {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
         "\"args\": {\"name\": \"lcosc\"}}";
  for (const TraceEventRecord& e : events) {
    out << ",\n    {\"ph\": \"" << e.phase << "\", \"pid\": 1, \"tid\": " << e.tid
        << ", \"ts\": " << e.ts_us << ", ";
    if (e.phase == 'X') out << "\"dur\": " << e.dur_us << ", ";
    if (e.phase == 'i') out << "\"s\": \"t\", ";
    out << "\"name\": \"" << json::escaped(e.name) << "\"}";
  }
  out << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    out.close();
    std::filesystem::remove(temp);
    return false;
  }
  out.close();
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp);
    return false;
  }
  return true;
}

}  // namespace lcosc::obs
