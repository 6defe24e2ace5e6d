#include "obs/event_log.h"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "obs/json.h"

namespace lcosc::obs {
namespace {

std::atomic<bool> g_events_enabled{false};
std::atomic<std::uint64_t> g_sequence{0};
std::atomic<int> g_event_shard{-1};

// Innermost context label of the calling thread (nullptr = none).
thread_local const std::string* t_context = nullptr;

struct Sink {
  std::mutex mutex;
  std::ofstream file;
  bool file_open = false;
  std::vector<std::string>* capture = nullptr;
};

Sink& sink() {
  static Sink* s = new Sink();  // leaked: emission may outlive static teardown
  return *s;
}

void update_enabled_locked(const Sink& s) {
  g_events_enabled.store(s.file_open || s.capture != nullptr, std::memory_order_relaxed);
}

bool open_file_locked(Sink& s, const std::string& path) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  if (s.file_open) s.file.close();
  s.file.open(path, std::ios::trunc);
  s.file_open = static_cast<bool>(s.file);
  update_enabled_locked(s);
  return s.file_open;
}

bool apply_events_env() {
  const char* path = std::getenv("LCOSC_EVENTS");
  if (path != nullptr && *path != '\0') {
    Sink& s = sink();
    const std::lock_guard<std::mutex> lock(s.mutex);
    open_file_locked(s, path);
  }
  return true;
}

void emit_line(const std::string& line) {
  Sink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file_open) {
    s.file << line << '\n';
    s.file.flush();
  }
  if (s.capture != nullptr) s.capture->push_back(line);
}

}  // namespace

bool events_enabled() {
  static const bool init = apply_events_env();
  (void)init;
  return g_events_enabled.load(std::memory_order_relaxed);
}

bool open_event_log(const std::string& path) {
  (void)events_enabled();  // force the env read first
  Sink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return open_file_locked(s, path);
}

void close_event_log() {
  (void)events_enabled();
  Sink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mutex);
  if (s.file_open) s.file.close();
  s.file_open = false;
  update_enabled_locked(s);
}

void set_event_shard(int shard) {
  g_event_shard.store(shard, std::memory_order_relaxed);
}

void set_event_capture(std::vector<std::string>* capture) {
  (void)events_enabled();
  Sink& s = sink();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.capture = capture;
  update_enabled_locked(s);
}

Event::Event(std::string_view type) {
  line_.reserve(96);
  line_ += "{\"type\": \"";
  json::append_escaped(line_, type);
  line_ += "\", \"seq\": ";
  line_ += std::to_string(g_sequence.fetch_add(1, std::memory_order_relaxed));
  const int shard = g_event_shard.load(std::memory_order_relaxed);
  if (shard >= 0) {
    line_ += ", \"shard\": ";
    line_ += std::to_string(shard);
  }
}

Event& Event::num(std::string_view key, double value) {
  line_ += ", \"";
  json::append_escaped(line_, key);
  line_ += "\": ";
  if (std::isfinite(value)) {
    // Shortest text that reads back as the same double.
    char buf[32];
    line_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  } else {
    line_ += "null";
  }
  return *this;
}

Event& Event::integer(std::string_view key, long long value) {
  line_ += ", \"";
  json::append_escaped(line_, key);
  line_ += "\": ";
  line_ += std::to_string(value);
  return *this;
}

Event& Event::str(std::string_view key, std::string_view value) {
  line_ += ", \"";
  json::append_escaped(line_, key);
  line_ += "\": \"";
  json::append_escaped(line_, value);
  line_ += "\"";
  return *this;
}

Event& Event::boolean(std::string_view key, bool value) {
  line_ += ", \"";
  json::append_escaped(line_, key);
  line_ += value ? "\": true" : "\": false";
  return *this;
}

Event::~Event() {
  if (t_context != nullptr) {
    line_ += ", \"ctx\": \"";
    json::append_escaped(line_, *t_context);
    line_ += "\"";
  }
  line_ += "}";
  emit_line(line_);
}

EventContext::EventContext(std::string label)
    : previous_(t_context), label_(std::move(label)) {
  t_context = &label_;
}

EventContext::~EventContext() { t_context = previous_; }

}  // namespace lcosc::obs
