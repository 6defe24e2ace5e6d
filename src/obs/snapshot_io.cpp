#include "obs/snapshot_io.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "obs/json.h"

namespace lcosc::obs {
namespace {

// Shared temp + rename writer (inline: obs sits below common/atomic_file.h
// in the link order, same as write_chrome_trace).
bool write_text_atomic(const std::string& path, const std::string& body) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string temp = path + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << body;
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

}  // namespace

// --- metrics snapshot ------------------------------------------------------

bool parse_metrics_snapshot(std::string_view text, MetricsSnapshot& out) {
  out = MetricsSnapshot{};
  json::Reader in(text);
  const auto numbers = [&in](std::vector<double>& values) {
    values.clear();
    return in.array([&] {
      double v = 0.0;
      if (!in.number(v)) return false;
      values.push_back(v);
      return true;
    });
  };
  const auto counts = [&in](std::vector<std::uint64_t>& values) {
    values.clear();
    return in.array([&] {
      std::uint64_t v = 0;
      if (!in.unsigned_integer(v)) return false;
      values.push_back(v);
      return true;
    });
  };
  const bool ok = in.object([&](const std::string& section) {
    if (section == "counters") {
      return in.object([&](const std::string& name) {
        std::uint64_t value = 0;
        if (!in.unsigned_integer(value)) return false;
        out.counters.push_back({name, value});
        return true;
      });
    }
    if (section == "gauges") {
      return in.object([&](const std::string& name) {
        GaugeSnapshot g;
        g.name = name;
        const bool parsed = in.object([&](const std::string& key) {
          if (key == "value") return in.number(g.value);
          if (key == "peak") return in.number(g.peak);
          return false;
        });
        if (!parsed) return false;
        out.gauges.push_back(std::move(g));
        return true;
      });
    }
    if (section == "histograms") {
      return in.object([&](const std::string& name) {
        HistogramSnapshot h;
        h.name = name;
        // to_json omits min/max for empty histograms; default to the
        // merge identities so empty parts fold away.
        h.min = std::numeric_limits<double>::infinity();
        h.max = -std::numeric_limits<double>::infinity();
        const bool parsed = in.object([&](const std::string& key) {
          if (key == "bounds") return numbers(h.bounds);
          if (key == "counts") return counts(h.counts);
          if (key == "count") return in.unsigned_integer(h.count);
          if (key == "min") return in.number(h.min);
          if (key == "max") return in.number(h.max);
          return false;
        });
        if (!parsed || h.counts.size() != h.bounds.size() + 1) return false;
        out.histograms.push_back(std::move(h));
        return true;
      });
    }
    return false;
  }) && in.end();
  if (!ok) {
    out = MetricsSnapshot{};
    return false;
  }
  return true;
}

MetricsSnapshot merge_metrics_snapshots(const std::vector<MetricsSnapshot>& parts) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  for (const MetricsSnapshot& part : parts) {
    for (const CounterSnapshot& c : part.counters) counters[c.name] += c.value;
    for (const HistogramSnapshot& h : part.histograms) {
      auto [it, inserted] = histograms.try_emplace(h.name, h);
      if (inserted) continue;
      HistogramSnapshot& into = it->second;
      if (into.bounds != h.bounds) continue;  // cross-binary mismatch: keep first
      for (std::size_t b = 0; b < into.counts.size(); ++b) into.counts[b] += h.counts[b];
      into.count += h.count;
      into.min = std::min(into.min, h.min);
      into.max = std::max(into.max, h.max);
    }
  }
  MetricsSnapshot out;
  out.counters.reserve(counters.size());
  for (auto& [name, value] : counters) out.counters.push_back({name, value});
  out.histograms.reserve(histograms.size());
  for (auto& [name, h] : histograms) out.histograms.push_back(std::move(h));
  return out;  // std::map iteration is already name-sorted
}

bool write_metrics_snapshot_json(const MetricsSnapshot& snapshot, const std::string& path) {
  return write_text_atomic(path, snapshot.to_json() + "\n");
}

// --- trace JSONL -----------------------------------------------------------

std::string trace_jsonl(const std::vector<TraceEventRecord>& events) {
  std::ostringstream out;
  out.precision(12);
  for (const TraceEventRecord& e : events) {
    out << "{\"name\": \"" << json::escaped(e.name) << "\", \"ph\": \"" << e.phase
        << "\", \"tid\": " << e.tid << ", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
        << "}\n";
  }
  return out.str();
}

bool write_trace_jsonl(const std::vector<TraceEventRecord>& events, const std::string& path) {
  return write_text_atomic(path, trace_jsonl(events));
}

bool parse_trace_jsonl(std::string_view text, std::vector<TraceEventRecord>& out) {
  std::size_t begin = 0;
  std::size_t lines = 0;
  std::size_t parsed = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.empty()) continue;
    ++lines;
    TraceEventRecord event;
    std::string phase;
    bool has_name = false;
    json::Reader in(line);
    const bool ok = in.object([&](const std::string& key) {
      if (key == "name") {
        has_name = true;
        return in.string(event.name);
      }
      if (key == "ph") return in.string(phase);
      if (key == "tid") return in.unsigned_integer(event.tid);
      // Timestamps must be finite: the fleet trace writer sorts by them.
      if (key == "ts") return in.number(event.ts_us) && std::isfinite(event.ts_us);
      if (key == "dur") return in.number(event.dur_us) && std::isfinite(event.dur_us);
      return false;
    }) && in.end();
    // A torn tail from a killed writer loses that one line, nothing else.
    if (!ok || !has_name || (phase != "X" && phase != "i")) continue;
    event.phase = phase[0];
    out.push_back(std::move(event));
    ++parsed;
  }
  return lines == 0 || parsed > 0;
}

// --- fleet Chrome trace ----------------------------------------------------

bool write_fleet_chrome_trace(std::vector<FleetTraceProcess> processes,
                              const std::string& path, std::size_t dropped_events) {
  std::sort(processes.begin(), processes.end(),
            [](const FleetTraceProcess& a, const FleetTraceProcess& b) { return a.pid < b.pid; });
  std::ostringstream out;
  out.precision(12);
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {\n"
      << "    \"process\": \"lcosc-fleet\",\n"
      << "    \"dropped_events\": " << dropped_events << "\n  },\n"
      << "  \"traceEvents\": [";
  bool first = true;
  for (FleetTraceProcess& proc : processes) {
    std::sort(proc.events.begin(), proc.events.end(),
              [](const TraceEventRecord& a, const TraceEventRecord& b) {
                if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;  // enclosing span first
                return a.tid < b.tid;
              });
    out << (first ? "\n" : ",\n") << "    {\"ph\": \"M\", \"pid\": " << proc.pid
        << ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": \""
        << json::escaped(proc.name) << "\"}}";
    first = false;
    for (const TraceEventRecord& e : proc.events) {
      out << ",\n    {\"ph\": \"" << e.phase << "\", \"pid\": " << proc.pid
          << ", \"tid\": " << e.tid << ", \"ts\": " << e.ts_us << ", ";
      if (e.phase == 'X') out << "\"dur\": " << e.dur_us << ", ";
      if (e.phase == 'i') out << "\"s\": \"t\", ";
      out << "\"name\": \"" << json::escaped(e.name) << "\"}";
    }
  }
  out << "\n  ]\n}\n";
  return write_text_atomic(path, out.str());
}

}  // namespace lcosc::obs
