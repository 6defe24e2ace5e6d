// Snapshot serialization for the cross-process telemetry pipeline
// (DESIGN.md §15): shard workers persist their metrics registry and span
// buffers to per-shard files; the campaign coordinator parses them back
// and merges the fleet into one snapshot.
//
// Three interchange formats, all crash-tolerant:
//  - metrics snapshot JSON — exactly MetricsSnapshot::to_json, written
//    atomically (temp + rename), so a reader sees a whole file or none.
//  - trace JSONL — one flat object per buffered span/instant
//    ({"name": .., "ph": .., "tid": .., "ts": .., "dur": ..}), flat so
//    any JSONL tool reads it, and line-oriented so a torn tail costs one
//    event, not the file.
//
// Every reader and writer here uses the obs/json.h grammar.
//  - fleet Chrome trace — the merged {"traceEvents": [...]} document
//    with one trace `pid` per shard worker, so Perfetto shows the whole
//    fleet on a single timeline.
//
// Merging reuses the PR-4 snapshot semantics: counters sum, histogram
// buckets sum (min of mins, max of maxes), and the result is sorted by
// name — order-independent, so the merged document is byte-identical
// for any shard count covering the same work.  Gauges model per-process
// instantaneous state and are intentionally dropped by the merge.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::obs {

// Parse a MetricsSnapshot::to_json document.  Returns false (and leaves
// `out` empty) on malformed input, trailing bytes or a counter that does
// not fit 64 bits.  Histograms serialized with count == 0 come back with
// min = +inf / max = -inf so they merge as identities.
[[nodiscard]] bool parse_metrics_snapshot(std::string_view text, MetricsSnapshot& out);

// Order-independent merge of worker snapshots: counters with the same
// name sum; histograms with the same name and identical bounds sum
// bucket-wise (min of mins, max of maxes); histograms whose bounds
// disagree keep the first occurrence (cannot happen between workers of
// one binary).  Gauges are dropped.  Result is sorted by name.
[[nodiscard]] MetricsSnapshot merge_metrics_snapshots(
    const std::vector<MetricsSnapshot>& parts);

// Write snapshot.to_json() + '\n' to `path` via temp + rename, creating
// parent directories.  Returns false when the file cannot be written.
bool write_metrics_snapshot_json(const MetricsSnapshot& snapshot, const std::string& path);

// The given trace events as flat JSONL, one line per event.
[[nodiscard]] std::string trace_jsonl(const std::vector<TraceEventRecord>& events);

// Write trace_jsonl(events) to `path` via temp + rename.
bool write_trace_jsonl(const std::vector<TraceEventRecord>& events, const std::string& path);

// Parse trace JSONL.  Malformed lines (a torn tail from a killed writer,
// a tid beyond 32 bits, a non-finite timestamp, a phase other than X or
// i) are skipped, not fatal;
// returns false only when nothing at all could be parsed from non-empty
// input.
bool parse_trace_jsonl(std::string_view text, std::vector<TraceEventRecord>& out);

// One trace process in the merged fleet timeline.
struct FleetTraceProcess {
  int pid = 0;        // Chrome trace pid (shard index)
  std::string name;   // process_name metadata ("shard 3 of 8")
  std::vector<TraceEventRecord> events;
};

// Write the merged {"traceEvents": [...]} document via temp + rename.
// Processes are ordered by pid and each process's events are sorted by
// (ts, dur desc, tid), so timestamps are monotone non-decreasing within
// every pid — the invariant Perfetto and validate_trace.py rely on.
bool write_fleet_chrome_trace(std::vector<FleetTraceProcess> processes,
                              const std::string& path, std::size_t dropped_events = 0);

}  // namespace lcosc::obs
