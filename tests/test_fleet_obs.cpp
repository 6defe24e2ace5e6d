// Unit contracts of the fleet telemetry pipeline (DESIGN.md §15):
// metrics snapshot round-trip and order-independent merge, histogram
// quantile interpolation, trace JSONL torn-tail tolerance, the merged
// fleet Chrome trace (valid JSON, per-pid monotone timestamps), crash
// forensics rows, and the shard flush-file naming.
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_validator.h"
#include "obs/metrics.h"
#include "obs/snapshot_io.h"
#include "obs/span_tracer.h"
#include "service/flat_json.h"
#include "service/telemetry_merge.h"

namespace lcosc::obs {
namespace {

namespace fs = std::filesystem;
using lcosc::testutil::JsonValidator;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class FleetObsFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lcosc_obs_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// --- histogram quantiles ---------------------------------------------------

HistogramSnapshot histogram(std::vector<double> bounds, std::vector<std::uint64_t> counts,
                            double min, double max) {
  HistogramSnapshot h;
  h.name = "h";
  h.bounds = std::move(bounds);
  h.counts = std::move(counts);
  for (const std::uint64_t c : h.counts) h.count += c;
  h.min = min;
  h.max = max;
  return h;
}

TEST(FleetObsQuantile, EmptyHistogramIsNaN) {
  HistogramSnapshot h;
  h.name = "empty";
  h.bounds = {1.0, 2.0};
  h.counts = {0, 0, 0};
  EXPECT_TRUE(std::isnan(histogram_quantile(h, 0.5)));
  EXPECT_TRUE(std::isnan(histogram_quantile(HistogramSnapshot{}, 0.99)));
}

TEST(FleetObsQuantile, SingleValuedHistogramReturnsThatValueExactly) {
  // Every sample equal: min == max pins every quantile to the value, no
  // matter which bucket holds it or how wide that bucket is.
  const HistogramSnapshot h = histogram({1.0, 10.0, 100.0}, {0, 5, 0, 0}, 7.5, 7.5);
  for (const double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(h, q), 7.5) << "q=" << q;
  }
}

TEST(FleetObsQuantile, InterpolatesInsideABucket) {
  // 10 samples uniformly inside (1, 2]: target rank 5 of 10 lands mid
  // bucket; edges are bounds[0]=1 and bounds[1]=2.
  const HistogramSnapshot h = histogram({1.0, 2.0}, {0, 10, 0}, 1.05, 1.95);
  const double p50 = histogram_quantile(h, 0.5);
  EXPECT_DOUBLE_EQ(p50, 1.5);
  // Quantiles are monotone in q.
  EXPECT_LE(histogram_quantile(h, 0.25), p50);
  EXPECT_LE(p50, histogram_quantile(h, 0.75));
  // And clamped into the observed range at the extremes.
  EXPECT_GE(histogram_quantile(h, 0.0), h.min);
  EXPECT_LE(histogram_quantile(h, 1.0), h.max);
}

TEST(FleetObsQuantile, SaturatedOverflowBucketInterpolatesToMax) {
  // Everything above the last bound: the overflow bucket's edges are
  // bounds.back() and the observed max -- finite, no divergence.
  const HistogramSnapshot h = histogram({1.0, 2.0}, {0, 0, 8}, 3.0, 11.0);
  const double p50 = histogram_quantile(h, 0.5);
  EXPECT_GE(p50, 3.0);
  EXPECT_LE(p50, 11.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 11.0);
  EXPECT_LE(histogram_quantile(h, 0.25), histogram_quantile(h, 0.99));
}

TEST(FleetObsQuantile, QOutsideZeroOneIsClamped) {
  const HistogramSnapshot h = histogram({10.0}, {4, 0}, 2.0, 8.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, -3.0), histogram_quantile(h, 0.0));
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 42.0), histogram_quantile(h, 1.0));
}

// --- metrics snapshot round-trip and merge ---------------------------------

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot s;
  s.counters = {{"a.count", 3}, {"z.count", 41}};
  s.gauges = {{"pool.busy", 2.0, 5.0}};
  s.histograms = {histogram({0.5, 1.0, 2.0}, {1, 2, 0, 4}, 0.25, 9.0)};
  s.histograms[0].name = "case.wall_ms";
  return s;
}

TEST(FleetObsSnapshotIo, ToJsonRoundTripsThroughTheParser) {
  // Names with a quote, a backslash or a tab must be escaped on the way
  // out, or the second parse fails.
  MetricsSnapshot quoted = sample_snapshot();
  quoted.counters[0].name = "a\"b";
  quoted.gauges[0].name = "back\\slash";
  quoted.histograms[0].name = "tab\there";
  for (const MetricsSnapshot& original : {sample_snapshot(), quoted}) {
    MetricsSnapshot parsed;
    ASSERT_TRUE(parse_metrics_snapshot(original.to_json(), parsed));
    EXPECT_EQ(parsed.counters, original.counters);
    ASSERT_EQ(parsed.gauges.size(), 1u);
    EXPECT_EQ(parsed.gauges[0], original.gauges[0]);
    ASSERT_EQ(parsed.histograms.size(), 1u);
    EXPECT_EQ(parsed.histograms[0], original.histograms[0]);
    // And the canonical byte form is reproduced exactly.
    EXPECT_EQ(parsed.to_json(), original.to_json());
  }
}

TEST(FleetObsSnapshotIo, EmptyHistogramParsesAsMergeIdentity) {
  // to_json omits min/max when count == 0; the parser must hand back the
  // merge identities so an idle worker's file folds away.
  MetricsSnapshot s;
  s.histograms = {histogram({1.0}, {0, 0}, 0.0, 0.0)};
  s.histograms[0].name = "idle";
  MetricsSnapshot parsed;
  ASSERT_TRUE(parse_metrics_snapshot(s.to_json(), parsed));
  ASSERT_EQ(parsed.histograms.size(), 1u);
  EXPECT_EQ(parsed.histograms[0].min, std::numeric_limits<double>::infinity());
  EXPECT_EQ(parsed.histograms[0].max, -std::numeric_limits<double>::infinity());
}

TEST(FleetObsSnapshotIo, MalformedInputIsRejectedNotCrashed) {
  MetricsSnapshot out;
  EXPECT_FALSE(parse_metrics_snapshot("", out));
  EXPECT_FALSE(parse_metrics_snapshot("not json", out));
  EXPECT_FALSE(parse_metrics_snapshot(R"({"counters": {"a": )", out));
  EXPECT_FALSE(parse_metrics_snapshot(R"({"unknown_section": {}})", out));
  // A counts/bounds length mismatch is structural corruption.
  EXPECT_FALSE(parse_metrics_snapshot(
      R"({"histograms": {"h": {"bounds": [1], "counts": [1], "count": 1}}})", out));
  // Trailing bytes after the document, and a counter past 2^64 - 1 (no
  // silent clamp).
  EXPECT_FALSE(parse_metrics_snapshot(R"({"counters": {"a": 1}}garbage)", out));
  EXPECT_FALSE(parse_metrics_snapshot(R"({"counters": {"a": 18446744073709551616}})", out));
  EXPECT_TRUE(out.counters.empty());
}

TEST(FleetObsSnapshotIo, UnicodeEscapesInNamesDecodeToUtf8) {
  MetricsSnapshot parsed;
  ASSERT_TRUE(parse_metrics_snapshot(R"({"counters": {"caf\u00e9": 1}})", parsed));
  ASSERT_EQ(parsed.counters.size(), 1u);
  EXPECT_EQ(parsed.counters[0].name, "caf\xc3\xa9");
}

TEST(FleetObsSnapshotIo, MergeIsOrderIndependentAndByteStable) {
  MetricsSnapshot a;
  a.counters = {{"cases", 4}, {"solves", 100}};
  a.histograms = {histogram({1.0, 2.0}, {1, 2, 1}, 0.5, 3.0)};
  a.histograms[0].name = "lat";
  MetricsSnapshot b;
  b.counters = {{"cases", 2}, {"retries", 1}};
  b.histograms = {histogram({1.0, 2.0}, {0, 3, 2}, 0.9, 7.0)};
  b.histograms[0].name = "lat";
  MetricsSnapshot c;  // an idle worker
  c.histograms = {histogram({1.0, 2.0}, {0, 0, 0},
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity())};
  c.histograms[0].name = "lat";

  const MetricsSnapshot abc = merge_metrics_snapshots({a, b, c});
  const MetricsSnapshot cba = merge_metrics_snapshots({c, b, a});
  EXPECT_EQ(abc.to_json(), cba.to_json());

  ASSERT_EQ(abc.counters.size(), 3u);  // name-sorted: cases, retries, solves
  EXPECT_EQ(abc.counters[0], (CounterSnapshot{"cases", 6}));
  EXPECT_EQ(abc.counters[1], (CounterSnapshot{"retries", 1}));
  EXPECT_EQ(abc.counters[2], (CounterSnapshot{"solves", 100}));
  ASSERT_EQ(abc.histograms.size(), 1u);
  EXPECT_EQ(abc.histograms[0].counts, (std::vector<std::uint64_t>{1, 5, 3}));
  EXPECT_EQ(abc.histograms[0].count, 9u);
  EXPECT_DOUBLE_EQ(abc.histograms[0].min, 0.5);
  EXPECT_DOUBLE_EQ(abc.histograms[0].max, 7.0);
  EXPECT_TRUE(abc.gauges.empty());  // gauges are per-process state: dropped
}

TEST(FleetObsSnapshotIo, GaugesAreDroppedByTheMerge) {
  const MetricsSnapshot merged = merge_metrics_snapshots({sample_snapshot()});
  EXPECT_TRUE(merged.gauges.empty());
  EXPECT_EQ(merged.counters.size(), 2u);
}

TEST_F(FleetObsFiles, SnapshotWriteIsAtomicAndReadable) {
  const std::string file = path("nested/dir/metrics.json");
  ASSERT_TRUE(write_metrics_snapshot_json(sample_snapshot(), file));
  MetricsSnapshot parsed;
  ASSERT_TRUE(parse_metrics_snapshot(read_file(file), parsed));
  EXPECT_EQ(parsed.to_json(), sample_snapshot().to_json());
  for (const auto& entry : fs::recursive_directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos) << entry.path();
  }
}

// --- trace JSONL -----------------------------------------------------------

std::vector<TraceEventRecord> sample_events() {
  return {
      {"case \"7\"", 'X', 0, 100.0, 50.0},
      {"solve", 'X', 1, 120.5, 10.25},
      {"trip", 'i', 0, 130.0, 0.0},
  };
}

TEST_F(FleetObsFiles, TraceJsonlRoundTripsIncludingEscapes) {
  const std::string file = path("t.jsonl");
  ASSERT_TRUE(write_trace_jsonl(sample_events(), file));
  std::vector<TraceEventRecord> parsed;
  ASSERT_TRUE(parse_trace_jsonl(read_file(file), parsed));
  EXPECT_EQ(parsed, sample_events());
}

TEST_F(FleetObsFiles, TornTailLosesOneLineNotTheFile) {
  const std::string file = path("t.jsonl");
  ASSERT_TRUE(write_trace_jsonl(sample_events(), file));
  // Simulate a writer killed mid-line.
  std::ofstream out(file, std::ios::binary | std::ios::app);
  out << "{\"name\": \"torn";
  out.close();

  std::vector<TraceEventRecord> parsed;
  ASSERT_TRUE(parse_trace_jsonl(read_file(file), parsed));
  EXPECT_EQ(parsed, sample_events());

  // All-garbage input reports failure instead of an empty success.
  parsed.clear();
  EXPECT_FALSE(parse_trace_jsonl("garbage\nmore garbage", parsed));
  EXPECT_TRUE(parse_trace_jsonl("", parsed));
  // A tid past 32 bits is a bad line, never truncated to another thread.
  EXPECT_FALSE(parse_trace_jsonl(
      R"({"name": "x", "ph": "X", "tid": 4294967297, "ts": 1, "dur": 1})", parsed));
  EXPECT_TRUE(parsed.empty());
}

TEST_F(FleetObsFiles, FleetChromeTraceIsValidJsonWithPerPidMonotoneTimestamps) {
  // Deliberately unsorted events per process: the writer must sort.
  FleetTraceProcess p0{0, "shard 0 of 2", {{"b", 'X', 0, 50.0, 5.0},
                                           {"a", 'X', 0, 10.0, 80.0},
                                           {"nest", 'X', 1, 10.0, 20.0}}};
  FleetTraceProcess p1{1, "shard 1 of 2", {{"c", 'i', 0, 7.0, 0.0}}};
  const std::string file = path("trace.json");
  ASSERT_TRUE(write_fleet_chrome_trace({p1, p0}, file, 3));

  const std::string text = read_file(file);
  EXPECT_TRUE(JsonValidator(text).valid()) << text;
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("shard 0 of 2"), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\": 3"), std::string::npos);

  // Per-pid monotonicity: scan the per-line event stream the writer
  // emits, tracking the last ts of each pid.
  std::map<int, double> last_ts;
  std::istringstream lines(text);
  std::string line;
  int events = 0;
  while (std::getline(lines, line)) {
    int pid = -1;
    double ts = -1.0;
    const std::size_t pid_at = line.find("\"pid\": ");
    const std::size_t ts_at = line.find("\"ts\": ");
    if (pid_at == std::string::npos || ts_at == std::string::npos) continue;
    pid = std::stoi(line.substr(pid_at + 7));
    ts = std::stod(line.substr(ts_at + 6));
    ++events;
    const auto it = last_ts.find(pid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << line;
    }
    last_ts[pid] = ts;
  }
  EXPECT_EQ(events, 4);
  // Tie at ts=10: the enclosing (longer) span must come first so
  // Perfetto nests the shorter one inside it.
  EXPECT_LT(text.find("\"name\": \"a\""), text.find("\"name\": \"nest\""));
}

// --- shard file naming and forensics ---------------------------------------

TEST(FleetObsNaming, ShardTelemetryBaseEncodesShardAndAttempt) {
  using service::shard_telemetry_base;
  EXPECT_EQ(shard_telemetry_base(3, 8, 1), "shard_3_of_8.a1");
  EXPECT_EQ(shard_telemetry_base(0, 1, 12), "shard_0_of_1.a12");
  EXPECT_NE(shard_telemetry_base(2, 4, 1), shard_telemetry_base(2, 4, 2))
      << "restarted workers must never overwrite a predecessor's flush";
}

TEST(FleetObsNaming, WallMetricSuffixSelectsSummaryNotMetrics) {
  EXPECT_TRUE(service::is_wall_metric("service.case.wall_ms"));
  EXPECT_FALSE(service::is_wall_metric("internal_fmea.detection_latency_ms"));
  EXPECT_FALSE(service::is_wall_metric("wall_ms"));  // needs the dot
  EXPECT_FALSE(service::is_wall_metric("service.cases.computed"));
}

TEST(FleetObsNaming, SignalNamesAreConventional) {
  EXPECT_EQ(service::signal_name(SIGKILL), "SIGKILL");
  EXPECT_EQ(service::signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(service::signal_name(64), "signal_64");
}

TEST_F(FleetObsFiles, ForensicsRowsAppendAsParseableFlatJsonl) {
  const std::string ckpt = path("job");
  const std::string file = service::forensics_path(ckpt);

  service::ForensicsRow row;
  row.ts_unix_ms = 1754650000000;
  row.shard = 2;
  row.shards = 3;
  row.attempt = 3;
  row.pid = 4242;
  row.event = "crash";
  row.exit_code = 137;
  row.signal = SIGKILL;
  row.wall_s = 1.25;
  row.cpu_user_s = 0.5;
  row.cpu_sys_s = 0.125;
  row.max_rss_kb = 51200;
  row.last_checkpoint_index = 17;
  row.checkpoint_records = 18;
  row.stderr_tail = "boom\nline \"two\"";
  ASSERT_TRUE(service::append_forensics_row(file, row));
  row.event = "exit";
  row.signal = 0;
  row.exit_code = 0;
  ASSERT_TRUE(service::append_forensics_row(file, row));

  std::ifstream in(file);
  ASSERT_TRUE(in.good());
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    // Every row is a flat object the service-side parse_flat_object reads.
    std::map<std::string, std::string> fields;
    service::parse_flat_object(line, "forensics",
                               [&](const std::string& key, const std::string& value, bool) {
                                 fields[key] = value;
                               });
    EXPECT_EQ(fields.at("shard"), "2");
    EXPECT_EQ(fields.at("shards"), "3");
    EXPECT_EQ(fields.at("attempt"), "3");
    EXPECT_EQ(fields.at("last_checkpoint_index"), "17");
    if (rows == 1) {
      EXPECT_EQ(fields.at("event"), "crash");
      EXPECT_EQ(fields.at("signal_name"), "SIGKILL");
      EXPECT_EQ(fields.at("exit_code"), "137");
      EXPECT_EQ(fields.at("stderr_tail"), "boom\nline \"two\"");
    } else {
      EXPECT_EQ(fields.at("event"), "exit");
      EXPECT_EQ(fields.at("signal_name"), "");
    }
  }
  EXPECT_EQ(rows, 2);
}

// --- fleet merge over flush files ------------------------------------------

TEST_F(FleetObsFiles, FleetMergeIsShardLayoutIndependentAndSkipsWallMetrics) {
  // The same logical fleet flushed as 2 shards vs 3 shards (one of them
  // restarted, so two attempts): merged metrics.json must be
  // byte-identical, and the wall histogram must surface only in the
  // summary.
  auto snapshot_with = [](std::uint64_t cases, std::uint64_t solves,
                          std::vector<std::uint64_t> wall_counts, double wmin, double wmax) {
    MetricsSnapshot s;
    s.counters = {{"service.cases.computed", cases}, {"solver.steps", solves}};
    s.gauges = {{"pool.live", 1.0, 2.0}};
    s.histograms = {histogram({1.0, 10.0}, std::move(wall_counts), wmin, wmax)};
    s.histograms[0].name = "service.case.wall_ms";
    return s;
  };

  const std::string dir_a = path("a/telemetry");
  ASSERT_TRUE(write_metrics_snapshot_json(snapshot_with(4, 400, {1, 2, 1}, 0.5, 20.0),
                                          dir_a + "/shard_0_of_2.a1.metrics.json"));
  ASSERT_TRUE(write_metrics_snapshot_json(snapshot_with(2, 200, {0, 1, 1}, 2.0, 30.0),
                                          dir_a + "/shard_1_of_2.a1.metrics.json"));

  const std::string dir_b = path("b/telemetry");
  ASSERT_TRUE(write_metrics_snapshot_json(snapshot_with(1, 150, {1, 0, 0}, 0.5, 0.9),
                                          dir_b + "/shard_0_of_3.a1.metrics.json"));
  ASSERT_TRUE(write_metrics_snapshot_json(snapshot_with(3, 250, {0, 2, 1}, 1.5, 20.0),
                                          dir_b + "/shard_1_of_3.a1.metrics.json"));
  ASSERT_TRUE(write_metrics_snapshot_json(snapshot_with(1, 100, {0, 1, 0}, 2.0, 2.0),
                                          dir_b + "/shard_2_of_3.a1.metrics.json"));
  ASSERT_TRUE(write_metrics_snapshot_json(snapshot_with(1, 100, {0, 0, 1}, 30.0, 30.0),
                                          dir_b + "/shard_2_of_3.a2.metrics.json"));
  // An unrelated file must be ignored, not merged.
  std::ofstream(dir_b + "/notes.txt") << "not telemetry\n";

  const service::FleetTelemetry a = service::merge_fleet_metrics(dir_a);
  const service::FleetTelemetry b = service::merge_fleet_metrics(dir_b);
  EXPECT_EQ(a.metrics_files, 2);
  EXPECT_EQ(b.metrics_files, 4);
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
  EXPECT_TRUE(a.metrics.gauges.empty());
  EXPECT_TRUE(a.metrics.histograms.empty());  // the only histogram is wall-clock
  ASSERT_EQ(a.wall_histograms.size(), 1u);
  EXPECT_EQ(a.wall_histograms[0].count, 6u);
  EXPECT_EQ(a.wall_histograms[0].count, b.wall_histograms[0].count);
  const CounterSnapshot* cases = a.metrics.find_counter("service.cases.computed");
  ASSERT_NE(cases, nullptr);
  EXPECT_EQ(cases->value, 6u);
}

TEST_F(FleetObsFiles, MergeFleetTelemetryWithoutShardFilesWritesNothing) {
  // Telemetry off: only forensics exists in the directory; the merge must
  // leave no metrics/trace/summary artifacts behind.
  const std::string ckpt = path("job");
  service::ForensicsRow row;
  row.event = "exit";
  ASSERT_TRUE(service::append_forensics_row(service::forensics_path(ckpt), row));

  service::FleetSummaryInfo info;
  info.campaign = "tolerance";
  EXPECT_FALSE(service::merge_fleet_telemetry(ckpt, info));
  const std::string tdir = service::telemetry_dir(ckpt);
  EXPECT_FALSE(fs::exists(tdir + "/metrics.json"));
  EXPECT_FALSE(fs::exists(tdir + "/trace.json"));
  EXPECT_FALSE(fs::exists(tdir + "/summary.json"));
}

TEST_F(FleetObsFiles, SummaryJsonCarriesQuantilesAndShardCounters) {
  const std::string ckpt = path("job");
  const std::string tdir = service::telemetry_dir(ckpt);

  MetricsSnapshot s;
  s.counters = {{"service.cases.computed", 6}};
  s.histograms = {histogram({1.0, 10.0, 100.0}, {2, 3, 1, 0}, 0.5, 42.0)};
  s.histograms[0].name = "service.case.wall_ms";
  ASSERT_TRUE(write_metrics_snapshot_json(s, tdir + "/shard_0_of_1.a1.metrics.json"));
  ASSERT_TRUE(write_trace_jsonl(sample_events(), tdir + "/shard_0_of_1.a1.trace.jsonl"));

  service::FleetSummaryInfo info;
  info.campaign = "tolerance";
  info.cases_total = 6;
  info.shards = 1;
  info.per_shard = {{0, 0, 6, 2, 1, 0, 6, 1.5, true}};
  ASSERT_TRUE(service::merge_fleet_telemetry(ckpt, info));

  const std::string summary = read_file(tdir + "/summary.json");
  EXPECT_TRUE(JsonValidator(summary).valid()) << summary;
  EXPECT_NE(summary.find("\"service.case.wall_ms\""), std::string::npos);
  EXPECT_NE(summary.find("\"p50\""), std::string::npos);
  EXPECT_NE(summary.find("\"p95\""), std::string::npos);
  EXPECT_NE(summary.find("\"p99\""), std::string::npos);
  EXPECT_NE(summary.find("\"campaign\": \"tolerance\""), std::string::npos);
  EXPECT_NE(summary.find("\"restarts\": 1"), std::string::npos);

  // The deterministic artifact must not contain the wall-clock histogram.
  const std::string metrics = read_file(tdir + "/metrics.json");
  EXPECT_TRUE(JsonValidator(metrics).valid());
  EXPECT_EQ(metrics.find("wall_ms"), std::string::npos);
  EXPECT_NE(metrics.find("service.cases.computed"), std::string::npos);

  // And the merged trace is a valid single-timeline Chrome trace.
  const std::string trace = read_file(tdir + "/trace.json");
  EXPECT_TRUE(JsonValidator(trace).valid());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace lcosc::obs
