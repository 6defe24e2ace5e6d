// Unit tests of the telemetry layer (src/obs/): metrics registry
// (counters, gauges, histograms, snapshots), scoped span tracer and the
// structured JSONL event log, plus the LCOSC_LOG_LEVEL handling and the
// structured routing of log_message.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace lcosc::obs {
namespace {

// Every test starts from a known telemetry state; the registry is
// process-wide, so values are reset rather than re-created.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    set_trace_enabled(false);
    MetricsRegistry::instance().reset();
    clear_trace();
  }
  void TearDown() override {
    set_event_capture(nullptr);
    set_metrics_enabled(false);
    set_trace_enabled(false);
    clear_trace();
  }
};

// --- metrics --------------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAcrossThreads) {
  Counter& c = MetricsRegistry::instance().counter("test.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.total(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(ObsTest, DisabledCounterIsANoOp) {
  Counter& c = MetricsRegistry::instance().counter("test.disabled");
  set_metrics_enabled(false);
  c.add(42);
  EXPECT_EQ(c.total(), 0u);
  set_metrics_enabled(true);
  c.add(1);
  EXPECT_EQ(c.total(), 1u);
}

TEST_F(ObsTest, RegistryFindsOrCreatesByName) {
  auto& registry = MetricsRegistry::instance();
  Counter& a = registry.counter("test.same");
  Counter& b = registry.counter("test.same");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.gauge("test.gauge");
  Gauge& g2 = registry.gauge("test.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.histogram("test.hist", {1.0, 2.0});
  // A second registration ignores the (different) bounds.
  Histogram& h2 = registry.histogram("test.hist", {5.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST_F(ObsTest, GaugeTracksValueAndPeak) {
  Gauge& g = MetricsRegistry::instance().gauge("test.level");
  g.set(3.0);
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  EXPECT_DOUBLE_EQ(g.peak(), 3.0);
  g.add(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.5);
  EXPECT_DOUBLE_EQ(g.peak(), 5.5);
  g.add(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  EXPECT_DOUBLE_EQ(g.peak(), 5.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_DOUBLE_EQ(g.peak(), 0.0);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  // bucket 0: <= 1, bucket 1: <= 10, bucket 2: > 10 (overflow).
  Histogram& h = MetricsRegistry::instance().histogram("test.edges", {1.0, 10.0});
  h.record(0.5);
  h.record(1.0);  // on the boundary -> bucket 0
  h.record(1.0001);
  h.record(10.0);
  h.record(11.0);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.5);
  EXPECT_DOUBLE_EQ(h.max_seen(), 11.0);
}

TEST_F(ObsTest, HistogramRecordManyMatchesRepeatedRecord) {
  Histogram& h = MetricsRegistry::instance().histogram("test.many", {2.0, 4.0});
  h.record_many(1.0, 7);
  h.record_many(3.0, 2);
  EXPECT_EQ(h.count(), 9u);
  const std::vector<std::uint64_t> counts = h.bucket_counts();
  EXPECT_EQ(counts[0], 7u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 0u);
}

TEST_F(ObsTest, SnapshotIsSortedAndSearchable) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("zz.last").add(2);
  registry.counter("aa.first").add(1);
  registry.gauge("mm.gauge").set(7.0);
  registry.histogram("hh.hist", {1.0}).record(0.5);

  const MetricsSnapshot snap = registry.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  const CounterSnapshot* first = snap.find_counter("aa.first");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value, 1u);
  const GaugeSnapshot* gauge = snap.find_gauge("mm.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->value, 7.0);
  const HistogramSnapshot* hist = snap.find_histogram("hh.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_EQ(snap.find_counter("no.such"), nullptr);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsDefinitions) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("keep.counter").add(5);
  registry.histogram("keep.hist", {1.0, 2.0}).record(1.5);
  registry.reset();
  const MetricsSnapshot snap = registry.snapshot();
  const CounterSnapshot* c = snap.find_counter("keep.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 0u);
  const HistogramSnapshot* h = snap.find_histogram("keep.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  EXPECT_EQ(h->bounds.size(), 2u);
}

TEST_F(ObsTest, SnapshotJsonContainsAllSections) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("json.counter").add(3);
  registry.gauge("json.gauge").set(2.5);
  registry.histogram("json.hist", {1.0}).record(4.0);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"json.counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
}

TEST_F(ObsTest, EnvFlagParsing) {
  ::setenv("LCOSC_TEST_FLAG", "1", 1);
  EXPECT_TRUE(env_flag("LCOSC_TEST_FLAG", false));
  ::setenv("LCOSC_TEST_FLAG", "off", 1);
  EXPECT_FALSE(env_flag("LCOSC_TEST_FLAG", true));
  ::setenv("LCOSC_TEST_FLAG", "TRUE", 1);
  EXPECT_TRUE(env_flag("LCOSC_TEST_FLAG", false));
  ::setenv("LCOSC_TEST_FLAG", "garbage", 1);
  EXPECT_TRUE(env_flag("LCOSC_TEST_FLAG", true));
  EXPECT_FALSE(env_flag("LCOSC_TEST_FLAG", false));
  ::unsetenv("LCOSC_TEST_FLAG");
  EXPECT_TRUE(env_flag("LCOSC_TEST_FLAG", true));
}

// --- tracer ---------------------------------------------------------------

TEST_F(ObsTest, SpanRecordsCompleteEvent) {
  set_trace_enabled(true);
  {
    LCOSC_SPAN("unit.span");
    trace_instant("unit.instant");
  }
  const std::vector<TraceEventRecord> events = trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(trace_event_count(), 2u);

  const TraceEventRecord* span = nullptr;
  const TraceEventRecord* instant = nullptr;
  for (const auto& e : events) {
    if (e.name == "unit.span") span = &e;
    if (e.name == "unit.instant") instant = &e;
  }
  ASSERT_NE(span, nullptr);
  ASSERT_NE(instant, nullptr);
  EXPECT_EQ(span->phase, 'X');
  EXPECT_EQ(instant->phase, 'i');
  EXPECT_GE(span->dur_us, 0.0);
  // The instant fired inside the span.
  EXPECT_GE(instant->ts_us, span->ts_us);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  {
    LCOSC_SPAN("unit.off");
    trace_instant("unit.off.instant");
  }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_TRUE(trace_snapshot().empty());
}

TEST_F(ObsTest, TraceSnapshotSortedByThreadAndTime) {
  set_trace_enabled(true);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 16; ++i) {
        Span span("mt.span");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<TraceEventRecord> events = trace_snapshot();
  EXPECT_EQ(events.size(), 64u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const bool ordered = events[i - 1].tid < events[i].tid ||
                         (events[i - 1].tid == events[i].tid &&
                          events[i - 1].ts_us <= events[i].ts_us);
    EXPECT_TRUE(ordered) << "event " << i << " out of (tid, ts) order";
  }
}

TEST_F(ObsTest, TraceEventLimitCountsDrops) {
  set_trace_enabled(true);
  set_trace_event_limit(4);
  for (int i = 0; i < 10; ++i) trace_instant("drop.me");
  EXPECT_EQ(trace_event_count(), 4u);
  EXPECT_EQ(trace_dropped_count(), 6u);
  set_trace_event_limit(1u << 20);
  clear_trace();
  EXPECT_EQ(trace_dropped_count(), 0u);
}

TEST_F(ObsTest, WriteChromeTraceProducesLoadableJson) {
  set_trace_enabled(true);
  {
    LCOSC_SPAN("file.span");
  }
  trace_instant("file.instant");
  trace_instant("tab\tin name");
  const std::string path = "obs_test_artifacts/trace_unit.json";
  ASSERT_TRUE(write_chrome_trace(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"file.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // Control characters are escaped, not dropped.
  EXPECT_NE(json.find("\"tab\\tin name\""), std::string::npos);
  std::filesystem::remove_all("obs_test_artifacts");
}

// --- event log ------------------------------------------------------------

TEST_F(ObsTest, EventsAreCapturedAsJsonLines) {
  std::vector<std::string> lines;
  set_event_capture(&lines);
  ASSERT_TRUE(events_enabled());
  // 1.50000390625e-3 and the double after 1 need 12 and 17 significant
  // digits: the line must carry text that reads back bit for bit.
  const double precise = 1.50000390625e-3;
  const double next_after_one = std::nextafter(1.0, 2.0);
  {
    Event("unit.event")
        .num("t", 1.5)
        .integer("n", -3)
        .boolean("ok", true)
        .str("s", "x")
        .num("precise", precise)
        .num("next", next_after_one);
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"unit.event\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"t\": 1.5,"), std::string::npos);
  const auto read_back = [&](const std::string& key) {
    const std::size_t at = lines[0].find("\"" + key + "\": ");
    if (at == std::string::npos) return std::nan("");
    return std::strtod(lines[0].c_str() + at + key.size() + 4, nullptr);
  };
  EXPECT_EQ(std::bit_cast<std::uint64_t>(read_back("precise")),
            std::bit_cast<std::uint64_t>(precise))
      << lines[0];
  EXPECT_EQ(std::bit_cast<std::uint64_t>(read_back("next")),
            std::bit_cast<std::uint64_t>(next_after_one))
      << lines[0];
  EXPECT_NE(lines[0].find("\"n\": -3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"s\": \"x\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"seq\": "), std::string::npos);
}

TEST_F(ObsTest, EventStringsAreEscaped) {
  std::vector<std::string> lines;
  set_event_capture(&lines);
  { Event("unit.escape").str("msg", "a \"quoted\"\nline\\"); }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("a \\\"quoted\\\"\\nline\\\\"), std::string::npos);
  // The line itself must stay single-line JSONL.
  EXPECT_EQ(lines[0].find('\n'), std::string::npos);
}

TEST_F(ObsTest, EventContextLabelsAreAttachedInnermostWins) {
  std::vector<std::string> lines;
  set_event_capture(&lines);
  {
    EventContext outer("outer");
    { Event("unit.ctx"); }
    {
      EventContext inner("inner");
      { Event("unit.ctx"); }
    }
    { Event("unit.ctx"); }
  }
  { Event("unit.ctx"); }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"ctx\": \"outer\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ctx\": \"inner\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ctx\": \"outer\""), std::string::npos);
  EXPECT_EQ(lines[3].find("\"ctx\""), std::string::npos);
}

TEST_F(ObsTest, SequenceNumbersIncrease) {
  std::vector<std::string> lines;
  set_event_capture(&lines);
  { Event("seq.a"); }
  { Event("seq.b"); }
  ASSERT_EQ(lines.size(), 2u);
  auto seq_of = [](const std::string& line) {
    const std::size_t pos = line.find("\"seq\": ");
    return std::strtoll(line.c_str() + pos + 7, nullptr, 10);
  };
  EXPECT_LT(seq_of(lines[0]), seq_of(lines[1]));
}

TEST_F(ObsTest, FileSinkWritesJsonl) {
  const std::string path = "obs_test_artifacts/events_unit.jsonl";
  ASSERT_TRUE(open_event_log(path));
  EXPECT_TRUE(events_enabled());
  { Event("file.event").integer("k", 7); }
  close_event_log();
  EXPECT_FALSE(events_enabled());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"type\": \"file.event\""), std::string::npos);
  EXPECT_NE(line.find("\"k\": 7"), std::string::npos);
  std::filesystem::remove_all("obs_test_artifacts");
}

// --- logging integration --------------------------------------------------

TEST_F(ObsTest, ParseLogLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("Warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("none"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

TEST_F(ObsTest, LogMessagesRouteIntoTheEventLog) {
  const LogLevel saved = log_level();
  std::vector<std::string> lines;
  set_event_capture(&lines);
  set_log_level(LogLevel::Info);
  log_message(LogLevel::Warn, "newton struggling");
  log_message(LogLevel::Debug, "below threshold");  // filtered out
  set_log_level(saved);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\": \"log\""), std::string::npos);
  EXPECT_NE(lines[0].find("newton struggling"), std::string::npos);
}

}  // namespace
}  // namespace lcosc::obs
