// End-to-end contract of the sharded campaign service (DESIGN.md §13):
// the merged report is byte-identical to the uninterrupted
// single-process run for any shard count, any kill/resume schedule, any
// checkpoint truncation, and any restart count.  This binary defines its
// own main(): the coordinator re-execs the test executable itself as the
// shard worker, so maybe_run_shard() must run before gtest does.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/campaign.h"
#include "common/error.h"
#include "json_validator.h"
#include "service/adapters.h"
#include "service/flat_json.h"
#include "service/supervisor.h"
#include "service/telemetry_merge.h"

namespace lcosc::service {
namespace {

namespace fs = std::filesystem;
using lcosc::testutil::JsonValidator;

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Save/restore one environment variable so telemetry toggles set for the
// exec'd shard workers never leak into later tests.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) saved_ = value;
  }
  ~EnvGuard() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Parse every forensics row under `checkpoint_dir` into key -> raw-value
// maps (one per line).
std::vector<std::map<std::string, std::string>> forensics_rows(
    const std::string& checkpoint_dir) {
  std::vector<std::map<std::string, std::string>> rows;
  std::ifstream in(forensics_path(checkpoint_dir));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, std::string> fields;
    parse_flat_object(line, "forensics",
                      [&](const std::string& key, const std::string& value, bool) {
                        fields[key] = value;
                      });
    rows.push_back(std::move(fields));
  }
  return rows;
}

CampaignSpec small_tolerance_spec() {
  CampaignSpec spec;
  spec.kind = CampaignKind::Tolerance;
  spec.samples = 6;
  spec.seed = 7;
  // Keep supervision snappy: restarts in tests should wait milliseconds.
  spec.restart_backoff = RetryBackoff{.initial_ms = 5, .multiplier = 2.0, .max_ms = 50};
  return spec;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lcosc_svc_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // A fresh checkpoint directory under this test's root.
  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }

  // The uninterrupted single-process reference all other runs must match.
  [[nodiscard]] std::string reference_report(CampaignSpec spec) {
    spec.shards = 1;
    spec.checkpoint_dir = subdir("reference");
    fs::remove_all(spec.checkpoint_dir);
    return run_campaign_service(spec).report;
  }

  fs::path dir_;
};

TEST(ServiceSpec, JsonRoundTripsIncludingNonDefaults) {
  CampaignSpec spec;
  spec.kind = CampaignKind::InternalFmea;
  spec.seed = 99;
  spec.samples = 17;
  spec.shards = 4;
  spec.workers_per_shard = 3;
  spec.max_restarts = 5;
  spec.shard_timeout_ms = 1500;
  spec.case_backoff = RetryBackoff{.initial_ms = 2, .multiplier = 3.0, .max_ms = 20};
  spec.checkpoint_dir = "/tmp/with|pipe and \"quote\"";
  spec.report_path = "/tmp/report.txt";
  spec.test_kill_after_cases = 2;
  spec.test_stall_once = true;

  const CampaignSpec parsed = parse_campaign_spec(to_json(spec));
  EXPECT_EQ(to_json(parsed), to_json(spec));
  EXPECT_EQ(parsed.kind, CampaignKind::InternalFmea);
  EXPECT_EQ(parsed.case_backoff, spec.case_backoff);
  EXPECT_EQ(parsed.checkpoint_dir, spec.checkpoint_dir);
}

TEST(ServiceSpec, MissingKeysKeepDefaults) {
  const CampaignSpec spec = parse_campaign_spec(R"({"campaign": "fmea"})");
  EXPECT_EQ(spec.kind, CampaignKind::ExternalFmea);
  EXPECT_EQ(spec.shards, 1);
  EXPECT_EQ(spec.max_restarts, 2);
  EXPECT_EQ(spec.restart_backoff.initial_ms, 100);
}

TEST(ServiceSpec, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)parse_campaign_spec(R"({"campain": "fmea"})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"campaign": "fme"})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"samples": 0})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"shards": -1})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"samples": 1.5})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"test_stall_once": "yes"})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"samples": 4)"), ConfigError);  // truncated
  EXPECT_THROW((void)parse_campaign_spec(R"({"samples": 4} trailing)"), ConfigError);
  // Integers beyond int are refused, never narrowed (a double-to-int cast
  // out of range is undefined behaviour).
  EXPECT_THROW((void)parse_campaign_spec(R"({"test_kill_after_cases": 3e9})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"case_backoff_max_ms": -1e10})"), ConfigError);
  EXPECT_EQ(parse_campaign_spec(R"({"test_kill_after_cases": 2147483647})").test_kill_after_cases,
            2147483647);
  // Members of the wrong JSON type are refused, not coerced: a string
  // never becomes a number (strtod would skip the blank and read the
  // hex), and a number never becomes a path or a campaign name.
  EXPECT_THROW((void)parse_campaign_spec(
                   R"({"samples": "4", "shard_timeout_ms": " 5", "max_retries": "0x2"})"),
               ConfigError);
  for (const char* json :
       {R"({"samples": "4"})", R"({"shard_timeout_ms": " 5"})", R"({"max_retries": "0x2"})",
        R"({"seed": "4"})", R"({"settle_ms": "1"})", R"({"restart_backoff_multiplier": "2"})",
        R"({"checkpoint_dir": 5})", R"({"report_path": true})", R"({"campaign": 1})"}) {
    EXPECT_THROW((void)parse_campaign_spec(json), ConfigError) << json;
  }
  EXPECT_EQ(parse_campaign_spec(R"({"checkpoint_dir": "5"})").checkpoint_dir, "5");
}

TEST(ServiceSpec, SeedRoundTripsExactlyAbove53Bits) {
  // Seeds above 2^53 are not representable as doubles; a strtod-based
  // parse would hand re-parsing workers a different seed than the
  // coordinator and silently break the byte-identical-report contract.
  CampaignSpec spec;
  spec.seed = 9007199254740993ULL;  // 2^53 + 1
  EXPECT_EQ(parse_campaign_spec(to_json(spec)).seed, 9007199254740993ULL);
  spec.seed = 18446744073709551615ULL;  // 2^64 - 1
  EXPECT_EQ(parse_campaign_spec(to_json(spec)).seed, 18446744073709551615ULL);
  EXPECT_THROW((void)parse_campaign_spec(R"({"seed": -1})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"seed": 1.5})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"seed": 99999999999999999999})"),
               ConfigError);  // > 2^64 - 1
}

TEST(ServiceSpec, PathsWithControlCharactersRoundTrip) {
  CampaignSpec spec;
  spec.checkpoint_dir = "/tmp/tab\there\rand\x01" "ctl";
  spec.report_path = "bell\b_feed\f_line\n";
  const std::string json = to_json(spec);
  // Valid JSON for external tooling: no raw control characters inside
  // string values (the newlines between members are outside strings).
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  const CampaignSpec parsed = parse_campaign_spec(json);
  EXPECT_EQ(parsed.checkpoint_dir, spec.checkpoint_dir);
  EXPECT_EQ(parsed.report_path, spec.report_path);
}

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(ServiceSpec, DurationsRoundTripExactly) {
  // The campaign benchmark's injection instants 6 +- k/128 ms and the
  // observe windows filling its 16 ms case: spec.json stores them in ms,
  // and the coordinator, every shard worker and every resume must read
  // back the same bits, however many trips a spec makes.
  std::vector<double> durations;
  for (int k = 0; k <= 32; ++k) {
    const double settle = (6.0 + (k - 16) / 128.0) * 1e-3;
    durations.push_back(settle);
    durations.push_back(16e-3 - settle);
  }
  // Other magnitudes, the extreme ones written with an exponent, and zero.
  for (const double v : {10.0390625e-3, 0.1e-3, 1e-9, 1e-300, 5e-324, 1.5e300, 0.0, -0.0}) {
    durations.push_back(v);
  }
  for (const double d : durations) {
    CampaignSpec spec;
    spec.run_duration = d;
    spec.settle_time = d;
    spec.observe_time = d;
    CampaignSpec trip = spec;
    for (int round = 0; round < 3; ++round) {
      const std::string json = to_json(trip);
      trip = parse_campaign_spec(json);
      EXPECT_EQ(hex(trip.run_duration), hex(d)) << json;
      EXPECT_EQ(hex(trip.settle_time), hex(d)) << json;
      EXPECT_EQ(hex(trip.observe_time), hex(d)) << json;
    }
  }
  // The ms text is the shortest decimal of the seconds value, so round
  // instants stay readable.
  CampaignSpec spec;
  spec.settle_time = 5.9140625e-3;
  spec.observe_time = 16e-3 - spec.settle_time;
  const std::string json = to_json(spec);
  EXPECT_NE(json.find("\"settle_ms\": 5.9140625,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"run_duration_ms\": 20,"), std::string::npos) << json;
  // Exponents in the ms token shift too; a malformed one is refused.
  EXPECT_EQ(hex(parse_campaign_spec(R"({"settle_ms": 5.9140625e0})").settle_time),
            hex(spec.settle_time));
  EXPECT_EQ(hex(parse_campaign_spec(R"({"observe_ms": 1E+3})").observe_time), hex(1.0));
  EXPECT_THROW((void)parse_campaign_spec(R"({"settle_ms": "6e"})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"settle_ms": 1e400})"), ConfigError);
}

TEST(ServiceSpec, DeterminismSignatureIgnoresSupervisionKnobs) {
  CampaignSpec a;
  CampaignSpec b = a;
  b.shards = 7;
  b.workers_per_shard = 3;
  b.max_restarts = 9;
  b.shard_timeout_ms = 123;
  b.checkpoint_dir = "/somewhere/else";
  b.report_path = "/report";
  b.test_kill_after_cases = 1;
  EXPECT_EQ(determinism_signature(a), determinism_signature(b));
  b.seed = a.seed + 1;
  EXPECT_NE(determinism_signature(a), determinism_signature(b));
  b.seed = a.seed;
  b.samples = a.samples + 1;
  EXPECT_NE(determinism_signature(a), determinism_signature(b));
}

TEST(ServiceShardCli, GarbageShardValuesFailInsteadOfBecomingShardZero) {
  // atoi("garbage") == 0 would silently duplicate shard 0's work; the
  // worker must instead exit with its config-error status.
  const char* argv[] = {"prog",          "--lcosc-shard",       "garbage",
                        "--lcosc-shard-count", "2",             "--lcosc-spec",
                        "/nonexistent"};
  const auto exit_code = maybe_run_shard(7, const_cast<char**>(argv));
  ASSERT_TRUE(exit_code.has_value());
  EXPECT_EQ(*exit_code, 3);

  const char* argv2[] = {"prog",          "--lcosc-shard",       "1x",
                         "--lcosc-shard-count", "2",             "--lcosc-spec",
                         "/nonexistent"};
  const auto exit_code2 = maybe_run_shard(7, const_cast<char**>(argv2));
  ASSERT_TRUE(exit_code2.has_value());
  EXPECT_EQ(*exit_code2, 3);
}

TEST(ServiceSharding, RangesPartitionTheCampaign) {
  for (const std::size_t total : {0u, 1u, 7u, 48u}) {
    for (const int shards : {1, 2, 3, 5}) {
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (int s = 0; s < shards; ++s) {
        const CaseRange range = shard_case_range(total, s, shards);
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_LE(range.size(), total / static_cast<std::size_t>(shards) + 1);
        expected_begin = range.end;
        covered += range.size();
      }
      EXPECT_EQ(covered, total);
      EXPECT_EQ(expected_begin, total);
    }
  }
  EXPECT_THROW((void)shard_case_range(10, 2, 2), Error);
  EXPECT_THROW((void)shard_case_range(10, -1, 2), Error);
}

TEST_F(ServiceTest, ReportIsByteIdenticalForAnyShardCount) {
  CampaignSpec spec = small_tolerance_spec();
  const std::string reference = reference_report(spec);
  ASSERT_FALSE(reference.empty());

  for (const int shards : {2, 3}) {
    spec.shards = shards;
    spec.checkpoint_dir = subdir("shards_" + std::to_string(shards));
    const ServiceResult result = run_campaign_service(spec);
    EXPECT_EQ(result.report, reference) << shards << " shards";
    EXPECT_FALSE(result.degraded());
    EXPECT_EQ(result.cases_total, 6u);
    EXPECT_EQ(result.cases_resumed, 0u);
  }
}

TEST_F(ServiceTest, CheckpointProgressCountsCommittedCasesPerShard) {
  CampaignSpec spec = small_tolerance_spec();
  spec.shards = 2;
  spec.checkpoint_dir = subdir("progress");
  // No spec.json, no shard layout: not a checkpoint directory.
  EXPECT_THROW((void)checkpoint_progress(spec.checkpoint_dir), ConfigError);

  // Before the run: the directory as the coordinator leaves it once it
  // has persisted the spec and before any worker commits a case.
  fs::create_directories(spec.checkpoint_dir);
  {
    std::ofstream out(spec.checkpoint_dir + "/spec.json", std::ios::binary);
    out << to_json(spec);
  }
  const CheckpointProgress before = checkpoint_progress(spec.checkpoint_dir);
  EXPECT_EQ(before.cases_total, 6u);
  EXPECT_EQ(before.cases_done, 0u);
  ASSERT_EQ(before.shards.size(), 2u);
  EXPECT_EQ(before.shards[0].range, (CaseRange{0, 3}));
  EXPECT_EQ(before.shards[1].range, (CaseRange{3, 6}));

  // A partial run: every worker dies after committing one case and no
  // restart is allowed, so each shard holds 1 of its 3 cases.
  spec.test_kill_after_cases = 1;
  spec.max_restarts = 0;
  ASSERT_TRUE(run_campaign_service(spec).degraded());
  const CheckpointProgress partial = checkpoint_progress(spec.checkpoint_dir);
  EXPECT_EQ(partial.cases_done, 2u);
  ASSERT_EQ(partial.shards.size(), 2u);
  for (const CheckpointProgress::Shard& shard : partial.shards) {
    EXPECT_EQ(shard.done, 1u) << shard.index;
  }

  // Completion, then a rerun under 3 shards: the layout follows the
  // spec.json of the latest run, the counts the checkpoint streams.
  spec.test_kill_after_cases = 0;
  ASSERT_FALSE(run_campaign_service(spec).degraded());
  const CheckpointProgress after = checkpoint_progress(spec.checkpoint_dir);
  EXPECT_EQ(after.cases_done, 6u);
  for (const CheckpointProgress::Shard& shard : after.shards) {
    EXPECT_EQ(shard.done, shard.range.size()) << shard.index;
  }
  spec.shards = 3;
  ASSERT_EQ(run_campaign_service(spec).cases_resumed, 6u);
  const CheckpointProgress resharded = checkpoint_progress(spec.checkpoint_dir);
  EXPECT_EQ(resharded.cases_done, 6u);
  ASSERT_EQ(resharded.shards.size(), 3u);
  for (const CheckpointProgress::Shard& shard : resharded.shards) {
    EXPECT_EQ(shard.done, 2u) << shard.index;
  }
}

TEST_F(ServiceTest, WorkersKilledAfterEveryCaseStillDeliverTheReferenceReport) {
  CampaignSpec spec = small_tolerance_spec();
  const std::string reference = reference_report(spec);

  // Every spawn commits exactly one fresh case, then dies like a kill -9
  // (_exit, no cleanup).  Progress is one case per life, so the restart
  // budget must cover cases-per-shard deaths.
  spec.shards = 2;
  spec.max_restarts = 8;
  spec.test_kill_after_cases = 1;
  spec.checkpoint_dir = subdir("killed");
  const ServiceResult result = run_campaign_service(spec);

  EXPECT_EQ(result.report, reference);
  EXPECT_FALSE(result.degraded());
  for (const ShardStatus& shard : result.shards) {
    EXPECT_GE(shard.restarts, 2);  // 3 cases per shard, one per life
    EXPECT_TRUE(shard.ok);
  }
}

TEST_F(ServiceTest, ExhaustedRestartBudgetDegradesInsteadOfAborting) {
  CampaignSpec spec = small_tolerance_spec();
  spec.shards = 2;
  spec.max_restarts = 0;
  spec.test_kill_after_cases = 1;
  spec.checkpoint_dir = subdir("degraded");
  const ServiceResult result = run_campaign_service(spec);

  // One case per shard survived; the rest are synthesized error rows.
  EXPECT_TRUE(result.degraded());
  EXPECT_EQ(result.cases_failed, 4u);
  EXPECT_NE(result.report.find("simulation-error"), std::string::npos);
  EXPECT_NE(result.report.find("shard failed permanently"), std::string::npos);

  // Resuming the same directory with the hook disarmed -- and a
  // different shard count -- completes the campaign and converges to the
  // reference bytes.
  spec.test_kill_after_cases = 0;
  spec.max_restarts = 2;
  spec.shards = 3;
  const ServiceResult resumed = run_campaign_service(spec);
  EXPECT_FALSE(resumed.degraded());
  EXPECT_EQ(resumed.cases_resumed, 2u);
  EXPECT_EQ(resumed.report, reference_report(spec));
}

TEST_F(ServiceTest, ResumeUnderADifferentSpecIsRefused) {
  CampaignSpec spec = small_tolerance_spec();
  spec.checkpoint_dir = subdir("mismatch");
  ASSERT_FALSE(run_campaign_service(spec).report.empty());

  // Changing any record-content field must refuse the directory: merging
  // checkpoints computed under the old seed/samples would silently
  // corrupt the report.
  CampaignSpec changed = spec;
  changed.seed += 1;
  EXPECT_THROW((void)run_campaign_service(changed), ConfigError);
  changed = spec;
  changed.samples += 2;
  EXPECT_THROW((void)run_campaign_service(changed), ConfigError);

  // Supervision/sharding knobs may change freely between resumes.
  CampaignSpec resharded = spec;
  resharded.shards = 2;
  resharded.max_restarts = 5;
  const ServiceResult resumed = run_campaign_service(resharded);
  EXPECT_EQ(resumed.cases_resumed, 6u);
  EXPECT_EQ(resumed.report, reference_report(spec));
}

TEST_F(ServiceTest, RerunOnItsOwnFinishedCheckpointsIsAccepted) {
  // 10.0390625 ms as the campaign benchmark computes it (the observe
  // window after an injection at 6 - 5/128 ms): its ms text used to read
  // back one ulp off, so the rerun's determinism signature no longer
  // matched the spec.json the first run wrote.
  CampaignSpec spec = small_tolerance_spec();
  spec.samples = 2;
  spec.run_duration = 16e-3 - (6.0 - 5.0 / 128.0) * 1e-3;
  spec.checkpoint_dir = subdir("rerun");
  const ServiceResult first = run_campaign_service(spec);
  ASSERT_FALSE(first.degraded());
  const ServiceResult again = run_campaign_service(spec);
  EXPECT_EQ(again.cases_resumed, 2u);
  EXPECT_EQ(again.report, first.report);
}

TEST_F(ServiceTest, TruncatedCheckpointsResumeToTheReferenceReport) {
  CampaignSpec spec = small_tolerance_spec();
  const std::string reference = reference_report(spec);

  spec.shards = 2;
  spec.checkpoint_dir = subdir("torn");
  ASSERT_EQ(run_campaign_service(spec).report, reference);

  const std::string ckpt = spec.checkpoint_dir + "/shard_0_of_2.ckpt";
  std::string bytes;
  {
    std::ifstream in(ckpt, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 20u);

  // Tear the shard-0 stream at assorted offsets, including mid-record
  // and mid-header, and resume each time: the service must recompute
  // exactly the lost cases and land on the same bytes.
  for (const std::size_t cut :
       {bytes.size() - 1, bytes.size() - 7, bytes.size() / 2, std::size_t{5}, std::size_t{0}}) {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();

    const ServiceResult resumed = run_campaign_service(spec);
    EXPECT_EQ(resumed.report, reference) << "cut at byte " << cut;
    EXPECT_FALSE(resumed.degraded());
  }
}

TEST_F(ServiceTest, StalledWorkerIsKilledOnTimeoutAndRestartDelivers) {
  CampaignSpec spec = small_tolerance_spec();
  const std::string reference = reference_report(spec);

  // First spawn of each shard wedges forever; the watchdog must SIGKILL
  // it and the restart (disarmed by the sentinel) must finish the work.
  spec.shards = 2;
  spec.shard_timeout_ms = 250;
  spec.test_stall_once = true;
  spec.checkpoint_dir = subdir("stalled");
  const ServiceResult result = run_campaign_service(spec);

  EXPECT_EQ(result.report, reference);
  EXPECT_FALSE(result.degraded());
  for (const ShardStatus& shard : result.shards) {
    EXPECT_GE(shard.timeouts, 1);
    EXPECT_GE(shard.spawns, 2);
  }

  // The watchdog kill left a forensics row naming the signal: event
  // "timeout", SIGKILL, and per-row attempt/rusage fields present.
  int timeout_rows = 0;
  for (const auto& row : forensics_rows(spec.checkpoint_dir)) {
    if (row.at("event") != "timeout") continue;
    ++timeout_rows;
    EXPECT_EQ(row.at("signal_name"), "SIGKILL");
    EXPECT_EQ(row.at("attempt"), "1");  // only the first spawn stalls
    EXPECT_TRUE(row.count("max_rss_kb"));
    EXPECT_TRUE(row.count("wall_s"));
  }
  EXPECT_EQ(timeout_rows, 2);
}

TEST_F(ServiceTest, FleetTelemetryArtifactsMergeDeterministicallyAcrossShardCounts) {
  // Workers are fork/exec'd, so telemetry toggles reach them through the
  // environment; the guards restore whatever the test runner had.
  EnvGuard metrics_env("LCOSC_METRICS");
  EnvGuard trace_env("LCOSC_TRACE");
  EnvGuard events_env("LCOSC_EVENTS");
  ::setenv("LCOSC_METRICS", "1", 1);
  ::setenv("LCOSC_TRACE", "1", 1);

  // Both FMEA kinds drain each shard's span on one shared settle prefix,
  // so the shard layout decides how many prefixes run; the merged
  // counters must not depend on it.  Short cases keep the 42 internal
  // faults cheap; the 1 ms settle still holds 4 regulation ticks.
  CampaignSpec internal_spec = small_tolerance_spec();
  internal_spec.kind = CampaignKind::InternalFmea;
  internal_spec.settle_time = 1e-3;
  internal_spec.observe_time = 1e-3;
  CampaignSpec external_spec = internal_spec;
  external_spec.kind = CampaignKind::ExternalFmea;
  external_spec.observe_time = 2e-3;

  struct Layouts {
    CampaignSpec spec;
    std::vector<int> shard_counts;
    std::size_t cases;
  };
  for (const Layouts& run : {Layouts{small_tolerance_spec(), {1, 2, 3}, 6},
                             Layouts{internal_spec, {1, 2}, 42},
                             Layouts{external_spec, {1, 2}, 8}}) {
    CampaignSpec spec = run.spec;
    const std::string kind = to_string(spec.kind);
    std::map<int, std::string> metrics_bytes;
    for (const int shards : run.shard_counts) {
      spec.shards = shards;
      spec.checkpoint_dir = subdir("fleet_" + kind + "_" + std::to_string(shards));
      // Exercise the event-log path too: the env seed file is replaced by
      // the per-shard flush file as soon as the worker opens it.
      ::setenv("LCOSC_EVENTS", (spec.checkpoint_dir + "/events_seed.jsonl").c_str(), 1);
      const ServiceResult result = run_campaign_service(spec);
      ASSERT_FALSE(result.degraded()) << kind;

      const std::string tdir = telemetry_dir(spec.checkpoint_dir);
      ASSERT_TRUE(fs::exists(tdir + "/metrics.json")) << kind << " " << shards << " shards";
      metrics_bytes[shards] = file_bytes(tdir + "/metrics.json");

      // The merged fleet trace: valid JSON, one pid per shard, and
      // timestamps monotone non-decreasing within every pid.
      const std::string trace = file_bytes(tdir + "/trace.json");
      EXPECT_TRUE(JsonValidator(trace).valid()) << kind << " " << shards << " shards";
      EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
      EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
      std::map<int, double> last_ts;
      std::istringstream lines(trace);
      std::string line;
      while (std::getline(lines, line)) {
        const std::size_t pid_at = line.find("\"pid\": ");
        const std::size_t ts_at = line.find("\"ts\": ");
        if (pid_at == std::string::npos || ts_at == std::string::npos) continue;
        const int pid = std::stoi(line.substr(pid_at + 7));
        const double ts = std::stod(line.substr(ts_at + 6));
        EXPECT_LT(pid, shards);
        const auto it = last_ts.find(pid);
        if (it != last_ts.end()) {
          EXPECT_GE(ts, it->second) << line;
        }
        last_ts[pid] = ts;
      }
      EXPECT_FALSE(last_ts.empty());

      // summary.json carries the wall-clock case-latency quantiles.
      const std::string summary = file_bytes(tdir + "/summary.json");
      EXPECT_TRUE(JsonValidator(summary).valid());
      EXPECT_NE(summary.find("\"service.case.wall_ms\""), std::string::npos);
      EXPECT_NE(summary.find("\"p50\""), std::string::npos);
      EXPECT_NE(summary.find("\"p95\""), std::string::npos);
      EXPECT_NE(summary.find("\"p99\""), std::string::npos);

      // Events concatenated in shard order, each line a flat object
      // tagged with its shard.
      const std::string events = file_bytes(tdir + "/events.jsonl");
      ASSERT_FALSE(events.empty());
      EXPECT_NE(events.find("\"shard\": 0"), std::string::npos);
    }

    // The deterministic artifact: byte-identical for every shard layout
    // (wall-clock histograms and gauges are excluded by design).
    const std::string& first = metrics_bytes.begin()->second;
    EXPECT_FALSE(first.empty()) << kind;
    for (const auto& [shards, bytes] : metrics_bytes) {
      EXPECT_EQ(first, bytes) << kind << ": " << shards << " shards";
    }
    EXPECT_EQ(first.find("wall_ms"), std::string::npos) << kind;
    EXPECT_NE(first.find("\"service.cases.computed\": " + std::to_string(run.cases)),
              std::string::npos)
        << first;
    if (spec.kind != CampaignKind::Tolerance) {
      EXPECT_NE(first.find("\"fsm.ticks\""), std::string::npos) << first;
    }
  }
}

TEST_F(ServiceTest, SharedCasesNameTheCaseTheyFollowedInTheFleetEventLog) {
  // Internal faults whose drive stages agree share one continuation in a
  // shard's span (DESIGN.md §18).  The event log tells them apart: the
  // campaign.case event of a case that followed another one's trajectory
  // names that case and the simulated time it left.
  EnvGuard events_env("LCOSC_EVENTS");
  CampaignSpec spec = small_tolerance_spec();
  spec.kind = CampaignKind::InternalFmea;
  spec.settle_time = 1e-3;
  spec.observe_time = 1e-3;
  spec.checkpoint_dir = subdir("shared_events");
  ::setenv("LCOSC_EVENTS", (spec.checkpoint_dir + "/events_seed.jsonl").c_str(), 1);
  const ServiceResult result = run_campaign_service(spec);
  ASSERT_FALSE(result.degraded());

  std::map<std::string, std::map<std::string, std::string>> cases;  // ctx -> fields
  std::ifstream in(telemetry_dir(spec.checkpoint_dir) + "/events.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\": \"campaign.case\"") == std::string::npos) continue;
    std::map<std::string, std::string> fields;
    parse_flat_object(line, "event", [&](const std::string& key, const std::string& value,
                                         bool) { fields[key] = value; });
    cases[fields["ctx"]] = fields;
  }
  ASSERT_EQ(cases.size(), 42u);
  std::size_t shared = 0;
  for (const auto& [ctx, fields] : cases) {
    EXPECT_EQ(ctx, "internal_fmea:" + fields.at("fault"));
    const auto with = fields.find("shared_with");
    if (with == fields.end()) continue;
    ++shared;
    // The followed case ran its own trajectory and is in the log.
    ASSERT_TRUE(cases.count(with->second)) << ctx;
    EXPECT_EQ(cases.at(with->second).count("shared_with"), 0u) << ctx;
    const double until = std::stod(fields.at("shared_until_ms"));
    EXPECT_GT(until, 1.0) << ctx;
    EXPECT_LT(until, 2.01) << ctx;
  }
  EXPECT_GT(shared, 0u);
}

TEST_F(ServiceTest, ForensicsRecordsCrashedAndCleanWorkerExits) {
  CampaignSpec spec = small_tolerance_spec();
  spec.shards = 2;
  spec.max_restarts = 8;
  spec.test_kill_after_cases = 1;  // every spawn dies hard after one case
  spec.checkpoint_dir = subdir("forensics");
  const ServiceResult result = run_campaign_service(spec);
  ASSERT_FALSE(result.degraded());

  int crashes = 0;
  int clean_exits = 0;
  long long best_checkpoint = -1;
  for (const auto& row : forensics_rows(spec.checkpoint_dir)) {
    if (row.at("event") == "crash") {
      ++crashes;
      EXPECT_EQ(row.at("exit_code"), "137");
      EXPECT_EQ(row.at("signal"), "0");  // _exit(137), not a real signal
      best_checkpoint =
          std::max(best_checkpoint, std::stoll(row.at("last_checkpoint_index")));
    } else if (row.at("event") == "exit") {
      ++clean_exits;
      EXPECT_EQ(row.at("exit_code"), "0");
    }
    EXPECT_TRUE(row.count("pid"));
    EXPECT_TRUE(row.count("cpu_user_s"));
    EXPECT_TRUE(row.count("checkpoint_records"));
  }
  // 3 cases per shard, one per life: at least two crashes per shard
  // before the last life finishes cleanly.
  EXPECT_GE(crashes, 4);
  EXPECT_EQ(clean_exits, 2);
  // The crash rows point at real committed progress.
  EXPECT_GE(best_checkpoint, 0);
}

TEST_F(ServiceTest, WorkerStderrTailIsCapturedInForensics) {
  // A worker binary that only complains and fails: its stderr must come
  // back through the supervisor's capture pipe into the forensics row.
  const std::string script = subdir("worker.sh");
  {
    std::ofstream out(script);
    out << "#!/bin/sh\necho 'boom from worker' >&2\nexit 7\n";
  }
  fs::permissions(script, fs::perms::owner_all);

  CampaignSpec spec = small_tolerance_spec();
  spec.shards = 1;
  spec.max_restarts = 0;
  spec.checkpoint_dir = subdir("stderr");
  ServiceOptions options;
  options.worker_exe = script;
  const ServiceResult result = run_campaign_service(spec, options);
  EXPECT_TRUE(result.degraded());

  bool found = false;
  for (const auto& row : forensics_rows(spec.checkpoint_dir)) {
    if (row.at("event") != "crash") continue;
    found = true;
    EXPECT_EQ(row.at("exit_code"), "7");
    EXPECT_NE(row.at("stderr_tail").find("boom from worker"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST_F(ServiceTest, TelemetryOffLeavesReportsByteIdenticalAndNoArtifacts) {
  EnvGuard metrics_env("LCOSC_METRICS");
  EnvGuard trace_env("LCOSC_TRACE");
  EnvGuard events_env("LCOSC_EVENTS");
  ::unsetenv("LCOSC_METRICS");
  ::unsetenv("LCOSC_TRACE");
  ::unsetenv("LCOSC_EVENTS");

  CampaignSpec spec = small_tolerance_spec();
  const std::string reference = reference_report(spec);
  spec.shards = 2;
  spec.checkpoint_dir = subdir("dark");
  const ServiceResult result = run_campaign_service(spec);
  EXPECT_EQ(result.report, reference);

  // Forensics is always on; everything else must be absent so a
  // telemetry-free run leaves the checkpoint directory exactly as the
  // pre-telemetry service did (plus the forensics log).
  const std::string tdir = telemetry_dir(spec.checkpoint_dir);
  EXPECT_TRUE(fs::exists(forensics_path(spec.checkpoint_dir)));
  EXPECT_FALSE(fs::exists(tdir + "/metrics.json"));
  EXPECT_FALSE(fs::exists(tdir + "/trace.json"));
  EXPECT_FALSE(fs::exists(tdir + "/events.jsonl"));
  EXPECT_FALSE(fs::exists(tdir + "/summary.json"));
}

TEST_F(ServiceTest, ReportFileIsWrittenAtomicallyAtTheConfiguredPath) {
  CampaignSpec spec = small_tolerance_spec();
  spec.checkpoint_dir = subdir("report");
  spec.report_path = subdir("report") + "/final_report.txt";
  spec.shards = 2;
  const ServiceResult result = run_campaign_service(spec);

  std::ifstream in(spec.report_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), result.report);
  // No temp litter from the atomic write.
  for (const auto& entry : fs::directory_iterator(spec.checkpoint_dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos) << entry.path();
  }
}

// Count live processes whose command line mentions `marker` -- the shard
// workers of a run are identifiable by the --lcosc-spec path inside the
// test's private checkpoint directory.
int processes_mentioning(const std::string& marker) {
  int found = 0;
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "cmdline", std::ios::binary);
    if (!in) continue;
    std::stringstream buf;
    buf << in.rdbuf();
    if (buf.str().find(marker) != std::string::npos) ++found;
  }
  return found;
}

bool wait_until(const std::function<bool()>& done, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

TEST_F(ServiceTest, SignalledCoordinatorKillsAndReapsItsWorkers) {
  // The regression: a coordinator hit by SIGINT/SIGTERM died without
  // forwarding anything to its fork/exec'd workers, leaving them running
  // (here: stalled forever) with nobody left to reap or merge them.
  for (const int sig : {SIGTERM, SIGINT}) {
    CampaignSpec spec = small_tolerance_spec();
    spec.shards = 1;
    spec.test_stall_once = true;  // worker wedges forever; no timeout set
    spec.checkpoint_dir = subdir("sig" + std::to_string(sig));

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ServiceOptions options;
      options.poll_ms = 5;
      try {
        (void)run_campaign_service(spec, options);
      } catch (...) {
      }
      _exit(99);  // the signal must terminate the child before this
    }

    // The stalled worker drops its sentinel first thing, then wedges.
    ASSERT_TRUE(wait_until(
        [&] { return processes_mentioning(spec.checkpoint_dir) >= 1; }, 15000))
        << "worker never appeared";
    ASSERT_EQ(kill(child, sig), 0);

    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "coordinator exited instead of dying by signal";
    EXPECT_EQ(WTERMSIG(status), sig);

    // No orphan: the worker is gone (not just zombied -- a reaped child
    // has no /proc entry at all).
    EXPECT_TRUE(wait_until(
        [&] { return processes_mentioning(spec.checkpoint_dir) == 0; }, 5000))
        << "shard worker outlived the coordinator";
  }
}

TEST_F(ServiceTest, ChunkedDrainMatchesPerCaseDrainForAnyShardCount) {
  // chunk_lanes=1 forces per-case execution; chunk_lanes=4 drains whole
  // lockstep chunks.  With 10 cases over 3 shards the ranges are [0,4),
  // [4,7), [7,10): shard boundaries fall mid-chunk, so this exercises
  // spans that start and end away from global chunk boundaries.
  CampaignSpec spec = small_tolerance_spec();
  spec.samples = 10;
  spec.chunk_lanes = 1;
  const std::string per_case = reference_report(spec);
  ASSERT_FALSE(per_case.empty());

  spec.chunk_lanes = 4;
  for (const int shards : {1, 2, 3}) {
    spec.shards = shards;
    spec.checkpoint_dir = subdir("chunked_" + std::to_string(shards));
    const ServiceResult result = run_campaign_service(spec);
    EXPECT_EQ(result.report, per_case) << shards << " shards";
    EXPECT_FALSE(result.degraded());
  }
}

TEST_F(ServiceTest, WorkerKilledMidChunkResumesToTheReferenceReport) {
  CampaignSpec spec = small_tolerance_spec();
  spec.samples = 10;
  spec.chunk_lanes = 1;
  const std::string per_case = reference_report(spec);

  // Chunks of 4, but every spawn dies hard after committing 3 cases: the
  // chunk is checkpointed partially, and the respawn's first group is a
  // mid-chunk span clipped at the next global boundary.  First-wins
  // merge must still reproduce the per-case report byte for byte.
  spec.chunk_lanes = 4;
  spec.shards = 2;
  spec.max_restarts = 8;
  spec.test_kill_after_cases = 3;
  spec.checkpoint_dir = subdir("kill_mid_chunk");
  const ServiceResult killed = run_campaign_service(spec);
  EXPECT_EQ(killed.report, per_case);
  EXPECT_FALSE(killed.degraded());

  // And a clean rerun of the same directory resumes everything.
  spec.test_kill_after_cases = 0;
  const ServiceResult resumed = run_campaign_service(spec);
  EXPECT_EQ(resumed.report, per_case);
  EXPECT_EQ(resumed.cases_resumed, 10u);
}

TEST(ServiceAdapters, RunCasesSpanMatchesPerCaseRecords) {
  // The chunked drain feeds run_cases() where the per-case drain feeds
  // run_case(); for every campaign kind the two must emit identical
  // record bytes for any span (tolerance routes through the lockstep
  // batched engine, both FMEA kinds through the shared settle prefix).
  for (const CampaignKind kind :
       {CampaignKind::Tolerance, CampaignKind::ExternalFmea, CampaignKind::InternalFmea}) {
    CampaignSpec spec = small_tolerance_spec();
    spec.kind = kind;
    spec.chunk_lanes = 2;
    const auto campaign = make_campaign(spec);
    EXPECT_EQ(campaign->chunk_stride(), std::size_t{2}) << to_string(kind);

    const std::size_t first = 1;
    const std::size_t count = std::min<std::size_t>(3, campaign->case_count() - first);
    const std::vector<std::string> batch = campaign->run_cases(first, count);
    ASSERT_EQ(batch.size(), count) << to_string(kind);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch[i], campaign->run_case(first + i))
          << to_string(kind) << " case " << (first + i);
    }
  }
}

TEST(ServiceSpec, ChunkLanesParsesValidatesAndStaysOutOfTheSignature) {
  CampaignSpec spec;
  spec.chunk_lanes = 7;
  EXPECT_EQ(parse_campaign_spec(to_json(spec)).chunk_lanes, 7);
  EXPECT_THROW((void)parse_campaign_spec(R"({"chunk_lanes": 0})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"chunk_lanes": 4097})"), ConfigError);
  EXPECT_THROW((void)parse_campaign_spec(R"({"chunk_lanes": 1.5})"), ConfigError);

  // Flag-built specs (--chunk-lanes) never pass through the JSON parser;
  // make_campaign enforces the same bound up front, so an out-of-range
  // value is refused before any shard worker spawns.
  CampaignSpec flags;
  flags.chunk_lanes = 0;
  EXPECT_THROW((void)make_campaign(flags), ConfigError);
  flags.chunk_lanes = 4097;
  EXPECT_THROW((void)make_campaign(flags), ConfigError);

  // Changing chunk_lanes never changes record bytes, so a resume across
  // a chunk_lanes change is legal: it must NOT invalidate checkpoints.
  CampaignSpec a;
  CampaignSpec b = a;
  b.chunk_lanes = 4096;
  EXPECT_EQ(determinism_signature(a), determinism_signature(b));
}

TEST(ServiceAdapters, ErrorRecordsAreDetectedByEveryCampaignKind) {
  for (const CampaignKind kind :
       {CampaignKind::Tolerance, CampaignKind::ExternalFmea, CampaignKind::InternalFmea}) {
    CampaignSpec spec = small_tolerance_spec();
    spec.kind = kind;
    const auto campaign = make_campaign(spec);
    EXPECT_TRUE(campaign->is_error_record(campaign->error_record(0, "injected failure")))
        << to_string(kind);
  }
  // A genuinely computed record must not look degraded, or the merge
  // would keep replacing it.
  const auto tolerance = make_campaign(small_tolerance_spec());
  EXPECT_FALSE(tolerance->is_error_record(tolerance->run_case(0)));
}

}  // namespace
}  // namespace lcosc::service

int main(int argc, char** argv) {
  // Shard-worker mode: the coordinator under test re-execs this binary.
  if (const auto shard_exit = lcosc::service::maybe_run_shard(argc, argv)) return *shard_exit;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
