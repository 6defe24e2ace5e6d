// Contract of the persistent multi-job campaign queue (DESIGN.md §14):
// jobs survive `kill -9` of the coordinator at any instant and resume
// from their checkpoints, claims follow (priority desc, submit order),
// concurrent campaigns share one bounded worker fleet, and every report
// stays byte-identical to a solo run of the same spec.  Defines its own
// main(): the coordinator under test re-execs this binary as the shard
// worker, so maybe_run_shard() must run before gtest does.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "service/flat_json.h"
#include "service/queue.h"
#include "service/supervisor.h"

namespace lcosc::service {
namespace {

namespace fs = std::filesystem;

CampaignSpec small_tolerance_spec(std::uint64_t seed = 7) {
  CampaignSpec spec;
  spec.kind = CampaignKind::Tolerance;
  spec.samples = 6;
  spec.seed = seed;
  spec.restart_backoff = RetryBackoff{.initial_ms = 5, .multiplier = 2.0, .max_ms = 50};
  return spec;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
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

// Pids of live processes whose command line mentions `marker` (shard
// workers carry their --lcosc-spec path, which lives under the test's
// private queue root).
std::vector<pid_t> pids_mentioning(const std::string& marker) {
  std::vector<pid_t> pids;
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "cmdline", std::ios::binary);
    if (!in) continue;
    std::stringstream buf;
    buf << in.rdbuf();
    if (buf.str().find(marker) != std::string::npos) {
      pids.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return pids;
}

class QueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lcosc_queue_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    // A kill -9 test can leave an orphaned (stalled) worker behind; reap
    // it so nothing outlives the test.
    for (const pid_t pid : pids_mentioning(dir_.string())) kill(pid, SIGKILL);
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] std::string queue_root() const { return subdir("q"); }

  // The uninterrupted single-process reference a queued run must match.
  [[nodiscard]] std::string reference_report(CampaignSpec spec, const std::string& tag) {
    spec.shards = 1;
    spec.test_stall_once = false;
    spec.shard_timeout_ms = 0;
    spec.checkpoint_dir = subdir("ref_" + tag);
    spec.report_path.clear();
    return run_campaign_service(spec).report;
  }

  [[nodiscard]] static QueueCoordinatorOptions fast_options() {
    QueueCoordinatorOptions options;
    options.poll_ms = 5;
    options.progress_every_ms = 20;
    return options;
  }

  fs::path dir_;
};

TEST_F(QueueTest, SubmitCommitsAtomicallyAndSkipsHalfCreatedDirectories) {
  JobQueue queue(queue_root());
  // A submitter killed between mkdir and the job.json write leaves this:
  // a directory with no job record.  It must be invisible, and its
  // sequence number must never be reused.
  fs::create_directories(queue_root() + "/jobs/000099-torn");
  EXPECT_TRUE(queue.list().empty());

  const JobRecord job = queue.submit(small_tolerance_spec(), 3, "weird name/ok");
  EXPECT_EQ(job.sequence, 100u);
  EXPECT_EQ(job.state, JobState::Queued);
  EXPECT_EQ(job.priority, 3);
  // Name bytes outside [A-Za-z0-9_-] are mapped to '_'.
  EXPECT_EQ(job.id.find('/'), std::string::npos);
  EXPECT_NE(job.id.find("weird_name"), std::string::npos);

  // The submitted spec's artifact paths are rewritten into the job dir.
  const auto jobs = queue.list();
  ASSERT_EQ(jobs.size(), 1u);
  const CampaignSpec stored = queue.load_spec(jobs[0]);
  EXPECT_EQ(stored.checkpoint_dir, jobs[0].checkpoint_dir);
  EXPECT_EQ(stored.report_path, jobs[0].report_path);
  EXPECT_FALSE(queue.report(jobs[0]).has_value());
}

TEST_F(QueueTest, ClaimsFollowPriorityThenSubmitOrder) {
  JobQueue queue(queue_root());
  const JobRecord low = queue.submit(small_tolerance_spec(1), 1, "low");
  const JobRecord high = queue.submit(small_tolerance_spec(2), 5, "high");
  const JobRecord mid = queue.submit(small_tolerance_spec(3), 3, "mid");

  QueueCoordinatorOptions options = fast_options();
  options.max_parallel_jobs = 1;  // serialize so run_order is the claim order
  JobQueue serve_queue(queue_root());
  const QueueCoordinatorResult result = run_queue_coordinator(serve_queue, options);
  EXPECT_EQ(result.jobs_done, 3);
  EXPECT_EQ(result.jobs_failed, 0);

  const auto state = [&](const JobRecord& j) { return *queue.find(j.id); };
  EXPECT_EQ(state(high).run_order, 0);
  EXPECT_EQ(state(mid).run_order, 1);
  EXPECT_EQ(state(low).run_order, 2);
  for (const JobRecord& job : queue.list()) {
    EXPECT_EQ(job.state, JobState::Done) << job.id;
    EXPECT_EQ(job.runs, 1) << job.id;
  }
}

TEST_F(QueueTest, ConcurrentCampaignsShareTheFleetAndMatchSoloRuns) {
  JobQueue queue(queue_root());
  CampaignSpec a = small_tolerance_spec(11);
  CampaignSpec b = small_tolerance_spec(22);
  a.shards = 2;
  b.shards = 2;
  const JobRecord job_a = queue.submit(a, 0, "a");
  const JobRecord job_b = queue.submit(b, 0, "b");

  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  QueueCoordinatorOptions options = fast_options();
  options.max_parallel_jobs = 2;
  options.shard_slots = 1;  // 4 shard spawns total, never more than 1 live
  const QueueCoordinatorResult result = run_queue_coordinator(queue, options);
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::instance().snapshot();
  obs::set_metrics_enabled(false);

  EXPECT_EQ(result.jobs_done, 2);
  // Both campaigns were genuinely in flight together...
  const obs::GaugeSnapshot* running = snapshot.find_gauge("queue.jobs.running");
  ASSERT_NE(running, nullptr);
  EXPECT_EQ(running->peak, 2.0);
  // ...yet the shared slot pool kept the worker fleet at its cap.
  const obs::GaugeSnapshot* live = snapshot.find_gauge("service.shards.live");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->peak, 1.0);

  // Fleet sharing must not leak into the reports: each is byte-identical
  // to its own uninterrupted single-process run.
  EXPECT_EQ(file_bytes(queue.find(job_a.id)->report_path), reference_report(a, "a"));
  EXPECT_EQ(file_bytes(queue.find(job_b.id)->report_path), reference_report(b, "b"));
}

TEST_F(QueueTest, KilledCoordinatorLeavesAResumableQueue) {
  JobQueue queue(queue_root());
  // The high-priority job is claimed first and cannot finish before the
  // kill: its first worker spawn stalls until the 500 ms shard timeout.
  CampaignSpec slow = small_tolerance_spec(11);
  slow.shards = 2;
  slow.test_stall_once = true;
  slow.shard_timeout_ms = 500;
  const JobRecord hi = queue.submit(slow, 5, "hi");
  const JobRecord lo = queue.submit(small_tolerance_spec(22), 1, "lo");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    JobQueue child_queue(queue_root());
    try {
      (void)run_queue_coordinator(child_queue, fast_options());
    } catch (...) {
    }
    _exit(0);
  }
  // Wait until the coordinator has demonstrably claimed the job and
  // spawned a worker (the stall sentinel is the worker's first write),
  // then kill -9: the job is mid-run by construction.
  ASSERT_TRUE(wait_until(
      [&] {
        const auto job = queue.find(hi.id);
        return job && job->state == JobState::Running &&
               fs::exists(job->checkpoint_dir + "/stall_0.flag");
      },
      15000));
  ASSERT_EQ(kill(child, SIGKILL), 0);
  ASSERT_EQ(waitpid(child, nullptr, 0), child);
  // The kill orphaned the stalled worker; reap it like an operator would
  // (tier1.sh does the same) before resuming.
  for (const pid_t pid : pids_mentioning(queue_root())) kill(pid, SIGKILL);

  // The lease survived on disk: still `running`, nobody owns it.
  EXPECT_EQ(queue.find(hi.id)->state, JobState::Running);
  EXPECT_EQ(queue.find(hi.id)->runs, 1);

  // A fresh coordinator re-claims the stale job and drains the queue.
  const QueueCoordinatorResult resumed = run_queue_coordinator(queue, fast_options());
  EXPECT_EQ(resumed.jobs_done, 2);
  EXPECT_EQ(resumed.jobs_failed, 0);

  const JobRecord after = *queue.find(hi.id);
  EXPECT_EQ(after.state, JobState::Done);
  EXPECT_GE(after.runs, 2);        // first claim + post-crash resume
  EXPECT_EQ(after.run_order, 0);   // claim order is preserved, not reassigned
  EXPECT_EQ(file_bytes(after.report_path), reference_report(slow, "hi"));
  EXPECT_EQ(file_bytes(queue.find(lo.id)->report_path),
            reference_report(small_tolerance_spec(22), "lo"));
}

TEST_F(QueueTest, CancelledQueuedJobNeverRuns) {
  JobQueue queue(queue_root());
  const JobRecord keep = queue.submit(small_tolerance_spec(1), 0, "keep");
  const JobRecord drop = queue.submit(small_tolerance_spec(2), 9, "drop");
  ASSERT_TRUE(queue.cancel(drop.id));
  EXPECT_FALSE(queue.cancel("no-such-job"));

  const QueueCoordinatorResult result = run_queue_coordinator(queue, fast_options());
  EXPECT_EQ(result.jobs_done, 1);
  EXPECT_EQ(result.jobs_cancelled, 1);

  const JobRecord dropped = *queue.find(drop.id);
  EXPECT_EQ(dropped.state, JobState::Cancelled);
  EXPECT_EQ(dropped.runs, 0);  // despite its high priority, it never ran
  EXPECT_FALSE(queue.report(dropped).has_value());
  EXPECT_EQ(queue.find(keep.id)->state, JobState::Done);
  // Terminal jobs refuse further cancellation.
  EXPECT_FALSE(queue.cancel(drop.id));
  EXPECT_FALSE(queue.cancel(keep.id));
}

TEST_F(QueueTest, CancellingARunningJobKillsItsWorkers) {
  JobQueue queue(queue_root());
  CampaignSpec wedge = small_tolerance_spec();
  wedge.test_stall_once = true;  // stalls forever: cancel is the only exit
  const JobRecord job = queue.submit(wedge, 0, "wedged");

  QueueCoordinatorResult result;
  std::thread coordinator([&] {
    JobQueue serve_queue(queue_root());
    result = run_queue_coordinator(serve_queue, fast_options());
  });
  ASSERT_TRUE(wait_until(
      [&] {
        const auto live = queue.find(job.id);
        return live && live->state == JobState::Running &&
               !pids_mentioning(queue_root()).empty();
      },
      15000));
  ASSERT_TRUE(queue.cancel(job.id));
  coordinator.join();

  EXPECT_EQ(result.jobs_cancelled, 1);
  EXPECT_EQ(queue.find(job.id)->state, JobState::Cancelled);
  // The stalled worker was killed and reaped, not orphaned.
  EXPECT_TRUE(wait_until([&] { return pids_mentioning(queue_root()).empty(); }, 5000));
  EXPECT_FALSE(queue.report(job).has_value());
}

TEST_F(QueueTest, StaleRunningJobFromADeadCoordinatorIsReclaimed) {
  JobQueue queue(queue_root());
  JobRecord job = queue.submit(small_tolerance_spec(), 0, "stale");
  // Simulate a coordinator that claimed the job and died without a trace.
  queue.claim(job, 0);
  ASSERT_EQ(queue.find(job.id)->state, JobState::Running);

  const QueueCoordinatorResult result = run_queue_coordinator(queue, fast_options());
  EXPECT_EQ(result.jobs_done, 1);
  const JobRecord after = *queue.find(job.id);
  EXPECT_EQ(after.state, JobState::Done);
  EXPECT_EQ(after.runs, 2);
  EXPECT_EQ(after.run_order, 0);
}

TEST_F(QueueTest, SweepExpandsATemplateIntoOneJobPerValue) {
  JobQueue queue(queue_root());
  const CampaignSpec templ = small_tolerance_spec();
  const std::vector<JobRecord> jobs =
      queue.submit_sweep(templ, "seed", {"101", "202", "303"}, 2, "s");
  ASSERT_EQ(jobs.size(), 3u);
  const std::vector<std::uint64_t> want = {101, 202, 303};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CampaignSpec spec = queue.load_spec(jobs[i]);
    EXPECT_EQ(spec.seed, want[i]) << jobs[i].id;
    EXPECT_EQ(spec.samples, templ.samples);
    EXPECT_EQ(jobs[i].priority, 2);
    EXPECT_NE(jobs[i].id.find("s" + std::to_string(want[i])), std::string::npos)
        << jobs[i].id;
  }

  // Overrides go through the spec grammar: unknown keys and values that
  // fail validation are rejected up front, not at run time.
  EXPECT_THROW((void)apply_spec_override(templ, "sample_count", "4"), ConfigError);
  EXPECT_THROW((void)apply_spec_override(templ, "samples", "zero"), ConfigError);
  EXPECT_THROW((void)apply_spec_override(templ, "samples", "0"), ConfigError);
  EXPECT_EQ(apply_spec_override(templ, "samples", "9").samples, 9);
  EXPECT_EQ(apply_spec_override(templ, "campaign", "internal_fmea").kind,
            CampaignKind::InternalFmea);
}

TEST_F(QueueTest, ProgressCountsCheckpointedCasesPerShard) {
  JobQueue queue(queue_root());
  CampaignSpec spec = small_tolerance_spec();
  spec.shards = 2;
  const JobRecord job = queue.submit(spec, 0, "p");
  const JobProgress before = queue.progress(*queue.find(job.id));
  EXPECT_EQ(before.cases_total, 6u);
  EXPECT_EQ(before.cases_done, 0u);
  ASSERT_EQ(before.shards.size(), 2u);

  (void)run_queue_coordinator(queue, fast_options());

  const JobProgress after = queue.progress(*queue.find(job.id));
  EXPECT_EQ(after.cases_done, 6u);
  for (const JobProgress::Shard& shard : after.shards) {
    EXPECT_EQ(shard.done, shard.range.size()) << shard.index;
  }
  // The coordinator streamed a progress snapshot for external tooling.
  const std::string progress_path = queue.find(job.id)->progress_path;
  ASSERT_TRUE(fs::exists(progress_path));

  // The snapshot is one flat JSON object a poller (`campaign_service
  // top`) reads with parse_flat_object: a wall-clock heartbeat to tell a
  // slow job from a dead coordinator, fleet slot utilization, and flat
  // per-shard keys.
  std::map<std::string, std::string> fields;
  parse_flat_object(file_bytes(progress_path), "progress",
                    [&](const std::string& key, const std::string& value, bool) {
                      fields[key] = value;
                    });
  ASSERT_TRUE(fields.count("heartbeat_unix_ms"));
  EXPECT_GT(std::stoll(fields.at("heartbeat_unix_ms")), 1700000000000LL)
      << "heartbeat must be unix wall-clock milliseconds";
  EXPECT_EQ(fields.at("job"), job.id);
  EXPECT_EQ(fields.at("cases_total"), "6");
  EXPECT_EQ(fields.at("shards"), "2");
  EXPECT_TRUE(fields.count("fleet_slots_in_use"));
  EXPECT_TRUE(fields.count("fleet_slots_capacity"));
  for (const int shard : {0, 1}) {
    for (const char* suffix : {"begin", "end", "done", "spawns", "restarts", "timeouts"}) {
      const std::string key = "shard_" + std::to_string(shard) + "_" + suffix;
      EXPECT_TRUE(fields.count(key)) << key;
    }
  }
}

}  // namespace
}  // namespace lcosc::service

int main(int argc, char** argv) {
  // Shard-worker mode: the coordinator under test re-execs this binary.
  if (const auto shard_exit = lcosc::service::maybe_run_shard(argc, argv)) return *shard_exit;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
