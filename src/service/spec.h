// Campaign job specification for the sharded service: which campaign to
// run, how to shard it across worker subprocesses, and how to supervise
// them.  Serialized as a small JSON object so a spec file fully
// describes a resumable run (the coordinator re-writes the effective
// spec into the checkpoint directory; shard workers re-exec from it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/campaign.h"

namespace lcosc::service {

enum class CampaignKind { Tolerance, ExternalFmea, InternalFmea };

[[nodiscard]] std::string to_string(CampaignKind kind);
// Inverse of to_string; throws lcosc::ConfigError on an unknown name.
[[nodiscard]] CampaignKind parse_campaign_kind(const std::string& name);

struct CampaignSpec {
  CampaignKind kind = CampaignKind::Tolerance;

  // Campaign parameters (the subset the service exposes; everything else
  // uses the bench defaults, see service/adapters.cpp).
  std::uint64_t seed = 1;       // tolerance Monte-Carlo seed
  int samples = 48;             // tolerance sample count
  double run_duration = 20e-3;  // tolerance per-sample sim duration [s]
  double settle_time = 6e-3;    // FMEA settle before injection [s]
  double observe_time = 10e-3;  // FMEA observation window [s]
  int max_retries = 1;          // per-case bounded retry (run_guarded_case)
  // Cases per drain chunk: lanes of one lockstep batched tolerance sweep,
  // or FMEA cases sharing one settle prefix.  Chunk boundaries are cut in
  // GLOBAL case index, so the value changes wall time and memory, never a
  // record byte -- it is deliberately NOT part of determinism_signature.
  // Bounds [1, 4096].
  int chunk_lanes = 64;

  // Sharding & supervision.
  int shards = 1;               // worker subprocesses; cases split contiguously
  int workers_per_shard = 1;    // threads inside one shard (0 = default pool)
  int max_restarts = 2;         // per-shard restart budget (crash or timeout)
  double shard_timeout_ms = 0;  // per-spawn wall ceiling; 0 = unlimited
  RetryBackoff restart_backoff{.initial_ms = 100, .multiplier = 2.0, .max_ms = 5000};
  RetryBackoff case_backoff{};  // per-case retry backoff (default: disabled)

  // Artifacts.
  std::string checkpoint_dir;  // per-shard record streams + effective spec
  std::string report_path;     // final report (atomic write); empty = none

  // Fault-injection hooks for the supervision tests/smoke runs; both are
  // inert (0 / false) in production specs.  kill_after_cases makes every
  // worker spawn _exit(137) after committing that many fresh cases;
  // stall_once makes the first spawn of every shard sleep forever (the
  // sentinel file it drops in checkpoint_dir disarms later spawns), so
  // the coordinator's timeout/kill/restart path runs deterministically.
  int test_kill_after_cases = 0;
  bool test_stall_once = false;
};

// Parse a spec from JSON text.  Unknown keys are rejected (a typo in a
// supervision field must not silently fall back to a default); missing
// keys keep their defaults.  Throws lcosc::ConfigError on malformed
// JSON, unknown keys, or out-of-range values.
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& json_text);

// Serialize (round-trips through parse_campaign_spec).
[[nodiscard]] std::string to_json(const CampaignSpec& spec);

// The subset of the spec that determines record content: campaign kind,
// seed, sample count, durations, per-case retry limit.  Two specs with
// equal signatures produce byte-identical records for every case index,
// so checkpoints written under one may be resumed under the other;
// sharding/supervision/artifact knobs are deliberately excluded (resume
// with a different shard count is a supported workflow).
[[nodiscard]] std::string determinism_signature(const CampaignSpec& spec);

}  // namespace lcosc::service
