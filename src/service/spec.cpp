#include "service/spec.h"

#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "service/flat_json.h"

namespace lcosc::service {

std::string to_string(CampaignKind kind) {
  switch (kind) {
    case CampaignKind::Tolerance:
      return "tolerance";
    case CampaignKind::ExternalFmea:
      return "fmea";
    case CampaignKind::InternalFmea:
      return "internal_fmea";
  }
  return "?";
}

CampaignKind parse_campaign_kind(const std::string& name) {
  if (name == "tolerance") return CampaignKind::Tolerance;
  if (name == "fmea") return CampaignKind::ExternalFmea;
  if (name == "internal_fmea") return CampaignKind::InternalFmea;
  throw ConfigError("unknown campaign kind '" + name + "'");
}

CampaignSpec parse_campaign_spec(const std::string& json_text) {
  CampaignSpec spec;
  parse_flat_object(json_text, "campaign spec", [&](const std::string& key,
                                                    const std::string& raw, bool is_string) {
    auto num = [&] { return json_to_number(key, raw); };
    auto integer = [&] { return json_to_int(key, raw); };
    if (key == "campaign") {
      spec.kind = parse_campaign_kind(raw);
    } else if (key == "seed") {
      spec.seed = json_to_u64(key, raw);
    } else if (key == "samples") {
      spec.samples = integer();
    } else if (key == "run_duration_ms") {
      spec.run_duration = num() * 1e-3;
    } else if (key == "settle_ms") {
      spec.settle_time = num() * 1e-3;
    } else if (key == "observe_ms") {
      spec.observe_time = num() * 1e-3;
    } else if (key == "max_retries") {
      spec.max_retries = integer();
    } else if (key == "chunk_lanes") {
      spec.chunk_lanes = integer();
    } else if (key == "shards") {
      spec.shards = integer();
    } else if (key == "workers_per_shard") {
      spec.workers_per_shard = integer();
    } else if (key == "max_restarts") {
      spec.max_restarts = integer();
    } else if (key == "shard_timeout_ms") {
      spec.shard_timeout_ms = num();
    } else if (key == "restart_backoff_initial_ms") {
      spec.restart_backoff.initial_ms = integer();
    } else if (key == "restart_backoff_multiplier") {
      spec.restart_backoff.multiplier = num();
    } else if (key == "restart_backoff_max_ms") {
      spec.restart_backoff.max_ms = integer();
    } else if (key == "case_backoff_initial_ms") {
      spec.case_backoff.initial_ms = integer();
    } else if (key == "case_backoff_multiplier") {
      spec.case_backoff.multiplier = num();
    } else if (key == "case_backoff_max_ms") {
      spec.case_backoff.max_ms = integer();
    } else if (key == "checkpoint_dir") {
      spec.checkpoint_dir = raw;
    } else if (key == "report_path") {
      spec.report_path = raw;
    } else if (key == "test_kill_after_cases") {
      spec.test_kill_after_cases = integer();
    } else if (key == "test_stall_once") {
      spec.test_stall_once = json_to_bool(key, raw, is_string);
    } else {
      throw ConfigError("campaign spec: unknown key '" + key + "'");
    }
  });

  if (spec.samples <= 0) throw ConfigError("campaign spec: samples must be positive");
  if (spec.shards < 1) throw ConfigError("campaign spec: shards must be >= 1");
  if (spec.max_restarts < 0) throw ConfigError("campaign spec: max_restarts must be >= 0");
  if (spec.max_retries < 0) throw ConfigError("campaign spec: max_retries must be >= 0");
  if (spec.chunk_lanes < 1 || spec.chunk_lanes > 4096) {
    throw ConfigError("campaign spec: chunk_lanes must be in [1, 4096]");
  }
  if (spec.shard_timeout_ms < 0) {
    throw ConfigError("campaign spec: shard_timeout_ms must be >= 0");
  }
  return spec;
}

std::string determinism_signature(const CampaignSpec& spec) {
  char run_d[32], settle[32], observe[32];
  std::snprintf(run_d, sizeof run_d, "%a", spec.run_duration);
  std::snprintf(settle, sizeof settle, "%a", spec.settle_time);
  std::snprintf(observe, sizeof observe, "%a", spec.observe_time);
  std::ostringstream out;
  out << to_string(spec.kind) << "|seed=" << spec.seed << "|samples=" << spec.samples
      << "|run=" << run_d << "|settle=" << settle << "|observe=" << observe
      << "|retries=" << spec.max_retries;
  return out.str();
}

std::string to_json(const CampaignSpec& spec) {
  std::ostringstream out;
  out.precision(17);
  out << "{\n"
      << "  \"campaign\": \"" << to_string(spec.kind) << "\",\n"
      << "  \"seed\": " << spec.seed << ",\n"
      << "  \"samples\": " << spec.samples << ",\n"
      << "  \"run_duration_ms\": " << spec.run_duration * 1e3 << ",\n"
      << "  \"settle_ms\": " << spec.settle_time * 1e3 << ",\n"
      << "  \"observe_ms\": " << spec.observe_time * 1e3 << ",\n"
      << "  \"max_retries\": " << spec.max_retries << ",\n"
      << "  \"chunk_lanes\": " << spec.chunk_lanes << ",\n"
      << "  \"shards\": " << spec.shards << ",\n"
      << "  \"workers_per_shard\": " << spec.workers_per_shard << ",\n"
      << "  \"max_restarts\": " << spec.max_restarts << ",\n"
      << "  \"shard_timeout_ms\": " << spec.shard_timeout_ms << ",\n"
      << "  \"restart_backoff_initial_ms\": " << spec.restart_backoff.initial_ms << ",\n"
      << "  \"restart_backoff_multiplier\": " << spec.restart_backoff.multiplier << ",\n"
      << "  \"restart_backoff_max_ms\": " << spec.restart_backoff.max_ms << ",\n"
      << "  \"case_backoff_initial_ms\": " << spec.case_backoff.initial_ms << ",\n"
      << "  \"case_backoff_multiplier\": " << spec.case_backoff.multiplier << ",\n"
      << "  \"case_backoff_max_ms\": " << spec.case_backoff.max_ms << ",\n"
      << "  \"checkpoint_dir\": \"" << obs::json::escaped(spec.checkpoint_dir) << "\",\n"
      << "  \"report_path\": \"" << obs::json::escaped(spec.report_path) << "\",\n"
      << "  \"test_kill_after_cases\": " << spec.test_kill_after_cases << ",\n"
      << "  \"test_stall_once\": " << (spec.test_stall_once ? "true" : "false") << "\n"
      << "}\n";
  return out.str();
}

}  // namespace lcosc::service
