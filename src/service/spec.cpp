#include "service/spec.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/error.h"
#include "service/flat_json.h"

namespace lcosc::service {
namespace {

// Durations are stored in seconds and written in ms.  The ms text is the
// shortest decimal that reads back as the seconds value (std::to_chars),
// with the decimal point moved three places; reading shifts the decimal
// exponent back before one correctly rounded conversion.  Both steps are
// exact on the digits, so every value survives any number of round trips
// bit for bit (a `* 1e3` / `* 1e-3` pair rounds twice and can drift by an
// ulp per trip).

std::string ms_text(double seconds) {
  char buf[64];
  const std::to_chars_result sci =
      std::to_chars(buf, buf + sizeof buf, seconds, std::chars_format::scientific);
  const std::string_view text(buf, static_cast<std::size_t>(sci.ptr - buf));
  const std::size_t e = text.find('e');
  if (e == std::string_view::npos) return std::string(text);  // inf / nan
  if (seconds == 0.0) return text[0] == '-' ? "-0" : "0";
  // text = [-]d[.ddd]e(+|-)xx: digits d.ddd times 10^exp10 seconds.
  int exp10 = 0;
  const char* exp_first = text.data() + e + (text[e + 1] == '+' ? 2 : 1);
  std::from_chars(exp_first, text.data() + text.size(), exp10);
  exp10 += 3;
  const bool negative = text[0] == '-';
  std::string digits;
  for (const char c : text.substr(negative ? 1 : 0, e - (negative ? 1 : 0))) {
    if (c != '.') digits.push_back(c);
  }

  std::string out = negative ? "-" : "";
  const int point = exp10 + 1;  // digits before the decimal point
  const int n = static_cast<int>(digits.size());
  if (exp10 < -7 || exp10 > 20) {
    out += digits.substr(0, 1);
    if (n > 1) out += "." + digits.substr(1);
    out += "e" + std::to_string(exp10);
  } else if (point <= 0) {
    out += "0." + std::string(static_cast<std::size_t>(-point), '0') + digits;
  } else if (point < n) {
    out += digits.substr(0, static_cast<std::size_t>(point)) + "." +
           digits.substr(static_cast<std::size_t>(point));
  } else {
    out += digits + std::string(static_cast<std::size_t>(point - n), '0');
  }
  return out;
}

double ms_to_seconds(const std::string& key, const std::string& raw, bool is_string) {
  const auto reject = [&key]() -> double {
    throw ConfigError("key '" + key + "' is not a finite number");
  };
  if (is_string) return reject();
  const char* const last = raw.data() + raw.size();
  const std::size_t e = raw.find_first_of("eE");
  long long exp10 = 0;
  if (e != std::string::npos) {
    const char* first = raw.data() + e + 1;
    if (first != last && *first == '+') ++first;
    const std::from_chars_result parsed = std::from_chars(first, last, exp10);
    if (parsed.ec != std::errc() || parsed.ptr != last) return reject();
  }
  // Beyond +-2^20 every finite mantissa over- or underflows either way.
  exp10 = std::clamp(exp10, -(1LL << 20), 1LL << 20);
  const std::string shifted = raw.substr(0, e) + "e" + std::to_string(exp10 - 3);
  double seconds = 0.0;
  const std::from_chars_result parsed =
      std::from_chars(shifted.data(), shifted.data() + shifted.size(), seconds);
  if (parsed.ec != std::errc() || parsed.ptr != shifted.data() + shifted.size()) {
    return reject();
  }
  return seconds;
}

}  // namespace

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
    auto num = [&] { return json_to_number(key, raw, is_string); };
    auto integer = [&] { return json_to_int(key, raw, is_string); };
    auto ms = [&] { return ms_to_seconds(key, raw, is_string); };
    auto text = [&] { return json_to_string(key, raw, is_string); };
    if (key == "campaign") {
      spec.kind = parse_campaign_kind(text());
    } else if (key == "seed") {
      spec.seed = json_to_u64(key, raw, is_string);
    } else if (key == "samples") {
      spec.samples = integer();
    } else if (key == "run_duration_ms") {
      spec.run_duration = ms();
    } else if (key == "settle_ms") {
      spec.settle_time = ms();
    } else if (key == "observe_ms") {
      spec.observe_time = ms();
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
      spec.checkpoint_dir = text();
    } else if (key == "report_path") {
      spec.report_path = text();
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
  std::string out = "{\n";
  const auto member = [&out](const char* key, std::string_view value) {
    if (out.size() > 2) out += ",\n";
    out += "  \"";
    out += key;
    out += "\": ";
    out += value;
  };
  const auto integer = [](long long v) { return std::to_string(v); };
  // The other doubles keep the "%.17g" text they always had.
  const auto g17 = [](double v) {
    char buf[32];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    return std::string(buf, r.ptr);
  };
  const auto quoted = [](const std::string& v) { return '"' + obs::json::escaped(v) + '"'; };

  member("campaign", quoted(to_string(spec.kind)));
  member("seed", std::to_string(spec.seed));
  member("samples", integer(spec.samples));
  member("run_duration_ms", ms_text(spec.run_duration));
  member("settle_ms", ms_text(spec.settle_time));
  member("observe_ms", ms_text(spec.observe_time));
  member("max_retries", integer(spec.max_retries));
  member("chunk_lanes", integer(spec.chunk_lanes));
  member("shards", integer(spec.shards));
  member("workers_per_shard", integer(spec.workers_per_shard));
  member("max_restarts", integer(spec.max_restarts));
  member("shard_timeout_ms", g17(spec.shard_timeout_ms));
  member("restart_backoff_initial_ms", integer(spec.restart_backoff.initial_ms));
  member("restart_backoff_multiplier", g17(spec.restart_backoff.multiplier));
  member("restart_backoff_max_ms", integer(spec.restart_backoff.max_ms));
  member("case_backoff_initial_ms", integer(spec.case_backoff.initial_ms));
  member("case_backoff_multiplier", g17(spec.case_backoff.multiplier));
  member("case_backoff_max_ms", integer(spec.case_backoff.max_ms));
  member("checkpoint_dir", quoted(spec.checkpoint_dir));
  member("report_path", quoted(spec.report_path));
  member("test_kill_after_cases", integer(spec.test_kill_after_cases));
  member("test_stall_once", spec.test_stall_once ? "true" : "false");
  out += "\n}\n";
  return out;
}

}  // namespace lcosc::service
