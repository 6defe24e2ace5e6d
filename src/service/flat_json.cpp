#include "service/flat_json.h"

#include <charconv>
#include <climits>
#include <cmath>

#include "common/error.h"

namespace lcosc::service {

bool read_flat_value(obs::json::Reader& in, std::string& value, bool& is_string) {
  const char c = in.peek();
  is_string = c == '"';
  if (is_string) return in.string(value);
  if (c == 't' || c == 'f') {
    bool flag = false;
    if (!in.boolean(flag)) return false;
    value = flag ? "true" : "false";
    return true;
  }
  if (c != '-' && (c < '0' || c > '9')) {
    return in.fail("expected a string, number or boolean value");
  }
  std::string_view token;
  if (!in.number_token(token)) return false;
  value.assign(token);
  return true;
}

void throw_flat_json_error(std::string_view context, const obs::json::Reader& in) {
  throw ConfigError(std::string(context) + ": " + in.error() + " (at byte " +
                    std::to_string(in.offset()) + ")");
}

double json_to_number(const std::string& key, const std::string& raw, bool is_string) {
  const char* const last = raw.data() + raw.size();
  double v = 0.0;
  const std::from_chars_result r = std::from_chars(raw.data(), last, v);
  // Overflow and underflow both report result_out_of_range.
  if (is_string || r.ec != std::errc() || r.ptr != last) {
    throw ConfigError("key '" + key + "' is not a finite number");
  }
  return v;
}

int json_to_int(const std::string& key, const std::string& raw, bool is_string) {
  const double v = json_to_number(key, raw, is_string);
  // Range first: converting an out-of-range double to int is undefined.
  if (v != std::floor(v) || v < INT_MIN || v > INT_MAX) {
    throw ConfigError("key '" + key + "' must be an integer");
  }
  return static_cast<int>(v);
}

// Exact 64-bit parse: routing a seed through double would silently round
// values above 2^53 (and cast UB above 2^63), giving re-parsing workers a
// different seed than the coordinator.
std::uint64_t json_to_u64(const std::string& key, const std::string& raw, bool is_string) {
  const char* const last = raw.data() + raw.size();
  std::uint64_t v = 0;
  const std::from_chars_result r = std::from_chars(raw.data(), last, v);
  if (is_string || r.ec != std::errc() || r.ptr != last) {
    throw ConfigError("key '" + key + "' must be a non-negative integer (64-bit)");
  }
  return v;
}

bool json_to_bool(const std::string& key, const std::string& raw, bool is_string) {
  if (is_string || (raw != "true" && raw != "false")) {
    throw ConfigError("key '" + key + "' must be true or false");
  }
  return raw == "true";
}

const std::string& json_to_string(const std::string& key, const std::string& raw,
                                  bool is_string) {
  if (!is_string) throw ConfigError("key '" + key + "' must be a string");
  return raw;
}

}  // namespace lcosc::service
