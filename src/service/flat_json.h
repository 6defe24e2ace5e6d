// Flat JSON objects the service persists and reads back (campaign specs,
// forensics rows): string, number and boolean members, no nesting.  The
// grammar itself is obs::json's; this wrapper adds the service's error
// model (lcosc::ConfigError) and the strict typed conversions of the
// spec parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/json.h"

namespace lcosc::service {

// Reads one flat-object member value: strings decoded, numbers and
// booleans as their raw token.
bool read_flat_value(obs::json::Reader& in, std::string& value, bool& is_string);
[[noreturn]] void throw_flat_json_error(std::string_view context, const obs::json::Reader& in);

// Calls visit(key, raw_value, is_string) per member, in file order.
// Throws lcosc::ConfigError ("<context>: <reason> (at byte N)") on
// malformed input or trailing bytes after the closing brace.
template <typename Visit>
void parse_flat_object(std::string_view text, std::string_view context, Visit&& visit) {
  obs::json::Reader in(text);
  std::string value;
  const bool ok = in.object([&](const std::string& key) {
    bool is_string = false;
    if (!read_flat_value(in, value, is_string)) return false;
    visit(key, std::as_const(value), is_string);
    return true;
  }) && in.end();
  if (!ok) throw_flat_json_error(context, in);
}

// Strict typed conversions of one member (raw value and is_string as
// parse_flat_object passes them); each throws lcosc::ConfigError naming
// `key` when the member has the wrong JSON type or an out-of-range value.
// Number keys refuse string members, so blanks, hex or "inf" inside a
// string never become a number; the reader has already checked every
// number token against RFC 8259.
[[nodiscard]] double json_to_number(const std::string& key, const std::string& raw,
                                    bool is_string);
[[nodiscard]] int json_to_int(const std::string& key, const std::string& raw, bool is_string);
[[nodiscard]] std::uint64_t json_to_u64(const std::string& key, const std::string& raw,
                                        bool is_string);
[[nodiscard]] bool json_to_bool(const std::string& key, const std::string& raw,
                                bool is_string);
[[nodiscard]] const std::string& json_to_string(const std::string& key, const std::string& raw,
                                                bool is_string);

}  // namespace lcosc::service
