// The repository's one JSON grammar: the string escaper every writer uses
// and the reader every parser uses (campaign specs, metrics snapshots,
// trace JSONL, forensics rows).  It lives in obs/, the
// lowest layer, so the telemetry snapshot reader and the service layer
// share it.
//
// The reader is a schema-directed cursor over a std::string_view: the
// caller says which value comes next, and every call skips leading JSON
// whitespace.  It follows RFC 8259 -- strict number syntax, no raw
// control characters inside strings, every escape (surrogate pairs too)
// decoded to UTF-8 -- with two deliberate extensions: `null` reads as
// NaN where a double is expected (append_json_number writes non-finite
// values that way), and unsigned integers parse exactly, range-checked
// against the destination type.  Nothing throws: a call that fails
// returns false and records the first failure's reason and byte offset.
#pragma once

#include <concepts>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace lcosc::obs::json {

// Append `text` to `out` as the body of a JSON string literal: `"` and
// `\` are backslash-escaped, \n \t \r \b \f take their short forms and
// every other byte below 0x20 becomes \u00XX.  All other bytes (UTF-8
// included) pass through unchanged.
void append_escaped(std::string& out, std::string_view text);
[[nodiscard]] std::string escaped(std::string_view text);

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  // `{ "key": <value>, ... }`: member(key) must read the value and return
  // true; returning false aborts the object.  The key buffer is reused
  // across members.
  template <typename Member>
  bool object(Member&& member) {
    if (!expect('{')) return false;
    if (accept('}')) return true;
    std::string key;
    do {
      if (!string(key) || !expect(':')) return false;
      if (!member(std::as_const(key))) return fail("unexpected member");
    } while (accept(','));
    return expect('}');
  }

  // `[ <value>, ... ]`: element() reads one value per call.
  template <typename Element>
  bool array(Element&& element) {
    if (!expect('[')) return false;
    if (accept(']')) return true;
    do {
      if (!element()) return fail("unexpected element");
    } while (accept(','));
    return expect(']');
  }

  bool string(std::string& out);
  // A number, or `null` as quiet NaN.  A value that overflows or
  // underflows a double fails.
  bool number(double& out);
  // The raw text of a number, validated but not converted.
  bool number_token(std::string_view& out);
  bool boolean(bool& out);

  // A non-negative integer written without fraction or exponent that
  // fits T exactly.
  template <std::unsigned_integral T>
  bool unsigned_integer(T& out) {
    std::string_view token;
    if (!number_token(token)) return false;
    const std::size_t at = pos_ - token.size();
    T value = 0;
    for (const char c : token) {
      if (c < '0' || c > '9') return fail_at(at, "expected an unsigned integer");
      const T digit = static_cast<T>(c - '0');
      if (value > (std::numeric_limits<T>::max() - digit) / 10) {
        return fail_at(at, "integer out of range");
      }
      value = static_cast<T>(value * 10 + digit);
    }
    out = value;
    return true;
  }

  // The next non-whitespace byte, '\0' at the end of input.
  [[nodiscard]] char peek();
  // Succeeds when only whitespace remains and no earlier call failed.
  bool end();

  // Record a failure at the current offset (the first one wins) and
  // return false, so callers can reject a schema violation in one line.
  bool fail(const char* why);

  [[nodiscard]] bool failed() const { return error_ != nullptr; }
  // Reason and byte offset of the first failure ("" / the current offset
  // while none).
  [[nodiscard]] const char* error() const { return failed() ? error_ : ""; }
  [[nodiscard]] std::size_t offset() const { return failed() ? error_at_ : pos_; }

 private:
  // Consume `c` (after whitespace) when it is next; never fails.
  bool accept(char c);
  // Consume `c` or fail.
  bool expect(char c);
  void skip_ws();
  bool fail_at(std::size_t at, const char* why);
  bool hex4(unsigned& out);

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* error_ = nullptr;
  std::size_t error_at_ = 0;
};

}  // namespace lcosc::obs::json
