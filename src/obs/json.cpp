#include "obs/json.h"

#include <charconv>

namespace lcosc::obs::json {
namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

const char* expected_message(char c) {
  switch (c) {
    case '{': return "expected '{'";
    case '}': return "expected ',' or '}'";
    case '[': return "expected '['";
    case ']': return "expected ',' or ']'";
    case ':': return "expected ':'";
    case '"': return "expected a string";
    default: return "unexpected character";
  }
}

}  // namespace

void append_escaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the bytes that pass through unchanged
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    out.push_back('\\');
    switch (c) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '\n': out.push_back('n'); break;
      case '\t': out.push_back('t'); break;
      case '\r': out.push_back('r'); break;
      case '\b': out.push_back('b'); break;
      case '\f': out.push_back('f'); break;
      default:
        out += "u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(text.data() + run, text.size() - run);
}

std::string escaped(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

void Reader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
    ++pos_;
  }
}

bool Reader::fail_at(std::size_t at, const char* why) {
  if (error_ == nullptr) {
    error_ = why;
    error_at_ = at;
  }
  return false;
}

bool Reader::fail(const char* why) { return fail_at(pos_, why); }

bool Reader::accept(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

bool Reader::expect(char c) {
  if (accept(c)) return true;
  return fail(pos_ >= text_.size() ? "unexpected end of input" : expected_message(c));
}

char Reader::peek() {
  skip_ws();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool Reader::end() {
  skip_ws();
  if (failed()) return false;
  return pos_ == text_.size() || fail("trailing characters after the value");
}

bool Reader::hex4(unsigned& out) {
  if (text_.size() - pos_ < 4) return fail("unexpected end of input");
  out = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_];
    unsigned digit = 0;
    if (is_digit(c)) digit = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A') + 10;
    else return fail("expected four hex digits after \\u");
    out = out * 16 + digit;
    ++pos_;
  }
  return true;
}

bool Reader::string(std::string& out) {
  if (!expect('"')) return false;
  out.clear();
  while (true) {
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    out.append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) return fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return true;
    }
    if (c != '\\') return fail("unescaped control character in string");
    if (++pos_ >= text_.size()) return fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        unsigned cp = 0;
        if (!hex4(cp)) return false;
        if (cp >= 0xDC00 && cp < 0xE000) return fail("unpaired surrogate in \\u escape");
        if (cp >= 0xD800 && cp < 0xDC00) {
          unsigned low = 0;
          if (text_.substr(pos_, 2) != "\\u") return fail("unpaired surrogate in \\u escape");
          pos_ += 2;
          if (!hex4(low)) return false;
          if (low < 0xDC00 || low >= 0xE000) return fail("unpaired surrogate in \\u escape");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, cp);
        break;
      }
      default:
        return fail_at(pos_ - 2, "invalid escape");
    }
  }
}

bool Reader::number_token(std::string_view& out) {
  skip_ws();
  const std::size_t start = pos_;
  const auto digits = [this] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ - from;
  };
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  const std::size_t integer = pos_;
  const std::size_t integer_digits = digits();
  if (integer_digits == 0) return fail_at(start, "expected a number");
  if (integer_digits > 1 && text_[integer] == '0') return fail_at(integer, "leading zero");
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    if (digits() == 0) return fail("expected a digit after '.'");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    if (digits() == 0) return fail("expected a digit in the exponent");
  }
  out = text_.substr(start, pos_ - start);
  return true;
}

bool Reader::number(double& out) {
  if (peek() == 'n') {
    if (text_.substr(pos_, 4) != "null") return fail("expected a number");
    pos_ += 4;
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  std::string_view token;
  if (!number_token(token)) return false;
  // Correctly rounded like strtod, without its locale or terminator.
  const std::from_chars_result parsed =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return parsed.ec == std::errc() || fail_at(pos_ - token.size(), "number out of range");
}

bool Reader::boolean(bool& out) {
  const char c = peek();
  const std::string_view word = c == 't' ? "true" : "false";
  if (text_.substr(pos_, word.size()) != word) return fail("expected true or false");
  pos_ += word.size();
  out = c == 't';
  return true;
}

}  // namespace lcosc::obs::json
