#include "server/json.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace ideobf::server {

namespace {

struct Parser {
  std::string_view text{};
  std::size_t pos = 0;
  std::string error{};

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (!at_end()) {
      char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool fail(const char* why) {
    if (error.empty()) {
      error = why;
      error += " at offset ";
      error += std::to_string(pos);
    }
    return false;
  }

  bool consume(char expected, const char* why) {
    skip_ws();
    if (at_end() || text[pos] != expected) return fail(why);
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    return true;
  }

  /// Appends one Unicode code point as UTF-8.
  static void append_utf8(std::string& out, unsigned cp) {
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

  bool hex4(unsigned& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text[pos + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    pos += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "expected string")) return false;
    out.clear();
    while (true) {
      // Everything up to the next quote, backslash or control character is
      // copied as one run; only those bytes need a decision.
      const std::size_t run = pos;
      while (pos < text.size()) {
        const auto b = static_cast<unsigned char>(text[pos]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++pos;
      }
      out.append(text.data() + run, pos - run);
      if (at_end()) return fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at_end()) return fail("unterminated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            if (!hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: require the low half.
              if (pos + 2 > text.size() || text[pos] != '\\' ||
                  text[pos + 1] != 'u') {
                return fail("lone high surrogate");
              }
              pos += 2;
              unsigned lo = 0;
              if (!hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("lone low surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        return fail("raw control character in string");
      }
    }
  }

  [[nodiscard]] bool at_digit() const {
    return !at_end() && std::isdigit(static_cast<unsigned char>(text[pos]));
  }

  /// Exactly the RFC 8259 number grammar: `-? (0 | [1-9][0-9]*) frac? exp?`.
  /// Leading zeros ("01"), bare fractions (".5"), and trailing dots ("1.")
  /// are refused — this parser is strict by design, and must agree with
  /// conforming emitters on what a number is.
  bool parse_number(double& out) {
    const std::size_t start = pos;
    if (!at_end() && text[pos] == '-') ++pos;
    if (!at_digit()) return fail("expected number");
    if (text[pos] == '0') {
      ++pos;
      if (at_digit()) return fail("leading zero in number");
    } else {
      while (at_digit()) ++pos;
    }
    if (!at_end() && text[pos] == '.') {
      ++pos;
      if (!at_digit()) return fail("expected digit after '.'");
      while (at_digit()) ++pos;
    }
    if (!at_end() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (!at_end() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!at_digit()) return fail("expected digit in exponent");
      while (at_digit()) ++pos;
    }
    // strtod needs a NUL-terminated buffer; numbers are short, so copy.
    char buf[64];
    const std::size_t len = pos - start;
    if (len >= sizeof(buf)) return fail("number too long");
    std::memcpy(buf, text.data() + start, len);
    buf[len] = '\0';
    char* end = nullptr;
    out = std::strtod(buf, &end);
    if (end != buf + len) return fail("bad number");
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kMaxJsonDepth) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    char c = peek();
    switch (c) {
      case '{': {
        ++pos;
        JsonValue::Object obj;
        skip_ws();
        if (!at_end() && peek() == '}') {
          ++pos;
        } else {
          while (true) {
            std::string key;
            skip_ws();
            if (!parse_string(key)) return false;
            if (!consume(':', "expected ':'")) return false;
            JsonValue value;
            if (!parse_value(value, depth + 1)) return false;
            obj.insert_or_assign(std::move(key), std::move(value));
            skip_ws();
            if (at_end()) return fail("unterminated object");
            if (peek() == ',') {
              ++pos;
              continue;
            }
            if (peek() == '}') {
              ++pos;
              break;
            }
            return fail("expected ',' or '}'");
          }
        }
        out = JsonValue(std::move(obj));
        return true;
      }
      case '[': {
        ++pos;
        JsonValue::Array arr;
        skip_ws();
        if (!at_end() && peek() == ']') {
          ++pos;
        } else {
          while (true) {
            JsonValue value;
            if (!parse_value(value, depth + 1)) return false;
            arr.push_back(std::move(value));
            skip_ws();
            if (at_end()) return fail("unterminated array");
            if (peek() == ',') {
              ++pos;
              continue;
            }
            if (peek() == ']') {
              ++pos;
              break;
            }
            return fail("expected ',' or ']'");
          }
        }
        out = JsonValue(std::move(arr));
        return true;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(JsonValue::Storage(std::move(s)));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = JsonValue(JsonValue::Storage(true));
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = JsonValue(JsonValue::Storage(false));
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = JsonValue(JsonValue::Storage(nullptr));
        return true;
      default: {
        double d = 0.0;
        if (!parse_number(d)) return false;
        out = JsonValue(JsonValue::Storage(d));
        return true;
      }
    }
  }
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  Parser p{.text = text};
  JsonValue out;
  if (!p.parse_value(out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (error != nullptr) *error = "trailing characters after document";
    return std::nullopt;
  }
  return out;
}

}  // namespace ideobf::server
