// Tests for the minimal JSON emitter behind the CLI's --json output, and for
// the string decoder of the serve wire parser (src/server/json.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>

#include "analysis/json_writer.h"
#include "server/json.h"

namespace ideobf {
namespace {

TEST(Json, QuoteEscaping) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(json_quote(""), "\"\"");
}

TEST(Json, FlatObject) {
  JsonWriter w;
  w.begin_object().field("a", 1).field("b", "x").field("c", true).end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"x","c":true})");
}

TEST(Json, NestedStructures) {
  JsonWriter w;
  w.begin_object();
  w.begin_array("items");
  w.value("one");
  w.value(2);
  w.begin_object().field("k", "v").end_object();
  w.end_array();
  w.field("done", true);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"items":["one",2,{"k":"v"}],"done":true})");
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.begin_array("empty").end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"empty":[]})");
}

TEST(Json, TopLevelArray) {
  JsonWriter w;
  w.begin_array().value(1).value(2).value(3).end_array();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(Json, Doubles) {
  JsonWriter w;
  w.begin_array().value(1.5).value(0.25).end_array();
  EXPECT_EQ(w.str(), "[1.5,0.25]");
}

TEST(Json, KeysAreEscaped) {
  JsonWriter w;
  w.begin_object().field("we\"ird", 1).end_object();
  EXPECT_EQ(w.str(), R"({"we\"ird":1})");
}

// ---------------------------------------------------------------------------
// Wire string decoder: run-appending parser vs a per-character reference
// ---------------------------------------------------------------------------

/// The decoder as it was written before strings decoded by runs: one
/// decision and one push_back per byte. Decodes the JSON string document
/// `text` (opening quote at offset 0) into `out`; on failure returns the
/// parser's error text, "<why> at offset <n>".
struct ReferenceDecoder {
  std::string_view text{};
  std::size_t pos = 0;
  std::string error{};

  bool fail(const char* why) {
    error = std::string(why) + " at offset " + std::to_string(pos);
    return false;
  }

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
      const char c = text[pos + static_cast<std::size_t>(i)];
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

  bool decode(std::string& out) {
    if (text.empty() || text[0] != '"') return fail("expected string");
    pos = 1;
    while (true) {
      if (pos >= text.size()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("unterminated escape");
        const char e = text[pos++];
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
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
  }
};

std::string hex4_text(unsigned v) {
  static const char* digits = "0123456789abcdef";
  std::string out = "\\u";
  for (int shift = 12; shift >= 0; shift -= 4) {
    out.push_back(digits[(v >> shift) & 0xF]);
  }
  return out;
}

/// A JSON string document built from random fragments: plain runs, UTF-8,
/// every escape, \u escapes (surrogate pairs and lone halves included), raw
/// control characters, broken escapes, and sometimes no closing quote.
std::string generated_string_document(std::mt19937& rng) {
  auto pick = [&](unsigned n) {
    return static_cast<unsigned>(rng() % n);
  };
  std::string doc = "\"";
  const unsigned fragments = pick(12);
  for (unsigned f = 0; f < fragments; ++f) {
    switch (pick(16)) {
      case 0:
      case 1:
      case 2: {  // plain printable run, possibly long
        const unsigned len = pick(4) == 0 ? 200 + pick(2000) : pick(24);
        for (unsigned i = 0; i < len; ++i) {
          doc.push_back(static_cast<char>(' ' + 1 + pick(94)));
          if (doc.back() == '"' || doc.back() == '\\') doc.back() = 'q';
        }
        break;
      }
      case 3: doc += "h\xC3\xA9 \xE6\x97\xA5 \xF0\x9F\x99\x82\x7F"; break;
      case 4: doc += std::string("\\") + "\"\\/bfnrt"[pick(8)]; break;
      case 5: doc += hex4_text(pick(0xD800)); break;        // BMP, below
      case 6: doc += hex4_text(0xE000 + pick(0x2000)); break;  // surrogates
      case 7:  // a valid surrogate pair
        doc += hex4_text(0xD800 + pick(0x400));
        doc += hex4_text(0xDC00 + pick(0x400));
        break;
      case 8: doc += hex4_text(0xD800 + pick(0x400)); break;  // lone high
      case 9: doc += hex4_text(0xDC00 + pick(0x400)); break;  // lone low
      case 10:  // high surrogate followed by a non-low \u
        doc += hex4_text(0xD800 + pick(0x400));
        doc += hex4_text(pick(0xD800));
        break;
      case 11: doc.push_back(static_cast<char>(pick(0x20))); break;  // raw
      case 12: doc += std::string("\\") + "xaq0 "[pick(5)]; break;  // bad
      case 13: doc += pick(2) == 0 ? "\\u12G4" : "\\uZ"; break;     // bad hex
      case 14: doc += "\\u" + std::string(pick(4), 'a'); break;     // short
      default: doc += "\\\\\\\"\\/"; break;
    }
  }
  switch (pick(8)) {
    case 0: break;                 // unterminated string
    case 1: doc += "\\"; break;    // unterminated escape
    case 2: doc += "\\u00"; break;  // truncated \u at the end
    default: doc += "\""; break;
  }
  return doc;
}

TEST(JsonDecoder, RunAppendingMatchesPerCharReference) {
  std::mt19937 rng(20261020);
  std::set<std::string> reasons;
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string doc = generated_string_document(rng);
    ReferenceDecoder ref{.text = doc};
    std::string want;
    const bool ref_ok = ref.decode(want);
    std::string error;
    const std::optional<server::JsonValue> got = server::parse_json(doc, &error);
    ASSERT_EQ(got.has_value(), ref_ok) << doc << " / " << error;
    if (ref_ok) {
      ++accepted;
      ASSERT_TRUE(got->is_string());
      ASSERT_EQ(got->as_string(), want) << doc;
    } else {
      ASSERT_EQ(error, ref.error) << doc;
      reasons.insert(ref.error.substr(0, ref.error.find(" at offset")));
    }
  }
  // The grid reached every way a string can fail, and plenty of successes.
  EXPECT_GT(accepted, 2000);
  for (const char* reason :
       {"unterminated string", "unterminated escape", "truncated \\u escape",
        "bad \\u escape", "lone high surrogate", "bad low surrogate",
        "lone low surrogate", "bad escape",
        "raw control character in string"}) {
    EXPECT_EQ(reasons.count(reason), 1u) << reason;
  }
}

TEST(JsonDecoder, PinnedStrings) {
  const auto decode = [](std::string_view doc) {
    std::string error;
    const auto v = server::parse_json(doc, &error);
    return v.has_value() ? v->as_string() : "ERR:" + error;
  };
  EXPECT_EQ(decode(R"("")"), "");
  EXPECT_EQ(decode(R"("plain run")"), "plain run");
  EXPECT_EQ(decode(R"("a\"b\\c\/d\be\ff\ng\rh\ti")"),
            "a\"b\\c/d\be\ff\ng\rh\ti");
  EXPECT_EQ(decode(R"("Aé日🙂")"),
            "A\xC3\xA9\xE6\x97\xA5\xF0\x9F\x99\x82");
  EXPECT_EQ(decode(R"("ab\ud800")"), "ERR:lone high surrogate at offset 9");
  EXPECT_EQ(decode(R"("\udc00")"), "ERR:lone low surrogate at offset 7");
  EXPECT_EQ(decode("\"ab\x01\""), "ERR:raw control character in string at offset 4");
  EXPECT_EQ(decode("\"abc"), "ERR:unterminated string at offset 4");
  EXPECT_EQ(decode("\"abc\\"), "ERR:unterminated escape at offset 5");
}

}  // namespace
}  // namespace ideobf
