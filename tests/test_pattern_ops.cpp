// Differential tests for the pattern operators. psinterp/pattern.cpp runs a
// literal pattern as a substring scan instead of std::regex; every operator
// built on it must still answer exactly what std::regex (ECMAScript,
// libstdc++) answers. The reference below is std::regex used the way the
// operators used it before the scan existed; inputs are seeded random
// strings built around the pattern's needle, plus pinned edge cases.

#include <gtest/gtest.h>

#include <random>
#include <regex>
#include <string>
#include <vector>

#include "psinterp/interpreter.h"
#include "psinterp/pattern.h"

namespace ps {
namespace {

using Strings = std::vector<std::string>;

// ------------------------------------------------------------- reference

std::regex ref_regex(const std::string& pattern, bool icase) {
  auto flags = std::regex::ECMAScript;
  if (icase) flags |= std::regex::icase;
  return std::regex(pattern, flags);
}

Strings ref_split(const std::string& text, const std::string& pattern, bool icase) {
  const std::regex re = ref_regex(pattern, icase);
  Strings out;
  std::sregex_token_iterator it(text.begin(), text.end(), re, -1), end;
  for (; it != end; ++it) out.push_back(*it);
  return out;
}

std::string ref_replace(const std::string& text, const std::string& pattern,
                        const std::string& replacement, bool icase) {
  return std::regex_replace(text, ref_regex(pattern, icase), replacement);
}

/// regex_search; on a hit, `groups` gets every group's text.
bool ref_search(const std::string& text, const std::string& pattern, bool icase,
                Strings* groups = nullptr) {
  std::smatch m;
  const bool hit = std::regex_search(text, m, ref_regex(pattern, icase));
  if (hit && groups != nullptr) {
    groups->clear();
    for (std::size_t g = 0; g < m.size(); ++g) groups->push_back(m[g].str());
  }
  return hit;
}

Strings ref_matches(const std::string& text, const std::string& pattern) {
  const std::regex re = ref_regex(pattern, false);
  Strings out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it) {
    out.push_back(it->str());
  }
  return out;
}

// ------------------------------------------------------------ generators

/// One pattern unit: how it is spelled in the pattern, and the byte it
/// matches.
struct Atom {
  const char* spelling;
  char byte;
};

// Letters of both cases, one-character delimiters (tab as a raw byte),
// escaped metacharacters, the lone closers `]` and `}`, and bytes >= 0x80.
const Atom kAtoms[] = {
    {"a", 'a'},   {"B", 'B'},   {"s", 's'},   {"S", 'S'},   {"x", 'x'},
    {" ", ' '},   {",", ','},   {"-", '-'},   {"=", '='},   {"\t", '\t'},
    {"\\|", '|'}, {"\\.", '.'}, {"\\$", '$'}, {"\\\\", '\\'}, {"\\(", '('},
    {"\\)", ')'}, {"\\[", '['}, {"\\{", '{'}, {"\\*", '*'}, {"\\+", '+'},
    {"\\?", '?'}, {"\\^", '^'}, {"\\]", ']'}, {"\\}", '}'}, {"]", ']'},
    {"}", '}'},   {"\xC3", '\xC3'}, {"\xA9", '\xA9'}, {"\xE2", '\xE2'},
};

struct Case {
  std::string pattern;
  std::string needle;  ///< what the pattern matches, as spelled
  std::string text;
};

class CaseGen {
 public:
  explicit CaseGen(std::uint64_t seed) : rng_(seed) {}

  Case next() {
    Case c;
    const std::size_t atoms = 1 + pick(3);
    for (std::size_t i = 0; i < atoms; ++i) {
      const Atom& a = kAtoms[pick(std::size(kAtoms))];
      c.pattern += a.spelling;
      c.needle.push_back(a.byte);
    }
    // Text: filler and needles (case-flipped at random), so matches land at
    // the start, at the end and back to back; sometimes empty.
    const std::size_t pieces = pick(8);
    for (std::size_t i = 0; i < pieces; ++i) {
      if (pick(2) == 0) {
        c.text += flip_case(c.needle);
      } else {
        const std::size_t run = 1 + pick(3);
        for (std::size_t k = 0; k < run; ++k) {
          c.text.push_back(kAtoms[pick(std::size(kAtoms))].byte);
        }
      }
    }
    return c;
  }

  std::string replacement() {
    static const char* kReplacements[] = {"", "_", "A", "\xC3\xA9", "$&", "<$0>",
                                          "$$", "x$`y", "$'", "a$1b"};
    return kReplacements[pick(std::size(kReplacements))];
  }

  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

 private:
  std::string flip_case(std::string s) {
    for (char& ch : s) {
      if (pick(2) == 0) continue;
      if (ch >= 'a' && ch <= 'z') ch = static_cast<char>(ch - 32);
      else if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch + 32);
    }
    return s;
  }

  std::mt19937_64 rng_;
};

constexpr int kCases = 3000;

// --------------------------------------------------------- pattern level

TEST(PatternOps, GeneratedPatternsAreLiteral) {
  CaseGen gen(1);
  for (int i = 0; i < 200; ++i) {
    const Case c = gen.next();
    EXPECT_TRUE(Pattern(c.pattern, true).literal()) << c.pattern;
    EXPECT_TRUE(Pattern(c.pattern, false).literal()) << c.pattern;
  }
}

TEST(PatternOps, RegexOnlyPatternsAreNotLiteral) {
  for (const char* p : {"", "\\d", "\\t", "\\n", "a.b", "a|b", "^a", "a$", "a*",
                        "a+", "a?", "(a)", "[ab]", "a{2}", "\\w", "\\x41", "\\/"}) {
    EXPECT_FALSE(Pattern(p, false).literal()) << p;
  }
  EXPECT_THROW(Pattern("(", false), PatternError);
  EXPECT_THROW(Pattern("a\\", true), PatternError);
}

TEST(PatternOps, LiteralMatchesReferenceOnRandomInputs) {
  CaseGen gen(2);
  for (int i = 0; i < kCases; ++i) {
    const Case c = gen.next();
    const std::string replacement = gen.replacement();
    for (bool icase : {true, false}) {
      SCOPED_TRACE("pattern '" + c.pattern + "' text '" + c.text + "' icase " +
                   std::to_string(icase));
      const Pattern p(c.pattern, icase);
      ASSERT_TRUE(p.literal());
      EXPECT_EQ(p.split(c.text), ref_split(c.text, c.pattern, icase));
      EXPECT_EQ(p.replace(c.text, replacement),
                ref_replace(c.text, c.pattern, replacement, icase));
      Strings groups;
      Strings ref_groups;
      EXPECT_EQ(p.search(c.text), ref_search(c.text, c.pattern, icase));
      EXPECT_EQ(p.search(c.text, groups), ref_search(c.text, c.pattern, icase, &ref_groups));
      if (!ref_groups.empty()) {
        EXPECT_EQ(groups, ref_groups);
      }
      if (!icase) {
        EXPECT_EQ(p.matches(c.text), ref_matches(c.text, c.pattern));
      }
    }
  }
}

TEST(PatternOps, TokenIteratorQuirksArePinned) {
  const Pattern comma(",", false);
  ASSERT_TRUE(comma.literal());
  // A leading empty field is kept.
  EXPECT_EQ(comma.split(",a"), (Strings{"", "a"}));
  // A trailing empty field is dropped.
  EXPECT_EQ(comma.split("a,b,"), (Strings{"a", "b"}));
  EXPECT_EQ(comma.split(",,"), (Strings{"", ""}));
  // The empty string splits to one empty field.
  EXPECT_EQ(comma.split(""), (Strings{""}));
  EXPECT_EQ(comma.split("a,,b"), (Strings{"a", "", "b"}));
  for (const char* text : {",a", "a,b,", ",,", "", "a,,b"}) {
    EXPECT_EQ(comma.split(text), ref_split(text, ",", false)) << text;
  }
}

TEST(PatternOps, FoldingIsAsciiOnly) {
  // C-locale icase folds A-Z only; bytes >= 0x80 compare exactly.
  EXPECT_TRUE(Pattern("abc", true).search("xABCx"));
  EXPECT_TRUE(Pattern("ABC", true).search("xabcx"));
  EXPECT_FALSE(Pattern("ABC", false).search("xabcx"));
  EXPECT_FALSE(Pattern("\xC3\xA9", true).search("\xC3\x89"));
  for (const char* text : {"xABCx", "\xC3\x89", "\xC3\xA9"}) {
    for (const char* pat : {"abc", "\xC3\xA9"}) {
      EXPECT_EQ(Pattern(pat, true).search(text), ref_search(text, pat, true));
    }
  }
}

// -------------------------------------------------------- operator level

/// The operator's result as a list of display strings.
Strings items(const std::optional<Value>& v) {
  Strings out;
  if (!v || v->is_null()) return out;
  if (!v->is_array()) return {v->to_display_string()};
  for (const Value& item : v->get_array()) out.push_back(item.to_display_string());
  return out;
}

Strings ref_split_all(const Strings& texts, const std::string& pattern, bool icase) {
  Strings out;
  for (const std::string& t : texts) {
    for (std::string& f : ref_split(t, pattern, icase)) out.push_back(std::move(f));
  }
  return out;
}

Array values_of(const Strings& texts) {
  Array out;
  for (const std::string& t : texts) out.push_back(Value(t));
  return out;
}

TEST(PatternOps, OperatorsMatchReferenceOnRandomInputs) {
  CaseGen gen(3);
  for (int i = 0; i < kCases / 3; ++i) {
    const Case c = gen.next();
    const Case other = gen.next();
    const std::string replacement = gen.replacement();
    // An array left operand: this case's text, a text of another case, "".
    const Strings texts = {c.text, other.text, ""};
    SCOPED_TRACE("pattern '" + c.pattern + "' text '" + c.text + "' other '" +
                 other.text + "' replacement '" + replacement + "'");

    Interpreter in;
    in.set_variable("t", Value(c.text));
    in.set_variable("a", Value(values_of(texts)));
    in.set_variable("p", Value(c.pattern));
    in.set_variable("r", Value(replacement));

    for (const char* op : {"-split", "-isplit", "-csplit"}) {
      const bool icase = std::string(op) != "-csplit";
      in.evaluate_script(std::string("$o = $t ") + op + " $p");
      EXPECT_EQ(items(in.get_variable("o")), ref_split(c.text, c.pattern, icase)) << op;
      in.evaluate_script(std::string("$o = $a ") + op + " $p");
      EXPECT_EQ(items(in.get_variable("o")), ref_split_all(texts, c.pattern, icase)) << op;
    }

    for (const char* op : {"-replace", "-ireplace", "-creplace"}) {
      const bool icase = std::string(op) != "-creplace";
      in.evaluate_script(std::string("$o = $t ") + op + " $p, $r");
      EXPECT_EQ(items(in.get_variable("o")),
                Strings{ref_replace(c.text, c.pattern, replacement, icase)})
          << op;
      in.evaluate_script(std::string("$o = $a ") + op + " $p, $r");
      Strings expected;
      for (const std::string& t : texts) {
        expected.push_back(ref_replace(t, c.pattern, replacement, icase));
      }
      EXPECT_EQ(items(in.get_variable("o")), expected) << op;
    }

    for (const char* op : {"-match", "-imatch", "-cmatch", "-notmatch"}) {
      const bool icase = std::string(op) != "-cmatch";
      const bool negate = std::string(op) == "-notmatch";
      in.evaluate_script("$matches = $null");
      const Value hit = in.evaluate_script(std::string("$t ") + op + " $p");
      Strings groups;
      const bool ref_hit = ref_search(c.text, c.pattern, icase, &groups);
      EXPECT_EQ(hit.is_bool() && hit.get_bool(), ref_hit != negate) << op;
      const std::optional<Value> matches = in.get_variable("matches");
      if (ref_hit && !negate) {
        ASSERT_TRUE(matches && matches->is_hashtable()) << op;
        Strings got;
        for (const auto& [key, value] : matches->get_hashtable().entries) {
          got.push_back(value.to_display_string());
        }
        EXPECT_EQ(got, groups) << op;
      } else {
        EXPECT_TRUE(!matches || matches->is_null()) << op;
      }
      in.evaluate_script(std::string("$o = $a ") + op + " $p");
      Strings expected;
      for (const std::string& t : texts) {
        if (ref_search(t, c.pattern, icase) != negate) expected.push_back(t);
      }
      EXPECT_EQ(items(in.get_variable("o")), expected) << op;
    }

    in.evaluate_script("$o = @($a | Select-String $p)");
    Strings selected;
    for (const std::string& t : texts) {
      if (ref_search(t, c.pattern, true)) selected.push_back(t);
    }
    EXPECT_EQ(items(in.get_variable("o")), selected);

    in.evaluate_script("$o = [regex]::Split($t, $p)");
    EXPECT_EQ(items(in.get_variable("o")), ref_split(c.text, c.pattern, false));
    in.evaluate_script("$o = [regex]::Replace($t, $p, $r)");
    EXPECT_EQ(items(in.get_variable("o")),
              Strings{ref_replace(c.text, c.pattern, replacement, false)});
    in.evaluate_script("$o = [regex]::Matches($t, $p)");
    EXPECT_EQ(items(in.get_variable("o")), ref_matches(c.text, c.pattern));
  }
}

TEST(PatternOps, OperatorQuirksAndErrors) {
  Interpreter in;
  in.evaluate_script("$o = ',a,b,' -split ','");
  EXPECT_EQ(items(in.get_variable("o")), (Strings{"", "a", "b"}));
  in.evaluate_script("$o = '' -split ','");
  EXPECT_EQ(items(in.get_variable("o")), (Strings{""}));
  in.evaluate_script("$o = 'aXbxc' -split 'x'");
  EXPECT_EQ(items(in.get_variable("o")), (Strings{"a", "b", "c"}));
  in.evaluate_script("$o = 'aXbxc' -csplit 'x'");
  EXPECT_EQ(items(in.get_variable("o")), (Strings{"aXb", "c"}));
  // `$` in a replacement is the regex formatter, even for a literal pattern.
  in.evaluate_script("$o = 'a.b' -replace '\\.', '[$&]'");
  EXPECT_EQ(items(in.get_variable("o")), (Strings{"a[.]b"}));
  in.evaluate_script("$o = [regex]::Replace('a|b', '\\|', '$$')");
  EXPECT_EQ(items(in.get_variable("o")), (Strings{"a$b"}));
  EXPECT_THROW(in.evaluate_script("'a' -split '('"), EvalError);
  EXPECT_THROW(in.evaluate_script("'a' -replace '(', 'x'"), EvalError);
  EXPECT_THROW(in.evaluate_script("'a' -match '['"), EvalError);
  EXPECT_THROW(in.evaluate_script("'a' | Select-String '('"), EvalError);
  EXPECT_THROW(in.evaluate_script("[regex]::Split('a', '(')"), EvalError);
}

}  // namespace
}  // namespace ps
