// Tests for the Invoke-Obfuscation-equivalent workload generator, including
// the central round-trip property: for every technique the paper's tool
// handles (Table II), deobfuscate(obfuscate(s)) recovers the original
// content — in all three placement positions the paper evaluates.

#include <gtest/gtest.h>

#include "core/deobfuscator.h"
#include "obfuscator/obfuscator.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"
#include "pslang/alias_table.h"

namespace ideobf {
namespace {

bool contains_ci(std::string_view haystack, std::string_view needle) {
  const std::string h = ps::to_lower(haystack);
  const std::string n = ps::to_lower(needle);
  return h.find(n) != std::string::npos;
}

TEST(Obfuscator, LevelsMatchTableII) {
  EXPECT_EQ(technique_level(Technique::Ticking), 1);
  EXPECT_EQ(technique_level(Technique::Alias), 1);
  EXPECT_EQ(technique_level(Technique::Concat), 2);
  EXPECT_EQ(technique_level(Technique::Reverse), 2);
  EXPECT_EQ(technique_level(Technique::Base64Encoding), 3);
  EXPECT_EQ(technique_level(Technique::SecureString), 3);
  EXPECT_EQ(technique_level(Technique::Compress), 3);
  EXPECT_EQ(all_techniques().size(), 19u);
}

TEST(Obfuscator, OutputIsValidSyntax) {
  Obfuscator obf(42);
  const char* script = "Write-Host 'hello world from a script'";
  for (Technique t : all_techniques()) {
    const std::string out = obf.apply(t, script);
    EXPECT_TRUE(ps::is_valid_syntax(out))
        << to_string(t) << " produced invalid syntax: " << out;
  }
}

TEST(Obfuscator, OutputActuallyChanges) {
  Obfuscator obf(7);
  const char* script =
      "Get-ChildItem 'C:\\temp'; $path = 'C:\\temp\\payload.ps1'";
  for (Technique t : all_techniques()) {
    const std::string out = obf.apply(t, script);
    EXPECT_NE(out, script) << to_string(t);
  }
}

TEST(Obfuscator, ObfuscatedLiteralEvaluatesBack) {
  Obfuscator obf(99);
  const std::string content = "https://evil.example/stage2.ps1";
  for (Technique t : all_techniques()) {
    if (t == Technique::WhitespaceEncoding) continue;  // script-level only
    if (technique_level(t) == 1) continue;             // token-level
    const std::string expr = obf.obfuscate_literal(t, content);
    ps::Interpreter interp;
    EXPECT_EQ(interp.evaluate_script(expr).to_display_string(), content)
        << to_string(t) << ": " << expr;
  }
}

TEST(Obfuscator, LiteralWithQuotesRoundTrips) {
  Obfuscator obf(5);
  const std::string content = "it's a 'quoted' string";
  for (Technique t : {Technique::Concat, Technique::Reorder, Technique::Replace,
                      Technique::Base64Encoding, Technique::Bxor,
                      Technique::SecureString, Technique::Compress}) {
    const std::string expr = obf.obfuscate_literal(t, content);
    ps::Interpreter interp;
    EXPECT_EQ(interp.evaluate_script(expr).to_display_string(), content)
        << to_string(t) << ": " << expr;
  }
}

TEST(Obfuscator, TickingInsertsTicks) {
  Obfuscator obf(3);
  const std::string out = obf.apply(Technique::Ticking, "New-Object Net.WebClient");
  EXPECT_NE(out.find('`'), std::string::npos);
}

TEST(Obfuscator, AliasSubstitutes) {
  Obfuscator obf(3);
  const std::string out =
      obf.apply(Technique::Alias, "Invoke-Expression 'x'; Get-ChildItem");
  EXPECT_TRUE(contains_ci(out, "iex"));
  EXPECT_FALSE(contains_ci(out, "Invoke-Expression"));
}

TEST(Obfuscator, RandomNameProducesRandomIdentifiers) {
  Obfuscator obf(11);
  const std::string out = obf.apply(
      Technique::RandomName, "$downloader = 'x'; Write-Host $downloader");
  EXPECT_FALSE(contains_ci(out, "$downloader"));
  EXPECT_TRUE(ps::is_valid_syntax(out));
}

TEST(Obfuscator, WhitespaceEncodingIsSelfDecoding) {
  // The sandbox can execute it (behavior preserved) even though static
  // deobfuscation cannot trace the loop (paper Table II).
  Obfuscator obf(8);
  const std::string out =
      obf.apply(Technique::WhitespaceEncoding, "Write-Output 'ws-ok'");
  ps::Interpreter interp;
  EXPECT_EQ(interp.evaluate_script(out).to_display_string(), "ws-ok") << out;
}

TEST(Obfuscator, SpecialCharWrapsWholeScript) {
  Obfuscator obf(8);
  const std::string out =
      obf.apply(Technique::SpecialCharEncoding, "Write-Output 'sc-ok'");
  ps::Interpreter interp;
  EXPECT_EQ(interp.evaluate_script(out).to_display_string(), "sc-ok") << out;
}

TEST(Obfuscator, WrapLayerStyles) {
  Obfuscator obf(21);
  ps::Interpreter interp;
  for (auto style : {Obfuscator::LayerStyle::IexArgument,
                     Obfuscator::LayerStyle::IexPipe,
                     Obfuscator::LayerStyle::EncodedCommand}) {
    const std::string out =
        obf.wrap_layer("Write-Output 'layered'", Technique::Base64Encoding, style);
    EXPECT_TRUE(ps::is_valid_syntax(out));
    EXPECT_EQ(interp.evaluate_script(out).to_display_string(), "layered") << out;
  }
}

// --------------------------- the Table II round-trip property -----------

struct AbilityCase {
  Technique technique;
  int position;  // 0 separate line, 1 assignment, 2 pipe
};

class RoundTrip : public ::testing::TestWithParam<AbilityCase> {};

TEST_P(RoundTrip, DeobfuscationRecoversContent) {
  const AbilityCase& c = GetParam();
  Obfuscator obf(1234 + static_cast<int>(c.technique) * 10 + c.position);

  const std::string marker = "hello-marker-9731";
  std::string piece;
  if (technique_level(c.technique) == 1 ||
      c.technique == Technique::WhitespaceEncoding ||
      c.technique == Technique::SpecialCharEncoding) {
    piece = obf.apply(c.technique, "Write-Host '" + marker + "'");
  } else {
    piece = "Write-Host " + obf.obfuscate_literal(c.technique, marker);
  }

  std::string script;
  switch (c.position) {
    case 0: script = piece; break;
    case 1: script = "$tmp = " + piece; break;
    default: script = piece + " | Out-Null"; break;
  }
  // Whole-script wrappers cannot be embedded in assignment/pipe positions.
  if ((c.technique == Technique::WhitespaceEncoding ||
       c.technique == Technique::SpecialCharEncoding) &&
      c.position != 0) {
    GTEST_SKIP();
  }

  ASSERT_TRUE(ps::is_valid_syntax(script)) << script;
  InvokeDeobfuscator deobf;
  const std::string out = deobf.deobfuscate(script);
  EXPECT_TRUE(ps::is_valid_syntax(out)) << out;

  if (c.technique == Technique::WhitespaceEncoding) {
    // The paper's tool cannot recover this one (Table II); ours models the
    // same limitation.
    EXPECT_FALSE(contains_ci(out, marker)) << out;
    return;
  }
  EXPECT_TRUE(contains_ci(out, marker))
      << to_string(c.technique) << " pos " << c.position << "\nscript: " << script
      << "\nout: " << out;
}

std::vector<AbilityCase> ability_cases() {
  std::vector<AbilityCase> cases;
  for (Technique t : all_techniques()) {
    for (int pos = 0; pos < 3; ++pos) cases.push_back({t, pos});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllTechniquesAllPositions, RoundTrip, ::testing::ValuesIn(ability_cases()),
    [](const ::testing::TestParamInfo<AbilityCase>& info) {
      return std::string(to_string(info.param.technique)) + "_pos" +
             std::to_string(info.param.position);
    });

TEST(Obfuscator, Deterministic) {
  Obfuscator a(77), b(77);
  const char* script = "Write-Host 'abcdefgh'";
  for (Technique t : all_techniques()) {
    EXPECT_EQ(a.apply(t, script), b.apply(t, script)) << to_string(t);
  }
}

/// The marker of a `('holed'.Replace('marker', ...))` expression.
std::string replace_marker(const std::string& expr) {
  const std::size_t at = expr.find(".Replace('") + 10;
  return expr.substr(at, expr.find('\'', at) - at);
}

// Property: a Replace-obfuscated literal evaluates back to exactly its
// text. A marker absent from the text can still form across a punched hole
// and its neighbours when it overlaps itself ('Bs' + 'sss' reads 'sss' one
// character early). For a fixed seed and text length the marker draw does
// not depend on the text, so each seed is probed once with a neutral text;
// when the marker has a border, the text is rebuilt as holes followed by
// the marker's tail after that border, the arrangement that forms it.
TEST(Obfuscator, ReplaceMarkerNeverFormsAcrossHoles) {
  constexpr std::size_t kLen = 8;
  int adversarial = 0;
  int lengthened = 0;
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    const std::string marker =
        replace_marker(Obfuscator(seed).obfuscate_literal(Technique::Replace,
                                                          std::string(kLen, '#')));
    std::size_t border = 0;
    for (std::size_t b = marker.size() - 1; b > 0 && border == 0; --b) {
      if (marker.compare(0, b, marker, marker.size() - b, b) == 0) border = b;
    }
    if (border == 0) continue;
    std::string text;
    while (text.size() < kLen) text += "#" + marker.substr(border);
    text.resize(kLen);
    const std::string expr = Obfuscator(seed).obfuscate_literal(Technique::Replace, text);
    ps::Interpreter interp;
    EXPECT_EQ(interp.evaluate_script(expr).to_display_string(), text) << expr;
    ++adversarial;
    if (replace_marker(expr).size() > marker.size()) ++lengthened;
  }
  EXPECT_GT(adversarial, 20);
  EXPECT_GT(lengthened, 0);
}

TEST(Obfuscator, ReplaceMarkerIsRestoredByLiteralReplace) {
  // A text holding every pad character still round-trips.
  std::string text;
  for (char c : std::string_view("bcdfghjklmnpqrstvwxzBCDFGHJKLMNPQRSTVWXZ0123456789_~#@!%^&*")) {
    text += std::string(3, c);
  }
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Obfuscator obf(seed);
    const std::string expr = obf.obfuscate_literal(Technique::Replace, text);
    ps::Interpreter interp;
    EXPECT_EQ(interp.evaluate_script(expr).to_display_string(), text) << expr;
  }
}

}  // namespace
}  // namespace ideobf
