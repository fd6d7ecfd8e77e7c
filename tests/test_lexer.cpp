// Unit tests for the PowerShell tokenizer (PSParser::Tokenize substitute).

#include <gtest/gtest.h>

#include <cctype>
#include <optional>

#include "pslang/alias_table.h"
#include "pslang/lexer.h"

namespace ps {
namespace {

TokenStream lex(std::string_view src) { return tokenize(src); }

/// Filtered view of a token stream. Keeps the TokenStream (and with it the
/// pinned source/interner buffers the tokens' views point into) alive for
/// as long as the filtered tokens are used.
struct SignificantTokens {
  TokenStream stream;
  std::vector<Token> toks;

  [[nodiscard]] std::size_t size() const { return toks.size(); }
  const Token& operator[](std::size_t i) const { return toks[i]; }
  [[nodiscard]] auto begin() const { return toks.begin(); }
  [[nodiscard]] auto end() const { return toks.end(); }
};

SignificantTokens significant(std::string_view src) {
  SignificantTokens out;
  out.stream = tokenize(src);
  for (auto& t : out.stream) {
    if (t.type != TokenType::NewLine && t.type != TokenType::Comment &&
        t.type != TokenType::LineContinuation) {
      out.toks.push_back(t);
    }
  }
  return out;
}

TEST(Lexer, SimpleCommand) {
  auto toks = significant("Write-Host hello");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].type, TokenType::Command);
  EXPECT_EQ(toks[0].content, "Write-Host");
  EXPECT_EQ(toks[1].type, TokenType::CommandArgument);
  EXPECT_EQ(toks[1].content, "hello");
}

TEST(Lexer, CommandWithParameter) {
  auto toks = significant("powershell -EncodedCommand aGkA");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].type, TokenType::Command);
  EXPECT_EQ(toks[1].type, TokenType::CommandParameter);
  EXPECT_EQ(toks[1].content, "-EncodedCommand");
  EXPECT_EQ(toks[2].type, TokenType::CommandArgument);
}

TEST(Lexer, TickedCommandNameIsUnescaped) {
  // Listing 2 of the paper: ticking only has visual effect.
  auto toks = significant("nE`w-oBjE`Ct nET.wE`bcLiEnT");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].type, TokenType::Command);
  EXPECT_EQ(toks[0].content, "nEw-oBjECt");
  EXPECT_EQ(toks[0].text, "nE`w-oBjE`Ct");
  EXPECT_EQ(toks[1].content, "nET.wEbcLiEnT");
}

TEST(Lexer, TokenExtentsTileTheSource) {
  const std::string src = "Write-Host 'a b' $x; iex $y";
  for (const auto& t : lex(src)) {
    EXPECT_EQ(src.substr(t.start, t.length), t.text);
  }
}

TEST(Lexer, SingleQuotedString) {
  auto toks = significant("'it''s'");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, TokenType::String);
  EXPECT_EQ(toks[0].quote, QuoteKind::Single);
  EXPECT_EQ(toks[0].content, "it's");
  EXPECT_FALSE(toks[0].expandable);
}

TEST(Lexer, DoubleQuotedConstant) {
  auto toks = significant(R"("a`tb""c")");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].quote, QuoteKind::Double);
  EXPECT_FALSE(toks[0].expandable);
  EXPECT_EQ(toks[0].content, "a\tb\"c");
}

TEST(Lexer, DoubleQuotedExpandableKeepsRaw) {
  auto toks = significant(R"("value: $x")");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_TRUE(toks[0].expandable);
  EXPECT_EQ(toks[0].content, "value: $x");
}

TEST(Lexer, Variables) {
  auto toks = significant("$a = $env:ComSpec");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].type, TokenType::Variable);
  EXPECT_EQ(toks[0].content, "a");
  EXPECT_EQ(toks[1].type, TokenType::Operator);
  EXPECT_EQ(toks[1].content, "=");
  EXPECT_EQ(toks[2].type, TokenType::Variable);
  EXPECT_EQ(toks[2].content, "env:ComSpec");
}

TEST(Lexer, BracedVariable) {
  auto toks = significant("${weird name}");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].type, TokenType::Variable);
  EXPECT_EQ(toks[0].content, "weird name");
}

TEST(Lexer, UnderscoreVariable) {
  auto toks = significant("$_ -bxor 0x4B");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].content, "_");
  EXPECT_EQ(toks[1].type, TokenType::Operator);
  EXPECT_EQ(toks[1].content, "-bxor");
  EXPECT_EQ(toks[2].type, TokenType::Number);
}

TEST(Lexer, PipelineResetsToCommandMode) {
  auto toks = significant("'abc' | iex");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].type, TokenType::String);
  EXPECT_EQ(toks[1].content, "|");
  EXPECT_EQ(toks[2].type, TokenType::Command);
  EXPECT_EQ(toks[2].content, "iex");
}

TEST(Lexer, FormatOperatorAndIndexing) {
  auto toks = significant("\"{0}\" -f 'a'");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].type, TokenType::Operator);
  EXPECT_EQ(toks[1].content, "-f");

  toks = significant("$env:ComSpec[4,24,25]");
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].type, TokenType::Variable);
  EXPECT_EQ(toks[1].type, TokenType::GroupStart);
  EXPECT_EQ(toks[1].content, "[");
}

TEST(Lexer, TypeLiteralVsIndex) {
  auto toks = significant("[char]65");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].type, TokenType::Type);
  EXPECT_EQ(toks[0].content, "char");
  EXPECT_EQ(toks[1].type, TokenType::Number);

  // After an operand, adjacent '[' is indexing.
  toks = significant("$x[0]");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[1].type, TokenType::GroupStart);

  // A cast chain is two type literals, not an index.
  toks = significant("[STRiNg][CHar]39");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].type, TokenType::Type);
  EXPECT_EQ(toks[1].type, TokenType::Type);
  EXPECT_EQ(toks[1].content, "CHar");
}

TEST(Lexer, MemberAccessAndInvocation) {
  auto toks = significant("(New-Object Net.WebClient).downloadstring('u')");
  // ( New-Object Net.WebClient ) . downloadstring ( 'u' )
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks[0].type, TokenType::GroupStart);
  EXPECT_EQ(toks[1].type, TokenType::Command);
  EXPECT_EQ(toks[2].type, TokenType::CommandArgument);
  EXPECT_EQ(toks[3].type, TokenType::GroupEnd);
  EXPECT_EQ(toks[4].content, ".");
  EXPECT_EQ(toks[5].type, TokenType::Member);
  EXPECT_EQ(toks[5].content, "downloadstring");
  EXPECT_EQ(toks[6].type, TokenType::GroupStart);
  EXPECT_EQ(toks[7].type, TokenType::String);
}

TEST(Lexer, StaticMember) {
  auto toks = significant("[Convert]::FromBase64String('QQ==')");
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[0].type, TokenType::Type);
  EXPECT_EQ(toks[1].content, "::");
  EXPECT_EQ(toks[2].type, TokenType::Member);
  EXPECT_EQ(toks[2].content, "FromBase64String");
}

TEST(Lexer, DotInvocationOperator) {
  auto toks = significant(". ('ie'+'x') 'write-host hi'");
  EXPECT_EQ(toks[0].type, TokenType::Operator);
  EXPECT_EQ(toks[0].content, ".");
  EXPECT_EQ(toks[1].type, TokenType::GroupStart);
}

TEST(Lexer, AmpersandInvocation) {
  auto toks = significant("& 'iex' $cmd");
  EXPECT_EQ(toks[0].content, "&");
  EXPECT_EQ(toks[1].type, TokenType::String);
  EXPECT_EQ(toks[2].type, TokenType::Variable);
}

TEST(Lexer, KeywordsAndBlocks) {
  auto toks = significant("if ($a) { $b } else { $c }");
  EXPECT_EQ(toks[0].type, TokenType::Keyword);
  EXPECT_EQ(toks[0].content, "if");
  // 'else' after '}' must also be recognized as keyword.
  bool saw_else = false;
  for (auto& t : toks) {
    if (t.type == TokenType::Keyword && t.content == "else") saw_else = true;
  }
  EXPECT_TRUE(saw_else);
}

TEST(Lexer, ForeachAfterPipeIsCommand) {
  auto toks = significant("1,2 | foreach { $_ }");
  bool found = false;
  for (auto& t : toks) {
    if (t.content == "foreach") {
      EXPECT_EQ(t.type, TokenType::Command);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Statement-position foreach stays a keyword.
  toks = significant("foreach ($x in $y) { }");
  EXPECT_EQ(toks[0].type, TokenType::Keyword);
}

TEST(Lexer, PercentAliasCommand) {
  auto toks = significant("1,2| fOrEAch-ObJECt{ [cHAR]$_ }");
  bool found = false;
  for (auto& t : toks) {
    if (iequals(t.content, "foreach-object")) {
      EXPECT_EQ(t.type, TokenType::Command);
      found = true;
    }
  }
  EXPECT_TRUE(found);

  toks = significant("1,2 | % { $_ }");
  found = false;
  for (auto& t : toks) {
    if (t.content == "%" && t.type == TokenType::Command) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Lexer, LineContinuation) {
  auto toks = lex("Write-Host `\nhello");
  bool has_cont = false;
  for (auto& t : toks) {
    if (t.type == TokenType::LineContinuation) has_cont = true;
  }
  EXPECT_TRUE(has_cont);
}

TEST(Lexer, Comments) {
  auto toks = lex("# line comment\nWrite-Host hi <# block #>");
  EXPECT_EQ(toks[0].type, TokenType::Comment);
}

TEST(Lexer, HereString) {
  auto toks = significant("@'\nabc\ndef\n'@");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].quote, QuoteKind::HereSingle);
  EXPECT_EQ(toks[0].content, "abc\ndef");
}

TEST(Lexer, RangeOperator) {
  auto toks = significant("-1..-9");
  // - 1 .. - 9
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[2].content, "..");
}

TEST(Lexer, NumberForms) {
  auto toks = significant("0x4B 3.14 10");
  // First token is a Command ("0x4B" begins a statement)? No: digits start a
  // number at statement start.
  EXPECT_EQ(toks[0].type, TokenType::Number);
  EXPECT_EQ(toks[0].content, "0x4B");
}

TEST(Lexer, SplitChainFromListing4) {
  const char* src =
      "( '99S5i46}60' -SPLIT'~' -SPLit 'd' -SPliT '}' | fOrEAch-ObJECt { "
      "[cHAR]($_ -BxoR '0x4B') }) -jOiN ''";
  auto toks = significant(src);
  int split_ops = 0, join_ops = 0;
  for (auto& t : toks) {
    if (t.type == TokenType::Operator && t.content == "-split") split_ops++;
    if (t.type == TokenType::Operator && t.content == "-join") join_ops++;
  }
  EXPECT_EQ(split_ops, 3);
  EXPECT_EQ(join_ops, 1);
}

TEST(Lexer, LenientModeReturnsPartial) {
  bool ok = true;
  auto toks = tokenize_lenient("Write-Host 'unterminated", ok);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(toks.empty());
}

TEST(Lexer, ThrowsOnUnterminatedString) {
  EXPECT_THROW(tokenize("'abc"), LexError);
}

TEST(AliasTable, ResolvesIex) {
  auto full = AliasTable::standard().resolve("IeX");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, "Invoke-Expression");
}

TEST(AliasTable, AliasForRoundTrip) {
  auto alias = AliasTable::standard().alias_for("Invoke-Expression");
  ASSERT_TRUE(alias.has_value());
  auto back = AliasTable::standard().resolve(*alias);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "Invoke-Expression");
}

TEST(AliasTable, AliasForMatchesTableScanForEveryCmdlet) {
  // alias_for is one map lookup; the scan it replaced picked the shortest
  // alias of a cmdlet, the first in table order among equals.
  const AliasTable& table = AliasTable::standard();
  const auto scan = [&](std::string_view cmdlet) {
    std::optional<std::string> best;
    for (const auto& [alias, canonical] : table.entries()) {
      if (iequals(canonical, cmdlet) &&
          (!best || alias.size() < best->size())) {
        best = alias;
      }
    }
    return best;
  };
  for (const auto& [alias, cmdlet] : table.entries()) {
    std::string upper = cmdlet;
    for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    for (const std::string& spelling : {cmdlet, to_lower(cmdlet), upper}) {
      EXPECT_EQ(table.alias_for(spelling), scan(spelling)) << spelling;
    }
  }
  EXPECT_EQ(table.alias_for("Remove-Item"), "ri");  // ri, rm, rd: first wins
  EXPECT_EQ(table.alias_for("Write-Host"), std::nullopt);
  EXPECT_EQ(table.alias_for(""), std::nullopt);
}

TEST(AliasTable, KnowsCmdlets) {
  EXPECT_TRUE(AliasTable::standard().is_known_cmdlet("write-host"));
  EXPECT_TRUE(AliasTable::standard().is_known_cmdlet("Invoke-Expression"));
  EXPECT_FALSE(AliasTable::standard().is_known_cmdlet("Totally-Fake"));
}

}  // namespace
}  // namespace ps
