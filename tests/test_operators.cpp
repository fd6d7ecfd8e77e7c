// The operator table (src/pslang/operators.h): every spelling lexes as one
// operator token and parses to its id, the case variants evaluate with
// their case rule, and the ordering comparisons filter an array left
// operand as -eq does, on both piece-evaluation rungs.

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>

#include "core/deobfuscator.h"
#include "psast/ast.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"
#include "pslang/alias_table.h"
#include "pslang/lexer.h"
#include "pslang/operators.h"

namespace {

using ps::Op;

/// The expression of a one-statement script, which must parse.
const ps::Ast& lone_expression(const ps::ParsedScript& parsed) {
  const auto& stmt = *parsed->named_blocks.front()->statements.front();
  EXPECT_EQ(stmt.kind(), ps::NodeKind::Pipeline);
  const auto& pipe = static_cast<const ps::PipelineAst&>(stmt);
  return *static_cast<const ps::CommandExpressionAst&>(*pipe.elements.front())
              .expression;
}

std::string evaluate(const std::string& script) {
  ps::Interpreter interp;
  return interp.evaluate_script(script).to_display_string();
}

TEST(OperatorTable, SpellingsAreUniqueAndRoundTrip) {
  for (const ps::OperatorInfo& row : ps::operator_table()) {
    const ps::OperatorInfo* found = ps::find_operator(row.spelling);
    ASSERT_NE(found, nullptr) << row.spelling;
    EXPECT_EQ(found, &row) << row.spelling;
    if (row.spelling.size() > 1 && row.spelling[0] == '-' &&
        std::isalpha(static_cast<unsigned char>(row.spelling[1]))) {
      EXPECT_TRUE(ps::is_named_operator(row.spelling.substr(1)))
          << row.spelling;
      EXPECT_EQ(ps::find_named_operator(ps::to_lower(row.spelling.substr(1))),
                &row);
    }
  }
  EXPECT_EQ(ps::find_named_operator("CGT"), ps::find_operator("-cgt"));
  EXPECT_EQ(ps::find_named_operator("bogus"), nullptr);
  EXPECT_EQ(ps::find_operator("-Eq"), nullptr);  // spellings are canonical
  EXPECT_EQ(ps::spelling(Op::Eq), "-eq");
  EXPECT_EQ(ps::spelling(Op::Subtract), "-");
  EXPECT_EQ(ps::spelling(Op::Bxor), "-bxor");
  EXPECT_EQ(ps::find_operator("+=")->op, Op::Add);
  EXPECT_EQ(ps::find_operator("=")->op, Op::None);
}

TEST(OperatorTable, CompoundAssignmentsShareTheBinaryIds) {
  const std::pair<const char*, Op> cases[] = {{"$a = 1", Op::None},
                                              {"$a += 1", Op::Add},
                                              {"$a -= 1", Op::Subtract},
                                              {"$a *= 1", Op::Multiply},
                                              {"$a /= 1", Op::Divide},
                                              {"$a %= 1", Op::Remainder}};
  for (const auto& [text, id] : cases) {
    const ps::ParsedScript parsed = ps::parse(text);
    const auto& stmt = *parsed->named_blocks.front()->statements.front();
    ASSERT_EQ(stmt.kind(), ps::NodeKind::AssignmentStatement) << text;
    EXPECT_EQ(static_cast<const ps::AssignmentStatementAst&>(stmt).id, id)
        << text;
  }
  EXPECT_EQ(evaluate("$a = 7; $a -= 2; $a *= 3; $a %= 4; $a"), "3");
}

struct CaseVariant {
  const char* script;
  const char* spelling;
  Op op;
  bool case_sensitive;
  const char* value;
};

TEST(CaseVariantOperators, EachLexesParsesAndEvaluates) {
  const CaseVariant cases[] = {
      {"'A' -cgt 'a'", "-cgt", Op::Gt, true, "True"},
      {"'a' -cgt 'A'", "-cgt", Op::Gt, true, "False"},
      {"'b' -igt 'A'", "-igt", Op::Gt, false, "True"},
      {"'a' -cge 'A'", "-cge", Op::Ge, true, "False"},
      {"'b' -ige 'B'", "-ige", Op::Ge, false, "True"},
      {"'a' -clt 'A'", "-clt", Op::Lt, true, "True"},
      {"'a' -ilt 'B'", "-ilt", Op::Lt, false, "True"},
      {"'A' -cle 'a'", "-cle", Op::Le, true, "False"},
      {"'A' -ile 'a'", "-ile", Op::Le, false, "True"},
      {"'abc' -cnotlike 'A*'", "-cnotlike", Op::NotLike, true, "True"},
      {"'abc' -inotlike 'A*'", "-inotlike", Op::NotLike, false, "False"},
      {"'abc' -cnotmatch 'B'", "-cnotmatch", Op::NotMatch, true, "True"},
      {"'abc' -inotmatch 'B'", "-inotmatch", Op::NotMatch, false, "False"},
      {"('a','b') -ccontains 'A'", "-ccontains", Op::Contains, true, "False"},
      {"('a','b') -icontains 'A'", "-icontains", Op::Contains, false, "True"},
      {"('a','b') -cnotcontains 'A'", "-cnotcontains", Op::NotContains, true,
       "True"},
      {"('a','b') -inotcontains 'A'", "-inotcontains", Op::NotContains, false,
       "False"},
      {"'A' -cin ('a','b')", "-cin", Op::In, true, "False"},
      {"'A' -iin ('a','b')", "-iin", Op::In, false, "True"},
      {"'A' -cnotin ('a','b')", "-cnotin", Op::NotIn, true, "True"},
      {"'A' -inotin ('a','b')", "-inotin", Op::NotIn, false, "False"},
      // The older case variants keep their rule too.
      {"'abc' -clike 'A*'", "-clike", Op::Like, true, "False"},
      {"'abc' -ilike 'A*'", "-ilike", Op::Like, false, "True"},
      {"'a' -ceq 'A'", "-ceq", Op::Eq, true, "False"},
      {"'a' -ine 'A'", "-ine", Op::Ne, false, "False"},
  };
  for (const CaseVariant& c : cases) {
    // One operator token, spelled canonically.
    const ps::TokenStream tokens = ps::tokenize(c.script);
    int operators = 0;
    for (const ps::Token& t : tokens) {
      if (t.type == ps::TokenType::Operator && t.content == c.spelling) {
        ++operators;
      }
    }
    EXPECT_EQ(operators, 1) << c.script;
    // One binary node carrying the id and the case rule.
    const ps::ParsedScript parsed = ps::parse(c.script);
    const ps::Ast& expr = lone_expression(parsed);
    ASSERT_EQ(expr.kind(), ps::NodeKind::BinaryExpression) << c.script;
    const auto& bin = static_cast<const ps::BinaryExpressionAst&>(expr);
    EXPECT_EQ(bin.op, c.spelling) << c.script;
    EXPECT_EQ(bin.id, c.op) << c.script;
    EXPECT_EQ(bin.case_sensitive, c.case_sensitive) << c.script;
    EXPECT_EQ(evaluate(c.script), c.value) << c.script;
  }
}

TEST(CaseVariantOperators, NamedOperatorsIgnoreCase) {
  EXPECT_EQ(evaluate("'A' -CGT 'a'"), "True");
  EXPECT_EQ(evaluate("'abc' -NotMatch 'x'"), "True");
}

TEST(CaseVariantOperators, ScriptsUsingThemAreRecoveredNotPassedThrough) {
  ideobf::InvokeDeobfuscator engine;
  ideobf::DeobfuscationReport report;
  const std::string out =
      engine.deobfuscate("$c = 'x' + ('A' -cgt 'a'); Write-Host $c", report);
  EXPECT_NE(report.failure, ideobf::FailureKind::ParseError) << out;
  EXPECT_NE(out.find("Write-Host 'xTrue'"), std::string::npos) << out;
}

TEST(ComparisonOperators, OrderingFiltersAnArrayLeftOperand) {
  const std::pair<const char*, const char*> cases[] = {
      {"-join ((1,5,10) -gt 3)", "510"},
      {"-join ((1,5,10) -ge 5)", "510"},
      {"-join ((1,5,10) -lt 6)", "15"},
      {"-join ((1,5,10) -le 1)", "1"},
      {"-join (('a','A','b') -cgt 'a')", "Ab"},
      {"-join (('a','A','b') -igt 'a')", "b"},
      {"-join ((1,5,10) -eq 5)", "5"},
      {"-join ((1,2) -gt 5)", ""},
  };
  for (const auto& [script, value] : cases) {
    EXPECT_EQ(evaluate(script), value) << script;
  }
}

TEST(ComparisonOperators, FilteredArrayRecoversOnBothRungs) {
  // Fold rung: the -join piece is pure. Tree-walk rung: it reads a traced
  // array, which has no literal form, so the piece is impure.
  ideobf::InvokeDeobfuscator engine;
  ideobf::DeobfuscationReport report;
  const std::string folded = engine.deobfuscate(
      "$a = -join ((1,5,10) -gt 3); Write-Host $a", report);
  EXPECT_NE(folded.find("'510'"), std::string::npos) << folded;
  EXPECT_EQ(folded.find("'False'"), std::string::npos) << folded;
  EXPECT_GT(report.recovery.pieces_folded, 0);

  const std::string walked = engine.deobfuscate(
      "$n = 1,5,10; $a = -join ($n -gt 3); Write-Host $a", report);
  EXPECT_NE(walked.find("'510'"), std::string::npos) << walked;
  EXPECT_EQ(walked.find("'False'"), std::string::npos) << walked;
  EXPECT_GT(report.recovery.treewalk_fallbacks, 0);
}

TEST(CastNormalization, TypeKeyIsLoweredWithoutSystemPrefix) {
  const ps::ParsedScript parsed = ps::parse("[System.Char]65");
  const ps::Ast& expr = lone_expression(parsed);
  ASSERT_EQ(expr.kind(), ps::NodeKind::ConvertExpression);
  const auto& conv = static_cast<const ps::ConvertExpressionAst&>(expr);
  EXPECT_EQ(conv.type_name, "System.Char");
  EXPECT_EQ(conv.type_key, "char");
  EXPECT_EQ(evaluate("[System.Char]65"), "A");
  EXPECT_EQ(evaluate("[STRING]5 + 1"), "51");
  EXPECT_EQ(evaluate("'65' -as [int]"), "65");
  EXPECT_EQ(evaluate("[System.Type]'x'"), "[system.type]");
}

}  // namespace
