// Tests for evaluating each piece at most once: the seeded interpreter's
// refusal (a tree-walk entry whose failure the tree already shows is
// recorded without evaluating), checked differentially against the walk
// itself through RecoveryOptions::verify_refusals; and the binding of
// evaluated pure pieces with no literal form, whose value enclosing pieces
// read instead of evaluating them again.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deobfuscator.h"
#include "core/recovery.h"
#include "corpus/corpus.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"
#include "recovery_options_frontend.h"
#include "telemetry/telemetry.h"

namespace ideobf {
namespace {

struct PassResult {
  std::string out;
  RecoveryStats stats;
};

/// One recovery pass with every refusal checked against the walk: a
/// mismatch throws std::logic_error out of the pass.
PassResult verified_pass(const std::string& script, RecoveryOptions options) {
  options.verify_refusals = true;
  ps::ParseCache table;
  const ps::ParsedScript parsed = ps::parse(script);
  PassResult r;
  r.out = recovery_pass(script, parsed, options, &r.stats, nullptr, &table);
  return r;
}

PassResult verified_pass(const std::string& script) {
  return verified_pass(script, RecoveryOptions{});
}

// Each ordering rule of Interpreter::refusal, with the unbound `$u` first
// on the evaluation path: the piece is refused, and the walk agrees.
const char* const kRefusedShapes[] = {
    "$u + 'a'",                            // Binary -> left
    "$u -and $true",                       // -and evaluates its left first
    "$u -or $false",                       //
    "[string]$u",                          // Convert -> child
    "$u[0]",                               // Index -> target
    "-join $u",                            // value unary -> child
    "$u.ToUpper()",                        // InvokeMember -> target
    "'abc'.Replace($u, 'x')",              // InvokeMember -> first argument
    "[string]::Concat($u, 'x')",           // static invoke -> first argument
    "'abc'.$u",                            // non-constant member
    "$u.Length",                           // Member -> target
    "($u)",                                // Paren -> its pipeline
    "$($u)",                               // SubExpression -> first statement
    "@($u)",                               // ArrayExpression
    "$u, 1",                               // ArrayLiteral -> first element
    "$u | ForEach-Object { $_ }",          // Pipeline -> first element
    "Write-Output $u",                     // Command -> first argument
    "Write-Output -InputObject $u",        // a parameter takes the next element
    "Write-Output -InputObject:$u",        // an attached argument
    "Write-Output -Force $u",              // a switch takes nothing
    "& $u",                                // a computed name is evaluated
    "$u++",                                // ++ reads its variable
    "$env:IDEOBF_NO_SUCH_VAR + 'a'",       // an unknown environment variable
    "1..3 | ForEach-Object { [char]($_ + 65) }",  // $_ outside its block
    "Start-Process 'x'",                   // a blocked command name
    "saps 'x'",                            // an alias of one
    "IWR('x')",                            //
    "& 'iwr' 'x'",                         // a constant invoked name
    "sleep 1",                             // Start-Sleep through its alias
    "Start-Process $u",                    // the filter, before the arguments
    "Write-Output (iwr 'x')",              // a blocked command in an argument
};

TEST(PieceRefusal, OrderingRulesRefuseAsTheWalkFails) {
  for (const char* shape : kRefusedShapes) {
    PassResult r;
    ASSERT_NO_THROW(r = verified_pass(shape)) << shape;
    EXPECT_GT(r.stats.pieces_refused, 0) << shape;
    EXPECT_EQ(r.out, shape) << shape;
  }
}

// The first fallible operation can succeed, or is past a bound node: no
// refusal, whatever the walk does after it.
const char* const kUnrefusedShapes[] = {
    "'a' + $u",                      // the left operand evaluates
    "$true -or $u",                  // short-circuits
    "'abc'.Replace('a', $u)",        // the first argument evaluates
    "Write-Host -ForegroundColor Red $u",  // the parameter takes `Red`
    "$a = 'x'; $a + $u",             // `$a` is replaced: bound on the path
    "$a = 'x'; Write-Output $a $u",  //
};

TEST(PieceRefusal, SucceedingFirstOperationsAreNotRefused) {
  // No recorded outcomes: with them, the statement around a failing piece
  // is refused from the piece's recorded failure (test_record_once).
  RecoveryOptions unrecorded;
  unrecorded.bind_values = false;
  for (const char* shape : kUnrefusedShapes) {
    PassResult r;
    ASSERT_NO_THROW(r = verified_pass(shape, unrecorded)) << shape;
    EXPECT_EQ(r.stats.pieces_refused, 0) << shape;
  }
}

TEST(PieceRefusal, AutomaticVariablesAreNeverRefused) {
  const char* const kNames[] = {
      "true", "false", "null", "pshome", "psscriptroot", "shellid", "home",
      "pwd", "executioncontext", "psversiontable", "verbosepreference",
      "warningpreference", "debugpreference", "erroractionpreference"};
  for (const char* name : kNames) {
    const std::string bare = name;
    EXPECT_NE(ps::automatic_variable(bare), ps::AutomaticVariable::None)
        << bare;
    for (const std::string& script :
         {"Write-Output $" + bare, "Write-Output $global:" + bare,
          "$" + bare + " | Write-Output", "Write-Output ($" + bare + ")"}) {
      PassResult r;
      ASSERT_NO_THROW(r = verified_pass(script)) << script;
      EXPECT_EQ(r.stats.pieces_refused, 0) << script;
    }
  }
  // A script's own preference value is read over the default.
  const PassResult r = verified_pass(
      "$VerbosePreference = 'Stop'; Write-Output $VerbosePreference");
  EXPECT_EQ(r.stats.pieces_refused, 0);
  EXPECT_EQ(r.out, "$VerbosePreference = 'Stop'; 'Stop'");
}

TEST(PieceRefusal, BlocklistVariantsRefuseAsTheWalkFails) {
  RecoveryOptions functions;
  functions.trace_functions = true;
  // A user function named like a blocked cmdlet is still refused: the
  // filter applies before function dispatch.
  const PassResult user = verified_pass(
      "function Start-Process { 'x' }; Start-Process 'y'", functions);
  EXPECT_GT(user.stats.pieces_refused, 0);
  EXPECT_EQ(user.stats.worst_failure, ps::FailureKind::BlockedCommand);

  // A user function's arguments bind past its parameters.
  const PassResult args =
      verified_pass("function f { $args[0] }; f -X $u", functions);
  EXPECT_GT(args.stats.pieces_refused, 0);

  RecoveryOptions extra;
  extra.extra_blocklist = {"write-output"};
  const PassResult blocked = verified_pass("Write-Output ('a' + 'b')", extra);
  EXPECT_GT(blocked.stats.pieces_refused, 0);
  EXPECT_EQ(blocked.stats.worst_failure, ps::FailureKind::BlockedCommand);
  // The inner piece still folds.
  EXPECT_EQ(blocked.out, "Write-Output ('ab')");
}

// Blocklisted member calls on a target the tree or a binding fixes, past
// operands that cannot fail: refused with the walk's kind.
const char* const kMemberShapes[] = {
    "(New-Object Net.WebClient).DownloadString('http://x/a')",
    "(New-Object Net.WebClient).DownloadString(('http://x/a'))",
    "(New-Object System.Net.WebClient).downloadstring((('http://x/a')))",
    "(New-Object   net.webclient).(('DownloadString'))('http://x/a')",
    "(New-Object Net.WebClient).DownloadFile('http://x/a', 'C:\\t.txt')",
    "$c = New-Object Net.WebClient; $c.UploadString('http://x/a', 'd')",
    "$c = New-Object Net.WebClient; $u = 'http://x/a'; $c.DownloadData($u)",
    "(New-Object Net.WebClient).DownloadString($nope)",  // the argument first
    "(New-Object Net.WebClient).(('Download' + 'String'))('http://x/a')",
    "[IO.File]::ReadAllText('C:\\missing.txt')",  // strict: no such file
    "Get-Content 'C:\\missing.txt'",
    "Get-Content -Path ('C:\\missing.txt') -Raw",
};

TEST(PieceRefusal, MemberCallsRefuseAsTheWalkFails) {
  for (const char* shape : kMemberShapes) {
    for (const std::size_t steps : {std::size_t{3}, std::size_t{8},
                                    std::size_t{20}, std::size_t{200000}}) {
      RecoveryOptions options;
      options.max_steps_per_piece = steps;
      PassResult r;
      ASSERT_NO_THROW(r = verified_pass(shape, options))
          << shape << " steps=" << steps;
      if (steps == 200000) EXPECT_GT(r.stats.pieces_refused, 0) << shape;
    }
  }
  // Under an extra blocklist entry, [IO.File] is refused as blocked.
  RecoveryOptions extra;
  extra.extra_blocklist = {"io.file.readalltext"};
  const PassResult blocked =
      verified_pass("[IO.File]::ReadAllText('C:\\x.txt')", extra);
  EXPECT_EQ(blocked.stats.worst_failure, ps::FailureKind::BlockedCommand);
  EXPECT_GT(blocked.stats.pieces_refused, 0);
}

// Member calls that can succeed, or whose target nothing fixes, walk.
const char* const kUnrefusedMemberShapes[] = {
    "(New-Object Net.WebClient).Dispose()",
    "(New-Object IO.MemoryStream).ToArray()",
    "(New-Object Net.WebClient).GetType()",
};

TEST(PieceRefusal, MemberCallsThatMaySucceedAreWalked) {
  for (const char* shape : kUnrefusedMemberShapes) {
    PassResult r;
    ASSERT_NO_THROW(r = verified_pass(shape)) << shape;
    EXPECT_EQ(r.stats.pieces_refused, 0) << shape;
    EXPECT_NE(r.stats.worst_failure, ps::FailureKind::BlockedCommand)
        << shape;
  }
  // A file the piece itself wrote reads back.
  const PassResult written = verified_pass(
      "Write-Output $([IO.File]::WriteAllText('C:\\f.txt', 'hi'); "
      "Get-Content 'C:\\f.txt')");
  EXPECT_EQ(written.out, "'hi'");
}

TEST(PieceRefusal, StepLimitShorterThanThePathIsLeftToTheWalk) {
  const char* const kDeep[] = {
      "((($u)))", "Write-Output (($u + 'a'))", "$(($u).Length)",
      "Write-Output -InputObject ((($u)))"};
  for (const char* shape : kDeep) {
    bool refused_somewhere = false;
    bool limited_somewhere = false;
    for (std::size_t steps = 1; steps <= 14; ++steps) {
      for (const bool functions : {false, true}) {
        RecoveryOptions options;
        options.max_steps_per_piece = steps;
        options.trace_functions = functions;
        // A definition replayed into the seeded interpreter spends steps
        // the walk then continues from.
        const std::string script =
            functions ? std::string("function f { 1 }; ") + shape : shape;
        PassResult r;
        ASSERT_NO_THROW(r = verified_pass(script, options))
            << script << " steps=" << steps;
        refused_somewhere = refused_somewhere || r.stats.pieces_refused > 0;
        // Some failure the walk, not a refusal, decided: the step limit.
        limited_somewhere = limited_somewhere ||
                            r.stats.pieces_failed > r.stats.pieces_refused;
      }
    }
    EXPECT_TRUE(refused_somewhere) << shape;
    EXPECT_TRUE(limited_somewhere) << shape;
  }
}

TEST(PieceRefusal, RefusalReadsTheInterpretersOwnBindings) {
  const ps::ParsedScript parsed = ps::parse("Write-Output $x");
  const ps::Ast& stmt = *parsed->named_blocks[0]->statements[0];
  ps::InterpreterOptions opts;
  opts.strict_variables = true;
  ps::Interpreter interp(opts);
  EXPECT_EQ(interp.refusal(stmt, nullptr), ps::FailureKind::EvalError);
  interp.set_variable("x", ps::Value(std::string("v")));
  EXPECT_FALSE(interp.refusal(stmt, nullptr).has_value());

  // Permissive interpreters read unknown variables as $null.
  ps::Interpreter permissive;
  EXPECT_FALSE(permissive.refusal(stmt, nullptr).has_value());

  // A bound node on the path ends the refusal.
  const auto& pipe = static_cast<const ps::PipelineAst&>(stmt);
  const auto& cmd = static_cast<const ps::CommandAst&>(*pipe.elements[0]);
  ps::NodeOverrides overrides;
  overrides.emplace(cmd.elements[1].get(), ps::Value(std::string("v")));
  ps::Interpreter strict(opts);
  EXPECT_FALSE(strict.refusal(stmt, &overrides).has_value());
}

/// Every refusal over `CorpusGenerator(seed)` × 3000, through the whole
/// engine (layers and fixed-point passes included), matches the walk.
/// A mismatch throws std::logic_error: out of the call when the run is
/// ungoverned (the default limits), into the report's failure detail when
/// a governor catches it.
void expect_corpus_refusals_match(unsigned seed) {
  RecoveryOptionsFrontend::install(
      "powershell-verify-refusals",
      [](RecoveryOptions& ro) { ro.verify_refusals = true; });
  auto& refused_counter =
      telemetry::registry().counter("ideobf_recovery_piece_refused_total");
  auto& fallback_counter =
      telemetry::registry().counter("ideobf_recovery_treewalk_fallback_total");
  const std::uint64_t refused0 = refused_counter.value();
  const std::uint64_t fallback0 = fallback_counter.value();
  const InvokeDeobfuscator deobf{Options{}};
  CorpusGenerator gen(seed);
  long refused = 0;
  long fallbacks = 0;
  for (const Sample& sample : gen.generate_batch(3000)) {
    DeobfuscationReport report;
    (void)deobf.deobfuscate(sample.obfuscated, report, deobf.options().limits,
                            "powershell-verify-refusals");
    EXPECT_EQ(report.failure_detail.find("refusal mismatch"),
              std::string::npos)
        << "seed " << seed << ": " << report.failure_detail;
    refused += report.recovery.pieces_refused;
    fallbacks += report.recovery.treewalk_fallbacks;
  }
  EXPECT_GT(refused, 0);
  // Refusals are counted inside the tree-walk rung.
  EXPECT_LE(refused, fallbacks);
  EXPECT_LE(refused_counter.value() - refused0,
            fallback_counter.value() - fallback0);
}

TEST(PieceRefusal, CorpusSeed1RefusalsMatchTheWalk) {
  expect_corpus_refusals_match(1);
}
TEST(PieceRefusal, CorpusSeed2RefusalsMatchTheWalk) {
  expect_corpus_refusals_match(2);
}
TEST(PieceRefusal, CorpusSeed3RefusalsMatchTheWalk) {
  expect_corpus_refusals_match(3);
}

// ------------------------------------------------------------- binding

PassResult pass(const std::string& script, RecoveryOptions options) {
  ps::ParseCache table;
  const ps::ParsedScript parsed = ps::parse(script);
  PassResult r;
  r.out = recovery_pass(script, parsed, options, &r.stats, nullptr, &table);
  return r;
}

// Chains of pure pieces whose intermediate values are arrays, verbatim
// and under a substituted variable.
const char* const kChains[] = {
    "Write-Output ((((('a b c d e f' -split ' ') -join '') -split '') -join '-'))",
    "$s = 'a b c d e f'; Write-Output ((((($s -split ' ') -join '') -split '') -join '-'))",
    "$n = 30; Write-Output (((1..$n) + (1..$n)) -join ',')",
    "Write-Output ((((1..40) + (1..40)) -ne 3) -join '')",
    "$s = 'x1y2z'; Write-Output (((($s -split '\\d') -split '') -ne '') -join '')",
};

/// A pass's observable outcome: output, failures, and the budget bytes it
/// charged (or the budget error that aborted it).
std::string outcome(const std::string& script, RecoveryOptions options,
                    std::size_t max_bytes) {
  ps::Budget::Limits limits;
  limits.max_bytes = max_bytes;
  ps::Budget budget(limits);
  options.budget = &budget;
  std::string out;
  try {
    const PassResult r = pass(script, options);
    out = r.out + " failed=" + std::to_string(r.stats.pieces_failed) +
          " worst=" + ps::to_string(r.stats.worst_failure);
  } catch (const ps::BudgetError& e) {
    out = std::string("budget: ") + e.what();
  }
  return out + " charged=" + std::to_string(budget.bytes_charged());
}

TEST(ValueBinding, LimitsTripAsWithoutBinding) {
  for (const char* chain : kChains) {
    RecoveryOptions unbound;
    unbound.bind_values = false;
    EXPECT_GT(pass(chain, RecoveryOptions{}).stats.pieces_bound, 0) << chain;
    EXPECT_EQ(pass(chain, unbound).stats.pieces_bound, 0) << chain;

    // Step limits from far too short to enough: a parent past the limit
    // only through a bound child fails as the walk through it does.
    for (std::size_t steps = 1; steps <= 150; ++steps) {
      RecoveryOptions bound;
      bound.max_steps_per_piece = steps;
      unbound.max_steps_per_piece = steps;
      EXPECT_EQ(outcome(chain, bound, 0), outcome(chain, unbound, 0))
          << chain << " steps=" << steps;
    }
    // Allocation budgets: the pass aborts at the same budget, since a
    // bound child's bytes are charged again where it is read.
    unbound.max_steps_per_piece = RecoveryOptions{}.max_steps_per_piece;
    for (std::size_t bytes = 100; bytes <= 16000; bytes += 100) {
      EXPECT_EQ(outcome(chain, RecoveryOptions{}, bytes),
                outcome(chain, unbound, bytes))
          << chain << " bytes=" << bytes;
    }
  }
}

TEST(ValueBinding, SplitChainIsEvaluatedOnce) {
  // The special-character encoding's decoder (Listing 4): a chain of
  // `-split`s under a ForEach-Object pipeline and a `-join`. Each level
  // reads the level below it instead of splitting from the string again.
  const std::string script =
      "Write-Output ((('9@36}45!45%46|96' -split '~' -split '@' -split '}' "
      "-split '!' -split '%' -split '\\|' | ForEach-Object { [char]($_ "
      "-bxor '0x41') }) -join ''))";
  const PassResult bound = pass(script, RecoveryOptions{});
  RecoveryOptions reference;
  reference.bind_values = false;
  const PassResult unbound = pass(script, reference);
  EXPECT_EQ(bound.out, "'Hello!'");
  EXPECT_EQ(bound.out, unbound.out);
  EXPECT_GE(bound.stats.pieces_bound, 6);
  EXPECT_EQ(bound.stats.pieces_failed, unbound.stats.pieces_failed);
}

TEST(ValueBinding, ReplayChargesWhatEvaluationWould) {
  const std::string src = "(('a b c' -split ' ') -join '-')";
  const ps::ParsedScript parsed = ps::parse(src);
  const auto& pipe =
      static_cast<const ps::PipelineAst&>(*parsed->named_blocks[0]->statements[0]);
  const auto& paren = static_cast<const ps::ParenExpressionAst&>(
      *static_cast<const ps::CommandExpressionAst&>(*pipe.elements[0]).expression);
  const auto& inner = static_cast<const ps::PipelineAst&>(*paren.pipeline);
  const auto& join = static_cast<const ps::BinaryExpressionAst&>(
      *static_cast<const ps::CommandExpressionAst&>(*inner.elements[0]).expression);
  const ps::Ast& split = *join.left;  // the paren around the -split

  ps::InterpreterOptions opts;
  opts.strict_variables = true;
  ps::Interpreter child_interp(opts);
  child_interp.reset_steps();
  const ps::Value child = child_interp.evaluate(split, src);
  // A standalone evaluation reaches an expression in two steps; a parent
  // reaches it in one.
  ps::NodeOverrides overrides;
  overrides.emplace(&split, ps::BoundValue(child, child_interp.steps() - 2));

  ps::Interpreter walked(opts), replayed(opts);
  EXPECT_EQ(walked.evaluate(pipe, src).to_display_string(), "a-b-c");
  EXPECT_EQ(replayed.evaluate(pipe, src, &overrides).to_display_string(),
            "a-b-c");
  EXPECT_EQ(walked.steps(), replayed.steps());

  // Past the step limit the bound node is evaluated: the limit trips where
  // the walk's does.
  for (std::size_t limit = 1; limit <= walked.steps(); ++limit) {
    opts.max_steps = limit;
    ps::Interpreter a(opts), b(opts);
    std::string ka, kb;
    try { (void)a.evaluate(pipe, src); } catch (const ps::LimitError&) { ka = "limit"; }
    try { (void)b.evaluate(pipe, src, &overrides); } catch (const ps::LimitError&) { kb = "limit"; }
    EXPECT_EQ(ka, kb) << "limit " << limit;
    EXPECT_EQ(a.steps(), b.steps()) << "limit " << limit;
  }
}

TEST(ValueBinding, IndexAssignmentCannotAlterABoundValue) {
  // `('p q' -split ' ')` is bound; the sub-expression is impure (it
  // assigns), so its enclosing `-join` walks it again, reading the bound
  // array a second time after the first walk appended to its element.
  const std::string expr =
      "$( $a = ('p q' -split ' '); foreach ($i in 1) { $a[0] = $a[0] + 'z' }; "
      "$a ) -join ','";
  const PassResult r = pass("Write-Output (" + expr + ")", RecoveryOptions{});
  EXPECT_GT(r.stats.pieces_bound, 0);
  ps::Interpreter reference;
  EXPECT_EQ(value_to_literal(reference.evaluate_script(expr)), "'pz,q'");
  EXPECT_EQ(r.out, "'pz,q'");

  // At the interpreter: a bound array is read as a copy.
  const std::string src = "$b = $x; $b[0] = 'z'; $x";
  const ps::ParsedScript parsed = ps::parse(src);
  const auto& stmts = parsed->named_blocks[0]->statements;
  const auto& assign = static_cast<const ps::AssignmentStatementAst&>(*stmts[0]);
  const auto& read = static_cast<const ps::PipelineAst&>(*stmts[2]);
  const ps::Ast& x_read =
      *static_cast<const ps::CommandExpressionAst&>(*read.elements[0]).expression;
  ps::NodeOverrides overrides;
  overrides.emplace(assign.right.get(),
                    ps::BoundValue(ps::Value(ps::Array{ps::Value("p")}), 3));
  overrides.emplace(&x_read, overrides.at(assign.right.get()));
  ps::Interpreter interp;
  for (const auto& st : stmts) (void)interp.evaluate(*st, src, &overrides);
  EXPECT_EQ(overrides.at(assign.right.get()).value.get_array()[0],
            ps::Value("p"));
  EXPECT_EQ(interp.get_variable("b")->get_array()[0], ps::Value("z"));
}

TEST(ValueBinding, ArrayShapesSurviveBinding) {
  const char* const kExprs[] = {
      "(,(1,2)) -join '|'",
      "(@('a') + 'b') -join ','",
      "(@(@('ab')))[0]",
      "((,'x') + 'y') -join ','",
      "(((1,2),(3,4))[1]) -join ''",
      "(@() + 'a') -join ','",
      "(@($null) + 'a') -join ','",
      "(('a','b') -eq 'a') -join ','",
      "(@(,(1,2)))[0] -join '+'",
      "[string]((,(1,2)) + (,(3)))",
      "((1..3) -join '') + ([string](@(1) -eq 2))",
  };
  for (const char* expr : kExprs) {
    ps::Interpreter reference;
    const std::string expected =
        value_to_literal(reference.evaluate_script(expr));
    ASSERT_FALSE(expected.empty()) << expr;
    const PassResult r =
        pass(std::string("Write-Output (") + expr + ")", RecoveryOptions{});
    EXPECT_EQ(r.out, expected) << expr;
  }
}

TEST(ValueBinding, OutputsIgnoreTheMemoAndTheParseTable) {
  std::vector<std::unique_ptr<InvokeDeobfuscator>> configs;
  for (const bool memo : {true, false}) {
    for (const bool table : {true, false}) {
      Options opts;
      opts.recovery.memo = memo;
      opts.parse_cache = table;
      configs.push_back(std::make_unique<InvokeDeobfuscator>(opts));
    }
  }
  CorpusGenerator gen(5);
  int bound = 0;
  for (const Sample& sample : gen.generate_batch(600)) {
    DeobfuscationReport first;
    const std::string out = configs[0]->deobfuscate(sample.obfuscated, first);
    bound += first.recovery.pieces_bound;
    for (std::size_t c = 1; c < configs.size(); ++c) {
      DeobfuscationReport report;
      EXPECT_EQ(configs[c]->deobfuscate(sample.obfuscated, report), out)
          << "config " << c << ": " << sample.obfuscated;
      EXPECT_EQ(report.failure, first.failure) << sample.obfuscated;
      EXPECT_EQ(report.failure_detail, first.failure_detail);
      EXPECT_EQ(report.degradation_rung, first.degradation_rung);
      EXPECT_EQ(report.passes, first.passes);
      EXPECT_EQ(report.recovery.pieces_recovered,
                first.recovery.pieces_recovered);
      EXPECT_EQ(report.recovery.variables_traced,
                first.recovery.variables_traced);
      EXPECT_EQ(report.recovery.variables_substituted,
                first.recovery.variables_substituted);
      EXPECT_EQ(report.recovery.worst_failure, first.recovery.worst_failure);
      EXPECT_EQ(report.multilayer.layers_unwrapped,
                first.multilayer.layers_unwrapped);
    }
  }
  EXPECT_GT(bound, 0);
}

}  // namespace
}  // namespace ideobf
