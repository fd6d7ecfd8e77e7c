// The recovery phase's piece-evaluation ladder (src/core/recovery.h):
// is_pure_piece() decides which pieces fold on the shared table-free
// interpreter, and every piece it calls pure must evaluate exactly as a
// freshly seeded recovery interpreter would — same literals, same thrown
// failure kinds, same step accounting — across the synthetic corpus. Plus
// RecoveryMemo's bookkeeping and the ladder counters in the report.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/blocklist.h"
#include "core/deobfuscator.h"
#include "core/recovery.h"
#include "corpus/corpus.h"
#include "psast/ast.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"

namespace {

using ideobf::is_pure_piece;
using ideobf::value_to_literal;
using ps::Ast;
using ps::NodeKind;
using ps::Value;

ps::InterpreterOptions recovery_opts(std::size_t max_steps = 200000) {
  ps::InterpreterOptions opts;
  opts.max_steps = max_steps;
  opts.strict_variables = true;
  opts.refuse_blocklisted = true;
  opts.command_filter = ideobf::make_recovery_filter({});
  return opts;
}

/// The comparable outcome of one piece evaluation: either a recovered
/// literal or a classified failure. Two evaluation paths are equivalent iff
/// their outcomes compare equal.
struct Outcome {
  bool ok = false;
  std::string literal;  ///< value_to_literal of the result when ok
  std::string kind;     ///< exception taxonomy tag when !ok
  std::string error;    ///< what() when !ok

  bool operator==(const Outcome&) const = default;
};

std::string describe(const Outcome& o) {
  return o.ok ? "ok literal=<" + o.literal + ">"
              : "throw " + o.kind + " <" + o.error + ">";
}

template <typename Fn>
Outcome capture(Fn&& eval) {
  Outcome out;
  try {
    out.literal = value_to_literal(eval());
    out.ok = true;
  } catch (const ps::BlockedCommandError& e) {
    out.kind = "blocked";
    out.error = e.what();
  } catch (const ps::LimitError& e) {
    out.kind = "limit:" + std::string(ps::to_string(e.kind));
    out.error = e.what();
  } catch (const ps::EvalError& e) {
    out.kind = "eval";
    out.error = e.what();
  } catch (const std::exception& e) {
    out.kind = "other";
    out.error = e.what();
  }
  return out;
}

/// The fold rung: one interpreter reused across pieces, its step counter
/// reset per piece — exactly how execute_piece drives fold_interpreter().
class FoldInterpreter {
 public:
  explicit FoldInterpreter(std::size_t max_steps = 200000)
      : interp_(recovery_opts(max_steps)) {}
  Outcome run(const Ast& node, std::string_view src) {
    interp_.reset_steps();
    return capture([&] { return interp_.evaluate(node, src); });
  }

 private:
  ps::Interpreter interp_;
};

/// The fallback rung's interpreter: fresh, with a traced-variable table and
/// a replayed function definition, like make_interpreter(). The table also
/// shadows two constant automatics, which pure pieces must not observe, and
/// binds every name in `seeded` so a piece that reads the table would
/// succeed here while it fails on the fold interpreter.
Outcome seeded_tree_walk(const Ast& node, std::string_view src,
                         std::size_t max_steps = 200000,
                         const std::vector<std::string>& seeded = {}) {
  ps::Interpreter interp(recovery_opts(max_steps));
  for (const std::string& name : seeded) {
    interp.set_variable(name, Value(std::string("seeded")));
  }
  interp.set_variable("x", Value(std::string("abc")));
  interp.set_variable("url", Value(std::string("http://example.test/a")));
  interp.set_variable("n", Value(std::int64_t{5}));
  interp.set_variable("pshome", Value(std::string("D:\\elsewhere")));
  interp.set_variable("pwd", Value(std::string("D:\\cwd")));
  interp.evaluate_script("function Decode($s) { $s }");
  interp.reset_steps();  // a piece gets a fresh allowance either way
  return capture([&] { return interp.evaluate(node, src); });
}

/// Collects every node of `root` the recovery phase would consider
/// executing: the recoverable kinds plus interpolated strings.
std::vector<const Ast*> piece_candidates(const Ast& root) {
  std::vector<const Ast*> out;
  root.post_order([&](const Ast& node) {
    if (ps::is_recoverable_kind(node.kind()) ||
        node.kind() == NodeKind::ExpandableStringExpression) {
      out.push_back(&node);
    }
  });
  return out;
}

/// Every variable name `root` mentions, as a recovery table would bind it.
std::vector<std::string> variable_names(const Ast& root) {
  std::vector<std::string> out;
  root.post_order([&](const Ast& node) {
    if (node.kind() == NodeKind::VariableExpression) {
      out.push_back(
          static_cast<const ps::VariableExpressionAst&>(node).bare_name());
    }
  });
  return out;
}

/// The smallest max_steps under which `eval` succeeds (or 0 when it fails
/// for a non-limit reason even with generous steps). Equal on both rungs
/// when a fresh step allowance per piece is honoured.
template <typename Fn>
std::size_t min_steps_to_succeed(Fn&& eval) {
  for (std::size_t steps = 1; steps <= 256; ++steps) {
    const Outcome o = eval(steps);
    if (o.ok) return steps;
    if (o.kind.rfind("limit:", 0) != 0) return 0;
  }
  return 0;
}

/// The single statement of a parsed piece, as recovery classifies
/// rewritten piece text.
const Ast* single_statement(const ps::ScriptBlockAst& root) {
  const Ast* found = nullptr;
  for (const auto& block : root.named_blocks) {
    for (const auto& st : block->statements) {
      if (found != nullptr) return nullptr;
      found = st.get();
    }
  }
  return found;
}

const Ast* parse_piece(const std::string& text, ps::ParsedScript& keep_alive) {
  keep_alive = ps::try_parse(text);
  if (keep_alive == nullptr) return nullptr;
  return single_statement(*keep_alive);
}

// --- purity predicate -------------------------------------------------------

TEST(PiecePurityTest, AcceptsExpressionSubsetAndClassifiesPurity) {
  struct Case {
    const char* text;
    bool pure;
  };
  const Case cases[] = {
      {"('a'+'b')", true},
      {"'a' * 3", true},
      {"[char]65", true},
      {"[int]'5' + 1", true},
      {"'a','b','c'", true},
      {"@('x')", true},
      {"@()", true},
      {"$()", true},
      {"$( 'x' )", true},
      {"('abc')[1]", true},
      {"-join ('a','b')", true},
      {"$true -and $false", true},
      {"\"plain\"", true},           // no '$': interpolation is constant
      {"$true", true},               // constant automatic variable
      {"$PSHome + 'x'", true},       // constant automatics ignore case
      {"'a' | ForEach-Object { $_ }", true},  // item block: `$_` is the item
      {"'a','b' | % { $_ + 'x' } | ? { $_ -ne 'ax' }", true},
      {"-join ('1|2' -split '\\|' | foreach { [char]([int]$_ + 64) })", true},
      {"('ab' | where { $_ | % { $_ } })", true},  // nested item blocks
      {"'a' | FOREACH-OBJECT { ($_) }", true},      // names ignore case
      {"\"pre $x post\"", false},    // interpolation reads a variable
      {"$x + 1", false},             // traced-table variable
      {"$env:path", false},          // environment state
      {"$global:true", false},       // scoped: may read the global table
  };
  for (const Case& c : cases) {
    ps::ParsedScript parsed;
    const Ast* stmt = parse_piece(c.text, parsed);
    ASSERT_NE(stmt, nullptr) << c.text;
    EXPECT_EQ(is_pure_piece(*stmt), c.pure) << c.text;
  }
}

TEST(PiecePurityTest, RejectsEverythingOutsideTheSubset) {
  // Commands (where the blocklist applies), member dispatch, mutation, and
  // multi-statement shapes must stay on the tree-walk fallback.
  const char* rejected[] = {
      "Invoke-Expression 'x'",       // command: blocklist territory
      "iex 'x'",                     // aliased command
      "'abc'.Length",                // member access
      "'abc'.Substring(1)",          // member invocation
      "[math]::Abs(-1)",             // static invocation
      "$x++",                        // stateful unary
      "--$x",                        // stateful unary
      "$x = 1",                      // assignment
      "@{ a = 1 }",                  // hashtable
      "{ 'block' }",                 // script block
      "$(1; 2)",                     // multi-statement subexpression
      "('a' + (iex 'b'))",           // impure operand deep inside
      "($_ -bxor 5)",                // `$_` outside an item block
      "'a' | % { $x }",              // the block reads the table
      "'a' | % { iex $_ }",          // a command inside the block
      "'a' | % -Begin { 'b' } { $_ }",  // -Begin runs once, not per item
      "'a' | % -Process { $_ }",     // any parameter
      "'a' | % { $_ } | iex",        // a later element is no item block
      "'a' | % { param($p) $p }",    // param block
      "'a' | % { process { $_ } }",  // named block
      "'a' | % { $_; $_ }",          // two statements
      "'a' | % { $y = $_ }",         // assignment inside the block
      "'a' | & % { $_ }",            // call operator
      "'a' | Select-Object { $_ }",  // not an item command
      "$x | % { $_ }",               // impure input
      "'a' | % { $_ } | % { $_++ }", // mutation inside a later block
  };
  for (const char* text : rejected) {
    ps::ParsedScript parsed;
    const Ast* stmt = parse_piece(text, parsed);
    ASSERT_NE(stmt, nullptr) << text;
    EXPECT_FALSE(is_pure_piece(*stmt)) << text;
  }
}

TEST(PiecePurityTest, TracedFunctionShadowsItemBlocks) {
  // A traced `function ForEach-Object` runs instead of the cmdlet under
  // every spelling that resolves to it; Where-Object stays an item block.
  const std::vector<std::string> traced = {"foreach-object"};
  const char* shadowed[] = {"'a' | ForEach-Object { $_ }", "'a' | % { $_ }",
                            "'a' | foreach { $_ }",
                            "'a' | ? { $_ } | % { $_ }"};
  for (const char* text : shadowed) {
    ps::ParsedScript parsed;
    const Ast* stmt = parse_piece(text, parsed);
    ASSERT_NE(stmt, nullptr) << text;
    EXPECT_TRUE(is_pure_piece(*stmt)) << text;
    EXPECT_FALSE(is_pure_piece(*stmt, nullptr, traced)) << text;
  }
  ps::ParsedScript parsed;
  const Ast* where = parse_piece("'a' | ? { $_ }", parsed);
  ASSERT_NE(where, nullptr);
  EXPECT_TRUE(is_pure_piece(*where, nullptr, traced));
}

// --- fold vs. seeded tree walk ---------------------------------------------

TEST(PieceFoldTest, HandwrittenPiecesMatchSeededTreeWalk) {
  const char* pieces[] = {
      "('a'+'b')",
      "('Ne'+'tw'+'or'+'k')",
      "'a' * 3",
      "[char]65",
      "[char](65+1)",
      "[string][char]73",
      "[int]'5' + 1",
      "('abc')[1]",
      "('abc')[-1]",
      "('a','b','c')[2]",
      "-join ('a','b','c')",
      "('a,b,c' -split ',')[1]",
      "\"plain text\"",
      "$true",
      "$pshome + '\\x'",
      "$false -or 'fallback'",
      "$true -and 'kept'",
      "(2 + 3) * 4",
      "10 / 4",
      "'x' + [string](1+2)",
      "$( 'sub' )",
      "@('only')",
      "@()",
      "$()",
      "'end' -replace 'e','E'",
      "'format {0}' -f 'x'",
      "[int]'nope'",  // fails identically on both rungs
      // Item blocks: `$_` is bound per item on either rung.
      "'a','b' | ForEach-Object { $_ + 'x' }",
      "-join ('1|2|3' -split '\\|' | % { [char]([int]$_ + 64) })",
      "-join ('K%I%O' -split '%' | foreach { [char]([int][char]$_ -bxor 6) })",
      "(1..6 | ? { $_ -gt 2 } | % { $_ * 2 })",
      "('ab' | where { $_ | % { $_ } })",
      "@('x','y' | % { $_ * 2 })",
      "('A','b' | ? { $_ -cmatch '[a-z]' })",
      "'abc' | % { $_ } | % { $_ + '!' }",
      "@() | % { $_ }",
      "'a' | % { [int]$_ }",  // fails identically on both rungs
  };
  FoldInterpreter fold;
  for (const char* text : pieces) {
    ps::ParsedScript parsed;
    const Ast* stmt = parse_piece(text, parsed);
    ASSERT_NE(stmt, nullptr) << text;
    ASSERT_TRUE(is_pure_piece(*stmt)) << text;
    const Outcome folded = fold.run(*stmt, text);
    const Outcome walked = seeded_tree_walk(*stmt, text);
    EXPECT_EQ(folded, walked) << text << "\n  fold:      " << describe(folded)
                              << "\n  tree-walk: " << describe(walked);
  }
}

TEST(PieceFoldTest, ImpurePiecesSeeTheSeededTable) {
  // The harness has teeth: pieces that read the table evaluate differently
  // on the two rungs, so a predicate that admitted them would be caught.
  const char* impure[] = {
      "\"pre $x post\"",
      "$x + 'y'",
      "[char]$n",
      "-join ($x, 'y')",
  };
  FoldInterpreter fold;
  for (const char* text : impure) {
    ps::ParsedScript parsed;
    const Ast* stmt = parse_piece(text, parsed);
    ASSERT_NE(stmt, nullptr) << text;
    EXPECT_FALSE(is_pure_piece(*stmt)) << text;
    const Outcome folded = fold.run(*stmt, text);
    const Outcome walked = seeded_tree_walk(*stmt, text);
    EXPECT_NE(folded, walked) << text << "\n  both: " << describe(folded);
  }
}

TEST(PieceFoldTest, StepAccountingMatchesSeededTreeWalk) {
  // reset_steps() must give a reused fold interpreter exactly the
  // allowance a fresh one has: the smallest step budget under which a
  // piece succeeds is identical on both rungs.
  const char* pieces[] = {
      "('a'+'b')",
      "('a'+'b'+'c'+'d')",
      "[char]65",
      "('abc')[1]",
      "-join ('a','b')",
      "$true -and $false",
      "$false -or 'x'",
      "$( 'sub' )",
      "@('only')",
      "(2 + 3) * 4",
      "'a','b' | % { $_ + 'x' }",
      "-join ('1|2' -split '\\|' | % { [char]([int]$_ + 64) })",
      "(1..4 | ? { $_ -gt 2 })",
      "'ab' | % { $_ } | % { $_ + '!' }",
  };
  for (const char* text : pieces) {
    ps::ParsedScript parsed;
    const Ast* stmt = parse_piece(text, parsed);
    ASSERT_NE(stmt, nullptr) << text;
    const std::size_t fold_steps = min_steps_to_succeed([&](std::size_t steps) {
      FoldInterpreter fold(steps);
      (void)fold.run(*stmt, text);  // a previous piece used the allowance
      return fold.run(*stmt, text);
    });
    const std::size_t walk_steps = min_steps_to_succeed(
        [&](std::size_t steps) { return seeded_tree_walk(*stmt, text, steps); });
    ASSERT_GT(walk_steps, 0u) << text;
    EXPECT_EQ(fold_steps, walk_steps) << text;
  }
}

TEST(PieceFoldTest, StepLimitExpiryMatchesSeededTreeWalk) {
  // Under a starved allowance both rungs must fail the same way (the memo
  // stores failures, so a rung-dependent failure would poison it).
  const std::string text = "('a'+'b'+'c'+'d'+'e'+'f'+'g'+'h')";
  ps::ParsedScript parsed;
  const Ast* stmt = parse_piece(text, parsed);
  ASSERT_NE(stmt, nullptr);
  FoldInterpreter fold(3);
  const Outcome folded = fold.run(*stmt, text);
  const Outcome walked = seeded_tree_walk(*stmt, text, 3);
  EXPECT_FALSE(walked.ok);
  EXPECT_EQ(walked.kind, "limit:step-limit");
  EXPECT_EQ(folded, walked) << "fold:      " << describe(folded)
                            << "\ntree-walk: " << describe(walked);
}

/// The corpus sweep: every recoverable piece of every generated script that
/// the predicate calls pure must evaluate identically on the shared fold
/// interpreter and on a fresh one seeded with every variable the script
/// names — at full limits and under a starved step allowance
/// (budget-expiry parity).
TEST(PieceFoldDifferentialTest, CorpusPiecesMatchSeededTreeWalk) {
  FoldInterpreter fold;
  FoldInterpreter tight_fold(6);
  int pure = 0;
  int divergences = 0;
  for (const std::uint64_t seed : {100u, 7u, 11u}) {
    ideobf::CorpusGenerator gen(seed);
    for (const ideobf::Sample& sample : gen.generate_batch(60)) {
      const std::string& src = sample.obfuscated;
      const ps::ParsedScript parsed = ps::try_parse(src);
      if (parsed == nullptr) continue;
      const std::vector<std::string> names = variable_names(*parsed);
      for (const Ast* node : piece_candidates(*parsed)) {
        if (!is_pure_piece(*node)) continue;
        ++pure;
        const Outcome folded = fold.run(*node, src);
        const Outcome walked = seeded_tree_walk(*node, src, 200000, names);
        if (folded != walked) {
          ++divergences;
          ADD_FAILURE() << "divergence on piece <" << node->text_in(src)
                        << ">\n  fold:      " << describe(folded)
                        << "\n  tree-walk: " << describe(walked);
        }
        const Outcome folded_tight = tight_fold.run(*node, src);
        const Outcome walked_tight = seeded_tree_walk(*node, src, 6, names);
        if (folded_tight != walked_tight) {
          ++divergences;
          ADD_FAILURE() << "tight-limit divergence on piece <"
                        << node->text_in(src)
                        << ">\n  fold:      " << describe(folded_tight)
                        << "\n  tree-walk: " << describe(walked_tight);
        }
        if (divergences > 10) return;  // enough signal; stop flooding
      }
    }
  }
  // The corpus is concat/cast/index-heavy, so the predicate must accept a
  // substantial population — this also guards against it silently
  // rejecting everything (which would pass the loop vacuously).
  EXPECT_GT(pure, 200);
}

// --- RecoveryMemo -----------------------------------------------------------

TEST(RecoveryMemoTest, StoreLookupRoundTrip) {
  ideobf::RecoveryMemo memo;
  EXPECT_EQ(memo.lookup(1, "piece"), std::nullopt);
  memo.store(1, "piece", "'literal'");
  const auto hit = memo.lookup(1, "piece");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "'literal'");
  // Same piece under a different context is a distinct entry.
  EXPECT_EQ(memo.lookup(2, "piece"), std::nullopt);
  // Failures memoize as "" and still count as hits.
  memo.store(1, "failed", "");
  const auto failed = memo.lookup(1, "failed");
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(*failed, "");
  EXPECT_EQ(memo.lookups(), 4u);
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(memo.misses(), 2u);
}

TEST(RecoveryMemoTest, CapBoundsGrowth) {
  ideobf::RecoveryMemo memo;
  for (int i = 0; i < 20000; ++i) {
    memo.store(7, "piece-" + std::to_string(i), "'v'");
  }
  // The pathological-script bound.
  EXPECT_LE(memo.size(), 8192u);
  EXPECT_GT(memo.size(), 0u);
}

TEST(ItemBlockFoldTest, DecodeLoopFoldsOnceBindsAndIsNeverWalked) {
  // The BXOR decode shape. The split and the ForEach-Object loop over it
  // are pure pieces: each folds once and binds its array, so the
  // enclosing -join folds too, reading the loop's binding instead of
  // running the loop again. The only tree-walk entries are the two pieces
  // inside the block that read `$_` on their own, and both are refused
  // without being walked.
  const std::string script =
      "$s = (-join ('105,72' -split ',' | ForEach-Object "
      "{ [char]($_ -bxor 0x21) }))\n";
  ideobf::RecoveryOptions options;
  ideobf::RecoveryMemo memo;
  options.memo = &memo;
  ideobf::RecoveryStats stats;
  const std::string out = ideobf::recovery_pass(script, options, &stats);
  EXPECT_NE(out.find("'Hi'"), std::string::npos) << out;
  EXPECT_EQ(stats.pieces_folded, 3);  // the split, the loop, the -join
  EXPECT_EQ(stats.pieces_bound, 2);   // the split's and the loop's arrays
  EXPECT_EQ(stats.treewalk_fallbacks, 2);
  EXPECT_EQ(stats.pieces_refused, stats.treewalk_fallbacks);
  EXPECT_EQ(stats.pieces_recovered, 1);

  // Without binding the -join runs the loop again: it still folds, and
  // the output is the same.
  options.bind_values = false;
  ideobf::RecoveryMemo fresh;
  options.memo = &fresh;
  ideobf::RecoveryStats unbound;
  EXPECT_EQ(ideobf::recovery_pass(script, options, &unbound), out);
  EXPECT_EQ(unbound.pieces_folded, 3);
  EXPECT_EQ(unbound.pieces_bound, 0);
}

TEST(ItemBlockFoldTest, TracedFunctionDefinitionKeepsTheLoopOnTheTreeWalk) {
  // With function tracing on, a pass that has loaded a user
  // `function ForEach-Object` must run the user's function, which only
  // the seeded tree-walk interpreter knows.
  const std::string script =
      "function ForEach-Object { 'shadow' }\n"
      "$s = -join ('a' | ForEach-Object { $_ + 'b' })\n";
  ideobf::RecoveryOptions options;
  options.trace_functions = true;
  ideobf::RecoveryStats stats;
  const std::string traced = ideobf::recovery_pass(script, options, &stats);
  EXPECT_NE(traced.find("$s = 'shadow'"), std::string::npos) << traced;
  // The loop is walked; only the -join over its literal folds.
  EXPECT_EQ(stats.treewalk_fallbacks - stats.pieces_refused, 1) << traced;
  EXPECT_EQ(stats.pieces_folded, 1) << traced;

  // Untraced, the definition is not loaded and the cmdlet runs: the loop
  // is an item block again.
  options.trace_functions = false;
  const std::string untraced = ideobf::recovery_pass(script, options, &stats);
  EXPECT_NE(untraced.find("$s = 'ab'"), std::string::npos) << untraced;
  EXPECT_EQ(stats.treewalk_fallbacks - stats.pieces_refused, 0) << untraced;
  EXPECT_EQ(stats.pieces_folded, 2) << untraced;
}

TEST(RecoveryMemoTest, LadderStatsSurfaceInTheReport) {
  // A cold run resolves pieces through the two-rung ladder; the per-rung
  // counts must reach the public report and reconcile with the memo
  // counters.
  ideobf::CorpusGenerator gen(11);
  ideobf::InvokeDeobfuscator engine;
  ideobf::DeobfuscationReport report;
  int folded = 0, fallback = 0, misses = 0;
  for (const ideobf::Sample& sample : gen.generate_batch(12)) {
    (void)engine.deobfuscate(sample.obfuscated, report);
    folded += report.recovery.pieces_folded;
    fallback += report.recovery.treewalk_fallbacks;
    misses += report.recovery.memo_misses;
    // Every memoized miss was resolved by exactly one rung. (Env probes
    // count as memo misses but not piece executions, so the rung sum never
    // exceeds the misses.)
    EXPECT_LE(report.recovery.pieces_folded +
                  report.recovery.treewalk_fallbacks,
              report.recovery.memo_misses);
    EXPECT_EQ(report.recovery.bytecode_execs, 0);  // no bytecode rung
  }
  EXPECT_GT(folded, 0);
  EXPECT_GT(fallback, 0);
  EXPECT_GT(misses, 0);
}

}  // namespace
