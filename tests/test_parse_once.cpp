// Tests for parse-once piece evaluation: a rewritten piece evaluates its
// own subtree, with each replaced child bound to the value its literal
// reparses to, instead of re-parsing its spliced text. Covers the parse
// counts of the subtree path, the parse path that substitutions under a
// script block still take, pinned outputs for every literal round-trip
// shape, a differential check against the re-parse reference on those
// shapes and on a generated corpus, and the per-run parse table's bound
// under a hostile script.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/deobfuscator.h"
#include "core/recovery.h"
#include "corpus/corpus.h"
#include "frontends/ps_frontend.h"
#include "frontends/registry.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"

namespace ideobf {
namespace {

struct PassResult {
  std::string out;
  RecoveryStats stats;
  std::uint64_t parses = 0;  ///< ps::parse_call_count() delta of the pass
};

/// One recovery pass over `script` through a per-run parse table (null:
/// none); `reference` parses every rewritten piece's text instead.
PassResult run_pass(const std::string& script, ps::ParseCache* table,
                    bool reference = false) {
  const ps::ParsedScript parsed = ps::parse(script);
  PassResult r;
  RecoveryOptions options;
  options.reparse_rewritten = reference;
  const std::uint64_t before = ps::parse_call_count();
  r.out = recovery_pass(script, parsed, options, &r.stats, nullptr, table);
  r.parses = ps::parse_call_count() - before;
  return r;
}

PassResult run_pass(const std::string& script) {
  ps::ParseCache table;
  return run_pass(script, &table);
}

TEST(ParseOnce, NestedPieceIsEvaluatedWithoutPieceParses) {
  const std::string script = "(('a'+'b')+'c').ToUpper()";
  const PassResult r = run_pass(script);
  EXPECT_EQ(r.out, "'ABC'");
  EXPECT_EQ(r.stats.pieces_reparsed, 0);
  EXPECT_GT(r.stats.pieces_recovered, 1);
  // The only parse is the whole output's syntax check.
  EXPECT_EQ(r.parses, 1u);

  // Without a parse table the pieces still evaluate their subtrees.
  const PassResult untabled = run_pass(script, nullptr);
  EXPECT_EQ(untabled.out, r.out);
  EXPECT_EQ(untabled.stats.pieces_reparsed, 0);
  EXPECT_EQ(untabled.parses, 1u);
}

TEST(ParseOnce, SubstitutionUnderScriptBlockTakesTheParsePath) {
  // The script block's body is read by source extent, so its rewritten
  // text is only seen through a parse.
  const PassResult r = run_pass("1..2 | % { $_ + ('a'+'b') }");
  EXPECT_EQ(r.out, "1..2 | % { $_ + ('ab') }");
  EXPECT_EQ(r.stats.pieces_reparsed, 1);
}

TEST(ParseOnce, FunctionBodyRewriteTakesTheParsePath) {
  // A function's body, too, is read by extent when it is defined.
  const PassResult r =
      run_pass("$v = 'b'; Write-Output $(function g { 'a' + $v }; g)");
  EXPECT_EQ(r.out, "$v = 'b'; 'ab'");
  EXPECT_GE(r.stats.pieces_reparsed, 1);
}

struct RoundTrip {
  const char* name;
  const char* script;
  const char* expected;  ///< the recovery pass's output
  bool parse_path;       ///< some piece still parses its text
};

// Every shape value_to_literal can splice, each checked against the output
// the re-parse path gave before subtree evaluation existed.
const RoundTrip kRoundTrips[] = {
    // A char value is spliced as a one-character string, so `+ 1` appends.
    {"char_as_string", "$c = [char]65; $d = $c + 1; Write-Output $d",
     "$c = 'A'; $d = 'A1'; 'A1'", false},
    {"char_member", "$c = [char]0x41; Write-Output ($c + 'bc').ToLower()",
     "$c = 'A'; 'abc'", false},
    // %.15g drops the last digits; the piece computes with the literal.
    {"lossy_double", "$x = 1 / 3; Write-Output ($x * 3)",
     "$x = 0.333333333333333; 0.999999999999999", false},
    {"lossy_sum", "$x = 0.1 + 0.2; $y = $x * 10; Write-Output $y",
     "$x = 0.3; $y = 3; 3", false},
    // An exponent literal has no plain number form: the parse path.
    {"exponent_double", "$d = 1e20; Write-Output ('v' + $d)",
     "$d = 1e+20; 'v1e+20'", true},
    {"single_quote", "$s = \"it's\"; Write-Output ($s + ' ok').ToUpper()",
     "$s = 'it''s'; 'IT''S OK'", false},
    // `1 + --5` is a decrement of a constant, which fails: the spliced
    // text means something else than the unary minus it replaced.
    {"negative_int_under_unary_minus",
     "$x = -5; $y = 1 + -$x; Write-Output $y",
     "$x = -5; $y = 1 + --5; Write-Output $y", true},
    {"negative_int_member", "$x = -5; $y = $x.ToString(); Write-Output $y",
     "$x = -5; $y = -5; -5", true},
    {"negative_int_cast", "$x = -5; Write-Output ([int]$x + 1)",
     "$x = -5; -4", true},
    {"negative_int_range", "$x = -5; Write-Output (@($x..-3) -join ',')",
     "$x = -5; '-5,-4,-3'", true},
    {"negative_int_argument", "$x = -5; Write-Output $x", "$x = -5; -5",
     false},
    // `-9223372036854775808` is INT64_MIN as an argument, but in an
    // expression unary minus over a number that saturates.
    {"most_negative_int", "$v = 1e20; Write-Output ([int]$v)",
     "$v = 1e+20; -9223372036854775807", true},
    {"int_range_bounds", "$n = 1; Write-Output ($n..3 -join '')",
     "$n = 1; '123'", false},
    {"member_on_int", "$n = 42; Write-Output ($n.ToString() + 'x')",
     "$n = 42; '42x'", false},
    // In a command argument a number is a bareword that runs on to the next
    // command-word break: `42.Length` is one string argument.
    {"member_on_int_argument",
     "$n = 42; Write-Output $n.Length; Write-Output 42.Length",
     "$n = 42; '42.Length'; '42.Length'", true},
    {"index_on_int_argument", "$n = 42; Write-Output $n[0]",
     "$n = 42; '42[0]'", true},
    {"member_on_double_argument", "$d = 3.5; Write-Output $d.ToString()",
     "$d = 3.5; '3.5'", true},
    {"digit_after_int_argument", "$n = 1; Write-Output $n.5",
     "$n = 1; 1.5", true},
    {"int_after_bareword_argument", "$n = 42; Write-Output abc$n",
     "$n = 42; 'abc42'", true},
    {"int_after_parameter_colon", "$n = 5; Write-Output -InputObject:$n",
     "$n = 5; Write-Output -InputObject:5", true},
    {"int_argument_list", "$n = 42; Write-Output $n,1",
     "$n = 42; Write-Output 42,1", false},
    {"member_on_string_argument", "$s = 'abc'; Write-Output $s.Length",
     "$s = 'abc'; 3", false},
    // Adjacent substitutions splice into one token.
    {"adjacent_string_arguments", "$a = 'x'; $b = 'y'; Write-Output $a$b",
     "$a = 'x'; $b = 'y'; 'x''y'", true},
    {"adjacent_int_arguments", "$n = 4; $m = 2; Write-Output $n$m",
     "$n = 4; $m = 2; 42", true},
    {"string_before_quoted_argument", "$a = 'x'; Write-Output $a'b'",
     "$a = 'x'; 'x''b'", true},
    {"string_after_quoted_argument", "$a = 'x'; Write-Output 'b'$a",
     "$a = 'x'; 'b''x'", true},
    {"string_before_expandable_argument",
     "$a = 'x'; Write-Output $a\"b$a\"", "$a = 'x'; 'x''bx'", true},
    {"string_as_member_name",
     "$k = 'a'; $h = @{ a = 1 }; Write-Output ($h.$k + 1)",
     "$k = 'a'; $h = @{ a = 1 }; 2", true},
    {"non_ascii_quote",
     "$q = 'it\xE2\x80\x99s'; Write-Output ($q + '!').ToUpper()",
     "$q = 'it\xE2\x80\x99s'; 'IT\xE2\x80\x99S!'", false},
};

TEST(ParseOnce, LiteralRoundTripsMatchTheParseOutputs) {
  for (const RoundTrip& c : kRoundTrips) {
    const PassResult r = run_pass(c.script);
    EXPECT_EQ(r.out, c.expected) << c.name;
    EXPECT_EQ(r.stats.pieces_reparsed > 0, c.parse_path) << c.name;
  }
}

void expect_recovery_stats_equal(const RecoveryStats& a,
                                 const RecoveryStats& b,
                                 const std::string& what) {
  EXPECT_EQ(a.pieces_recovered, b.pieces_recovered) << what;
  EXPECT_EQ(a.variables_traced, b.variables_traced) << what;
  EXPECT_EQ(a.variables_substituted, b.variables_substituted) << what;
  EXPECT_EQ(a.pieces_failed, b.pieces_failed) << what;
  EXPECT_EQ(a.memo_hits + a.memo_misses, b.memo_hits + b.memo_misses)
      << what;
  EXPECT_STREQ(to_string(a.worst_failure), to_string(b.worst_failure))
      << what;
}

// More splice contexts, checked only against the re-parse reference.
const char* const kSpliceContexts[] = {
    "$a = 'x'; Write-Output abc$a",
    "$a = 'x'; Write-Output $a-b",
    "$a = 'x'; Write-Output $a+1",
    "$a = 'x'; Write-Output $a,$a",
    "$a = 'x'; $b = 'y'; Write-Output \"$a$b\"",
    "$n = 42; Write-Output $n|Out-String",
    "$n = 2; Write-Output $n>$null",
    "$n = 42; Write-Output [string]$n",
    "$n = 42; Write-Output $n::MaxValue",
    "$n = 42; Write-Output \"$n\".Length",
    "$s = '-Name'; Write-Output $s",
    "$t = 'Length'; Write-Output 'abc'.$t",
    "$x = -5; Write-Output (1,$x)",
    "$x = -5; Write-Output (3 -$x)",
    "$x = -5; Write-Output ($x -band 3)",
    "$x = -5; Write-Output (!$x)",
    "$x = -1; Write-Output 'abc'[$x]",
    "$x = -3; $m=$x; Write-Output $m",
    "$a = 'x'; Write-Output -join$a",
    "$a = 'abc'; Write-Output ($a -replace'b','x')",
    "$f = 'x{0}'; Write-Output ($f-f 1)",
};

std::vector<std::pair<std::string, std::string>> reference_scripts() {
  std::vector<std::pair<std::string, std::string>> scripts;
  for (const RoundTrip& c : kRoundTrips) scripts.emplace_back(c.name, c.script);
  for (const char* script : kSpliceContexts) scripts.emplace_back(script, script);
  return scripts;
}

/// One recovery pass with the subtree path and one with the re-parse
/// reference give the same output and stats.
void expect_pass_matches_reference(const std::string& script,
                                   const std::string& what) {
  const PassResult subtree = run_pass(script);
  ps::ParseCache table;
  const PassResult reference = run_pass(script, &table, true);
  EXPECT_EQ(subtree.out, reference.out) << what;
  expect_recovery_stats_equal(subtree.stats, reference.stats, what);
}

TEST(ParseOnce, PassMatchesTheReparseReference) {
  for (const auto& [name, script] : reference_scripts()) {
    expect_pass_matches_reference(script, name);
  }
  // Every value kind value_to_literal splices, in every lexical context a
  // substitution can land in: whole and partial command arguments,
  // adjacent to a token or to another substitution, beside operators,
  // casts and postfixes, with and without spaces.
  const char* const uses[] = {
      "Write-Output $v", "Write-Output $v.Length", "Write-Output $v[0]",
      "Write-Output $v.ToString()", "Write-Output ($v).Length",
      "Write-Output $v$w", "Write-Output $v,$w",
      "Write-Output -InputObject:$v", "Write-Output abc$v",
      "Write-Output 'q'$v", "Write-Output $v'q'", "Write-Output $v\"q\"",
      "Write-Output $v-1", "Write-Output ($v-1)", "Write-Output (1 -$v)",
      "Write-Output (-$v)", "Write-Output (!$v)", "Write-Output ([int]$v)",
      "Write-Output ($v..3 -join ',')", "Write-Output (1..$v -join ',')",
      "Write-Output ($v*-$w)", "Write-Output (($v,$w) -join '')",
      "$r=$v; Write-Output $r", "$r = -$v; Write-Output $r",
      "Write-Output 'abc'[$v]", "Write-Output ('{0}'-f $v)",
      "Write-Output $v.$w", "Write-Output ($v)$w",
      "Write-Output $v::MaxValue", "Write-Output ($v-eq $w)",
      "$h = @{ k = $v }; Write-Output $h.k", "Write-Output $v[$w]",
      "Write-Output ($v +\n$w)", "& { Write-Output $v }",
  };
  const char* const values[] = {
      "42", "-5", "3.5", "-2.5", "'x'", "\"it's\"", "[char]65", "1e20",
      "'-5'", "''"};
  const char* const others[] = {"2", "'Length'", "-1"};
  int scripts = 0;
  int reparsed = 0;
  for (const char* use : uses) {
    for (const char* v : values) {
      for (const char* w : others) {
        const std::string script =
            std::string("$v = ") + v + "; $w = " + w + "; " + use;
        expect_pass_matches_reference(script, script);
        reparsed += run_pass(script).stats.pieces_reparsed;
        ++scripts;
      }
    }
  }
  EXPECT_EQ(scripts, 1020);
  EXPECT_GT(reparsed, 0);
}

/// The PowerShell front-end with RecoveryOptions::reparse_rewritten set:
/// every rewritten piece parses its text. The reference the engine's
/// subtree path is checked against, layers and fixed-point passes included.
class ReparseFrontend final : public LanguageFrontend {
 public:
  static constexpr std::string_view kName = "powershell-reparse";

  std::string_view name() const override { return kName; }
  bool syntax_ok(std::string_view text,
                 const FrontendPhaseContext& ctx) const override {
    return ps_->syntax_ok(text, ctx);
  }
  std::string token_pass(std::string_view text, TokenPassStats& stats,
                         TraceSink* trace) const override {
    return ps_->token_pass(text, stats, trace);
  }
  std::string recovery_pass(std::string_view text,
                            const FrontendPhaseContext& ctx,
                            RecoveryStats& stats,
                            TraceSink* trace) const override {
    const Options& opts = *ctx.opts;
    RecoveryOptions ro;
    ro.max_steps_per_piece = opts.limits.max_steps_per_piece;
    ro.max_piece_size = opts.limits.max_piece_size;
    ro.extra_blocklist = opts.recovery.extra_blocklist;
    ro.trace_functions = opts.recovery.trace_functions;
    ro.memo = ctx.memo;
    ro.budget = ctx.budget;
    ro.fault = ctx.fault;
    ro.reparse_rewritten = true;
    const ps::ParsedScript parsed = ctx.parse_cache != nullptr
                                        ? ctx.parse_cache->get(text).ast
                                        : ps::try_parse(text);
    if (parsed == nullptr) return std::string(text);
    return ideobf::recovery_pass(text, parsed, ro, &stats, trace,
                                 ctx.parse_cache);
  }
  std::string unwrap_layers(std::string_view text,
                            const FrontendPhaseContext& ctx,
                            MultilayerStats& stats, TraceSink* trace,
                            const Recurse& recurse) const override {
    return ps_->unwrap_layers(text, ctx, stats, trace, recurse);
  }
  std::string rename_pass(std::string_view text, RenameStats& stats,
                          TraceSink* trace) const override {
    return ps_->rename_pass(text, stats, trace);
  }
  std::string reformat_pass(std::string_view text) const override {
    return ps_->reformat_pass(text);
  }
  double sniff(std::string_view) const override { return 0.0; }

 private:
  std::shared_ptr<const LanguageFrontend> ps_ = make_ps_frontend();
};

void expect_same_as_reference(const InvokeDeobfuscator& deobf,
                              const std::string& script,
                              const std::string& what) {
  DeobfuscationReport a, b;
  const std::string out = deobf.deobfuscate(script, a);
  const std::string ref = deobf.deobfuscate(
      script, b, deobf.options().limits, ReparseFrontend::kName);
  EXPECT_EQ(out, ref) << what;
  EXPECT_STREQ(to_string(a.failure), to_string(b.failure)) << what;
  EXPECT_EQ(a.failure_detail, b.failure_detail) << what;
  EXPECT_EQ(a.degradation_rung, b.degradation_rung) << what;
  EXPECT_EQ(a.passes, b.passes) << what;
  EXPECT_EQ(a.multilayer.layers_unwrapped, b.multilayer.layers_unwrapped)
      << what;
  expect_recovery_stats_equal(a.recovery, b.recovery, what);
}

TEST(ParseOnce, EngineMatchesTheReparseReference) {
  FrontendRegistry::instance().register_frontend(
      std::string(ReparseFrontend::kName), [](const Options&) {
        return std::make_shared<const ReparseFrontend>();
      });
  for (const bool memo : {true, false}) {
    Options opts;
    opts.recovery.memo = memo;
    const InvokeDeobfuscator deobf(opts);
    for (const auto& [name, script] : reference_scripts()) {
      expect_same_as_reference(deobf, script, name);
    }
    CorpusGenerator gen(memo ? 1 : 2);
    int id = 0;
    int reparsed = 0;
    for (const Sample& sample : gen.generate_batch(300)) {
      expect_same_as_reference(deobf, sample.obfuscated,
                               "sample " + std::to_string(id++));
      DeobfuscationReport report;
      (void)deobf.deobfuscate(sample.obfuscated, report);
      reparsed += report.recovery.pieces_reparsed;
    }
    // The corpus exercises both paths.
    EXPECT_GT(reparsed, 0);
  }
}

TEST(ParseOnce, OverridesStandForTheirNodes) {
  const std::string src = "$a + 'b'";
  const ps::ParsedScript parsed = ps::parse(src);
  const ps::Ast* stmt = parsed->named_blocks[0]->statements[0].get();
  // Pipeline -> CommandExpression -> BinaryExpression -> left: $a.
  const auto& pipe = static_cast<const ps::PipelineAst&>(*stmt);
  const auto& ce =
      static_cast<const ps::CommandExpressionAst&>(*pipe.elements[0]);
  const auto& bin =
      static_cast<const ps::BinaryExpressionAst&>(*ce.expression);
  ps::NodeOverrides overrides;
  overrides.emplace(bin.left.get(), ps::Value(std::string("x")));

  ps::InterpreterOptions opts;
  opts.strict_variables = true;  // $a itself is unknown
  ps::Interpreter interp(opts);
  EXPECT_EQ(interp.evaluate(*stmt, src, &overrides).to_display_string(), "xb");
  EXPECT_THROW(interp.evaluate(*stmt, src), ps::EvalError);

  // A bound node counts as a constant for purity.
  EXPECT_FALSE(is_pure_piece(bin));
  EXPECT_TRUE(is_pure_piece(bin, &overrides));

  // A bound pipeline statement emits its value.
  ps::NodeOverrides whole;
  whole.emplace(stmt, ps::Value(std::int64_t{7}));
  EXPECT_EQ(interp.evaluate(*stmt, src, &whole).to_display_string(), "7");
}

/// Thousands of distinct pieces whose rewrites sit under script blocks, so
/// each takes the parse path (and each script block invocation parses its
/// body): far more distinct texts than the per-run table may retain.
std::string hostile_script(int lines) {
  std::string s = "$v = 'p'\n";
  for (int i = 0; i < lines; ++i) {
    s += "& { ($v + 'k" + std::to_string(i) + "') + 'z' }\n";
  }
  return s;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ParseOnce, HostileScriptStaysWithinTheTableBound) {
  const std::string script = hostile_script(1500);

  ps::ParseCache table;
  const PassResult r = run_pass(script, &table);
  EXPECT_EQ(r.stats.pieces_recovered, 4500);
  EXPECT_LE(table.size(), ps::ParseCache::kDefaultMaxEntries);
  EXPECT_LE(table.retained_bytes(), ps::ParseCache::kDefaultMaxBytes);
  EXPECT_GT(table.stats().bypasses, 0u);

  Options opts;
  opts.shared_parse_cache = std::make_shared<ps::ParseCache>();
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(script, report);
  EXPECT_EQ(report.failure, FailureKind::None);
  EXPECT_EQ(report.degradation_rung, 0);
  EXPECT_GT(opts.shared_parse_cache->stats().bypasses, 0u);
  // The re-parse path's output: 1500 lines of 'pk<i>z' under `$v = 'p'`.
  EXPECT_EQ(out.size(), 13899u);
  EXPECT_EQ(fnv1a(out), 0x7258f3cc15bc45beull);
  EXPECT_EQ(out.substr(0, 23), "$v = 'p'\n'pk0z'\n'pk1z'\n");
}

}  // namespace
}  // namespace ideobf
