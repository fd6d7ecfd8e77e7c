// Tests for Engine::handle_batch on the worker pool and the member-assignment
// / WebClient-property additions behind realistic downloader prologues.

#include <gtest/gtest.h>

#include "core/deobfuscator.h"
#include "corpus/corpus.h"
#include "ideobf/api.h"
#include "psinterp/interpreter.h"
#include "sandbox/sandbox.h"

namespace ideobf {
namespace {

std::vector<Request> requests_for(const std::vector<std::string>& scripts) {
  std::vector<Request> requests(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    requests[i].source = scripts[i];
  }
  return requests;
}

std::vector<Response> run_batch(const std::vector<std::string>& scripts,
                                unsigned threads) {
  Options options;
  options.threads = threads;
  return Engine(options).handle_batch(requests_for(scripts));
}

TEST(Batch, MatchesSerialResults) {
  CorpusGenerator gen(7);
  std::vector<std::string> scripts;
  for (const Sample& s : gen.generate_batch(24)) {
    scripts.push_back(s.obfuscated);
  }

  const auto serial = run_batch(scripts, 1);
  const auto parallel = run_batch(scripts, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result, parallel[i].result) << "sample " << i;
  }
}

TEST(Batch, PreservesOrderAndTotality) {
  const std::vector<std::string> scripts = {
      "iex 'Write-Host zero'",
      "broken ( input",  // invalid: must come back unchanged
      "iex 'Write-Host two'",
  };
  const auto out = run_batch(scripts, 3);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_NE(out[0].result.find("zero"), std::string::npos);
  EXPECT_EQ(out[1].result, scripts[1]);
  EXPECT_NE(out[2].result.find("two"), std::string::npos);
}

TEST(Batch, EmptyInput) {
  EXPECT_TRUE(Engine{}.handle_batch({}).empty());
}

TEST(Batch, ReportRecordsPerItemOutcomes) {
  // A pathological script: deeply nested unbalanced groups that stress the
  // parser's error path, plus normal and no-op items around it.
  std::string pathological;
  for (int i = 0; i < 300; ++i) pathological += "$( ( ";
  pathological += "broken";
  const std::vector<std::string> scripts = {
      "iex 'Write-Host alpha'",
      pathological,
      "Write-Host plain",
  };

  const auto out = run_batch(scripts, 2);
  ASSERT_EQ(out.size(), 3u);

  // Totality: even the pathological item produced a result (unchanged), and
  // every item carries a verdict plus a wall time.
  EXPECT_EQ(out[1].result, pathological);
  for (const Response& item : out) {
    EXPECT_TRUE(item.ok) << item.failure_detail;
    EXPECT_GE(item.seconds, 0.0);
  }
  EXPECT_NE(out[0].result, scripts[0]);
  EXPECT_EQ(out[1].result, scripts[1]);
}

TEST(MemberAssign, ServicePointManagerPrologue) {
  ps::Interpreter interp;
  // The ubiquitous TLS prologue must execute as a no-op, not an error.
  EXPECT_NO_THROW(interp.evaluate_script(
      "[Net.ServicePointManager]::SecurityProtocol = "
      "[Net.SecurityProtocolType]::Tls12"));
}

TEST(MemberAssign, WebClientHeaderStore) {
  ps::Interpreter interp;
  EXPECT_NO_THROW(interp.evaluate_script(
      "$wc = New-Object Net.WebClient\n"
      "$wc.Headers['User-Agent'] = 'Mozilla/5.0'\n"
      "$wc.Encoding = [Text.Encoding]::UTF8"));
}

TEST(MemberAssign, DownloaderFamilyStillBehaves) {
  // The corpus downloader now carries the TLS prologue; obfuscation and
  // deobfuscation must still preserve its behavior.
  CorpusGenerator gen(31);
  Sandbox sandbox;
  InvokeDeobfuscator deobf;
  for (int i = 0; i < 12; ++i) {
    const Sample s = gen.generate();
    if (s.family != "downloader") continue;
    const BehaviorProfile a = sandbox.run(s.original);
    const BehaviorProfile b = sandbox.run(deobf.deobfuscate(s.obfuscated));
    EXPECT_TRUE(Sandbox::same_network_behavior(a, b)) << s.obfuscated;
  }
}

}  // namespace
}  // namespace ideobf
