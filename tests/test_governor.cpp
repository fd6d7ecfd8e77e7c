// The execution governor: deadlines, budgets, cancellation, the degradation
// ladder, and the failure taxonomy — exercised with the hostile corpus the
// governor exists for (infinite loops, unbounded recursion, allocation
// bombs) plus the regression that limit errors cannot be swallowed by
// script-level try/catch.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/deobfuscator.h"
#include "ideobf/api.h"
#include "psinterp/interpreter.h"
#include "psvalue/budget.h"

namespace {

using namespace ideobf;

// An infinite loop inside a recoverable piece. Hits the per-piece step
// limit in milliseconds under default options; with the step limit pushed
// out of reach it runs until a wall deadline fires.
constexpr const char* kInfiniteLoop = "$a = $( while ($true) { 1 } )\n$a\n";

// Runtime-unbounded recursion through a scriptblock value. Textually flat,
// so it reaches the interpreter rather than any nesting-depth parser check.
constexpr const char* kDeepRecursion = "$f = { & $f }\n$z = & $f\n";

// Exponential string growth (2^40 bytes if nothing intervenes) inside a
// single recoverable subexpression, so the whole loop runs as one piece.
constexpr const char* kMemoryBomb =
    "$a = $( $x = 'AB'; for ($i = 0; $i -lt 40; $i++) { $x = $x + $x }; $x )\n"
    "$a\n";

// A benign sample of the paper's bread-and-butter obfuscation.
constexpr const char* kBenign =
    "$x = 'Wri' + 'te-Out' + 'put'\n& $x ('he' + 'llo')\n";

TEST(Budget, DeadlineFires) {
  ps::Budget budget(ps::Budget::Limits{0.05, 0, {}});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      {
        while (true) budget.checkpoint();
      },
      ps::BudgetError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 1.0);
}

TEST(Budget, CancellationWinsImmediately) {
  auto token = ps::CancellationToken::make();
  ps::Budget budget(ps::Budget::Limits{100.0, 0, token});
  budget.checkpoint();  // fine while not cancelled
  token.request_cancel();
  try {
    budget.checkpoint();
    FAIL() << "expected BudgetError";
  } catch (const ps::BudgetError& e) {
    EXPECT_EQ(e.kind, ps::FailureKind::Cancelled);
  }
}

TEST(Budget, MemoryBudgetIsCumulative) {
  ps::Budget budget(ps::Budget::Limits{0.0, 1000, {}});
  budget.charge_bytes(400);
  budget.charge_bytes(400);
  try {
    budget.charge_bytes(400);
    FAIL() << "expected BudgetError";
  } catch (const ps::BudgetError& e) {
    EXPECT_EQ(e.kind, ps::FailureKind::MemoryBudget);
  }
}

TEST(Budget, InactiveBudgetNeverThrows) {
  ps::Budget budget;
  EXPECT_FALSE(budget.active());
  for (int i = 0; i < 10000; ++i) budget.checkpoint();
  budget.charge_bytes(std::size_t{1} << 40);
  budget.force_checkpoint();
}

// --- limit errors must not be swallowed by script-level try/catch --------

TEST(LimitEscape, StepLimitEscapesTryCatch) {
  ps::InterpreterOptions opts;
  opts.max_steps = 5000;
  ps::Interpreter interp(opts);
  try {
    interp.evaluate_script("try { while ($true) { 1 } } catch { 'caught' }");
    FAIL() << "expected LimitError";
  } catch (const ps::LimitError& e) {
    EXPECT_EQ(e.kind, ps::FailureKind::StepLimit);
  }
}

TEST(LimitEscape, BudgetTimeoutEscapesTryCatch) {
  ps::Budget budget(ps::Budget::Limits{0.05, 0, {}});
  ps::InterpreterOptions opts;
  opts.max_steps = std::size_t{1} << 40;
  opts.budget = &budget;
  ps::Interpreter interp(opts);
  try {
    interp.evaluate_script("try { while ($true) { 1 } } catch { 'caught' }");
    FAIL() << "expected BudgetError";
  } catch (const ps::BudgetError& e) {
    EXPECT_EQ(e.kind, ps::FailureKind::Timeout);
  }
}

TEST(LimitEscape, StringSizeLimitEscapesTryCatch) {
  ps::Interpreter interp;
  try {
    interp.evaluate_script(
        "try { $a = 'A' * 999999999 } catch { 'caught' }");
    FAIL() << "expected LimitError";
  } catch (const ps::LimitError& e) {
    EXPECT_EQ(e.kind, ps::FailureKind::MemoryBudget);
  }
}

TEST(LimitEscape, PipelineReportsStepLimitDespiteTryCatch) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(
      "$a = $( try { while ($true) { 1 } } catch { 'caught' } )\n$a\n",
      report);
  EXPECT_EQ(report.failure, ps::FailureKind::StepLimit);
  EXPECT_EQ(out.find("'caught'\n$a"), std::string::npos);
}

// --- ungoverned classification -------------------------------------------

TEST(Classification, UngovernedStepLimit) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  (void)deobf.deobfuscate(kInfiniteLoop, report);
  EXPECT_EQ(report.failure, ps::FailureKind::StepLimit);
  EXPECT_EQ(report.degradation_rung, 0);
  EXPECT_GT(report.recovery.pieces_failed, 0);
}

TEST(Classification, UngovernedDepthLimit) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  (void)deobf.deobfuscate(kDeepRecursion, report);
  EXPECT_EQ(report.failure, ps::FailureKind::DepthLimit);
}

TEST(Classification, UngovernedMemoryLimit) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  (void)deobf.deobfuscate("$a = 'A' * 999999999\n", report);
  EXPECT_EQ(report.failure, ps::FailureKind::MemoryBudget);
}

TEST(Classification, UngovernedParseError) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string bad = "if (((";
  EXPECT_EQ(deobf.deobfuscate(bad, report), bad);
  EXPECT_EQ(report.failure, ps::FailureKind::ParseError);
}

TEST(Classification, BenignIsCleanAndByteIdenticalUnderGovernor) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport ungoverned;
  const std::string plain = deobf.deobfuscate(kBenign, ungoverned);
  EXPECT_EQ(ungoverned.failure, ps::FailureKind::None);
  EXPECT_EQ(ungoverned.degradation_rung, 0);

  Options::Limits governor;
  governor.deadline_seconds = 30.0;
  governor.memory_budget_bytes = 64u << 20;
  DeobfuscationReport governed;
  EXPECT_EQ(deobf.deobfuscate(kBenign, governed, governor), plain);
  EXPECT_EQ(governed.failure, ps::FailureKind::None);
  EXPECT_EQ(governed.degradation_rung, 0);
  EXPECT_EQ(governed.attempts, 1);
}

// --- the degradation ladder ----------------------------------------------

TEST(Governor, TimeoutDegradesAndStillServes) {
  Options opts;
  opts.limits.max_steps_per_piece = std::size_t{1} << 40;  // only the clock can stop it
  const InvokeDeobfuscator deobf(opts);
  Options::Limits governor;
  governor.deadline_seconds = 0.2;
  DeobfuscationReport report;
  const auto start = std::chrono::steady_clock::now();
  const std::string out = deobf.deobfuscate(kInfiniteLoop, report, governor);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(report.failure, ps::FailureKind::Timeout);
  EXPECT_GE(report.degradation_rung, 1);
  EXPECT_GT(report.attempts, 1);
  EXPECT_FALSE(out.empty());
  // Ladder worst case is 1.75x the deadline plus scheduling noise.
  EXPECT_LT(elapsed, governor.deadline_seconds * 2.0 + 1.0);
}

TEST(Governor, MemoryBombDegradesToStaticPasses) {
  const InvokeDeobfuscator deobf;
  Options::Limits governor;
  governor.deadline_seconds = 10.0;
  governor.memory_budget_bytes = 1u << 20;
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(kMemoryBomb, report, governor);
  EXPECT_EQ(report.failure, ps::FailureKind::MemoryBudget);
  EXPECT_GE(report.degradation_rung, 1);
  EXPECT_FALSE(out.empty());
}

TEST(Governor, DegradeOffServesPassthroughOnFirstFailure) {
  const InvokeDeobfuscator deobf;
  Options::Limits governor;
  governor.deadline_seconds = 10.0;
  governor.memory_budget_bytes = 1u << 20;
  governor.degrade = false;
  DeobfuscationReport report;
  EXPECT_EQ(deobf.deobfuscate(kMemoryBomb, report, governor), kMemoryBomb);
  EXPECT_EQ(report.degradation_rung, 3);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.failure, ps::FailureKind::MemoryBudget);
}

TEST(Governor, PreCancelledServesClassifiedPassthrough) {
  const InvokeDeobfuscator deobf;
  Options::Limits governor;
  governor.deadline_seconds = 10.0;
  governor.cancel = ps::CancellationToken::make();
  governor.cancel.request_cancel();
  DeobfuscationReport report;
  EXPECT_EQ(deobf.deobfuscate(kBenign, report, governor), kBenign);
  EXPECT_EQ(report.failure, ps::FailureKind::Cancelled);
  EXPECT_EQ(report.degradation_rung, 3);
  EXPECT_EQ(report.attempts, 0);
}

TEST(Governor, MidRunCancellationAborts) {
  Options opts;
  opts.limits.max_steps_per_piece = std::size_t{1} << 40;
  const InvokeDeobfuscator deobf(opts);
  Options::Limits governor;
  governor.deadline_seconds = 60.0;  // cancellation must win, not the clock
  governor.cancel = ps::CancellationToken::make();
  std::thread canceller([cancel = governor.cancel]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.request_cancel();
  });
  DeobfuscationReport report;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(deobf.deobfuscate(kInfiniteLoop, report, governor), kInfiniteLoop);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  EXPECT_EQ(report.failure, ps::FailureKind::Cancelled);
  EXPECT_EQ(report.degradation_rung, 3);
  EXPECT_LT(elapsed, 10.0);
}

// --- the batch under hostile load ----------------------------------------

std::vector<Request> requests_for(const std::vector<std::string>& scripts) {
  std::vector<Request> requests(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    requests[i].source = scripts[i];
  }
  return requests;
}

/// A response's failure counted the way batch summaries count it: non-None
/// only when the item failed or was served degraded. A full-strength
/// success is clean even when some piece could not be recovered.
FailureKind item_failure(const Response& r) {
  return r.report.degradation_rung > 0 || !r.ok ? r.failure
                                                : FailureKind::None;
}

TEST(GovernedBatch, HostileCorpusClassifiedServedAndBounded) {
  Options options;
  options.limits.max_steps_per_piece = std::size_t{1} << 40;
  options.threads = 2;
  options.limits.deadline_seconds = 0.3;
  options.limits.memory_budget_bytes = 4u << 20;
  const std::vector<std::string> scripts = {
      kBenign, kInfiniteLoop, kMemoryBomb, kDeepRecursion, kBenign,
  };
  const auto out = Engine(options).handle_batch(requests_for(scripts));

  ASSERT_EQ(out.size(), scripts.size());

  EXPECT_TRUE(out[0].ok);
  EXPECT_EQ(item_failure(out[0]), ps::FailureKind::None);
  EXPECT_EQ(out[0].report.degradation_rung, 0);

  EXPECT_EQ(item_failure(out[1]), ps::FailureKind::Timeout);
  EXPECT_GE(out[1].report.degradation_rung, 1);

  EXPECT_EQ(item_failure(out[2]), ps::FailureKind::MemoryBudget);
  EXPECT_GE(out[2].report.degradation_rung, 1);

  // The deep-recursion sample is served (unrecoverable pieces stay as-is,
  // which is not an item failure), with the per-piece classification kept
  // as diagnostic detail.
  EXPECT_TRUE(out[3].ok);
  EXPECT_EQ(out[3].report.recovery.worst_failure, ps::FailureKind::DepthLimit);

  EXPECT_TRUE(out[4].ok);
  EXPECT_EQ(out[4].result, out[0].result);  // workers share nothing item-visible

  // No item may blow materially past the ladder's 1.75x-deadline envelope.
  int failures = 0;
  int degraded = 0;
  int failed_or_degraded = 0;
  for (const Response& item : out) {
    EXPECT_LT(item.seconds, options.limits.deadline_seconds * 3.0 + 1.0);
    if (item_failure(item) != ps::FailureKind::None) ++failures;
    if (item.report.degradation_rung > 0) ++degraded;
    if (!item.ok || item.report.degradation_rung > 0) ++failed_or_degraded;
  }
  EXPECT_GE(failures, 2);
  EXPECT_GE(degraded, 2);
  // The failures are exactly the failed plus the degraded-but-served items.
  EXPECT_EQ(failures, failed_or_degraded);
}

TEST(GovernedBatch, BatchWideCancellationDrainsQueue) {
  Options options;
  options.limits.max_steps_per_piece = std::size_t{1} << 40;
  options.threads = 2;
  options.limits.deadline_seconds = 30.0;
  options.limits.cancel = ps::CancellationToken::make();
  const std::vector<std::string> scripts(8, kInfiniteLoop);
  std::thread canceller([cancel = options.limits.cancel]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    cancel.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto out = Engine(options).handle_batch(requests_for(scripts));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_EQ(out.size(), scripts.size());
  EXPECT_LT(elapsed, 15.0);
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    EXPECT_EQ(out[i].result, scripts[i]);
    EXPECT_EQ(item_failure(out[i]), ps::FailureKind::Cancelled) << i;
  }
}

TEST(GovernedBatch, UngovernedBatchMatchesGovernedOnBenignCorpus) {
  const std::vector<Request> requests =
      requests_for(std::vector<std::string>(4, kBenign));
  Options options;
  options.threads = 2;
  const auto plain = Engine(options).handle_batch(requests);
  options.limits.deadline_seconds = 30.0;
  const auto governed = Engine(options).handle_batch(requests);
  ASSERT_EQ(plain.size(), governed.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].result, governed[i].result);
    EXPECT_EQ(item_failure(governed[i]), ps::FailureKind::None);
    EXPECT_EQ(governed[i].report.degradation_rung, 0);
  }
}

TEST(GovernedBatch, ReturnsWhenItsItemsAreDoneNotAtTheWatchdogsNextPoll) {
  // With a 10 s deadline the watchdog polls every 50 ms; twenty one-item
  // batches that each waited out a poll would take a second.
  Options options;
  options.threads = 1;
  options.limits.deadline_seconds = 10.0;
  const Engine engine(options);
  const std::vector<Request> requests = requests_for({"Write-Output 'x'"});
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(engine.handle_batch(requests).front().ok);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 0.5);
}

TEST(FailureTaxonomy, NamesAndSeverityOrder) {
  EXPECT_STREQ(ps::to_string(ps::FailureKind::None), "none");
  EXPECT_STREQ(ps::to_string(ps::FailureKind::Timeout), "timeout");
  EXPECT_STREQ(ps::to_string(ps::FailureKind::StepLimit), "step-limit");
  EXPECT_STREQ(ps::to_string(ps::FailureKind::MemoryBudget), "memory-budget");
  EXPECT_EQ(ps::worse_failure(ps::FailureKind::EvalError,
                              ps::FailureKind::Timeout),
            ps::FailureKind::Timeout);
  EXPECT_EQ(ps::worse_failure(ps::FailureKind::None,
                              ps::FailureKind::StepLimit),
            ps::FailureKind::StepLimit);
  EXPECT_GT(ps::failure_severity(ps::FailureKind::Internal),
            ps::failure_severity(ps::FailureKind::Cancelled));
}

// Every cancellation path — the batch watchdog, batch-wide external cancel,
// a mid-run governed cancel, and the serve daemon's client-disconnect /
// drain-grace kills (asserted in test_server) — funnels through ONE
// canonical detail string: ideobf::kCancelledDetail. Tools that group
// failures by message must see one bucket, not four spellings.
TEST(FailureTaxonomy, CancellationHasOneCanonicalDetail) {
  // The shared choke point: a cancelled budget checkpoint.
  auto token = ps::CancellationToken::make();
  ps::Budget budget(ps::Budget::Limits{100.0, 0, token});
  token.request_cancel();
  try {
    budget.checkpoint();
    FAIL() << "expected BudgetError";
  } catch (const ps::BudgetError& e) {
    EXPECT_EQ(e.kind, ps::FailureKind::Cancelled);
    EXPECT_EQ(std::string(e.what()), std::string(ideobf::kCancelledDetail));
  }

  // Mid-run governed cancel surfaces the same string in the report.
  Options opts;
  opts.limits.max_steps_per_piece = std::size_t{1} << 40;
  const InvokeDeobfuscator deobf(opts);
  Options::Limits governor;
  governor.deadline_seconds = 60.0;
  governor.cancel = ps::CancellationToken::make();
  std::thread canceller([cancel = governor.cancel]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.request_cancel();
  });
  DeobfuscationReport report;
  const std::string served = deobf.deobfuscate(kInfiniteLoop, report, governor);
  canceller.join();
  EXPECT_EQ(served, kInfiniteLoop);  // cancelled work is served as passthrough
  EXPECT_EQ(report.failure, ps::FailureKind::Cancelled);
  EXPECT_EQ(report.failure_detail, std::string(ideobf::kCancelledDetail));

  // Batch-wide cancellation (the watchdog propagates external cancels onto
  // each item's token) records the same string per item.
  Options options = opts;
  options.threads = 2;
  options.limits.deadline_seconds = 30.0;
  options.limits.cancel = ps::CancellationToken::make();
  std::thread batch_canceller([cancel = options.limits.cancel]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.request_cancel();
  });
  const auto out = Engine(options).handle_batch(
      requests_for(std::vector<std::string>(4, kInfiniteLoop)));
  batch_canceller.join();
  ASSERT_EQ(out.size(), 4u);
  for (const Response& item : out) {
    EXPECT_EQ(item.failure, ps::FailureKind::Cancelled);
    EXPECT_EQ(item.failure_detail, std::string(ideobf::kCancelledDetail));
  }
}

}  // namespace
