// The fault-injection layer: every named site fires on demand, the
// degradation ladder walks exactly one rung per injected failure, worker
// sealing survives non-std throws, and an armed-but-silent injector leaves
// the pipeline byte-identical.

#include <gtest/gtest.h>

#include "core/deobfuscator.h"
#include "core/fault.h"
#include "ideobf/api.h"
#include "sandbox/sandbox.h"

namespace {

using namespace ideobf;

constexpr const char* kBenign =
    "$x = 'Wri' + 'te-Out' + 'put'\n& $x ('he' + 'llo')\n";
constexpr const char* kLayered = "iex 'Write-Output (1 + 2)'\n";
// powershell -EncodedCommand with a multi-statement UTF-16LE/base64 payload
// ("$v = 9 / Write-Output $v / Write-Output $v") — the form only the
// multilayer phase can unwrap, so it reliably reaches MultilayerDecode.
constexpr const char* kEncoded =
    "powershell -EncodedCommand "
    "JAB2ACAAPQAgADkACgBXAHIAaQB0AGUALQBPAHUAdABwAHUAdAAgACQAdgAKAFcAcgBpAHQA"
    "ZQAtAE8AdQB0AHAAdQB0ACAAJAB2AA==\n";

Options::Limits lenient_governor() {
  Options::Limits governor;
  governor.deadline_seconds = 30.0;
  return governor;
}

TEST(FaultInjector, CountsVisitsAndHonorsSkipAndMaxFires) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;
  spec.skip_first = 1;
  spec.max_fires = 1;
  fi.arm(FaultSite::Parse, spec);
  EXPECT_FALSE(fi.inject(FaultSite::Parse));       // skipped
  EXPECT_THROW(fi.inject(FaultSite::Parse), FaultError);
  EXPECT_FALSE(fi.inject(FaultSite::Parse));       // max_fires exhausted
  EXPECT_EQ(fi.visits(FaultSite::Parse), 3);
  EXPECT_EQ(fi.fires(FaultSite::Parse), 1);
  fi.reset();
  EXPECT_EQ(fi.visits(FaultSite::Parse), 0);
}

TEST(FaultInjector, DisarmedSiteIsInert) {
  FaultInjector fi;
  EXPECT_FALSE(fi.inject(FaultSite::SandboxRun));
  std::string text = "unchanged";
  EXPECT_FALSE(fi.inject(FaultSite::MultilayerDecode, &text));
  EXPECT_EQ(text, "unchanged");
}

// --- one ladder rung per injected failure --------------------------------

TEST(Ladder, OneFaultLandsOnRungOne) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;
  spec.max_fires = 1;
  fi.arm(FaultSite::Parse, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(kBenign, report, lenient_governor());
  EXPECT_EQ(report.degradation_rung, 1);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.failure, ps::FailureKind::Internal);
  EXPECT_NE(out, kBenign);  // rung 1 still runs the full pipeline
}

TEST(Ladder, TwoFaultsLandOnRungTwo) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;
  spec.max_fires = 2;
  fi.arm(FaultSite::Parse, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  (void)deobf.deobfuscate(kBenign, report, lenient_governor());
  EXPECT_EQ(report.degradation_rung, 2);
  EXPECT_EQ(report.attempts, 3);
}

TEST(Ladder, PersistentFaultServesPassthrough) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;  // unlimited fires
  fi.arm(FaultSite::Parse, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  EXPECT_EQ(deobf.deobfuscate(kBenign, report, lenient_governor()), kBenign);
  EXPECT_EQ(report.degradation_rung, 3);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.failure, ps::FailureKind::Internal);
  EXPECT_EQ(fi.fires(FaultSite::Parse), 3);
}

TEST(Ladder, PieceExecutionFaultHealsOnStaticRung) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;  // unlimited: rungs 0 and 1 both die
  fi.arm(FaultSite::PieceExecution, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(kBenign, report, lenient_governor());
  // Rung 2 runs no recovery, so the armed site is never reached again.
  EXPECT_EQ(report.degradation_rung, 2);
  EXPECT_GT(fi.visits(FaultSite::PieceExecution), 0);
  EXPECT_FALSE(out.empty());
}

TEST(Ladder, MemoLookupSiteIsVisited) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;
  spec.max_fires = 1;
  fi.arm(FaultSite::MemoLookup, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  (void)deobf.deobfuscate(kBenign, report, lenient_governor());
  EXPECT_EQ(fi.fires(FaultSite::MemoLookup), 1);
  EXPECT_EQ(report.degradation_rung, 1);
}

TEST(Ladder, CorruptedMultilayerPayloadRollsBack) {
  const InvokeDeobfuscator plain;
  DeobfuscationReport plain_report;
  (void)plain.deobfuscate(kEncoded, plain_report);
  ASSERT_GT(plain_report.multilayer.layers_unwrapped, 0);

  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Corrupt;
  spec.corrupt_text = "this is (((( not powershell";
  fi.arm(FaultSite::MultilayerDecode, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(kEncoded, report, lenient_governor());
  // The corrupted payload fails its syntax check, so the layer is simply
  // not unwrapped — no throw, no degradation, output still valid.
  EXPECT_GT(fi.fires(FaultSite::MultilayerDecode), 0);
  EXPECT_EQ(report.degradation_rung, 0);
  EXPECT_EQ(report.multilayer.layers_unwrapped, 0);
  // The encoded command survives instead of being inlined.
  EXPECT_NE(out.find("ncodedCommand"), std::string::npos);
}

TEST(Ladder, ArmedButSilentInjectorIsByteIdentical) {
  const InvokeDeobfuscator plain;
  DeobfuscationReport plain_report;
  const std::string expected = plain.deobfuscate(kLayered, plain_report);

  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Throw;
  spec.skip_first = 1000000;  // armed, never fires
  fi.arm(FaultSite::Parse, spec);
  fi.arm(FaultSite::PieceExecution, spec);
  fi.arm(FaultSite::MultilayerDecode, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  EXPECT_EQ(deobf.deobfuscate(kLayered, report, lenient_governor()), expected);
  EXPECT_EQ(report.degradation_rung, 0);
  EXPECT_EQ(report.failure, ps::FailureKind::None);
  EXPECT_EQ(fi.fires(FaultSite::Parse), 0);
  EXPECT_GT(fi.visits(FaultSite::Parse), 0);
}

// --- non-std throws ------------------------------------------------------

TEST(NonStd, GovernedCallClassifiesNonStdThrow) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::ThrowNonStd;
  spec.max_fires = 1;
  fi.arm(FaultSite::Parse, spec);
  Options opts;
  opts.fault_injector = &fi;
  const InvokeDeobfuscator deobf(opts);
  DeobfuscationReport report;
  (void)deobf.deobfuscate(kBenign, report, lenient_governor());
  EXPECT_EQ(report.failure, ps::FailureKind::Internal);
  EXPECT_EQ(report.failure_detail, "non-standard exception");
  EXPECT_EQ(report.degradation_rung, 1);
}

TEST(NonStd, UngovernedBatchWorkerSurvivesNonStdThrow) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::ThrowNonStd;  // unlimited
  fi.arm(FaultSite::Parse, spec);
  Options opts;
  opts.fault_injector = &fi;
  opts.threads = 2;
  std::vector<Request> requests(4);
  for (Request& request : requests) request.source = kBenign;
  const auto out = Engine(opts).handle_batch(requests);
  ASSERT_EQ(out.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_FALSE(out[i].ok);
    EXPECT_EQ(out[i].failure, ps::FailureKind::Internal);
    EXPECT_EQ(out[i].failure_detail, "non-standard exception");
    EXPECT_EQ(out[i].result, requests[i].source);
  }
}

// --- the sandbox site ----------------------------------------------------

TEST(SandboxFaults, NonStdThrowIsRecordedNotFatal) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::ThrowNonStd;
  fi.arm(FaultSite::SandboxRun, spec);
  SandboxOptions opts;
  opts.fault_injector = &fi;
  const Sandbox sandbox(opts);
  const BehaviorProfile profile = sandbox.run("Write-Output 'hi'");
  EXPECT_FALSE(profile.executed_ok);
  EXPECT_EQ(profile.failure, ps::FailureKind::Internal);
  EXPECT_EQ(profile.error, "non-standard exception");
}

TEST(SandboxFaults, DeadlinePlusDelayYieldsTimeout) {
  FaultInjector fi;
  FaultSpec spec;
  spec.action = FaultAction::Delay;
  spec.delay_seconds = 0.25;
  fi.arm(FaultSite::SandboxRun, spec);
  SandboxOptions opts;
  opts.deadline_seconds = 0.2;
  opts.max_steps = std::size_t{1} << 40;
  opts.fault_injector = &fi;
  const Sandbox sandbox(opts);
  // Enough steps after the delay for the strided deadline check to run.
  const BehaviorProfile profile =
      sandbox.run("for ($i = 0; $i -lt 5000; $i++) { $i }");
  EXPECT_FALSE(profile.executed_ok);
  EXPECT_EQ(profile.failure, ps::FailureKind::Timeout);
}

TEST(SandboxFaults, StepLimitIsClassified) {
  SandboxOptions opts;
  opts.max_steps = 2000;
  const Sandbox sandbox(opts);
  const BehaviorProfile profile = sandbox.run("while ($true) { 1 }");
  EXPECT_FALSE(profile.executed_ok);
  EXPECT_EQ(profile.failure, ps::FailureKind::StepLimit);
}

TEST(SandboxFaults, CleanRunHasNoFailure) {
  SandboxOptions opts;
  opts.deadline_seconds = 30.0;
  const Sandbox sandbox(opts);
  const BehaviorProfile profile = sandbox.run("Write-Output 'hi'");
  EXPECT_TRUE(profile.executed_ok);
  EXPECT_EQ(profile.failure, ps::FailureKind::None);
}

}  // namespace
