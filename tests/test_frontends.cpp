// Tests for the language-frontend boundary: the registry and its request
// validation, "auto" sniffing, PowerShell parity through the new dispatch
// path, engine-level routing of Request::language (including the unknown-
// language passthrough contract), and the per-language dispatch counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/deobfuscator.h"
#include "frontends/frontend.h"
#include "frontends/registry.h"
#include "ideobf/api.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace {

using namespace ideobf;

const char* kJsSample =
    "var a = 'ev' + 'al';\n"
    "var b = String.fromCharCode(104, 105);\n"
    "console.log(a === b);\n";

const char* kPsSample =
    "$a = \"In\" + \"voke\"\n"
    "Write-Output $a\n";

// ---------------------------------------------------------------- registry

TEST(FrontendRegistry2, BuiltinsAreRegisteredDefaultFirst) {
  FrontendRegistry& reg = FrontendRegistry::instance();
  EXPECT_TRUE(reg.has("powershell"));
  EXPECT_TRUE(reg.has("javascript"));
  EXPECT_FALSE(reg.has("klingon"));
  EXPECT_FALSE(reg.has("auto"));  // a pseudo-language, not a front-end

  const std::vector<std::string> names = reg.names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[0], kDefaultLanguage);  // registration order, default first
  EXPECT_NE(std::find(names.begin(), names.end(), "javascript"), names.end());
}

TEST(FrontendRegistry2, RequestLanguageValidation) {
  EXPECT_TRUE(valid_request_language(""));      // default
  EXPECT_TRUE(valid_request_language("auto"));  // sniffed
  EXPECT_TRUE(valid_request_language("powershell"));
  EXPECT_TRUE(valid_request_language("javascript"));
  EXPECT_FALSE(valid_request_language("klingon"));
  EXPECT_FALSE(valid_request_language("PowerShell"));  // case-sensitive
}

TEST(FrontendRegistry2, SniffLanguageSeparatesTheBuiltins) {
  EXPECT_EQ(sniff_language(kPsSample), "powershell");
  EXPECT_EQ(sniff_language(kJsSample), "javascript");
  // Nothing to go on: ties resolve to the default language.
  EXPECT_EQ(sniff_language(""), kDefaultLanguage);
}

TEST(FrontendRegistry2, CreateAllInstantiatesEveryFrontend) {
  const Options opts;
  const auto frontends =
      FrontendRegistry::instance().create_all(opts);
  ASSERT_GE(frontends.size(), 2u);
  EXPECT_EQ(frontends[0]->name(), kDefaultLanguage);
  for (const auto& fe : frontends) {
    EXPECT_TRUE(FrontendRegistry::instance().has(fe->name()));
  }
}

// ---------------------------------------------------------------- parity

TEST(FrontendParity, DefaultDispatchMatchesExplicitPowershell) {
  const InvokeDeobfuscator deobf;
  const std::string obf =
      "$x = \"do\" + \"wn\" + \"load\"\n"
      "& (\"Inv\" + \"oke-Expression\") $x\n";
  DeobfuscationReport r1;
  DeobfuscationReport r2;
  DeobfuscationReport r3;
  const std::string via_default = deobf.deobfuscate(obf, r1);
  const std::string via_empty =
      deobf.deobfuscate(obf, r2, deobf.options().limits, "");
  const std::string via_named =
      deobf.deobfuscate(obf, r3, deobf.options().limits, "powershell");
  EXPECT_EQ(via_default, via_empty);
  EXPECT_EQ(via_default, via_named);
  EXPECT_EQ(r1.degradation_rung, r3.degradation_rung);
}

// ---------------------------------------------------------------- routing

TEST(FrontendRouting, ResolveLanguageNormalizesDefaultAndAuto) {
  const InvokeDeobfuscator deobf;
  EXPECT_EQ(deobf.resolve_language("", kJsSample), "powershell");
  EXPECT_EQ(deobf.resolve_language("javascript", kPsSample), "javascript");
  EXPECT_EQ(deobf.resolve_language("auto", kJsSample), "javascript");
  EXPECT_EQ(deobf.resolve_language("auto", kPsSample), "powershell");
  // Unknown names pass through verbatim; the lookup failure is the
  // caller's signal.
  EXPECT_EQ(deobf.resolve_language("klingon", kJsSample), "klingon");
  EXPECT_EQ(deobf.frontend("klingon"), nullptr);
}

TEST(FrontendRouting, JavascriptRequestsFoldUnderTheJsFrontend) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string out =
      deobf.deobfuscate("eval('con' + 'sole.log(\"hi\")');", report,
                        deobf.options().limits, "javascript");
  EXPECT_EQ(out, "console.log(\"hi\");");
  EXPECT_EQ(report.multilayer.layers_unwrapped, 1);
  EXPECT_EQ(report.degradation_rung, 0);
}

TEST(FrontendRouting, UnknownLanguageIsClassifiedPassthrough) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string src = "whatever source text";
  const std::string out = deobf.deobfuscate(
      src, report, deobf.options().limits, "klingon");
  EXPECT_EQ(out, src);  // totality: misrouted input comes back unchanged
  EXPECT_EQ(report.failure, ps::FailureKind::Internal);
  EXPECT_EQ(report.degradation_rung, 3);
  EXPECT_NE(report.failure_detail.find("klingon"), std::string::npos);
}

TEST(FrontendRouting, EngineApiThreadsLanguageAndEchoesResolution) {
  Engine engine{Options{}};
  Request request;
  request.source = "var u = atob('aGk=');\nf(u);\n";
  request.language = "javascript";
  const Response response = engine.handle(request);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.language, "javascript");
  EXPECT_NE(response.result.find("'hi'"), std::string::npos);

  Request sniffed;
  sniffed.source = request.source;
  sniffed.language = "auto";
  const Response auto_response = engine.handle(sniffed);
  EXPECT_EQ(auto_response.language, "javascript");
  EXPECT_EQ(auto_response.result, response.result);

  Request defaulted;
  defaulted.source = kPsSample;
  const Response ps_response = engine.handle(defaulted);
  EXPECT_EQ(ps_response.language, "powershell");
}

TEST(FrontendRouting, BatchRoutesPerItemLanguages) {
  Engine engine{Options{}};
  std::vector<Request> requests(3);
  requests[0].source = kPsSample;
  requests[1].source = "var x = 'pay' + 'load';\ng(x);\n";
  requests[1].language = "javascript";
  requests[2].source = "irrelevant";
  requests[2].language = "klingon";
  const std::vector<Response> responses = engine.handle_batch(requests);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].language, "powershell");
  EXPECT_EQ(responses[1].language, "javascript");
  EXPECT_NE(responses[1].result.find("'payload'"), std::string::npos);
  // The unknown-language item is a classified passthrough, and its language
  // echoes verbatim so the client can see what failed to route.
  EXPECT_EQ(responses[2].language, "klingon");
  EXPECT_FALSE(responses[2].ok);
  EXPECT_EQ(responses[2].result, requests[2].source);
}

// ---------------------------------------------------------------- counters

TEST(FrontendCounters, PerLanguageRequestAndFailureLabels) {
  telemetry::Telemetry::metrics().reset();
  telemetry::Telemetry::enable();

  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const Options::Limits& limits = deobf.options().limits;
  (void)deobf.deobfuscate("Write-Output 1", report, limits, "");
  (void)deobf.deobfuscate("f(1);", report, limits, "javascript");
  (void)deobf.deobfuscate("x", report, limits, "klingon");

  auto& reg = telemetry::registry();
  EXPECT_EQ(reg.counter("ideobf_frontend_requests_total",
                        "language=\"powershell\"")
                .value(),
            1u);
  EXPECT_EQ(reg.counter("ideobf_frontend_requests_total",
                        "language=\"javascript\"")
                .value(),
            1u);
  EXPECT_EQ(
      reg.counter("ideobf_frontend_requests_total", "language=\"unknown\"")
          .value(),
      1u);
  EXPECT_EQ(
      reg.counter("ideobf_frontend_failures_total", "language=\"unknown\"")
          .value(),
      1u);
  EXPECT_EQ(
      reg.counter("ideobf_frontend_failures_total", "language=\"javascript\"")
          .value(),
      0u);

  telemetry::Telemetry::disable();
}

// ---------------------------------------------------------------- JS phases

TEST(FrontendJsPhases, TokenPassRewritesBracketMembers) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(
      "window[\"eval\"]('a[\"b\"]');", report, deobf.options().limits,
      "javascript");
  // The bracket-member alias was normalized on the wrapper, the layer
  // unwrapped, and the payload's own bracket member normalized in turn.
  EXPECT_EQ(out, "a.b;");
  EXPECT_GE(report.token.aliases_expanded, 1);
}

TEST(FrontendJsPhases, RenameReplacesKitIdentifiers) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string out = deobf.deobfuscate(
      "var _0x1a2b = external();\nuse(_0x1a2b);\n", report,
      deobf.options().limits, "javascript");
  EXPECT_EQ(out.find("_0x1a2b"), std::string::npos);
  EXPECT_GE(report.rename.variables_renamed, 1);
}

TEST(FrontendJsPhases, InvalidJsIsReturnedUnchanged) {
  const InvokeDeobfuscator deobf;
  DeobfuscationReport report;
  const std::string src = "var x = `template ${literal}`;";
  const std::string out = deobf.deobfuscate(
      src, report, deobf.options().limits, "javascript");
  EXPECT_EQ(out, src);
}

}  // namespace
