#pragma once

/// \file deobfuscator.h
/// The engine of Invoke-Deobfuscation: AST-based and semantics-preserving
/// deobfuscation for PowerShell scripts (Chai et al., DSN 2022), rebuilt as
/// a C++ library on an in-repo PowerShell substrate — and generalized: the
/// pipeline is language-agnostic, programming against the LanguageFrontend
/// boundary (src/frontends/frontend.h, DESIGN.md §12), with PowerShell as
/// the first registered front-end and a minimal JavaScript front-end
/// alongside it.
///
/// Pipeline (paper Fig 2): token parsing -> variable tracing & recovery
/// based on AST -> multi-layer unwrapping (repeated to a fixed point) ->
/// renaming -> reformatting. Every phase is syntax-checked and rolled back
/// on error, so the output is always valid when the input was. The loop,
/// the governor ladder, the budget checkpoints, and the stat/trace
/// collection live here; everything that knows a concrete syntax lives in
/// the front-end.
///
/// The stable entry point is `ideobf::Engine` (include/ideobf/api.h);
/// `InvokeDeobfuscator` is the engine behind it, configured by the unified
/// `ideobf::Options` and producing the public `DeobfuscationReport`.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "frontends/frontend.h"
#include "ideobf/options.h"
#include "psvalue/budget.h"
#include "telemetry/telemetry.h"

namespace ideobf {

/// The deobfuscator. Const-callable from any number of threads and cheap to
/// copy; copies share the front-end instances. Nothing else outlives a
/// call: each pipeline attempt builds its own piece memo and parse table.
class InvokeDeobfuscator {
 public:
  explicit InvokeDeobfuscator(Options options = {});

  /// Deobfuscates `script`. Invalid input is returned unchanged. Governed
  /// by options().limits; never throws for script-caused failures — a
  /// busted budget degrades down the ladder to passthrough instead.
  [[nodiscard]] std::string deobfuscate(std::string_view script) const;
  [[nodiscard]] std::string deobfuscate(std::string_view script,
                                        DeobfuscationReport& report) const;
  /// Per-call envelope override (how Engine gives every request its own
  /// deadline and cancellation token). Only the *envelope* fields of
  /// `limits` apply per call — deadline_seconds,
  /// memory_budget_bytes, degrade, cancel; the per-piece caps (max_layers,
  /// max_steps_per_piece, max_piece_size) always come from the configured
  /// options(), so two requests against one engine run the same pipeline
  /// under different deadlines.
  ///
  /// `language` picks the front-end: a registered front-end name, "" (the
  /// default language) or "auto" (sniffed per source). An unknown language
  /// serves classified passthrough (FailureKind::Internal, rung 3) — the
  /// totality contract holds for misrouted requests too.
  [[nodiscard]] std::string deobfuscate(std::string_view script,
                                        DeobfuscationReport& report,
                                        const Options::Limits& limits,
                                        std::string_view language = {}) const;

  [[nodiscard]] const Options& options() const { return options_; }

  /// The front-end registered under `language` ("" = default), or null.
  [[nodiscard]] const LanguageFrontend* frontend(
      std::string_view language) const;

  /// Resolves a request's language field to a concrete front-end name;
  /// the free ideobf::resolve_language (frontends/registry.h).
  [[nodiscard]] std::string_view resolve_language(
      std::string_view language, std::string_view source) const;

 private:
  /// The governed ladder walk behind deobfuscate(); the public wrapper adds
  /// the telemetry envelope (Pipeline span + profile binding) and the
  /// front-end dispatch around it.
  std::string deobfuscate_impl(std::string_view script,
                               DeobfuscationReport& report,
                               const Options::Limits& limits,
                               const LanguageFrontend& frontend) const;
  /// One full pipeline run under `opts`, checkpointing `budget` (may be
  /// null) between phases, with its own piece memo when opts.recovery.memo
  /// and its own parse table when opts.parse_cache. Throws on budget/fault
  /// aborts.
  std::string run_pipeline(std::string_view script, DeobfuscationReport& report,
                           const Options& opts, ps::Budget* budget,
                           const LanguageFrontend& frontend) const;
  std::string deobfuscate_layers(std::string_view script,
                                 DeobfuscationReport& report, int depth,
                                 TraceSink* trace,
                                 const FrontendPhaseContext& ctx,
                                 const LanguageFrontend& frontend) const;
  /// The options for one degradation-ladder rung (see Options::Limits).
  [[nodiscard]] Options rung_options(int rung) const;
  Options options_;
  /// One instance per registered front-end, registry order (default
  /// language first). Const-shared: front-ends are pure policy.
  std::vector<std::shared_ptr<const LanguageFrontend>> frontends_;
};

}  // namespace ideobf
