#pragma once

/// \file frontends/frontend.h
/// The language boundary of the deobfuscation core (DESIGN.md §12).
///
/// The paper's recovery loop — parse, classify recoverable nodes,
/// sandbox-evaluate, replace in extent, iterate to a fixed point — is
/// language-generic; only the grammar, the evaluator, and the token policy
/// are PowerShell-specific. `LanguageFrontend` is that cut: the pipeline in
/// `InvokeDeobfuscator` (governor ladder, fixed-point loop, per-phase
/// syntax checks with rollback, budget checkpoints, stat merging, trace
/// collection) programs against this interface, and everything that knows a
/// concrete syntax lives behind it:
///
///   - parser + syntax check (`syntax_ok`) — the per-step rollback oracle;
///   - token policy (`token_pass`) — attribute-level normalization (ticks /
///     case / aliases for PowerShell; bracket-member rewriting for JS);
///   - recoverable-node classifier + piece evaluator (`recovery_pass`) —
///     variable tracing and extent replacement, with whatever evaluation
///     ladder the language has (fold → tree-walk for PS, a constant
///     folder for JS);
///   - multilayer unwrapping (`unwrap_layers`) — the language's eval-like
///     disguises, recursing through the supplied callback so nested layers
///     run the full language-generic pipeline;
///   - rename + reformat policies;
///   - a sniffing score (`sniff`) for `language: "auto"` dispatch.
///
/// Front-ends are registered in `FrontendRegistry` (frontends/registry.h)
/// keyed by the `language` field of `ideobf::Request`; PowerShell is the
/// first registered front-end and the default language.
///
/// Thread-safety contract: a front-end instance is const-shared by every
/// call, batch slot, and server worker of one engine — all methods must be
/// const-callable from any number of threads. Per-run state (the piece
/// memo, the parse table) arrives in the FrontendPhaseContext.

#include <functional>
#include <string>
#include <string_view>

#include "core/recovery.h"
#include "core/trace.h"
#include "ideobf/options.h"
#include "ideobf/report.h"

namespace ps {
class Budget;
class ParseCache;
}  // namespace ps

namespace ideobf {

class FaultInjector;

/// The default language: requests with an empty `language` run under it.
inline constexpr std::string_view kDefaultLanguage = "powershell";
/// The sniffing pseudo-language: resolved to a concrete front-end per
/// request by scoring the source against every registered front-end.
inline constexpr std::string_view kAutoLanguage = "auto";

/// Per-run plumbing the pipeline threads into the syntax checks and the
/// execution-bearing phases (recovery, multilayer). All pointers are
/// non-owning and may be null.
struct FrontendPhaseContext {
  /// The effective options of this attempt (already rung-tightened by the
  /// governor; limits/recovery knobs apply as configured).
  const Options* opts = nullptr;
  /// The attempt's execution budget; checkpoint/charge against it so
  /// deadline, allocation and cancellation aborts propagate. Null when the
  /// call is ungoverned.
  ps::Budget* budget = nullptr;
  /// The piece-execution memo of this pipeline attempt, shared by its
  /// layers and fixed-point passes. Null when memoization is off.
  RecoveryMemo* memo = nullptr;
  /// Fault-injection test hook; arm the language's execution sites when
  /// non-null.
  FaultInjector* fault = nullptr;
  /// The parse table of this pipeline attempt (single-threaded, released
  /// when the attempt ends). Null when Options::parse_cache is off; a
  /// front-end without a PowerShell parser ignores it.
  ps::ParseCache* parse_cache = nullptr;
};

/// One language behind the pipeline. Implementations must be pure policy:
/// hold no per-call state, seal nothing (the governor classifies thrown
/// BudgetError/FaultError), and keep every method total — input that does
/// not parse is returned unchanged, exactly like the PowerShell passes.
class LanguageFrontend {
 public:
  /// Recursive hook handed to `unwrap_layers`: runs an extracted payload
  /// through the full language-generic pipeline (token/recovery/multilayer
  /// to a fixed point) one layer deeper.
  using Recurse = std::function<std::string(std::string_view)>;

  virtual ~LanguageFrontend() = default;

  /// Stable lowercase registry key ("powershell", "javascript").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether `text` parses. This is the per-step rollback oracle: a phase
  /// whose output fails it is skipped, so pipeline output is always valid
  /// when the input was.
  [[nodiscard]] virtual bool syntax_ok(
      std::string_view text, const FrontendPhaseContext& ctx) const = 0;

  /// Phase 1 — token-attribute normalization.
  [[nodiscard]] virtual std::string token_pass(std::string_view text,
                                               TokenPassStats& stats,
                                               TraceSink* trace) const = 0;

  /// Phase 2 — AST recovery: trace variables, evaluate recoverable pieces
  /// (through ctx.memo / ctx.budget), replace extents post-order.
  [[nodiscard]] virtual std::string recovery_pass(
      std::string_view text, const FrontendPhaseContext& ctx,
      RecoveryStats& stats, TraceSink* trace) const = 0;

  /// Phase 2b — multilayer unwrapping: recognize the language's eval-like
  /// wrappers, decode literal payloads, and inline `recurse(payload)`.
  [[nodiscard]] virtual std::string unwrap_layers(
      std::string_view text, const FrontendPhaseContext& ctx,
      MultilayerStats& stats, TraceSink* trace,
      const Recurse& recurse) const = 0;

  /// Phase 3a — identifier renaming policy.
  [[nodiscard]] virtual std::string rename_pass(std::string_view text,
                                                RenameStats& stats,
                                                TraceSink* trace) const = 0;

  /// Phase 3b — reformatting policy.
  [[nodiscard]] virtual std::string reformat_pass(
      std::string_view text) const = 0;

  /// How strongly `source` looks like this language, in [0, 1]. Used only
  /// for `language: "auto"`: the highest-scoring registered front-end wins,
  /// ties resolving to the default language. Must be cheap (lexical
  /// heuristics, no full parse of adversarial input).
  [[nodiscard]] virtual double sniff(std::string_view source) const = 0;
};

}  // namespace ideobf
