#pragma once

/// \file ideobf/options.h
/// The one options struct of the ideobf API. Historically the library grew
/// three divergent knob sets — `DeobfuscationOptions` (pipeline),
/// `GovernorOptions` (execution envelope) and `BatchOptions` (batch
/// execution) — plus ad-hoc bench flags. They are collapsed here into a
/// single `ideobf::Options` with nested `Limits` / `Telemetry` / `Recovery`
/// sections, consumed identically by the one-shot path, the batch command,
/// `ideobf serve`, and the bench harness. The old struct names no longer
/// exist; docs/API.md maps each old field to its `Options` home.
///
/// Part of the stable `include/ideobf/` facade: includes only other facade
/// headers and the standard library; internal engine types appear only as
/// forward declarations.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ideobf/failure.h"

namespace ps {
class ParseCache;  // internal; see psast/parse_cache.h
}  // namespace ps

namespace ideobf {

class FaultInjector;  // internal test hook; see core/fault.h

struct Options {
  // --- Pipeline shape -----------------------------------------------------
  // Which phases run. The defaults are the full paper pipeline (Fig 2).
  bool token_pass = true;
  bool ast_recovery = true;
  bool multilayer = true;
  bool rename = true;
  bool reformat = true;
  /// Parse-once pipeline: share one parse of every intermediate text across
  /// the per-step syntax checks, the phases' AST inputs, and the multilayer
  /// recursion. Disabling re-parses at every step; output and report are
  /// identical either way.
  bool parse_cache = true;
  /// Concurrent executors for batch/server execution (pool slots);
  /// 0 picks the hardware concurrency. Ignored by one-shot calls.
  unsigned threads = 0;

  // --- Limits: the execution governor's envelope + per-piece caps --------
  /// The recovery phase executes attacker-controlled pieces, so hostile
  /// inputs (deliberate stalls, allocation bombs) are the normal input
  /// distribution; the governor bounds each call and — instead of failing
  /// outright — walks a degradation ladder of progressively safer
  /// configurations:
  ///
  ///   rung 0: full pipeline, full deadline
  ///   rung 1: tightened recovery (fewer layers, far smaller per-piece step
  ///           and size budgets), deadline/2
  ///   rung 2: static passes only (token pass + rename + reformat; nothing
  ///           is executed), deadline/4
  ///   rung 3: passthrough (input returned unchanged)
  ///
  /// Worst case a governed call spends ~1.75x its deadline before serving
  /// passthrough. Every abort is classified into a FailureKind.
  struct Limits {
    /// Wall-clock deadline per call at full strength; 0 disables.
    double deadline_seconds = 0.0;
    /// Cumulative interpreter allocation budget per attempt; 0 disables.
    std::size_t memory_budget_bytes = 0;
    /// Walk the ladder on failure. When false a failed attempt immediately
    /// serves passthrough (rung 3).
    bool degrade = true;
    /// External cancellation (checked at every budget checkpoint). Inert by
    /// default; a cancelled call serves passthrough without retries.
    CancellationToken cancel{};
    /// Fixed-point iteration bound for multi-layer obfuscation.
    int max_layers = 8;
    /// Interpreter budget per recoverable piece.
    std::size_t max_steps_per_piece = 200000;
    /// Largest piece text the recovery phase will execute.
    std::size_t max_piece_size = 4u << 20;
    /// Batch/server backstop: a watchdog hard-cancels an item still running
    /// past watchdog_factor x its deadline, in case it wedges between
    /// budget checkpoints.
    double watchdog_factor = 2.0;

    /// Whether a governor envelope is configured; calls with an inactive
    /// envelope take the exact ungoverned code path (byte-identical output,
    /// no budget checks).
    [[nodiscard]] bool active() const {
      return deadline_seconds > 0.0 || memory_budget_bytes > 0 ||
             cancel.valid();
    }
  } limits;

  // --- Telemetry: what the run reports beyond its output ------------------
  struct Telemetry {
    /// Collect a structured transformation trace into the report.
    bool collect_trace = false;
    /// Trace-event collection cap per run; overflow sets
    /// DeobfuscationReport::trace_truncated instead of growing unboundedly.
    std::size_t max_trace_events = 10000;
  } telemetry;

  // --- Recovery: how attacker-controlled pieces are executed --------------
  struct Recovery {
    /// Extension beyond the paper (section V-C): trace user-defined decoder
    /// functions so function-wrapped recovery chains can be executed.
    bool trace_functions = false;
    /// Memoize recovered pieces (piece text + traced-variable context
    /// fingerprint -> recovered literal) so a piece repeated across
    /// occurrences, layers, or fixed-point passes executes once. The memo
    /// lives for one pipeline attempt; nothing is shared across calls.
    /// Output, failure and rung are identical either way.
    bool memo = true;
    /// Additional lowercase command names to refuse executing.
    std::vector<std::string> extra_blocklist;
  } recovery;

  // --- Shared infrastructure ----------------------------------------------
  /// Optional externally shared parse cache (e.g. one cache across a whole
  /// batch or several engines). When null and `parse_cache` is true, the
  /// engine creates a private one.
  std::shared_ptr<ps::ParseCache> shared_parse_cache;
  /// Optional fault injector (compiled in always, enabled by setting this).
  /// Non-owning; must outlive the engine. With no armed fault the output is
  /// byte-identical to running without an injector.
  FaultInjector* fault_injector = nullptr;
};

}  // namespace ideobf
