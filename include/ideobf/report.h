#pragma once

/// \file ideobf/report.h
/// Public result types of the ideobf API: the per-phase statistics, the
/// structured transformation trace, and `DeobfuscationReport` — what every
/// deobfuscation returns alongside its output text, whether it ran through
/// the one-shot call, a batch, or the server. Part of the stable
/// `include/ideobf/` facade: includes only other facade headers and the
/// standard library.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "ideobf/failure.h"
#include "ideobf/profile.h"

namespace ideobf {

struct TokenPassStats {
  int ticks_removed = 0;
  int aliases_expanded = 0;
  int case_normalized = 0;
};

struct RecoveryStats {
  int pieces_recovered = 0;       ///< recoverable nodes replaced by literals
  int variables_traced = 0;       ///< assignments recorded in the symbol table
  int variables_substituted = 0;  ///< variable uses replaced by their value
  int pieces_failed = 0;          ///< piece/assignment executions that errored
  int memo_hits = 0;              ///< piece executions answered by the memo
  int memo_misses = 0;            ///< memo lookups that had to execute
  int pieces_folded = 0;          ///< memo misses folded (pure pieces)
  /// Always 0: the piece-eval ladder has no bytecode rung any more. Kept so
  /// readers of the report keep compiling.
  int bytecode_execs = 0;
  int treewalk_fallbacks = 0;     ///< memo misses tree-walked (impure pieces)
  /// Piece and assignment evaluations that parsed their rewritten text
  /// instead of evaluating their own subtree (the parse path).
  int pieces_reparsed = 0;
  /// Most severe per-piece failure seen (failure_severity order); the
  /// governor surfaces it as the item classification when nothing worse
  /// aborted the run.
  FailureKind worst_failure = FailureKind::None;
};

struct MultilayerStats {
  int layers_unwrapped = 0;
};

struct RenameStats {
  bool renamed = false;
  int variables_renamed = 0;
  int functions_renamed = 0;
};

/// One auditable change the deobfuscator made (token normalized, piece
/// recovered, variable substituted, layer unwrapped, identifier renamed) —
/// the explainability counterpart to the paper's layer-by-layer
/// screenshots (Fig 7). Collected when Options::Telemetry::collect_trace
/// (or Request::trace) is set.
struct TraceEvent {
  enum class Kind {
    TokenNormalized,      ///< token pass: ticks/case/alias fixed
    PieceRecovered,       ///< recoverable node executed and replaced
    VariableTraced,       ///< assignment recorded in the symbol table
    VariableSubstituted,  ///< variable use replaced by its value
    LayerUnwrapped,       ///< iex / -EncodedCommand payload inlined
    Renamed,              ///< randomized identifier renamed
  };

  Kind kind;
  /// Byte offset in the text version the pass was operating on (passes
  /// rewrite the script, so offsets are per-pass, not global).
  std::size_t offset = 0;
  std::string before;
  std::string after;
  int pass = 0;  ///< fixed-point iteration index
};

std::string_view to_string(TraceEvent::Kind kind);

/// Renders a trace as readable lines ("[pass 0] recovered @12: '...' -> ...").
/// `dropped` (events discarded by a capped collector) appends a trailing
/// truncation note so a clipped trace is never mistaken for a complete one.
std::string render_trace(const std::vector<TraceEvent>& trace,
                         std::size_t max_payload = 60,
                         std::size_t dropped = 0);

struct DeobfuscationReport {
  TokenPassStats token;
  std::vector<TraceEvent> trace;  ///< filled when trace collection is on
  bool trace_truncated = false;   ///< trace hit the configured event cap
  std::size_t trace_dropped = 0;  ///< events discarded past the cap
  RecoveryStats recovery;
  MultilayerStats multilayer;
  RenameStats rename;
  /// Per-phase time breakdown of this call (counts + self/total wall time).
  /// All-zero unless telemetry was enabled.
  telemetry::PipelineProfile profile;
  int passes = 0;  ///< full pipeline iterations until the fixed point

  /// Failure classification for the call: the kind that aborted the
  /// full-strength attempt (when a lower rung served), or the most severe
  /// per-piece failure, or ParseError for invalid input, or None.
  FailureKind failure = FailureKind::None;
  std::string failure_detail;  ///< human-readable message for `failure`
  /// Which ladder rung produced the served output (0 = full pipeline,
  /// 3 = passthrough). Always 0 for ungoverned calls.
  int degradation_rung = 0;
  int attempts = 1;  ///< pipeline attempts made (1 + retries)
};

}  // namespace ideobf
