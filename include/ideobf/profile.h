#pragma once

/// \file ideobf/profile.h
/// Public per-item phase breakdown: which pipeline stage the time went to.
/// Part of the stable `include/ideobf/` facade (standard library includes
/// only); `DeobfuscationReport::profile` carries this struct on every
/// `Response`, one-shot or batch, and the telemetry subsystem's span
/// machinery (internal, src/telemetry/) fills it in.

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ideobf::telemetry {

/// Every instrumented pipeline stage. Kept dense so per-phase state is a
/// plain array; names (phase_name) are the `phase="..."` label values.
enum class Phase : std::uint8_t {
  Lex,              ///< tokenization (inside a parse)
  Parse,            ///< one AST construction (cache misses only)
  TokenPass,        ///< token-based normalization pass
  Recovery,         ///< one AST recovery pass over a text
  VariableTrace,    ///< tracing one assignment into the symbol table
  PieceExecution,   ///< sandbox-executing one recoverable piece / env probe
  MultilayerDecode, ///< multilayer scan or one payload decode+recurse
  Rename,           ///< identifier renaming pass
  Reformat,         ///< reformatting pass
  SandboxRun,       ///< Sandbox::run of a whole script
  Pipeline,         ///< one InvokeDeobfuscator::deobfuscate call
  QueueWait,        ///< serve mode: admitted request waiting for a worker slot
};
inline constexpr std::size_t kPhaseCount = 12;

/// Stable lowercase name ("lex", "parse", ..., "pipeline").
std::string_view phase_name(Phase phase);

struct PhaseStat {
  std::uint64_t count = 0;    ///< spans closed
  std::uint64_t self_ns = 0;  ///< wall time minus nested spans
  std::uint64_t total_ns = 0; ///< wall time including nested spans
};

/// Per-item phase breakdown. Self times partition the item's wall time:
/// summing `self_ns` over all phases (Pipeline included — its self time is
/// the uninstrumented glue between stages) equals the Pipeline span's
/// `total_ns` up to clock granularity.
struct PipelineProfile {
  PhaseStat phases[kPhaseCount] = {};

  [[nodiscard]] const PhaseStat& stat(Phase phase) const {
    return phases[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double self_seconds(Phase phase) const {
    return static_cast<double>(stat(phase).self_ns) / 1e9;
  }
  [[nodiscard]] double total_seconds(Phase phase) const {
    return static_cast<double>(stat(phase).total_ns) / 1e9;
  }
  /// Sum of self time across every phase — the reconstructed wall time.
  [[nodiscard]] double accounted_seconds() const;
  [[nodiscard]] bool empty() const;
  void merge(const PipelineProfile& other);
};

}  // namespace ideobf::telemetry
