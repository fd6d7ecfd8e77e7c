#pragma once

/// \file ideobf/failure.h
/// Public failure taxonomy and cancellation primitive of the ideobf API.
///
/// This header is part of the stable `include/ideobf/` facade: it includes
/// nothing but the standard library, and every consumer of the library —
/// the one-shot CLI, `Engine::handle_batch`, `ideobf serve`, and the bench
/// harness — classifies an aborted or degraded deobfuscation with exactly
/// this enum. The engine-internal `ps::` names are aliases of these types
/// (see psvalue/budget.h), so a failure is represented identically wherever
/// it surfaces: DeobfuscationReport, Response, the server's NDJSON
/// responses, and the Prometheus `ideobf_governor_failure_total` labels.

#include <atomic>
#include <memory>
#include <string_view>

namespace ideobf {

/// Structured classification of everything that can end or degrade a
/// deobfuscation.
enum class FailureKind {
  None,            ///< no failure
  Timeout,         ///< wall-clock deadline exceeded
  StepLimit,       ///< interpreter step cap exceeded
  DepthLimit,      ///< invoke/recursion depth cap exceeded
  MemoryBudget,    ///< single-value size cap or cumulative allocation budget
  ParseError,      ///< input (or intermediate) text does not parse
  BlockedCommand,  ///< execution blocklist refused a command
  EvalError,       ///< runtime evaluation failure
  Cancelled,       ///< external cancellation token fired
  Internal,        ///< anything else, including non-std exceptions
  WorkerCrash,     ///< a fleet worker process died executing the script
  Quarantined,     ///< script hash quarantined after repeated worker crashes
};

/// Stable lowercase-kebab name for reports and JSON ("timeout",
/// "step-limit", ...).
const char* to_string(FailureKind kind);

/// Inverse of to_string: parses a stable kebab name back into the taxonomy
/// (how the serve client rebuilds a Response from the wire). Unknown names
/// map to FailureKind::Internal.
FailureKind failure_from_string(std::string_view name);

/// Severity order for picking the dominant failure of a run: governor-level
/// kinds (Cancelled, Timeout, MemoryBudget) outrank per-piece limit kinds,
/// which outrank expected per-piece outcomes (BlockedCommand, EvalError).
/// Internal ranks highest; None is 0.
int failure_severity(FailureKind kind);

/// The more severe of two failures (first wins ties).
FailureKind worse_failure(FailureKind a, FailureKind b);

/// The one canonical human-readable detail for FailureKind::Cancelled.
/// Batch watchdog cancels, external batch-wide cancellation, and a server
/// client disconnecting mid-request all funnel through the same
/// cancellation token and must surface this same string — the failure
/// taxonomy test asserts it, so a new cancel path cannot quietly introduce
/// a divergent spelling.
inline constexpr std::string_view kCancelledDetail = "execution cancelled";

/// A copyable handle to a shared cancellation flag. Default-constructed
/// tokens are inert (never cancelled, cancel requests dropped); create a
/// live one with `CancellationToken::make()`. Cancellation is cooperative:
/// the running engine observes it at its next budget checkpoint.
class CancellationToken {
 public:
  CancellationToken() = default;  ///< inert: valid() == false
  static CancellationToken make();

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  void request_cancel() const {
    if (state_ != nullptr) state_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const {
    return state_ != nullptr && state_->load(std::memory_order_relaxed);
  }
  /// Two tokens are equal when they share one flag (inert tokens compare
  /// equal to each other).
  bool operator==(const CancellationToken&) const = default;

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

}  // namespace ideobf
