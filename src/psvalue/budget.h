#pragma once

/// \file budget.h
/// The execution governor's accounting primitives. The recovery phase
/// executes attacker-controlled script pieces (paper section IV-B), so
/// hostile inputs — scripts built to stall or blow up a dynamic analyzer —
/// are the normal input distribution. A `Budget` bounds one unit of work
/// (typically one batch item) with a wall-clock deadline, a cumulative
/// allocation budget, and an external cancellation token; every engine that
/// can loop or allocate (interpreter, sandbox, recovery, multilayer
/// decoding) checkpoints against it. Budget violations raise `BudgetError`,
/// which — like the interpreter's `LimitError` — is deliberately not an
/// `EvalError`, so script-level try/catch cannot swallow it.

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "ideobf/failure.h"

namespace ps {

// The failure taxonomy and the cancellation primitive are part of the
// public API facade (include/ideobf/failure.h) — the server's wire schema,
// Response, DeobfuscationReport and the CLI/bench JSON all speak it. The
// engine keeps its historical ps:: spellings as aliases of the one
// definition, so a failure is the same type wherever it surfaces.
using ideobf::FailureKind;
using ideobf::to_string;
using ideobf::failure_from_string;
using ideobf::failure_severity;
using ideobf::worse_failure;
using ideobf::CancellationToken;

/// Raised by Budget checkpoints. Not an EvalError, so neither script-level
/// try/catch nor the recovery engine's per-piece error handling can swallow
/// it — a budget violation always aborts the whole governed attempt.
class BudgetError : public std::runtime_error {
 public:
  BudgetError(FailureKind kind, std::string message)
      : std::runtime_error(std::move(message)), kind(kind) {}
  FailureKind kind;
};

/// One unit of work's resource envelope. Not thread-safe (one budget serves
/// one worker); cross-thread interaction goes through the atomic-backed
/// cancellation token, which is how the batch watchdog reins in an item
/// from outside.
class Budget {
 public:
  struct Limits {
    double wall_seconds = 0.0;     ///< 0 = no deadline
    std::size_t max_bytes = 0;     ///< cumulative allocation budget; 0 = off
    CancellationToken cancel{};    ///< inert by default
  };

  Budget() = default;  ///< unlimited
  explicit Budget(const Limits& limits);

  /// The cheap per-step hook: cancellation is one relaxed atomic load; the
  /// deadline clock is only read every kStride calls. Throws BudgetError
  /// (Cancelled or Timeout).
  void checkpoint() {
    if (cancel_.cancelled()) throw_cancelled();
    if (has_deadline_ && ++tick_ >= kStride) {
      tick_ = 0;
      check_deadline_now();
    }
  }

  /// Phase-boundary hook: checks cancellation and the deadline immediately,
  /// ignoring the stride.
  void force_checkpoint() {
    if (cancel_.cancelled()) throw_cancelled();
    if (has_deadline_) check_deadline_now();
  }

  /// Cumulative allocation accounting: every engine site that materializes
  /// a large string/array/byte buffer charges its size here. Throws
  /// BudgetError(MemoryBudget) once the running total crosses the budget.
  void charge_bytes(std::size_t bytes) {
    bytes_ += bytes;
    if (max_bytes_ != 0 && bytes_ > max_bytes_) throw_memory();
  }

  /// Non-throwing probe: what would trip right now, or None.
  [[nodiscard]] FailureKind peek() const;

  /// Seconds until the deadline (infinity when none; <= 0 when expired).
  [[nodiscard]] double remaining_seconds() const;

  /// Whether any limit is configured; inactive budgets never throw.
  [[nodiscard]] bool active() const {
    return has_deadline_ || max_bytes_ != 0 || cancel_.valid();
  }
  [[nodiscard]] bool has_deadline() const { return has_deadline_; }
  [[nodiscard]] std::size_t bytes_charged() const { return bytes_; }
  /// Whether charging `bytes` now would stay within the allocation budget.
  [[nodiscard]] bool fits_bytes(std::size_t bytes) const {
    return max_bytes_ == 0 || bytes_ + bytes <= max_bytes_;
  }
  [[nodiscard]] const CancellationToken& cancel_token() const { return cancel_; }

 private:
  static constexpr unsigned kStride = 256;
  using Clock = std::chrono::steady_clock;

  void check_deadline_now();
  [[noreturn]] void throw_cancelled() const;
  [[noreturn]] void throw_memory() const;

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::size_t max_bytes_ = 0;
  std::size_t bytes_ = 0;
  unsigned tick_ = 0;
  CancellationToken cancel_{};
};

}  // namespace ps
