#pragma once

/// \file batch.h
/// Thread-parallel batch deobfuscation. InvokeDeobfuscator is const-callable
/// from any number of threads (its parse cache is thread-safe and shared),
/// so a corpus (triage queues routinely see thousands of samples) shards
/// cleanly across worker threads.
///
/// Execution model: items run on the process-lifetime work-stealing
/// ps::WorkerPool (no per-call thread spawn; per-thread arena chunk
/// freelists stay warm across batches). Slots share the engine's parse
/// cache and nothing else: each item's pipeline run owns its piece memo,
/// so an item's output and report never depend on what ran before it.
///
/// Robustness model: each item runs under its own governor envelope (see
/// Options::Limits) with a private cancellation token, and a watchdog thread
/// cancels any item still running past watchdog_factor x its deadline — so
/// one hostile sample can stall neither its worker nor the batch. Worker
/// bodies are exception-sealed (including non-std throws), so an unexpected
/// throw degrades one item instead of terminating the process.
///
/// Batches are configured by the same unified `ideobf::Options` as
/// everything else; `deobfuscate_batch_items` is the generalized core that
/// gives every item its own envelope (how Engine::handle_batch and the
/// server honor per-request deadlines).

#include <string>
#include <string_view>
#include <vector>

#include "core/deobfuscator.h"

namespace ideobf {

/// Per-item outcome of a batch run.
struct BatchItem {
  bool ok = false;       ///< false when the worker caught an exception
  bool changed = false;  ///< output differs from the input script
  double seconds = 0.0;  ///< wall time spent on this item
  std::string error;     ///< what() of the caught exception when !ok
  /// Failure classification of whatever impaired this item: non-None
  /// exactly when the item failed (!ok) or was served degraded (rung > 0).
  /// A full-strength success is always None — benign per-piece recovery
  /// hiccups inside an otherwise clean run do not count as item failures —
  /// so failures() is consistent with failed() + degraded().
  ps::FailureKind failure = ps::FailureKind::None;
  /// Worst per-piece recovery failure seen while producing the served
  /// output (informative; a piece that could not be recovered is left
  /// as-is by design, so this never affects ok or failures()).
  ps::FailureKind worst_piece_failure = ps::FailureKind::None;
  /// Degradation-ladder rung that served the output (0 = full pipeline,
  /// 3 = passthrough).
  int degradation_rung = 0;
};

struct BatchReport {
  std::vector<BatchItem> items;  ///< one per input script, same order
  double wall_seconds = 0.0;     ///< end-to-end wall time of the batch
  /// Phase breakdown summed over every item (self times partition the
  /// batch's total CPU-side pipeline time). All-zero unless telemetry was
  /// enabled for the run.
  telemetry::PipelineProfile profile;

  [[nodiscard]] int failed() const;
  [[nodiscard]] int changed() const;
  /// Items with a non-None failure classification: exactly the failed()
  /// items plus the degraded-but-served ones. A batch with failed() == 0
  /// and degraded() == 0 therefore reports failures() == 0.
  [[nodiscard]] int failures() const;
  /// Items served from a rung > 0.
  [[nodiscard]] int degraded() const;
};

/// One item of a generalized batch: its source text plus its own governor
/// envelope and (optionally) its own pipeline options.
struct BatchItemSpec {
  /// The script text. Not owned; must outlive the batch call.
  std::string_view source;
  /// This item's envelope. Inactive runs the item ungoverned under the
  /// deobfuscator's configured limits (the pre-governor behavior).
  Options::Limits limits{};
  /// Optional full pipeline-options override for this item (how the server
  /// honors per-request options). The worker builds a temporary
  /// InvokeDeobfuscator sharing `deobf`'s parse cache. Not owned; null uses
  /// `deobf` as configured.
  const Options* options_override = nullptr;
  /// Front-end language for this item ("" = default, "auto" = sniffed, or
  /// a registered name). Not owned; must outlive the batch call.
  std::string_view language;
};

/// The generalized batch core: runs every item on the process-lifetime
/// worker pool under its own envelope, preserving order. `batch_options`
/// supplies the batch-wide knobs (threads) and the
/// batch-wide cancellation token (limits.cancel — cancelling it drains the
/// whole queue as classified passthrough). When `item_reports` is non-null
/// it receives one full DeobfuscationReport per item (same order).
std::vector<std::string> deobfuscate_batch_items(
    const InvokeDeobfuscator& deobf, const std::vector<BatchItemSpec>& items,
    BatchReport& report, const Options& batch_options,
    std::vector<DeobfuscationReport>* item_reports = nullptr);

/// Deobfuscates every script in `scripts`, preserving order, and records a
/// per-item ok/failed verdict plus wall times into `report`. Exceptions
/// inside a worker surface as the input returned unchanged (deobfuscation
/// is total by contract) with `ok == false` for that item. Every item runs
/// under options.limits.
std::vector<std::string> deobfuscate_batch(const InvokeDeobfuscator& deobf,
                                           const std::vector<std::string>& scripts,
                                           BatchReport& report,
                                           const Options& options);

/// Back-compat overloads (thread count only, no governor).
std::vector<std::string> deobfuscate_batch(const InvokeDeobfuscator& deobf,
                                           const std::vector<std::string>& scripts,
                                           BatchReport& report,
                                           unsigned threads = 0);

/// Report-free convenience overload; failures are silent (unchanged output).
std::vector<std::string> deobfuscate_batch(const InvokeDeobfuscator& deobf,
                                           const std::vector<std::string>& scripts,
                                           unsigned threads = 0);

}  // namespace ideobf
