#pragma once

/// \file chrome_trace.h
/// Chrome `trace_event` exporter: collects closed phase spans into per-slot
/// lanes and renders the JSON object format that `chrome://tracing` and
/// Perfetto load directly. Events are "complete" events (`"ph":"X"` with
/// `ts` + `dur`), so nesting needs no begin/end pairing — the viewer stacks
/// events on the same lane by interval containment, which is exactly the
/// span tree (spans on one thread are LIFO by construction).
///
/// Collection is capped (`max_events`, default 256k): a hostile high-churn
/// script must not balloon the recorder. Overflow sets `truncated()` and
/// counts `dropped()`; the rendered JSON carries both so a truncated trace
/// is never mistaken for a complete one.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace ideobf::telemetry {

class TraceRecorder {
 public:
  struct Event {
    Phase phase{};
    std::string_view detail;  ///< static-storage text (see PhaseSpan)
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };

  static constexpr std::size_t kDefaultMaxEvents = 262144;

  explicit TraceRecorder(std::size_t max_events = kDefaultMaxEvents);

  /// Appends one closed span to the calling thread's lane (its metric
  /// shard, i.e. its WorkerPool slot under Engine::handle_batch). Drops and
  /// counts once the cap is reached.
  void record(Phase phase, std::string_view detail, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] bool truncated() const {
    return dropped_.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// All recorded events (lane-major). For tests and post-processing.
  [[nodiscard]] std::vector<std::pair<unsigned, Event>> snapshot_events() const;

  /// The Chrome trace JSON object: `traceEvents` (one metadata thread-name
  /// event per occupied lane + one "X" event per span, timestamps
  /// normalized to the earliest span), `displayTimeUnit`, and the
  /// truncation verdict as `truncated` / `droppedEvents`.
  [[nodiscard]] std::string render() const;

  void clear();

 private:
  struct Lane {
    mutable std::mutex mu;  ///< uncontended: one thread writes a lane
    std::vector<Event> events;
  };

  Lane lanes_[kShardCount];
  std::atomic<std::size_t> recorded_{0};
  std::atomic<std::size_t> dropped_{0};
  std::size_t max_events_;
};

}  // namespace ideobf::telemetry
