#pragma once

/// \file spans.h
/// In-memory span recorder for the traced run. Spans are opened by the
/// benchmark's own code around calls into each layer's public functions
/// (name, start, end, parent, request id), kept in memory, and written out
/// as Chrome-trace JSON when the run ends. A disabled recorder records
/// nothing, which is how the traced run measures its own overhead.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t request = 0;
};

/// Per-name aggregate of recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  /// RAII span: opens on construction, closes on destruction. The parent
  /// is whatever span of this recorder is open at construction time.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string_view name,
          std::uint32_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int32_t index_ = -1;
  };

  /// Records a closed span directly (tests build nested spans this way).
  std::int32_t add(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint32_t request = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& name_of(const Span& s) const {
    return names_[s.name];
  }

  /// Self time of every span: its duration minus the union of the
  /// intervals its direct children cover (clipped to the span).
  [[nodiscard]] std::vector<double> self_seconds() const;
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// Chrome trace-event JSON ("X" events; tid = request id).
  [[nodiscard]] std::string chrome_trace() const;

 private:
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

std::int64_t now_ns();

}  // namespace perfbench
