#pragma once

/// \file telemetry.h
/// Phase spans: RAII timers threaded through every pipeline stage. A
/// `PhaseSpan` on the hot path costs one relaxed atomic load when telemetry
/// is disabled; when enabled it records (a) a latency observation into the
/// per-phase histogram of the process-wide registry, (b) a lane event into
/// the attached `TraceRecorder` (Chrome trace_event exporter), and (c) a
/// per-phase self/total time into the thread's bound `PipelineProfile` —
/// the per-item breakdown carried on `DeobfuscationReport` (and so on each
/// batch item's `Response`).
///
/// Spans nest: each thread keeps a span stack, and a span's *self* time is
/// its wall time minus the wall time of the spans nested inside it. Summing
/// self time over every span in an item therefore reconstructs the item's
/// end-to-end wall time exactly (it is a partition), which is the invariant
/// the bench smoke gate asserts — phase totals must reconcile with the
/// measured wall clock, or the instrumentation is lying.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "ideobf/profile.h"
#include "telemetry/metrics.h"

namespace ideobf::telemetry {

// Phase, kPhaseCount, phase_name, PhaseStat and PipelineProfile moved to
// the public facade (include/ideobf/profile.h): the per-item breakdown is
// carried on DeobfuscationReport, so its types are API surface. The span
// machinery that fills them stays internal.

/// Nanoseconds on the steady clock since an arbitrary process-local epoch.
std::uint64_t now_ns();

/// Binds `profile` as the calling thread's span accumulation target for the
/// scope's lifetime (restores the previous binding on exit, so nested
/// bindings — an item profile inside a batch — compose).
class ProfileScope {
 public:
  explicit ProfileScope(PipelineProfile* profile);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  PipelineProfile* prev_;
};

class TraceRecorder;

/// RAII phase timer. `detail` must point at static-storage text (phase
/// names, NodeKind names, disguise-form literals): it is kept as a view in
/// the trace recorder until render time.
class PhaseSpan {
 public:
  explicit PhaseSpan(Phase phase, std::string_view detail = {}) {
    if (enabled()) begin(phase, detail);
  }
  ~PhaseSpan() {
    if (armed_) end();
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  void begin(Phase phase, std::string_view detail);
  void end();

  bool armed_ = false;
  Phase phase_{};
  std::uint16_t depth_ = 0;
  std::string_view detail_{};
  std::uint64_t start_ns_ = 0;
};

/// The subsystem facade: the enable flag, the process-wide registry, and
/// the trace-recorder attachment point, in one place.
class Telemetry {
 public:
  static bool enabled() { return telemetry::enabled(); }
  static void enable() { set_enabled(true); }
  static void disable() { set_enabled(false); }
  static MetricsRegistry& metrics() { return registry(); }

  /// Attaches (or, with nullptr, detaches) the recorder that PhaseSpan
  /// closures feed. Non-owning; detach before destroying the recorder.
  static void set_trace_recorder(TraceRecorder* recorder);
  static TraceRecorder* trace_recorder();
};

/// Span-balance counters (smoke gate: opens == closes after a quiesced
/// run). Exposed for benches/tests.
Counter& spans_opened_counter();
Counter& spans_closed_counter();
/// Per-phase latency histogram ideobf_phase_seconds{phase="..."}.
Histogram& phase_histogram(Phase phase);

}  // namespace ideobf::telemetry
