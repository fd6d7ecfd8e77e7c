// Concurrency tests for the telemetry subsystem, written to run under the
// TSan preset: a multi-threaded batch with spans and the trace recorder
// armed, plus counter stress across shards. Beyond data-race detection, the
// structural assertion is that every worker lane's recorded spans nest by
// interval containment — spans on one thread are LIFO, so a partial overlap
// inside a lane means the span stack or the recorder lost track.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ideobf/api.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace ideobf::telemetry {
namespace {

struct TelemetryOn {
  TelemetryOn() {
    Telemetry::metrics().reset();
    Telemetry::enable();
  }
  ~TelemetryOn() {
    Telemetry::disable();
    Telemetry::set_trace_recorder(nullptr);
  }
};

TEST(TelemetryConcurrency, CounterAndHistogramStressAcrossThreads) {
  TelemetryOn on;
  Counter& c = registry().counter("test_stress_total");
  Histogram& h = registry().histogram("test_stress_seconds");
  constexpr unsigned kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Half the threads bind a shard, half take the round-robin default —
      // both paths must be race-free and lose no updates.
      if (t % 2 == 0) set_current_shard(t);
      for (int i = 0; i < kIters; ++i) {
        c.add();
        h.observe_ns(static_cast<std::uint64_t>(i) * 1000);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(TelemetryConcurrency, BatchSpansBalanceAndLanesNest) {
  TelemetryOn on;
  TraceRecorder recorder;
  Telemetry::set_trace_recorder(&recorder);

  // A small mixed corpus, several scripts per worker so lanes interleave.
  std::vector<std::string> scripts;
  for (int i = 0; i < 12; ++i) {
    switch (i % 3) {
      case 0:
        scripts.push_back("IeX ('Write-Output '+\"'a" + std::to_string(i) +
                          "'\")");
        break;
      case 1:
        scripts.push_back("$v = 'x" + std::to_string(i) +
                          "'\nWr`ite-Output $v");
        break;
      default:
        scripts.push_back("Write-Output " + std::to_string(i));
        break;
    }
  }

  std::vector<Request> requests(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    requests[i].source = scripts[i];
  }
  Options options;
  options.threads = 4;
  const auto results = Engine(options).handle_batch(requests);
  Telemetry::set_trace_recorder(nullptr);
  ASSERT_EQ(results.size(), scripts.size());
  PipelineProfile profile;
  for (const Response& r : results) {
    EXPECT_TRUE(r.ok) << r.failure_detail;
    profile.merge(r.report.profile);
  }

  // Balance: every span opened during the batch closed.
  const std::uint64_t opened = spans_opened_counter().value();
  const std::uint64_t closed = spans_closed_counter().value();
  EXPECT_GT(opened, 0u);
  EXPECT_EQ(opened, closed);

  // The batch profile aggregated one Pipeline span per item across lanes.
  EXPECT_EQ(profile.stat(Phase::Pipeline).count, scripts.size());

  // Per-lane interval containment: sort a lane's spans by start time
  // (longer first on ties) and sweep with a stack of enclosing end times.
  // Each span must either start after the current enclosure ends (pop) or
  // lie entirely within it — a straddle is a broken span tree.
  std::map<unsigned, std::vector<TraceRecorder::Event>> lanes;
  for (const auto& [lane, event] : recorder.snapshot_events()) {
    lanes[lane].push_back(event);
  }
  ASSERT_FALSE(lanes.empty());
  for (auto& [lane, events] : lanes) {
    std::sort(events.begin(), events.end(),
              [](const TraceRecorder::Event& a, const TraceRecorder::Event& b) {
                if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                return a.dur_ns > b.dur_ns;
              });
    std::vector<std::uint64_t> enclosing_ends;
    for (const TraceRecorder::Event& e : events) {
      const std::uint64_t end = e.start_ns + e.dur_ns;
      while (!enclosing_ends.empty() && e.start_ns >= enclosing_ends.back()) {
        enclosing_ends.pop_back();
      }
      if (!enclosing_ends.empty()) {
        EXPECT_LE(end, enclosing_ends.back())
            << "lane " << lane << ": span straddles its enclosing span";
      }
      enclosing_ends.push_back(end);
    }
  }
}

TEST(TelemetryConcurrency, EnableDisableRacesWithRecordingThreads) {
  Telemetry::metrics().reset();
  Counter& c = registry().counter("test_toggle_total");
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (unsigned t = 0; t < 4; ++t) {
    writers.emplace_back([&c, t] {
      set_current_shard(t);
      for (int i = 0; i < 50000; ++i) c.add();
    });
  }
  // Toggle the global flag concurrently with recording: writes must stay
  // well-defined (relaxed atomics) — the exact count is unknowable, only
  // that it never exceeds the attempted adds and nothing tears.
  std::thread toggler([] {
    for (int i = 0; i < 2000; ++i) {
      Telemetry::enable();
      Telemetry::disable();
    }
  });
  for (std::thread& w : writers) w.join();
  toggler.join();
  Telemetry::disable();
  EXPECT_LE(c.value(), 4u * 50000u);
}

}  // namespace
}  // namespace ideobf::telemetry
