// Tests for the telemetry subsystem: sharded metrics (counter/gauge merge,
// histogram bucket boundaries), phase spans (nesting, self-time partition,
// balance counters, disabled cost), and both exporters (Prometheus text
// exposition golden + Chrome trace structure for a two-script batch).
//
// Telemetry state is process-global (enabled flag, registry, span stacks);
// every test that enables it does so through the RAII guard below so a
// failing assertion cannot leak an enabled flag into the next test.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "ideobf/api.h"
#include "telemetry/build_info.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/exposition.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/telemetry.h"

namespace ideobf::telemetry {
namespace {

/// Resets the process registry and enables recording for one test body.
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

// ---------------------------------------------------------------- metrics

TEST(TelemetryMetrics, DisabledRecordingIsANoOp) {
  Telemetry::disable();
  Counter& c = registry().counter("test_disabled_total");
  const std::uint64_t before = c.value();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), before);
}

TEST(TelemetryMetrics, RegistryInternsByNameAndLabels) {
  Counter& a = registry().counter("test_intern_total", "kind=\"x\"");
  Counter& b = registry().counter("test_intern_total", "kind=\"x\"");
  Counter& c = registry().counter("test_intern_total", "kind=\"y\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
}

TEST(TelemetryMetrics, CounterMergesAcrossShards) {
  TelemetryOn on;
  Counter& c = registry().counter("test_shard_merge_total");
  // One writer thread per shard, each bound explicitly to its own slot the
  // way Engine::handle_batch binds pool workers. The merged value must be the
  // exact sum — relaxed per-shard cells, no lost updates.
  constexpr unsigned kThreads = kShardCount;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, t] {
      set_current_shard(t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  // Each bound thread wrote only its own shard.
  for (unsigned s = 0; s < kShardCount; ++s) {
    EXPECT_EQ(c.shard_value(s), kPerThread) << "shard " << s;
  }
}

TEST(TelemetryMetrics, GaugeSumsSignedDeltasAcrossShards) {
  TelemetryOn on;
  Gauge& g = registry().gauge("test_gauge");
  std::thread up([&g] {
    set_current_shard(1);
    for (int i = 0; i < 100; ++i) g.add(3);
  });
  std::thread down([&g] {
    set_current_shard(2);
    for (int i = 0; i < 100; ++i) g.sub(2);
  });
  up.join();
  down.join();
  EXPECT_EQ(g.value(), 100);
}

TEST(TelemetryMetrics, ResetZeroesValuesButKeepsHandles) {
  TelemetryOn on;
  Counter& c = registry().counter("test_reset_total");
  c.add(7);
  ASSERT_EQ(c.value(), 7u);
  registry().reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // handle still live after reset
  EXPECT_EQ(c.value(), 1u);
}

// -------------------------------------------------------------- histogram

TEST(TelemetryHistogram, BucketIndexBoundariesAreInclusive) {
  const auto& bounds = Histogram::bounds_ns();
  ASSERT_EQ(bounds.size(), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    // An observation exactly on a bound lands in that bucket; one past it
    // spills into the next (the +Inf overflow for the last bound).
    EXPECT_EQ(Histogram::bucket_index(bounds[i]), i) << bounds[i];
    EXPECT_EQ(Histogram::bucket_index(bounds[i] + 1), i + 1) << bounds[i];
  }
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX),
            Histogram::kBucketCount - 1);
}

TEST(TelemetryHistogram, LadderIsStrictlyIncreasing) {
  const auto& bounds = Histogram::bounds_ns();
  EXPECT_EQ(bounds.front(), 1'000u);            // 1 µs
  EXPECT_EQ(bounds.back(), 10'000'000'000u);    // 10 s
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(TelemetryHistogram, ObservationsMergeAcrossShards) {
  TelemetryOn on;
  Histogram& h = registry().histogram("test_hist_seconds");
  std::thread a([&h] {
    set_current_shard(3);
    h.observe_ns(1'000);       // bucket 0 (== first bound)
    h.observe_ns(700'000);     // 0.7 ms
  });
  std::thread b([&h] {
    set_current_shard(4);
    h.observe_ns(700'000);
    h.observe_ns(20'000'000'000);  // 20 s -> +Inf overflow
  });
  a.join();
  b.join();
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 1'000u + 700'000u + 700'000u + 20'000'000'000u);
  EXPECT_EQ(h.bucket_value(0), 1u);
  EXPECT_EQ(h.bucket_value(Histogram::bucket_index(700'000)), 2u);
  EXPECT_EQ(h.bucket_value(Histogram::kBucketCount - 1), 1u);
}

// ------------------------------------------------------------------ spans

TEST(TelemetrySpan, DisabledSpanRecordsNothing) {
  Telemetry::disable();
  PipelineProfile profile;
  {
    ProfileScope scope(&profile);
    PhaseSpan outer(Phase::Pipeline);
    PhaseSpan inner(Phase::Recovery);
  }
  EXPECT_TRUE(profile.empty());
  EXPECT_EQ(profile.accounted_seconds(), 0.0);
}

TEST(TelemetrySpan, SelfTimePartitionsTheOuterSpan) {
  TelemetryOn on;
  PipelineProfile profile;
  {
    ProfileScope scope(&profile);
    PhaseSpan pipeline(Phase::Pipeline);
    {
      PhaseSpan recovery(Phase::Recovery);
      PhaseSpan piece(Phase::PieceExecution);  // nested two deep
    }
    PhaseSpan rename(Phase::Rename);
  }
  EXPECT_EQ(profile.stat(Phase::Pipeline).count, 1u);
  EXPECT_EQ(profile.stat(Phase::Recovery).count, 1u);
  EXPECT_EQ(profile.stat(Phase::PieceExecution).count, 1u);
  EXPECT_EQ(profile.stat(Phase::Rename).count, 1u);
  // A child's wall time is contained in its parent's.
  EXPECT_LE(profile.stat(Phase::PieceExecution).total_ns,
            profile.stat(Phase::Recovery).total_ns);
  EXPECT_LE(profile.stat(Phase::Recovery).total_ns,
            profile.stat(Phase::Pipeline).total_ns);
  // Self time excludes nested spans...
  EXPECT_LE(profile.stat(Phase::Recovery).self_ns,
            profile.stat(Phase::Recovery).total_ns);
  // ...and the per-phase self times partition the outer span exactly: the
  // subtraction telescopes, so the identity holds in integer nanoseconds.
  const std::uint64_t accounted =
      profile.stat(Phase::Pipeline).self_ns +
      profile.stat(Phase::Recovery).self_ns +
      profile.stat(Phase::PieceExecution).self_ns +
      profile.stat(Phase::Rename).self_ns;
  EXPECT_EQ(accounted, profile.stat(Phase::Pipeline).total_ns);
}

TEST(TelemetrySpan, BalanceCountersMatchAfterScopeExit) {
  TelemetryOn on;
  const std::uint64_t opened0 = spans_opened_counter().value();
  const std::uint64_t closed0 = spans_closed_counter().value();
  {
    PhaseSpan a(Phase::TokenPass);
    PhaseSpan b(Phase::Recovery, "detail");
  }
  EXPECT_EQ(spans_opened_counter().value() - opened0, 2u);
  EXPECT_EQ(spans_closed_counter().value() - closed0, 2u);
}

TEST(TelemetrySpan, SpanOpenedWhileEnabledStillClosesAfterDisable) {
  Telemetry::metrics().reset();
  Telemetry::enable();
  {
    PhaseSpan span(Phase::TokenPass);
    // Telemetry switched off mid-span (an operator toggling the endpoint):
    // the close must still be counted or the balance gate would see a leak.
    Telemetry::disable();
  }
  EXPECT_EQ(spans_opened_counter().value(), spans_closed_counter().value());
}

TEST(TelemetrySpan, ProfileScopesNestAndRestore) {
  TelemetryOn on;
  PipelineProfile outer_profile;
  PipelineProfile inner_profile;
  {
    ProfileScope outer(&outer_profile);
    { PhaseSpan span(Phase::Rename); }
    {
      ProfileScope inner(&inner_profile);
      PhaseSpan span(Phase::Reformat);
    }
    // Binding restored: this span lands in the outer profile again.
    { PhaseSpan span(Phase::Rename); }
  }
  EXPECT_EQ(outer_profile.stat(Phase::Rename).count, 2u);
  EXPECT_EQ(outer_profile.stat(Phase::Reformat).count, 0u);
  EXPECT_EQ(inner_profile.stat(Phase::Reformat).count, 1u);
  EXPECT_EQ(inner_profile.stat(Phase::Rename).count, 0u);
}

TEST(TelemetrySpan, ProfileMergeSumsStats) {
  PipelineProfile a;
  PipelineProfile b;
  a.phases[static_cast<std::size_t>(Phase::Parse)] = {2, 100, 150};
  b.phases[static_cast<std::size_t>(Phase::Parse)] = {3, 50, 70};
  a.merge(b);
  EXPECT_EQ(a.stat(Phase::Parse).count, 5u);
  EXPECT_EQ(a.stat(Phase::Parse).self_ns, 150u);
  EXPECT_EQ(a.stat(Phase::Parse).total_ns, 220u);
}

// -------------------------------------------------------------- exporters

TEST(TelemetryExport, PrometheusGoldenForHandBuiltRegistry) {
  TelemetryOn on;
  set_current_shard(0);
  // A private registry makes the exposition fully deterministic (the
  // process registry accumulates whatever other tests registered).
  MetricsRegistry reg;
  reg.counter("demo_requests_total", "kind=\"a\"").add(3);
  reg.counter("demo_requests_total", "kind=\"b\"").add(1);
  reg.counter("other_total").add(2);
  reg.gauge("demo_inflight").add(4);

  const std::string expected =
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{kind=\"a\"} 3\n"
      "demo_requests_total{kind=\"b\"} 1\n"
      "# TYPE other_total counter\n"
      "other_total 2\n"
      "# TYPE demo_inflight gauge\n"
      "demo_inflight 4\n";
  EXPECT_EQ(render_prometheus(reg), expected);
}

TEST(TelemetryExport, PrometheusHistogramIsCumulativeWithInf) {
  TelemetryOn on;
  set_current_shard(0);
  MetricsRegistry reg;
  Histogram& h = reg.histogram("demo_seconds", "phase=\"lex\"");
  h.observe_ns(1'000);            // first bucket
  h.observe_ns(2'000);            // second bucket (<= 2.5 µs)
  h.observe_ns(20'000'000'000);   // +Inf overflow

  const std::string out = render_prometheus(reg);
  EXPECT_NE(out.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(out.find("demo_seconds_bucket{phase=\"lex\",le=\"1e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("demo_seconds_bucket{phase=\"lex\",le=\"2.5e-06\"} 2\n"),
            std::string::npos);
  // Every later finite bucket stays cumulative at 2; +Inf catches all 3.
  EXPECT_NE(out.find("demo_seconds_bucket{phase=\"lex\",le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("demo_seconds_bucket{phase=\"lex\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("demo_seconds_sum{phase=\"lex\"} 20.000003\n"),
            std::string::npos);
  EXPECT_NE(out.find("demo_seconds_count{phase=\"lex\"} 3\n"),
            std::string::npos);
}

TEST(TelemetryExport, TraceRecorderCapsAndReportsTruncation) {
  TelemetryOn on;
  set_current_shard(0);
  TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.record(Phase::Lex, {}, static_cast<std::uint64_t>(i) * 100, 50);
  }
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_TRUE(rec.truncated());
  const std::string json = rec.render();
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":2"), std::string::npos);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_FALSE(rec.truncated());
}

/// Two-script batch through the real pipeline with both exporters armed:
/// the structural "golden" for what a CLI --metrics/--trace-out run emits.
TEST(TelemetryExport, TwoScriptBatchFeedsBothExporters) {
  TelemetryOn on;
  TraceRecorder recorder;
  Telemetry::set_trace_recorder(&recorder);

  const std::vector<std::string> scripts = {
      "IeX ('Write-Output '+\"'one'\")",
      "$a = 'two'\nWr`ite-Output $a",
  };
  std::vector<Request> requests(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    requests[i].source = scripts[i];
  }
  Options options;
  options.threads = 2;
  const auto results = Engine(options).handle_batch(requests);
  Telemetry::set_trace_recorder(nullptr);
  ASSERT_EQ(results.size(), 2u);
  PipelineProfile profile;
  for (const Response& r : results) {
    EXPECT_TRUE(r.ok) << r.failure_detail;
    profile.merge(r.report.profile);
  }

  // The aggregated batch profile saw one Pipeline span per script.
  EXPECT_EQ(profile.stat(Phase::Pipeline).count, 2u);
  EXPECT_GE(profile.stat(Phase::TokenPass).count, 2u);

  // Chrome trace: thread-name metadata, complete events, no truncation.
  const std::string trace = recorder.render();
  EXPECT_FALSE(recorder.truncated());
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"pipeline\""), std::string::npos);
  EXPECT_NE(trace.find("\"truncated\":false"), std::string::npos);
  EXPECT_EQ(recorder.event_count(),
            spans_closed_counter().value());

  // Prometheus exposition of the same run: phase histogram populated and
  // the span-balance counters visible and equal.
  const std::string metrics = render_prometheus(registry());
  EXPECT_NE(metrics.find("# TYPE ideobf_phase_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("ideobf_phase_seconds_count{phase=\"pipeline\"} 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("ideobf_batch_item_total 2"), std::string::npos);
  EXPECT_EQ(spans_opened_counter().value(), spans_closed_counter().value());

  // Registry reconciliation, the invariant the bench gate also asserts:
  // parse-cache lookups == hits + misses + bypasses.
  auto& reg = registry();
  const std::uint64_t lookups =
      reg.counter("ideobf_parse_cache_lookup_total").value();
  const std::uint64_t hits =
      reg.counter("ideobf_parse_cache_hit_total").value();
  const std::uint64_t misses =
      reg.counter("ideobf_parse_cache_miss_total").value();
  const std::uint64_t bypasses =
      reg.counter("ideobf_parse_cache_bypass_total").value();
  EXPECT_EQ(lookups, hits + misses + bypasses);
  EXPECT_GT(lookups, 0u);
}

// --------------------------------------------------- exposition conformance

TEST(TelemetryExposition, LabelValueEscapingPerPrometheusTextFormat) {
  // Backslash, double-quote, and newline are the three characters the text
  // format requires escaping in label values — in that replacement order,
  // so an already-escaped backslash is not double-mangled.
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(prom_label("worker", "0"), "worker=\"0\"");
  EXPECT_EQ(prom_label("path", "C:\\x"), "path=\"C:\\\\x\"");
}

TEST(TelemetryExposition, HelpPrecedesTypeForCatalogedMetrics) {
  TelemetryOn on;
  set_current_shard(0);
  MetricsRegistry reg;
  reg.counter("ideobf_server_requests_total", "status=\"ok\"").add(2);
  const std::string out = render_prometheus(reg);
  const std::size_t help =
      out.find("# HELP ideobf_server_requests_total ");
  const std::size_t type =
      out.find("# TYPE ideobf_server_requests_total counter");
  ASSERT_NE(help, std::string::npos) << out;
  ASSERT_NE(type, std::string::npos) << out;
  EXPECT_LT(help, type);
  // Uncataloged names render without HELP (the hand-built goldens above
  // depend on this staying true).
  EXPECT_FALSE(metric_help("ideobf_server_requests_total").empty());
  EXPECT_TRUE(metric_help("demo_requests_total").empty());
}

TEST(TelemetryExposition, OrderingIsStableAcrossRenders) {
  TelemetryOn on;
  set_current_shard(0);
  MetricsRegistry reg;
  reg.counter("zz_total").add(1);
  reg.counter("aa_total", "kind=\"b\"").add(1);
  reg.counter("aa_total", "kind=\"a\"").add(1);
  reg.gauge("mm_gauge").add(1);
  const std::string first = render_prometheus(reg);
  const std::string second = render_prometheus(reg);
  EXPECT_EQ(first, second);
  // Lexicographic by (base, labels): aa before zz, kind="a" before kind="b".
  EXPECT_LT(first.find("aa_total{kind=\"a\"}"),
            first.find("aa_total{kind=\"b\"}"));
  EXPECT_LT(first.find("aa_total{kind=\"b\"}"), first.find("zz_total"));
}

TEST(TelemetryExposition, BuildInfoAndUptimeAppearInProcessRegistry) {
  TelemetryOn on;
  register_build_info();
  update_uptime_gauge();
  const std::string out = render_prometheus(registry());
  EXPECT_NE(out.find("ideobf_build_info{"), std::string::npos);
  EXPECT_NE(out.find("version=\""), std::string::npos);
  EXPECT_NE(out.find("git_sha=\""), std::string::npos);
  EXPECT_NE(out.find("ideobf_server_uptime_seconds"), std::string::npos);
  EXPECT_FALSE(build_version().empty());
  EXPECT_GE(process_uptime_seconds(), 0.0);
}

TEST(TelemetryMetrics, GaugeSetIsAbsoluteAcrossShards) {
  TelemetryOn on;
  Gauge& g = registry().gauge("test_gauge_set");
  set_current_shard(5);
  g.add(100);
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.set(0);
  EXPECT_EQ(g.value(), 0);
}

// ---------------------------------------------------------------- snapshots

TEST(TelemetrySnapshot, SerializeParseRoundTrip) {
  MetricsSnapshotFile file;
  file.worker = 3;
  file.unix_seconds = 1754650000;
  file.requests_total = 42;
  file.snapshot.counters.push_back(
      {"ideobf_server_requests_total", "status=\"ok\"", 17});
  file.snapshot.counters.push_back(
      {"ideobf_server_requests_total", "status=\"time out\"", 2});
  file.snapshot.gauges.push_back({"ideobf_server_queue_depth", "", 4});
  RegistrySnapshot::HistogramSample h;
  h.base = "ideobf_server_request_seconds";
  h.buckets[0] = 1;
  h.buckets[Histogram::kBucketCount - 1] = 2;
  h.count = 3;
  h.sum_ns = 123456789;
  file.snapshot.histograms.push_back(h);

  const std::string text = serialize_snapshot(file);
  MetricsSnapshotFile parsed;
  std::string error;
  ASSERT_TRUE(parse_snapshot(text, parsed, error)) << error;
  EXPECT_EQ(parsed.worker, 3);
  EXPECT_EQ(parsed.unix_seconds, 1754650000u);
  EXPECT_EQ(parsed.requests_total, 42u);
  ASSERT_EQ(parsed.snapshot.counters.size(), 2u);
  EXPECT_EQ(parsed.snapshot.counters[0].base, "ideobf_server_requests_total");
  EXPECT_EQ(parsed.snapshot.counters[0].labels, "status=\"ok\"");
  EXPECT_EQ(parsed.snapshot.counters[0].value, 17u);
  // The label body with an embedded space survives the \s escaping.
  EXPECT_EQ(parsed.snapshot.counters[1].labels, "status=\"time out\"");
  ASSERT_EQ(parsed.snapshot.gauges.size(), 1u);
  EXPECT_EQ(parsed.snapshot.gauges[0].value, 4);
  ASSERT_EQ(parsed.snapshot.histograms.size(), 1u);
  EXPECT_EQ(parsed.snapshot.histograms[0].count, 3u);
  EXPECT_EQ(parsed.snapshot.histograms[0].sum_ns, 123456789u);
  EXPECT_EQ(parsed.snapshot.histograms[0].buckets[0], 1u);
  EXPECT_EQ(
      parsed.snapshot.histograms[0].buckets[Histogram::kBucketCount - 1], 2u);

  // Header-only parse sees the same identity facts.
  MetricsSnapshotFile header;
  ASSERT_TRUE(parse_snapshot_header(text, header));
  EXPECT_EQ(header.worker, 3);
  EXPECT_EQ(header.requests_total, 42u);

  // Garbage is refused with a reason; a torn sample line is skipped.
  MetricsSnapshotFile bad;
  EXPECT_FALSE(parse_snapshot("not a snapshot", bad, error));
  EXPECT_FALSE(error.empty());
}

TEST(TelemetrySnapshot, MergeSumsFleetWideAndLabelsPerWorker) {
  MetricsSnapshotFile w0;
  w0.worker = 0;
  w0.snapshot.counters.push_back(
      {"ideobf_server_requests_total", "status=\"ok\"", 2});
  MetricsSnapshotFile w1;
  w1.worker = 1;
  w1.snapshot.counters.push_back(
      {"ideobf_server_requests_total", "status=\"ok\"", 3});
  w1.snapshot.gauges.push_back({"ideobf_server_queue_depth", "", 5});

  const RegistrySnapshot merged = merge_snapshots({w0, w1});
  const std::string out = render_prometheus(merged);
  // Fleet-wide sum under the original label body...
  EXPECT_NE(out.find("ideobf_server_requests_total{status=\"ok\"} 5"),
            std::string::npos)
      << out;
  // ...plus one attributed sample per worker.
  EXPECT_NE(
      out.find("ideobf_server_requests_total{status=\"ok\",worker=\"0\"} 2"),
      std::string::npos)
      << out;
  EXPECT_NE(
      out.find("ideobf_server_requests_total{status=\"ok\",worker=\"1\"} 3"),
      std::string::npos)
      << out;
  EXPECT_NE(out.find("ideobf_server_queue_depth{worker=\"1\"} 5"),
            std::string::npos)
      << out;
}

// --------------------------------------------------------- structured logs

/// Restores the global logger config a test body changed.
struct LogGuard {
  ~LogGuard() {
    set_log_level(LogLevel::Off);
    set_log_fd(2);
    set_log_worker(-1);
    set_log_rate_limit(0.0, 0.0);
  }
};

std::string read_all(const std::string& path) {
  std::string out;
  char buf[4096];
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return out;
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  ::close(fd);
  return out;
}

TEST(TelemetryLog, RecordsAreOneJsonObjectPerLine) {
  LogGuard guard;
  const std::string path =
      "/tmp/ideobf-logtest-" + std::to_string(::getpid()) + ".ndjson";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  set_log_fd(fd);
  set_log_rate_limit(0.0, 0.0);
  set_log_worker(2);
  set_log_level(LogLevel::Info);

  ASSERT_TRUE(log_enabled(LogLevel::Warn));
  ASSERT_FALSE(log_enabled(LogLevel::Debug));
  LogEvent(LogLevel::Warn, "server", "journal-write-failed")
      .field("slot", 3)
      .field("path", "a \"quoted\" name")
      .field("seconds", 0.5)
      .field_bool("fatal", false);
  ::close(fd);

  const std::string text = read_all(path);
  ::unlink(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text.find('\n'), text.size() - 1);  // exactly one record
  EXPECT_EQ(text.rfind("{\"ts\":", 0), 0u);     // ts leads every record
  EXPECT_NE(text.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"component\":\"server\""), std::string::npos);
  EXPECT_NE(text.find("\"event\":\"journal-write-failed\""),
            std::string::npos);
  EXPECT_NE(text.find("\"worker\":2"), std::string::npos);
  EXPECT_NE(text.find("\"slot\":3"), std::string::npos);
  EXPECT_NE(text.find("\"path\":\"a \\\"quoted\\\" name\""),
            std::string::npos);
  EXPECT_NE(text.find("\"fatal\":false"), std::string::npos);
}

TEST(TelemetryLog, BelowThresholdRecordsAreNeverEmitted) {
  LogGuard guard;
  const std::string path =
      "/tmp/ideobf-logtest-off-" + std::to_string(::getpid()) + ".ndjson";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  set_log_fd(fd);
  set_log_level(LogLevel::Error);
  LogEvent(LogLevel::Info, "server", "suppressed").field("k", 1);
  ::close(fd);
  EXPECT_TRUE(read_all(path).empty());
  ::unlink(path.c_str());
}

TEST(TelemetryLog, RateLimiterDropsAndCounts) {
  LogGuard guard;
  const std::string path =
      "/tmp/ideobf-logtest-rate-" + std::to_string(::getpid()) + ".ndjson";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  set_log_fd(fd);
  set_log_level(LogLevel::Info);
  set_log_rate_limit(/*per_second=*/1.0, /*burst=*/2.0);

  const std::uint64_t dropped0 = log_dropped_count();
  for (int i = 0; i < 50; ++i) {
    LogEvent(LogLevel::Info, "test", "burst").field("i", i);
  }
  ::close(fd);
  const std::string text = read_all(path);
  ::unlink(path.c_str());
  EXPECT_GT(log_dropped_count(), dropped0);
  // The burst got through; the flood did not.
  EXPECT_NE(text.find("\"event\":\"burst\""), std::string::npos);
  EXPECT_LT(text.size(), 50u * 40u);
}

TEST(TelemetryLog, ParseLogLevelGrammar) {
  LogLevel level = LogLevel::Off;
  EXPECT_TRUE(parse_log_level("debug", level));
  EXPECT_EQ(level, LogLevel::Debug);
  EXPECT_TRUE(parse_log_level("warn", level));
  EXPECT_EQ(level, LogLevel::Warn);
  EXPECT_TRUE(parse_log_level("off", level));
  EXPECT_EQ(level, LogLevel::Off);
  EXPECT_FALSE(parse_log_level("verbose", level));
  EXPECT_EQ(log_level_name(LogLevel::Error), "error");
}

}  // namespace
}  // namespace ideobf::telemetry
