// End-to-end pipeline throughput benchmark for the parse-once pipeline and
// the batch worker pool: single-script latency and parses-per-deobfuscation
// with the parse cache off / on, plus deobfuscate_batch throughput
// across thread counts over a synthetic corpus (hundreds of scripts from
// the seeded Fig-6 generator). `--json` writes BENCH_pipeline.json at the
// repo root so the perf trajectory is tracked PR over PR; `--smoke` runs a
// reduced corpus and fails unless the cache cuts parses >= 2x, the batch
// failure counters are consistent, and the pool's 4-thread warm batch is
// not materially slower than 1 thread (the ctest registration that keeps
// this binary — and those invariants — from bit-rotting).
//
// A telemetry section runs one batch with the metrics subsystem enabled and
// folds a per-phase breakdown plus cache/memo hit rates (overall and
// per-slot; the piece memo lives for one pipeline run, so these count
// repeats within a script) and the piece-evaluation ladder split (fold /
// tree-walk fallback) into the JSON; its gates assert span balance
// (opens == closes), parse-cache counter reconciliation, self-time
// partition of the pipeline total, that telemetry left off costs nothing
// measurable, and that the ladder accounts for every piece execution (with
// the fold stage live). The server_warm row and the memo hit rate are
// reported, not gated.
//
// A storm section drives the epoll I/O core directly: connection churn
// (conns/sec), ~1k concurrent clients with p50/p99 round-trip latency
// through the real fleet binary, and a slow-consumer drill whose
// count-based gates prove every stalled reader is reaped (outbuf cap /
// write stall / idle) while innocent clients keep getting served.
//
// Flags: --smoke, --json, --storm-only (just the storm section + gates),
// --threads N (sweep 1,2,4,... up to N), --scripts M (corpus size).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json_writer.h"
#include "core/batch.h"
#include "core/deobfuscator.h"
#include "corpus/corpus.h"
#include "ideobf/client.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "server/server.h"
#include "telemetry/telemetry.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>

#include "server/event_loop.h"
#include "server/protocol.h"

#include <random>

// Wall-clock gates are meaningless under sanitizer instrumentation (TSan
// slows threads 5-15x and ASan's allocator serializes them); the count-based
// gates still run there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IDEOBF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define IDEOBF_SANITIZED 1
#endif
#endif
#ifndef IDEOBF_SANITIZED
#define IDEOBF_SANITIZED 0
#endif

namespace {

using namespace ideobf;

struct Row {
  std::string config;   ///< cache_off / cache_cold / batch_* / server_*
  unsigned threads = 1;
  bool warm = false;
  double seconds = 0.0;
  double ms_per_script = 0.0;
  double scripts_per_second = 0.0;
  double speedup_vs_1t = 0.0;  ///< warm batch rows: 1t warm seconds / seconds
  std::uint64_t parses = 0;
  double parses_per_script = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::int64_t failed = 0;     ///< batch items with ok == false
  std::int64_t failures = 0;   ///< failed() plus degraded-but-served items
  std::int64_t degraded = 0;   ///< batch items served from a rung > 0
  std::int64_t max_rung = 0;   ///< worst degradation rung seen in the batch
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Gate budget for the per-request observability plane: a serve pass with
/// `"server_trace": true` on every request may cost at most this multiple of
/// the untraced pass (acceptance gate 16).
constexpr double kServeTraceOverheadBudget = 1.10;

/// Serial run over the corpus with the given deobfuscator.
Row run_serial(const InvokeDeobfuscator& deobf,
               const std::vector<std::string>& scripts, std::string config,
               bool warm) {
  Row row;
  row.config = std::move(config);
  row.warm = warm;
  // Per-run parse tables add their counts to the engine's counts sink.
  const std::shared_ptr<ps::ParseCache>& counts =
      deobf.options().shared_parse_cache;
  const auto hits0 = counts != nullptr ? counts->stats() : ps::ParseCacheStats{};
  const auto parses0 = ps::parse_call_count();
  const double t0 = now_seconds();
  for (const std::string& s : scripts) {
    volatile std::size_t sink = deobf.deobfuscate(s).size();
    (void)sink;
  }
  row.seconds = now_seconds() - t0;
  row.parses = ps::parse_call_count() - parses0;
  row.ms_per_script = row.seconds * 1000.0 / scripts.size();
  row.scripts_per_second = scripts.size() / row.seconds;
  row.parses_per_script = static_cast<double>(row.parses) / scripts.size();
  if (counts != nullptr) {
    const auto stats = counts->stats();
    row.cache_hits = stats.hits - hits0.hits;
    row.cache_misses = stats.misses - hits0.misses;
  }
  return row;
}

Row run_batch(const InvokeDeobfuscator& deobf,
              const std::vector<std::string>& scripts, unsigned threads,
              bool warm, const Options::Limits& governor = {}) {
  Row row;
  row.config = "batch";
  row.threads = threads;
  row.warm = warm;
  const auto parses0 = ps::parse_call_count();
  Options options;
  options.threads = threads;
  options.limits = governor;
  BatchReport report;
  const double t0 = now_seconds();
  const auto out = deobfuscate_batch(deobf, scripts, report, options);
  (void)out;
  row.seconds = now_seconds() - t0;
  row.failed = report.failed();
  row.failures = report.failures();
  row.degraded = report.degraded();
  for (const BatchItem& item : report.items) {
    row.max_rung = std::max<std::int64_t>(row.max_rung, item.degradation_rung);
  }
  row.parses = ps::parse_call_count() - parses0;
  row.ms_per_script = row.seconds * 1000.0 / scripts.size();
  row.scripts_per_second = scripts.size() / row.seconds;
  row.parses_per_script = static_cast<double>(row.parses) / scripts.size();
  return row;
}

/// Best-of-n warm batch wall time: the smoke gate compares thread counts on
/// a one-core-capable box, so each sample must shed scheduler noise.
double best_warm_batch_seconds(const InvokeDeobfuscator& deobf,
                               const std::vector<std::string>& scripts,
                               unsigned threads, int samples) {
  double best = 1e300;
  for (int i = 0; i < samples; ++i) {
    best = std::min(best, run_batch(deobf, scripts, threads, true).seconds);
  }
  return best;
}

double best_warm_serial_seconds(const InvokeDeobfuscator& deobf,
                                const std::vector<std::string>& scripts,
                                int samples) {
  double best = 1e300;
  for (int i = 0; i < samples; ++i) {
    best = std::min(best, run_serial(deobf, scripts, "sample", true).seconds);
  }
  return best;
}

/// CPU seconds this thread has used: a serial pass runs on the calling
/// thread, so its CPU time excludes scheduler waits and other load.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double warm_serial_thread_cpu_seconds(const InvokeDeobfuscator& deobf,
                                      const std::vector<std::string>& scripts) {
  const double t0 = thread_cpu_seconds();
  for (const std::string& s : scripts) {
    volatile std::size_t sink = deobf.deobfuscate(s).size();
    (void)sink;
  }
  return thread_cpu_seconds() - t0;
}

namespace tel = ideobf::telemetry;

/// What the telemetry section measures: the enabled-run phase breakdown and
/// registry-derived rates, plus the disabled-overhead ratio the smoke gate
/// checks (telemetry off must cost one atomic-flag branch, i.e. ~nothing).
struct TelemetrySummary {
  /// Median over enable/disable cycles of warm serial thread CPU time,
  /// off-after / off-before.
  double overhead_ratio = 0.0;
  std::uint64_t spans_opened = 0;
  std::uint64_t spans_closed = 0;
  std::uint64_t cache_lookups = 0;  ///< registry ideobf_parse_cache_*_total
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_bypasses = 0;
  double parse_cache_hit_rate = 0.0;
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_hits = 0;
  /// Hit rate of the per-run piece memos over the whole batch (counters
  /// merged over every shard, i.e. every pool slot).
  double recovery_memo_hit_rate = 0.0;
  /// The same rate per pool slot (metric shard): slot s of the enabled
  /// batch records into shard s.
  std::vector<double> per_slot_hit_rates;
  // Piece-evaluation ladder counters (registry ideobf_recovery_*_total),
  // captured over the prime run of the fresh engine. Every piece execution
  // is either a memo hit or resolved by exactly one ladder stage, so
  // piece_execs == piece_memo_hits + folds + treewalk_fallbacks (gate 8).
  std::uint64_t piece_execs = 0;
  std::uint64_t piece_memo_hits = 0;
  std::uint64_t folds = 0;
  std::uint64_t treewalk_fallbacks = 0;
  double fold_rate = 0.0;  ///< folds / memo-miss executions
  // Per-stage piece_eval latency split (ideobf_piece_eval_seconds{stage=}).
  double fold_seconds = 0.0;
  double fallback_seconds = 0.0;
  double accounted_seconds = 0.0;  ///< sum of per-phase self times
  double pipeline_seconds = 0.0;   ///< sum of Pipeline-span wall times
  double batch_wall_seconds = 0.0; ///< measured wall clock of the same batch
  tel::PipelineProfile profile;    ///< cold prime run + enabled warm batch
};

/// One telemetry-enabled batch over the corpus plus the off/on/off overhead
/// measurement. Returns the summary and appends its rows.
TelemetrySummary run_telemetry_section(
    const InvokeDeobfuscator& deobf, const std::vector<std::string>& scripts,
    std::vector<Row>& rows, unsigned threads) {
  TelemetrySummary ts;

  // Cold window: the prime run of this fresh engine. The ladder counters
  // and per-stage latency split are captured here, before the registry is
  // reset for the warm-batch window below. The per-script profiles are
  // merged into the section's phase breakdown, so the breakdown covers the
  // first pass over the corpus as well as the warm batch below.
  tel::Telemetry::metrics().reset();
  tel::Telemetry::enable();
  for (const std::string& s : scripts) {
    DeobfuscationReport prime_report;
    volatile std::size_t sink = deobf.deobfuscate(s, prime_report).size();
    (void)sink;
    ts.profile.merge(prime_report.profile);
  }
  tel::Telemetry::disable();
  {
    auto& reg = tel::registry();
    ts.piece_execs = reg.counter("ideobf_recovery_piece_exec_total").value();
    ts.piece_memo_hits =
        reg.counter("ideobf_recovery_piece_memo_hit_total").value();
    ts.folds = reg.counter("ideobf_recovery_fold_total").value();
    ts.treewalk_fallbacks =
        reg.counter("ideobf_recovery_treewalk_fallback_total").value();
    const std::uint64_t ladder_misses = ts.folds + ts.treewalk_fallbacks;
    ts.fold_rate = ladder_misses == 0
                       ? 0.0
                       : static_cast<double>(ts.folds) / ladder_misses;
    ts.fold_seconds =
        reg.histogram("ideobf_piece_eval_seconds", "stage=\"fold\"")
            .sum_seconds();
    ts.fallback_seconds =
        reg.histogram("ideobf_piece_eval_seconds", "stage=\"fallback\"")
            .sum_seconds();
  }

  // Warm everything once more (pool, steady state) and measure the
  // disabled baseline row.
  const double off_before = best_warm_serial_seconds(deobf, scripts, 3);
  Row off_row;
  off_row.config = "telemetry_off";
  off_row.warm = true;
  off_row.seconds = off_before;
  off_row.ms_per_script = off_before * 1000.0 / scripts.size();
  off_row.scripts_per_second = scripts.size() / off_before;
  rows.push_back(off_row);

  // The enabled run: a warm batch with per-slot sharding active.
  tel::Telemetry::metrics().reset();
  tel::Telemetry::enable();
  Options options;
  options.threads = threads;
  BatchReport report;
  const double t0 = now_seconds();
  (void)deobfuscate_batch(deobf, scripts, report, options);
  const double on_seconds = now_seconds() - t0;
  tel::Telemetry::disable();

  Row on_row;
  on_row.config = "telemetry_on";
  on_row.threads = threads;
  on_row.warm = true;
  on_row.seconds = on_seconds;
  on_row.ms_per_script = on_seconds * 1000.0 / scripts.size();
  on_row.scripts_per_second = scripts.size() / on_seconds;
  rows.push_back(on_row);

  ts.spans_opened = tel::spans_opened_counter().value();
  ts.spans_closed = tel::spans_closed_counter().value();
  auto& reg = tel::registry();
  ts.cache_lookups = reg.counter("ideobf_parse_cache_lookup_total").value();
  ts.cache_hits = reg.counter("ideobf_parse_cache_hit_total").value();
  ts.cache_misses = reg.counter("ideobf_parse_cache_miss_total").value();
  ts.cache_bypasses = reg.counter("ideobf_parse_cache_bypass_total").value();
  ts.parse_cache_hit_rate =
      ts.cache_lookups == 0
          ? 0.0
          : static_cast<double>(ts.cache_hits) / ts.cache_lookups;
  auto& memo_lookup_counter = reg.counter("ideobf_recovery_memo_lookup_total");
  auto& memo_hit_counter = reg.counter("ideobf_recovery_memo_hit_total");
  ts.memo_lookups = memo_lookup_counter.value();
  ts.memo_hits = memo_hit_counter.value();
  ts.recovery_memo_hit_rate =
      ts.memo_lookups == 0
          ? 0.0
          : static_cast<double>(ts.memo_hits) / ts.memo_lookups;
  // Memo counters record into the caller's shard and batch slot s is bound
  // to shard s, so shards 0..threads-1 are the per-slot views.
  for (unsigned s = 0; s < threads; ++s) {
    const std::uint64_t lookups = memo_lookup_counter.shard_value(s);
    ts.per_slot_hit_rates.push_back(
        lookups == 0
            ? 0.0
            : static_cast<double>(memo_hit_counter.shard_value(s)) / lookups);
  }
  // Merge the warm batch's profile on top of the cold window's: the
  // breakdown then covers both regimes (cold parse/lex costs AND the warm
  // steady state), and the self-time partition identity still holds because
  // it holds per deobfuscate call.
  ts.profile.merge(report.profile);
  ts.accounted_seconds = ts.profile.accounted_seconds();
  ts.pipeline_seconds = ts.profile.total_seconds(tel::Phase::Pipeline);
  ts.batch_wall_seconds = report.wall_seconds;

  // Disabled again (gate 6): the subsystem must leave no residue when
  // switched off (spans stay one branch). Each pair brackets one
  // enable/disable cycle with a warm serial pass on either side, timed on
  // this thread's CPU clock; pairs interleave so drift hits both sides, and
  // the median ratio sheds the pair a noise burst lands in. The registry
  // numbers above are already captured, so these cycles do not touch them.
  constexpr int kOverheadPairs = 7;
  std::vector<double> ratios;
  for (int i = 0; i < kOverheadPairs; ++i) {
    const double before = warm_serial_thread_cpu_seconds(deobf, scripts);
    tel::Telemetry::enable();
    (void)deobf.deobfuscate(scripts[static_cast<std::size_t>(i) % scripts.size()]);
    tel::Telemetry::disable();
    const double after = warm_serial_thread_cpu_seconds(deobf, scripts);
    if (before > 0.0) ratios.push_back(after / before);
  }
  if (!ratios.empty()) {
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2, ratios.end());
    ts.overhead_ratio = ratios[ratios.size() / 2];
  }
  return ts;
}

/// What the server section measures: the whole point of `ideobf serve` is
/// amortizing process startup, pool spin-up, and cache warm-up across
/// requests, so the headline number is warm-server cost per script versus
/// spawning the CLI binary once per script.
struct ServerSummary {
  double server_ms_per_script = 0.0;       ///< warm daemon, one socket round trip each
  double traced_ms_per_script = 0.0;       ///< same, with "server_trace": true per request
  double trace_overhead_ratio = 0.0;       ///< traced / untraced process CPU
  double oneshot_cli_ms_per_script = 0.0;  ///< fresh `ideobf deobf` process each
  double amortization_ratio = 0.0;         ///< oneshot / server
  std::size_t cli_sample = 0;              ///< scripts actually spawned through the CLI
  bool cli_available = false;
};

/// Warm in-process daemon on a temp Unix socket, then every corpus script
/// as one request over the real wire — plus a fresh CLI process per script
/// for a sample of the corpus (spawning 300 processes would measure the
/// shell, not the trend).
ServerSummary run_server_section(const std::vector<std::string>& scripts,
                                 std::vector<Row>& rows) {
  ServerSummary ss;

  const std::string sock =
      "/tmp/ideobf-bench-" + std::to_string(::getpid()) + ".sock";
  ideobf::server::ServerConfig cfg;
  cfg.unix_socket_path = sock;
  cfg.threads = 2;
  ideobf::server::Server server(std::move(cfg));
  server.start();
  {
    ServeClient client = ServeClient::connect_unix(sock);
    // Warm pass: first contact pays parser/cache/pool cold costs; the row
    // measures the steady state a resident service actually runs in.
    for (const std::string& s : scripts) {
      Request request;
      request.source = s;
      (void)client.call(request);
    }
    // Timed passes, untraced vs traced. The traced flavor opts every request
    // into the per-request observability plane ("server_trace": true — the
    // queue/cache/engine span breakdown in each reply; the heavyweight
    // per-pass change-trace stays off, as a monitoring client would run).
    // The delta being gated (≤10%) is far below scheduler noise on a loaded
    // box, so each config runs as whole-corpus passes (alternating, so drift
    // hits both) and every script keeps its per-config minimum across
    // rounds: a noise burst has to hit the same script in the same config in
    // every round to survive into the sum. Whole passes — not back-to-back
    // same-script pairs — keep the base honest: a repeat of the script just
    // served rides its still-hot engine caches and would deflate whichever
    // config ran second far below what real traffic costs.
    // Latency rows use wall-clock per-script minima; the gated overhead
    // ratio uses process CPU time per pass. Tracing's cost is CPU work
    // (rendering the span object, parsing the bigger reply — the server is
    // in-process, so both sides land in this process's CPU clock), and CPU
    // time is immune to the scheduler-wait noise that swamps a ~3% wall
    // delta on a loaded box.
    auto cpu_now = [] {
      timespec ts{};
      ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    };
    std::vector<double> best_untraced(scripts.size(), 1e300);
    std::vector<double> best_traced(scripts.size(), 1e300);
    double cpu_untraced = 1e300;
    double cpu_traced = 1e300;
    auto run_rounds = [&](int rounds) {
      for (int round = 0; round < rounds; ++round) {
        const bool traced = round % 2 != 0;
        std::vector<double>& best = traced ? best_traced : best_untraced;
        const double c0 = cpu_now();
        for (std::size_t i = 0; i < scripts.size(); ++i) {
          Request request;
          request.source = scripts[i];
          request.server_trace = traced;
          const double t0 = now_seconds();
          (void)client.call(request);
          const double dt = now_seconds() - t0;
          best[i] = std::min(best[i], dt);
        }
        const double cpu_dt = cpu_now() - c0;
        double& best_cpu = traced ? cpu_traced : cpu_untraced;
        best_cpu = std::min(best_cpu, cpu_dt);
      }
    };
    auto recompute = [&] {
      double untraced_seconds = 0.0;
      double traced_seconds = 0.0;
      for (std::size_t i = 0; i < scripts.size(); ++i) {
        untraced_seconds += best_untraced[i];
        traced_seconds += best_traced[i];
      }
      ss.server_ms_per_script = untraced_seconds * 1000.0 / scripts.size();
      ss.traced_ms_per_script = traced_seconds * 1000.0 / scripts.size();
      ss.trace_overhead_ratio =
          cpu_untraced > 0.0 ? cpu_traced / cpu_untraced : 0.0;
    };
    run_rounds(8);
    recompute();
    // A regression persists; a stray burst of in-process work (telemetry
    // flush, allocator housekeeping) that inflated one config's floor
    // doesn't. Before reporting an over-budget ratio, accumulate more
    // rounds into the same minima — they only converge downward.
    for (int retry = 0;
         retry < 2 && ss.trace_overhead_ratio > kServeTraceOverheadBudget;
         ++retry) {
      run_rounds(8);
      recompute();
    }
    const double untraced_seconds =
        ss.server_ms_per_script * scripts.size() / 1000.0;
    const double traced_seconds =
        ss.traced_ms_per_script * scripts.size() / 1000.0;
    Row row;
    row.config = "server_warm";
    row.threads = 2;
    row.warm = true;
    row.seconds = untraced_seconds;
    row.ms_per_script = ss.server_ms_per_script;
    row.scripts_per_second = scripts.size() / untraced_seconds;
    rows.push_back(row);
    Row traced_row;
    traced_row.config = "server_traced";
    traced_row.threads = 2;
    traced_row.warm = true;
    traced_row.seconds = traced_seconds;
    traced_row.ms_per_script = ss.traced_ms_per_script;
    traced_row.scripts_per_second = scripts.size() / traced_seconds;
    rows.push_back(traced_row);
  }
  server.stop();

#ifdef IDEOBF_CLI_PATH
  ss.cli_available = ::access(IDEOBF_CLI_PATH, X_OK) == 0;
  if (ss.cli_available) {
    ss.cli_sample = std::min<std::size_t>(scripts.size(), 12);
    const std::string script_path =
        "/tmp/ideobf-bench-" + std::to_string(::getpid()) + ".ps1";
    const std::string cmd = std::string(IDEOBF_CLI_PATH) + " deobf " +
                            script_path + " >/dev/null 2>&1";
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < ss.cli_sample; ++i) {
      std::ofstream out(script_path, std::ios::binary);
      out << scripts[i];
      out.close();
      if (std::system(cmd.c_str()) != 0) {
        std::fprintf(stderr, "WARN: one-shot CLI run failed: %s\n",
                     cmd.c_str());
      }
    }
    const double seconds = now_seconds() - t0;
    std::remove(script_path.c_str());
    ss.oneshot_cli_ms_per_script = seconds * 1000.0 / ss.cli_sample;
    Row row;
    row.config = "cli_oneshot";
    row.seconds = seconds;
    row.ms_per_script = ss.oneshot_cli_ms_per_script;
    row.scripts_per_second = ss.cli_sample / seconds;
    rows.push_back(row);
    if (ss.server_ms_per_script > 0.0) {
      ss.amortization_ratio =
          ss.oneshot_cli_ms_per_script / ss.server_ms_per_script;
    }
  }
#endif
  return ss;
}

/// What the fleet section measures: a supervised multi-worker fleet replaying
/// a zipf-skewed request stream (wild corpora are campaign-duplicated, so a
/// handful of scripts dominate) — how often the shared content-addressed
/// cache answers, what a hit costs versus a pipeline run, and that a crash
/// drill (worker-abort faults on a marked script) still ends every request
/// in a terminal reply.
struct FleetSummary {
  bool available = false;          ///< CLI binary present, fleet came up
  std::size_t replay_requests = 0;
  std::size_t unique_scripts = 0;
  double cache_hit_rate = 0.0;
  double hit_ms_per_script = 0.0;   ///< mean round trip of cached replies
  double miss_ms_per_script = 0.0;  ///< mean round trip of pipeline replies
  /// Crash drill accounting.
  std::size_t crash_requests = 0;
  std::size_t crash_terminal = 0;   ///< replies received (never a hang)
  std::size_t crash_ok = 0;
  std::size_t crash_worker_crash = 0;
  std::size_t crash_quarantined = 0;
};

#ifdef IDEOBF_CLI_PATH

/// Forks the CLI as `serve --fleet ...` and waits for a worker to answer a
/// readiness probe. Returns the supervisor pid, or -1.
pid_t spawn_fleet(const std::string& sock, const std::string& state_dir,
                  std::vector<std::string> extra) {
  ::mkdir(state_dir.c_str(), 0700);
  std::vector<std::string> args = {IDEOBF_CLI_PATH, "serve",
                                   "--socket",      sock,
                                   "--fleet",       "2",
                                   "--threads",     "2",
                                   "--state-dir",   state_dir,
                                   "--backoff-initial-seconds", "0.05"};
  for (std::string& a : extra) args.push_back(std::move(a));
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const double give_up = now_seconds() + 20.0;
  while (now_seconds() < give_up) {
    try {
      ServeClient probe = ServeClient::connect_unix(sock);
      if (probe.ready()) return pid;
    } catch (const std::exception&) {
    }
    ::usleep(50 * 1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

void stop_fleet(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
    ::usleep(20 * 1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
}

FleetSummary run_fleet_section(const std::vector<std::string>& scripts,
                               std::vector<Row>& rows) {
  FleetSummary fs;
  if (::access(IDEOBF_CLI_PATH, X_OK) != 0) return fs;

  const std::string base =
      "/tmp/ideobf-bench-fleet-" + std::to_string(::getpid());

  // --- Zipf replay against a 2-worker fleet with the shared cache on ------
  {
    const std::string sock = base + ".sock";
    const pid_t fleet = spawn_fleet(sock, base + "-state", {});
    if (fleet < 0) return fs;
    fs.available = true;

    // Zipf(s=1.1) over the corpus: rank r drawn with weight 1/(r+1)^1.1,
    // seeded so the stream is identical PR over PR.
    std::vector<double> weights(scripts.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    }
    std::mt19937 rng(42);
    std::discrete_distribution<std::size_t> zipf(weights.begin(),
                                                 weights.end());
    const std::size_t replay = std::min<std::size_t>(600, scripts.size() * 3);
    std::vector<std::size_t> stream(replay);
    std::vector<bool> drawn(scripts.size(), false);
    for (std::size_t i = 0; i < replay; ++i) {
      stream[i] = zipf(rng);
      drawn[stream[i]] = true;
    }
    fs.replay_requests = replay;
    fs.unique_scripts =
        static_cast<std::size_t>(std::count(drawn.begin(), drawn.end(), true));

    ServeClient client = ServeClient::connect_unix(sock);
    std::size_t hits = 0;
    double hit_seconds = 0.0;
    double miss_seconds = 0.0;
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < replay; ++i) {
      Request request;
      request.source = scripts[stream[i]];
      request.id = "z" + std::to_string(i);
      const double r0 = now_seconds();
      const ServeReply reply = client.call_retrying(request, 4);
      const double dt = now_seconds() - r0;
      if (reply.cached) {
        hits++;
        hit_seconds += dt;
      } else {
        miss_seconds += dt;
      }
    }
    const double seconds = now_seconds() - t0;
    stop_fleet(fleet);

    fs.cache_hit_rate = static_cast<double>(hits) / replay;
    if (hits > 0) fs.hit_ms_per_script = hit_seconds * 1000.0 / hits;
    if (replay > hits) {
      fs.miss_ms_per_script = miss_seconds * 1000.0 / (replay - hits);
    }
    Row row;
    row.config = "fleet_replay";
    row.threads = 2;
    row.warm = true;
    row.seconds = seconds;
    row.ms_per_script = seconds * 1000.0 / replay;
    row.scripts_per_second = replay / seconds;
    row.cache_hits = hits;
    row.cache_misses = replay - hits;
    rows.push_back(row);
  }

  // --- Crash drill: marked scripts abort their worker at dispatch ---------
  {
    const std::string sock = base + "-crash.sock";
    const pid_t fleet = spawn_fleet(
        sock, base + "-crash-state",
        {"--fault", "worker-abort:abort:match=BENCHKILL", "--no-cache",
         "--quarantine-after", "2"});
    if (fleet > 0) {
      const std::string killer = "Write-Host 'BENCHKILL'";
      const double t0 = now_seconds();
      for (int i = 0; i < 24; ++i) {
        Request request;
        request.source = (i % 6 == 5) ? killer
                                      : scripts[i % scripts.size()];
        request.id = "c" + std::to_string(i);
        ServeClient client = ServeClient::connect_unix(sock);
        const ServeReply reply = client.call_retrying(request, 8);
        fs.crash_requests++;
        if (!reply.status.empty()) fs.crash_terminal++;
        if (reply.status == "ok" || reply.status == "degraded") {
          fs.crash_ok++;
        } else if (reply.response.failure == FailureKind::WorkerCrash) {
          fs.crash_worker_crash++;
        } else if (reply.response.failure == FailureKind::Quarantined) {
          fs.crash_quarantined++;
        }
      }
      const double seconds = now_seconds() - t0;
      stop_fleet(fleet);
      Row row;
      row.config = "fleet_crash";
      row.threads = 2;
      row.seconds = seconds;
      row.ms_per_script = seconds * 1000.0 / fs.crash_requests;
      row.scripts_per_second = fs.crash_requests / seconds;
      row.failed = static_cast<std::int64_t>(fs.crash_worker_crash +
                                             fs.crash_quarantined);
      rows.push_back(row);
    }
  }
  return fs;
}

#else  // !IDEOBF_CLI_PATH

FleetSummary run_fleet_section(const std::vector<std::string>&,
                               std::vector<Row>&) {
  return {};
}

#endif

/// What the storm section measures: the epoll I/O core itself. Connection
/// churn (accept + ping + close per second), ~1k concurrent clients each
/// waiting on one request (p50/p99 round trip through the real fleet
/// binary), and a slow-consumer drill against an in-process server — slow
/// readers holding megabytes of unread output must be reaped by the
/// outbuf/stall/idle policies while innocent clients keep getting served.
/// The drill gates are count-based, so they hold under sanitizers too.
struct StormSummary {
  bool available = false;  ///< CLI binary present, fleet came up
  std::size_t churn_connections = 0;
  double churn_connections_per_second = 0.0;
  double churn_ms_per_connection = 0.0;
  std::size_t concurrent_clients = 0;
  std::size_t concurrent_served = 0;
  std::size_t concurrent_failed = 0;
  double concurrent_seconds = 0.0;
  double concurrent_p50_ms = 0.0;
  double concurrent_p99_ms = 0.0;
  // Slow-consumer drill.
  bool drill_ran = false;
  std::size_t drill_slow = 0;
  std::size_t drill_innocent = 0;
  std::size_t drill_innocent_served = 0;
  std::uint64_t drill_reaped = 0;  ///< outbuf + write-stall + idle reaps
};

/// Blocking connect to a Unix socket with the same brief EAGAIN retry the
/// client library uses (a full backlog fails immediately on AF_UNIX).
int raw_connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    if (errno != EAGAIN && errno != EINTR) break;
    ::usleep(2000);
  }
  ::close(fd);
  return -1;
}

bool raw_send_all(int fd, const std::string& bytes) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(n);
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Raises the fd soft limit toward the hard limit and returns how many
/// storm clients fit under it with headroom for the process's own fds.
std::size_t clamp_clients_to_fd_limit(std::size_t want) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return std::min<std::size_t>(want, 64);
  if (rl.rlim_cur < rl.rlim_max) {
    rlimit raised = rl;
    raised.rlim_cur = rl.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  if (rl.rlim_cur == RLIM_INFINITY) return want;
  const std::size_t budget =
      rl.rlim_cur > 192 ? static_cast<std::size_t>(rl.rlim_cur) - 128 : 64;
  return std::min(want, budget);
}

StormSummary run_storm_section(bool smoke, std::vector<Row>& rows) {
  StormSummary sts;
  const std::string base =
      "/tmp/ideobf-bench-storm-" + std::to_string(::getpid());

#ifdef IDEOBF_CLI_PATH
  if (::access(IDEOBF_CLI_PATH, X_OK) == 0) {
    const std::string sock = base + ".sock";
    const pid_t fleet = spawn_fleet(sock, base + "-state", {});
    if (fleet > 0) {
      sts.available = true;

      // --- Churn: full connect + ping + close cycles, serially ------------
      {
        const std::size_t churn = smoke ? 100 : 400;
        const double t0 = now_seconds();
        for (std::size_t i = 0; i < churn; ++i) {
          ServeClient client = ServeClient::connect_unix(sock);
          (void)client.ping();
        }
        const double seconds = now_seconds() - t0;
        sts.churn_connections = churn;
        sts.churn_connections_per_second = churn / seconds;
        sts.churn_ms_per_connection = seconds * 1000.0 / churn;
        Row row;
        row.config = "storm_churn";
        row.threads = 2;
        row.seconds = seconds;
        row.ms_per_script = sts.churn_ms_per_connection;
        row.scripts_per_second = sts.churn_connections_per_second;
        rows.push_back(row);
      }

      // --- Concurrent: ~1k clients, one request each, poll-driven ---------
      // One thread drives every connection through non-blocking writes and
      // reads, so the client side cannot be the bottleneck being measured.
      {
        struct SConn {
          int fd = -1;
          std::size_t off = 0;  ///< bytes of the request line already sent
          std::string out;
          std::string in;
          double done_at = 0.0;
          bool ok = false;
        };
        const std::size_t want = smoke ? 200 : 1000;
        const std::size_t clients = clamp_clients_to_fd_limit(want);
        if (clients < want) {
          std::printf("storm: fd limit clamps concurrent clients %zu -> %zu\n",
                      want, clients);
        }
        std::vector<SConn> cs(clients);
        for (std::size_t i = 0; i < clients; ++i) {
          cs[i].fd = raw_connect_unix(sock);
          if (cs[i].fd >= 0) ideobf::server::set_nonblocking(cs[i].fd);
          Request request;
          request.source = "wr`ite-ho`st 'storm'";
          request.id = "s" + std::to_string(i);
          cs[i].out = ideobf::server::render_request_line(request) + "\n";
        }

        const double t0 = now_seconds();
        const double give_up = t0 + (smoke ? 60.0 : 120.0);
        std::vector<pollfd> pfds;
        std::vector<std::size_t> idx;
        for (;;) {
          pfds.clear();
          idx.clear();
          for (std::size_t i = 0; i < clients; ++i) {
            if (cs[i].fd < 0 || cs[i].done_at > 0.0) continue;
            pollfd p{};
            p.fd = cs[i].fd;
            p.events = cs[i].off < cs[i].out.size() ? POLLOUT : POLLIN;
            pfds.push_back(p);
            idx.push_back(i);
          }
          if (pfds.empty() || now_seconds() > give_up) break;
          const int n = ::poll(pfds.data(), pfds.size(), 1000);
          if (n <= 0) continue;
          const double now = now_seconds();
          for (std::size_t k = 0; k < pfds.size(); ++k) {
            SConn& c = cs[idx[k]];
            if ((pfds[k].revents & POLLOUT) != 0 &&
                c.off < c.out.size()) {
              ssize_t w = ::send(c.fd, c.out.data() + c.off,
                                 c.out.size() - c.off, MSG_NOSIGNAL);
              if (w > 0) c.off += static_cast<std::size_t>(w);
            }
            if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
                c.off == c.out.size()) {
              char chunk[4096];
              ssize_t r = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
              if (r > 0) {
                c.in.append(chunk, static_cast<std::size_t>(r));
                if (c.in.find('\n') != std::string::npos) {
                  c.done_at = now;
                  c.ok = true;
                  ::close(c.fd);
                  c.fd = -1;
                }
              } else if (r == 0) {
                c.done_at = now;  // closed without a reply: a failure
                ::close(c.fd);
                c.fd = -1;
              }
            }
          }
        }
        sts.concurrent_seconds = now_seconds() - t0;

        std::vector<double> latencies_ms;
        for (SConn& c : cs) {
          if (c.ok) {
            latencies_ms.push_back((c.done_at - t0) * 1000.0);
          }
          if (c.fd >= 0) ::close(c.fd);
        }
        sts.concurrent_clients = clients;
        sts.concurrent_served = latencies_ms.size();
        sts.concurrent_failed = clients - latencies_ms.size();
        if (!latencies_ms.empty()) {
          std::sort(latencies_ms.begin(), latencies_ms.end());
          sts.concurrent_p50_ms = latencies_ms[latencies_ms.size() / 2];
          sts.concurrent_p99_ms =
              latencies_ms[latencies_ms.size() * 99 / 100];
        }
        Row row;
        row.config = "storm_concurrent";
        row.threads = 2;
        row.seconds = sts.concurrent_seconds;
        row.ms_per_script = sts.concurrent_served > 0
                                ? sts.concurrent_seconds * 1000.0 /
                                      sts.concurrent_served
                                : 0.0;
        row.scripts_per_second =
            sts.concurrent_seconds > 0.0
                ? sts.concurrent_served / sts.concurrent_seconds
                : 0.0;
        rows.push_back(row);
      }
      stop_fleet(fleet);
    }
  }
#endif  // IDEOBF_CLI_PATH

  // --- Slow-consumer drill (in-process, count-gated) -----------------------
  // Slow readers pile up hundreds of KB of unread responses; the server
  // must reap them (outbuf cap, write stall, or idle policy — whichever
  // trips first) while innocent clients on the same server get every reply.
  {
    const std::string sock = base + "-drill.sock";
    ideobf::server::ServerConfig cfg;
    cfg.unix_socket_path = sock;
    cfg.threads = 2;
    cfg.send_timeout_seconds = 1.0;
    cfg.idle_timeout_seconds = 5.0;
    cfg.outbuf_high_water_bytes = smoke ? (128u << 10) : (256u << 10);
    ideobf::server::Server server(std::move(cfg));
    server.start();

    sts.drill_ran = true;
    sts.drill_slow = smoke ? 4 : 8;
    sts.drill_innocent = smoke ? 16 : 32;
    const std::string big =
        "'" + std::string(smoke ? (256u << 10) : (512u << 10), 'a') + "'";

    std::vector<int> slow_fds;
    for (std::size_t i = 0; i < sts.drill_slow; ++i) {
      const int fd = raw_connect_unix(sock);
      if (fd < 0) continue;
      std::string lines;
      for (int r = 0; r < 3; ++r) {
        Request request;
        request.source = big;
        request.id = "slow-" + std::to_string(i) + "-" + std::to_string(r);
        lines += ideobf::server::render_request_line(request) + "\n";
      }
      raw_send_all(fd, lines);
      slow_fds.push_back(fd);  // never read: the definition of the drill
    }

    std::atomic<std::size_t> served{0};
    std::vector<std::thread> innocents;
    const std::size_t per_thread = sts.drill_innocent / 4;
    for (int t = 0; t < 4; ++t) {
      innocents.emplace_back([&sock, &served, per_thread] {
        for (std::size_t i = 0; i < per_thread; ++i) {
          try {
            ServeClient client = ServeClient::connect_unix(sock);
            Request request;
            request.source = "wr`ite-ho`st 'innocent'";
            if (client.call(request).status == "ok") served.fetch_add(1);
          } catch (const std::exception&) {
          }
        }
      });
    }
    for (std::thread& t : innocents) t.join();

    // The reaps are asynchronous to the innocents finishing: wait until
    // every slow client has been reaped (or the bound runs out).
    const double give_up = now_seconds() + 60.0;
    auto reaped = [&server] {
      const auto st = server.stats();
      return st.outbuf_reaped_total + st.stall_reaped_total +
             st.idle_reaped_total;
    };
    while (reaped() < sts.drill_slow && now_seconds() < give_up) {
      ::usleep(50 * 1000);
    }
    sts.drill_reaped = reaped();
    sts.drill_innocent_served = served.load();
    for (int fd : slow_fds) ::close(fd);
    server.stop();
  }
  return sts;
}

void print_storm(const StormSummary& sts) {
  if (sts.available) {
    std::printf(
        "\nconnection storm: churn %zu conns at %.0f conns/s (%.3f ms "
        "each); %zu concurrent clients -> %zu served, %zu failed, p50 "
        "%.1f ms, p99 %.1f ms over %.2fs\n",
        sts.churn_connections, sts.churn_connections_per_second,
        sts.churn_ms_per_connection, sts.concurrent_clients,
        sts.concurrent_served, sts.concurrent_failed, sts.concurrent_p50_ms,
        sts.concurrent_p99_ms, sts.concurrent_seconds);
  } else {
    std::printf("\nconnection storm: fleet part skipped (CLI binary not "
                "built)\n");
  }
  std::printf(
      "slow-consumer drill: %zu slow + %zu innocent clients -> %zu "
      "innocent served, %llu reaped (outbuf/stall/idle)\n",
      sts.drill_slow, sts.drill_innocent, sts.drill_innocent_served,
      static_cast<unsigned long long>(sts.drill_reaped));
}

/// Count-based storm gates (sanitizer-safe): every concurrent client got a
/// reply, every innocent drill client was served, and every slow consumer
/// was reaped.
int storm_gates(const StormSummary& sts) {
  int rc = 0;
  if (sts.available && sts.concurrent_failed != 0) {
    std::fprintf(stderr,
                 "FAIL: connection storm dropped %zu of %zu concurrent "
                 "clients\n",
                 sts.concurrent_failed, sts.concurrent_clients);
    rc = 1;
  }
  if (sts.drill_ran) {
    if (sts.drill_innocent_served != sts.drill_innocent) {
      std::fprintf(stderr,
                   "FAIL: slow-consumer drill starved innocents: %zu/%zu "
                   "served\n",
                   sts.drill_innocent_served, sts.drill_innocent);
      rc = 1;
    }
    if (sts.drill_reaped != sts.drill_slow) {
      std::fprintf(stderr,
                   "FAIL: slow-consumer drill reaped %llu of %zu slow "
                   "clients (outbuf cap, write stall, idle)\n",
                   static_cast<unsigned long long>(sts.drill_reaped),
                   sts.drill_slow);
      rc = 1;
    }
  }
  return rc;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-14s %8s %6s %10s %12s %12s %14s %10s %10s %9s\n", "config",
              "threads", "warm", "seconds", "ms/script", "scripts/s",
              "parses/script", "hits", "misses", "x_vs_1t");
  for (const Row& r : rows) {
    std::printf(
        "%-14s %8u %6s %10.3f %12.3f %12.1f %14.2f %10llu %10llu %9.2f\n",
        r.config.c_str(), r.threads, r.warm ? "yes" : "no", r.seconds,
        r.ms_per_script, r.scripts_per_second, r.parses_per_script,
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses), r.speedup_vs_1t);
  }
}

// --- JavaScript mini-corpus (data/js): the second registered front-end -----

/// Round-trip accounting for the checked-in JS samples: every
/// sample_N.obf.js run under language "javascript" must reproduce its
/// sample_N.clean.js golden byte-for-byte (and the goldens are fixed
/// points, so a drifting front-end cannot hide behind re-deobfuscation).
struct JsCorpusSummary {
  bool available = false;       ///< data/js had at least one sample pair
  std::size_t samples = 0;
  std::size_t round_tripped = 0;  ///< result == golden, byte-for-byte
  double ms_per_script = 0.0;
};

JsCorpusSummary run_js_corpus_section(std::vector<Row>& rows) {
  JsCorpusSummary js;
  const std::string dir = std::string(IDEOBF_SOURCE_DIR) + "/data/js/";
  const auto slurp = [](const std::string& path,
                        std::string& out) -> bool {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
  };
  std::vector<std::pair<std::string, std::string>> pairs;  // {obf, clean}
  for (int i = 0;; ++i) {
    std::string obf;
    std::string clean;
    if (!slurp(dir + "sample_" + std::to_string(i) + ".obf.js", obf) ||
        !slurp(dir + "sample_" + std::to_string(i) + ".clean.js", clean)) {
      break;
    }
    pairs.emplace_back(std::move(obf), std::move(clean));
  }
  if (pairs.empty()) return js;
  js.available = true;
  js.samples = pairs.size();

  Engine engine{Options{}};
  // Warm pass primes the parse cache like any resident service; the timed
  // pass is what lands in the row.
  for (const auto& [obf, clean] : pairs) {
    Request request;
    request.source = obf;
    request.language = "javascript";
    (void)engine.handle(request);
  }
  const double t0 = now_seconds();
  for (const auto& [obf, clean] : pairs) {
    Request request;
    request.source = obf;
    request.language = "javascript";
    const Response response = engine.handle(request);
    if (response.ok && response.result == clean) ++js.round_tripped;
  }
  const double seconds = now_seconds() - t0;
  js.ms_per_script = seconds * 1000.0 / pairs.size();

  Row row;
  row.config = "js_corpus";
  row.threads = 1;
  row.warm = true;
  row.seconds = seconds;
  row.ms_per_script = js.ms_per_script;
  row.scripts_per_second = pairs.size() / std::max(seconds, 1e-9);
  row.failed = static_cast<std::int64_t>(js.samples - js.round_tripped);
  rows.push_back(row);
  return js;
}

std::string rows_to_json(const std::vector<Row>& rows, std::size_t corpus,
                         double parse_reduction, double speedup_8t_vs_1t,
                         unsigned speedup_threads, const TelemetrySummary& ts,
                         const ServerSummary& ss, const FleetSummary& fs,
                         const StormSummary& sts, const JsCorpusSummary& js) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", "pipeline");
  w.field("corpus_scripts", static_cast<std::int64_t>(corpus));
  w.field("hardware_concurrency",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.field("parse_reduction_vs_uncached", parse_reduction);
  // Warm-batch speedup of the widest measured thread count over 1 thread.
  // On a 1-core runner this hovers near 1.0 by physics — read it together
  // with hardware_concurrency.
  w.field("speedup_8t_vs_1t", speedup_8t_vs_1t);
  w.field("speedup_measured_at_threads",
          static_cast<std::int64_t>(speedup_threads));
  w.field("parse_cache_hit_rate", ts.parse_cache_hit_rate);
  w.field("recovery_memo_hit_rate", ts.recovery_memo_hit_rate);
  w.begin_array("recovery_memo_hit_rate_per_slot");
  for (const double rate : ts.per_slot_hit_rates) w.value(rate);
  w.end_array();
  // Piece-evaluation ladder: how memo misses were resolved (fold /
  // tree-walk fallback) and what each stage cost.
  w.field("piece_exec_count", static_cast<std::int64_t>(ts.piece_execs));
  w.field("piece_memo_hit_count",
          static_cast<std::int64_t>(ts.piece_memo_hits));
  w.field("fold_count", static_cast<std::int64_t>(ts.folds));
  w.field("fold_rate", ts.fold_rate);
  w.field("treewalk_fallback_count",
          static_cast<std::int64_t>(ts.treewalk_fallbacks));
  w.key("piece_eval");
  w.begin_object();
  w.key("fold");
  w.begin_object();
  w.field("count", static_cast<std::int64_t>(ts.folds));
  w.field("self_seconds", ts.fold_seconds);
  w.end_object();
  w.key("fallback");
  w.begin_object();
  w.field("count", static_cast<std::int64_t>(ts.treewalk_fallbacks));
  w.field("self_seconds", ts.fallback_seconds);
  w.end_object();
  w.end_object();
  w.field("telemetry_overhead_ratio", ts.overhead_ratio);
  // Warm `ideobf serve` round trip vs a fresh CLI process per script: the
  // resident daemon's amortization of spawn + warm-up costs.
  w.field("server_ms_per_script", ss.server_ms_per_script);
  w.field("server_traced_ms_per_script", ss.traced_ms_per_script);
  w.field("serve_trace_overhead", ss.trace_overhead_ratio);
  w.field("oneshot_cli_ms_per_script", ss.oneshot_cli_ms_per_script);
  w.field("server_amortization_ratio", ss.amortization_ratio);
  // Supervised fleet: zipf-skewed replay through the shared response cache,
  // plus the crash-drill accounting (worker-abort faults on a marked
  // script; every request must still end in a terminal reply).
  w.key("fleet");
  w.begin_object();
  w.field("available", fs.available);
  w.field("workers", static_cast<std::int64_t>(2));
  w.field("replay_requests", static_cast<std::int64_t>(fs.replay_requests));
  w.field("unique_scripts", static_cast<std::int64_t>(fs.unique_scripts));
  w.field("cache_hit_rate", fs.cache_hit_rate);
  w.field("hit_ms_per_script", fs.hit_ms_per_script);
  w.field("miss_ms_per_script", fs.miss_ms_per_script);
  w.key("crash_drill");
  w.begin_object();
  w.field("requests", static_cast<std::int64_t>(fs.crash_requests));
  w.field("terminal_replies", static_cast<std::int64_t>(fs.crash_terminal));
  w.field("ok", static_cast<std::int64_t>(fs.crash_ok));
  w.field("worker_crash", static_cast<std::int64_t>(fs.crash_worker_crash));
  w.field("quarantined", static_cast<std::int64_t>(fs.crash_quarantined));
  w.end_object();
  w.end_object();
  // Connection storm through the epoll I/O core: churn rate, concurrent
  // round-trip percentiles, and the slow-consumer reap drill.
  w.key("fleet_storm");
  w.begin_object();
  w.field("available", sts.available);
  w.field("churn_connections",
          static_cast<std::int64_t>(sts.churn_connections));
  w.field("churn_connections_per_second",
          sts.churn_connections_per_second);
  w.field("churn_ms_per_connection", sts.churn_ms_per_connection);
  w.field("concurrent_clients",
          static_cast<std::int64_t>(sts.concurrent_clients));
  w.field("concurrent_served",
          static_cast<std::int64_t>(sts.concurrent_served));
  w.field("concurrent_failed",
          static_cast<std::int64_t>(sts.concurrent_failed));
  w.field("concurrent_p50_ms", sts.concurrent_p50_ms);
  w.field("concurrent_p99_ms", sts.concurrent_p99_ms);
  w.key("slow_consumer_drill");
  w.begin_object();
  w.field("slow_clients", static_cast<std::int64_t>(sts.drill_slow));
  w.field("innocent_clients",
          static_cast<std::int64_t>(sts.drill_innocent));
  w.field("innocent_served",
          static_cast<std::int64_t>(sts.drill_innocent_served));
  w.field("reaped", static_cast<std::int64_t>(sts.drill_reaped));
  w.end_object();
  w.end_object();
  // JavaScript front-end over the checked-in data/js mini-corpus: every
  // sample must reproduce its golden exactly.
  w.key("js_corpus");
  w.begin_object();
  w.field("available", js.available);
  w.field("samples", static_cast<std::int64_t>(js.samples));
  w.field("round_tripped", static_cast<std::int64_t>(js.round_tripped));
  w.field("ms_per_script", js.ms_per_script);
  w.end_object();
  w.field("telemetry_spans_opened",
          static_cast<std::int64_t>(ts.spans_opened));
  w.field("telemetry_spans_closed",
          static_cast<std::int64_t>(ts.spans_closed));
  // Per-phase breakdown over the telemetry-enabled runs (cold prime +
  // warm batch — both, so lex/parse cache-miss costs show up). `fraction`
  // is the phase's self time over the accounted total, so the values sum
  // to ~1.
  w.key("phase_breakdown");
  w.begin_object();
  for (std::size_t i = 0; i < tel::kPhaseCount; ++i) {
    const tel::Phase phase = static_cast<tel::Phase>(i);
    const tel::PhaseStat& stat = ts.profile.stat(phase);
    w.key(tel::phase_name(phase));
    w.begin_object();
    w.field("count", static_cast<std::int64_t>(stat.count));
    w.field("self_seconds", ts.profile.self_seconds(phase));
    w.field("total_seconds", ts.profile.total_seconds(phase));
    w.field("fraction", ts.accounted_seconds > 0.0
                            ? ts.profile.self_seconds(phase) /
                                  ts.accounted_seconds
                            : 0.0);
    w.end_object();
  }
  w.end_object();
  w.begin_array("rows");
  for (const Row& r : rows) {
    w.begin_object();
    w.field("config", r.config);
    w.field("threads", static_cast<std::int64_t>(r.threads));
    w.field("warm", r.warm);
    w.field("seconds", r.seconds);
    w.field("ms_per_script", r.ms_per_script);
    w.field("scripts_per_second", r.scripts_per_second);
    w.field("speedup_vs_1t", r.speedup_vs_1t);
    w.field("parses", static_cast<std::int64_t>(r.parses));
    w.field("parses_per_script", r.parses_per_script);
    w.field("cache_hits", static_cast<std::int64_t>(r.cache_hits));
    w.field("cache_misses", static_cast<std::int64_t>(r.cache_misses));
    w.field("failed", r.failed);
    w.field("failures", r.failures);
    w.field("degraded", r.degraded);
    w.field("max_degradation_rung", r.max_rung);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int run(std::size_t corpus_size, unsigned max_threads, bool write_json,
        bool smoke) {
  // Synthetic corpus: same seeded generator as bench_fig6_time, scaled to
  // hundreds of scripts so batch rows measure steady-state pool behavior
  // rather than startup.
  CorpusGenerator gen(100);
  std::vector<std::string> scripts;
  scripts.reserve(corpus_size);
  for (const Sample& s : gen.generate_batch(corpus_size)) {
    scripts.push_back(s.obfuscated);
  }

  std::vector<Row> rows;

  Options uncached_opts;
  uncached_opts.parse_cache = false;
  uncached_opts.recovery.memo = false;  // no parse table, no memo
  rows.push_back(run_serial(InvokeDeobfuscator(uncached_opts), scripts,
                            "cache_off", false));

  // Parses live for one run, so nothing warms across calls: one cached row.
  Options cached_opts;
  cached_opts.shared_parse_cache = std::make_shared<ps::ParseCache>();
  rows.push_back(run_serial(InvokeDeobfuscator(cached_opts), scripts,
                            "cache_cold", false));

  std::vector<unsigned> thread_counts;
  for (unsigned t = 1; t < max_threads; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(max_threads);

  double warm_1t_seconds = 0.0;
  for (unsigned threads : thread_counts) {
    const InvokeDeobfuscator batch_deobf;
    rows.push_back(run_batch(batch_deobf, scripts, threads, false));
    rows.back().config = "batch_cold";
    rows.push_back(run_batch(batch_deobf, scripts, threads, true));
    rows.back().config = "batch_warm";
    if (threads == 1) warm_1t_seconds = rows.back().seconds;
    if (warm_1t_seconds > 0.0) {
      rows.back().speedup_vs_1t = warm_1t_seconds / rows.back().seconds;
    }
  }
  double speedup_widest = 0.0;
  unsigned speedup_threads = thread_counts.back();
  for (const Row& r : rows) {
    if (r.config == "batch_warm" && r.threads == speedup_threads) {
      speedup_widest = r.speedup_vs_1t;
    }
  }

  // Governed batch: the execution governor armed with a generous per-item
  // deadline over the same (benign) corpus. Zero failures / zero degraded
  // items expected — this row tracks the governor's overhead and proves the
  // ladder stays on rung 0 for well-behaved input.
  {
    const InvokeDeobfuscator governed_deobf;
    Options::Limits governor;
    governor.deadline_seconds = 10.0;
    rows.push_back(run_batch(governed_deobf, scripts, 4, false, governor));
    rows.back().config = "batch_governed";
    std::printf(
        "governed batch: failed=%lld failures=%lld degraded=%lld max_rung=%lld\n",
        static_cast<long long>(rows.back().failed),
        static_cast<long long>(rows.back().failures),
        static_cast<long long>(rows.back().degraded),
        static_cast<long long>(rows.back().max_rung));
  }

  // Telemetry section: one enabled batch (phase breakdown + registry
  // rates) bracketed by disabled warm-serial samples (the overhead ratio).
  const TelemetrySummary ts =
      run_telemetry_section(InvokeDeobfuscator(), scripts, rows, 4);

  // Server section: warm `ideobf serve` round trips vs one-shot CLI spawns.
  const ServerSummary ss = run_server_section(scripts, rows);

  // Fleet section: supervised 2-worker fleet, zipf-skewed replay through
  // the shared response cache, and a worker-abort crash drill.
  const FleetSummary fs = run_fleet_section(scripts, rows);

  // Storm section: connection churn, ~1k concurrent clients (p50/p99), and
  // the slow-consumer reap drill against the epoll I/O core.
  const StormSummary sts = run_storm_section(smoke, rows);

  // JS front-end section: the data/js mini-corpus round-tripped against
  // its checked-in goldens through the public Engine API.
  const JsCorpusSummary js = run_js_corpus_section(rows);

  const double reduction =
      rows[0].parses > 0 && rows[1].parses > 0
          ? static_cast<double>(rows[0].parses) / rows[1].parses
          : 0.0;

  std::printf("\nPipeline throughput over %zu corpus scripts (%u hw threads)\n",
              scripts.size(), std::thread::hardware_concurrency());
  print_rows(rows);
  std::printf("\nparse reduction (cache_off / cache_cold): %.2fx\n", reduction);
  std::printf("warm batch speedup %ut vs 1t: %.2fx\n", speedup_threads,
              speedup_widest);

  std::printf(
      "\ntelemetry: spans %llu/%llu opened/closed, parse-cache hit rate "
      "%.3f (%llu/%llu), recovery-memo hit rate %.3f (%llu/%llu), "
      "disabled-overhead ratio %.3f\n",
      static_cast<unsigned long long>(ts.spans_opened),
      static_cast<unsigned long long>(ts.spans_closed),
      ts.parse_cache_hit_rate,
      static_cast<unsigned long long>(ts.cache_hits),
      static_cast<unsigned long long>(ts.cache_lookups),
      ts.recovery_memo_hit_rate,
      static_cast<unsigned long long>(ts.memo_hits),
      static_cast<unsigned long long>(ts.memo_lookups), ts.overhead_ratio);
  std::printf("per-slot memo hit rate:");
  for (std::size_t s = 0; s < ts.per_slot_hit_rates.size(); ++s) {
    std::printf(" slot%zu=%.3f", s, ts.per_slot_hit_rates[s]);
  }
  std::printf("\n");
  std::printf(
      "piece-eval ladder (cold run): %llu execs = %llu memo hits + %llu "
      "folds + %llu tree-walk (fold rate %.3f of misses)\n",
      static_cast<unsigned long long>(ts.piece_execs),
      static_cast<unsigned long long>(ts.piece_memo_hits),
      static_cast<unsigned long long>(ts.folds),
      static_cast<unsigned long long>(ts.treewalk_fallbacks), ts.fold_rate);
  std::printf("piece-eval split: fold %.3f ms, fallback %.3f ms\n",
              ts.fold_seconds * 1000.0, ts.fallback_seconds * 1000.0);
  std::printf("phase breakdown (self-time over enabled batch, wall %.3fs):\n",
              ts.batch_wall_seconds);
  for (std::size_t i = 0; i < tel::kPhaseCount; ++i) {
    const tel::Phase phase = static_cast<tel::Phase>(i);
    const tel::PhaseStat& stat = ts.profile.stat(phase);
    if (stat.count == 0) continue;
    std::printf("  %-17s %8llu spans  self %9.3f ms  total %9.3f ms\n",
                std::string(tel::phase_name(phase)).c_str(),
                static_cast<unsigned long long>(stat.count),
                ts.profile.self_seconds(phase) * 1000.0,
                ts.profile.total_seconds(phase) * 1000.0);
  }
  std::printf("  accounted %.3f ms vs pipeline total %.3f ms\n",
              ts.accounted_seconds * 1000.0, ts.pipeline_seconds * 1000.0);

  if (ss.cli_available) {
    std::printf(
        "\nserver amortization: warm serve %.3f ms/script vs one-shot CLI "
        "%.3f ms/script (sample %zu) = %.2fx\n",
        ss.server_ms_per_script, ss.oneshot_cli_ms_per_script, ss.cli_sample,
        ss.amortization_ratio);
  } else {
    std::printf("\nserver amortization: warm serve %.3f ms/script "
                "(one-shot CLI binary not found; ratio skipped)\n",
                ss.server_ms_per_script);
  }
  std::printf(
      "serve trace overhead: traced %.3f ms/script vs untraced %.3f "
      "ms/script wall, %.3fx process CPU\n",
      ss.traced_ms_per_script, ss.server_ms_per_script,
      ss.trace_overhead_ratio);

  if (fs.available) {
    std::printf(
        "fleet replay: %zu requests over %zu unique scripts, shared-cache "
        "hit rate %.3f, hit %.3f ms vs miss %.3f ms per script\n",
        fs.replay_requests, fs.unique_scripts, fs.cache_hit_rate,
        fs.hit_ms_per_script, fs.miss_ms_per_script);
    std::printf(
        "fleet crash drill: %zu requests -> %zu terminal (%zu ok, %zu "
        "worker-crash, %zu quarantined)\n",
        fs.crash_requests, fs.crash_terminal, fs.crash_ok,
        fs.crash_worker_crash, fs.crash_quarantined);
  } else {
    std::printf("fleet section: skipped (CLI binary not built)\n");
  }

  print_storm(sts);

  if (js.available) {
    std::printf(
        "js corpus: %zu/%zu samples round-tripped to their goldens, "
        "%.3f ms/script warm\n",
        js.round_tripped, js.samples, js.ms_per_script);
  } else {
    std::printf("js corpus: skipped (data/js has no sample pairs)\n");
  }

  if (write_json) {
    const std::string path = std::string(IDEOBF_SOURCE_DIR) + "/BENCH_pipeline.json";
    std::ofstream out(path, std::ios::binary);
    out << rows_to_json(rows, scripts.size(), reduction, speedup_widest,
                        speedup_threads, ts, ss, fs, sts, js)
        << "\n";
    std::printf("wrote %s\n", path.c_str());
  }

  int rc = 0;

  // Acceptance gate 0 (count-based, runs sanitized too): the JS front-end
  // must exist and reproduce every data/js golden byte-for-byte.
  if (!js.available) {
    std::fprintf(stderr, "FAIL: data/js mini-corpus missing\n");
    rc = 1;
  } else if (js.round_tripped != js.samples) {
    std::fprintf(stderr, "FAIL: js corpus round-trip %zu/%zu\n",
                 js.round_tripped, js.samples);
    rc = 1;
  }

  // Acceptance gate 1: the parse table must at least halve the parses per
  // deobfuscation relative to re-parsing at every step.
  if (reduction < 2.0) {
    std::fprintf(stderr, "FAIL: parse reduction %.2fx < 2x\n", reduction);
    rc = 1;
  }

  // Acceptance gate 2: failure-counter consistency. The corpus is benign
  // and the governed deadline generous, so every batch row must report
  // failed == failures == degraded == 0 (failures() counting benign
  // per-piece hiccups was a real reporting bug: rows once said
  // "failures: 8" next to "failed: 0").
  for (const Row& r : rows) {
    if (r.config.rfind("batch", 0) != 0) continue;
    if (r.failed != 0 || r.failures != 0 || r.degraded != 0) {
      std::fprintf(stderr,
                   "FAIL: %s@%ut inconsistent/benign-failure counters: "
                   "failed=%lld failures=%lld degraded=%lld\n",
                   r.config.c_str(), r.threads,
                   static_cast<long long>(r.failed),
                   static_cast<long long>(r.failures),
                   static_cast<long long>(r.degraded));
      rc = 1;
    }
  }

  // Acceptance gate 3 (smoke only): pool overhead. A warm 4-thread batch
  // must not run more than 10% slower than 1 thread, even on a single-core
  // runner — the persistent pool's whole point is that extra slots cost
  // nearly nothing when they cannot help. Best-of-3 to shed noise.
  if (smoke && IDEOBF_SANITIZED) {
    std::printf("thread-scaling gate: skipped under sanitizers\n");
  } else if (smoke) {
    const InvokeDeobfuscator scale_deobf;
    (void)run_batch(scale_deobf, scripts, 4, false);  // prime the pool
    const double s1 = best_warm_batch_seconds(scale_deobf, scripts, 1, 3);
    const double s4 = best_warm_batch_seconds(scale_deobf, scripts, 4, 3);
    std::printf("thread-scaling gate: warm 1t %.3fs vs 4t %.3fs (%.2fx)\n",
                s1, s4, s1 / s4);
    if (s4 > s1 * 1.10) {
      std::fprintf(stderr,
                   "FAIL: warm 4-thread batch %.3fs is more than 10%% slower "
                   "than 1-thread %.3fs\n",
                   s4, s1);
      rc = 1;
    }
  }

  // Acceptance gate 4: span balance. Every PhaseSpan opened during the
  // telemetry-enabled batch must have closed — an imbalance means a span
  // leaked across an exception edge or a worker died mid-item. Pure
  // counting, so it runs under sanitizers too.
  if (ts.spans_opened == 0 || ts.spans_opened != ts.spans_closed) {
    std::fprintf(stderr, "FAIL: span imbalance: opened=%llu closed=%llu\n",
                 static_cast<unsigned long long>(ts.spans_opened),
                 static_cast<unsigned long long>(ts.spans_closed));
    rc = 1;
  }
  // Gate 4b: the phase breakdown must contain lex and parse spans. They
  // only open on parse-cache misses, so they can only come from the cold
  // window — before that window was merged in, the JSON reported parsing
  // as permanently free (the reporting bug this gate pins down).
  if (ts.profile.stat(tel::Phase::Lex).count == 0 ||
      ts.profile.stat(tel::Phase::Parse).count == 0) {
    std::fprintf(stderr,
                 "FAIL: phase breakdown has no lex/parse spans (lex=%llu "
                 "parse=%llu) — cold-window profile lost\n",
                 static_cast<unsigned long long>(
                     ts.profile.stat(tel::Phase::Lex).count),
                 static_cast<unsigned long long>(
                     ts.profile.stat(tel::Phase::Parse).count));
    rc = 1;
  }

  // Acceptance gate 5: registry reconciliation. Parse-cache counters must
  // satisfy lookups == hits + misses + bypasses exactly (the miss counter
  // fires before the insert-race path precisely so this identity holds),
  // and the per-phase self times must partition the Pipeline span total —
  // within 5% for clock granularity. Count/identity-based, so it also runs
  // under sanitizers.
  if (ts.cache_lookups !=
      ts.cache_hits + ts.cache_misses + ts.cache_bypasses) {
    std::fprintf(stderr,
                 "FAIL: parse-cache counters do not reconcile: lookups=%llu "
                 "hits=%llu misses=%llu bypasses=%llu\n",
                 static_cast<unsigned long long>(ts.cache_lookups),
                 static_cast<unsigned long long>(ts.cache_hits),
                 static_cast<unsigned long long>(ts.cache_misses),
                 static_cast<unsigned long long>(ts.cache_bypasses));
    rc = 1;
  }
  if (ts.pipeline_seconds > 0.0) {
    const double drift =
        std::abs(ts.accounted_seconds - ts.pipeline_seconds) /
        ts.pipeline_seconds;
    if (drift > 0.05) {
      std::fprintf(stderr,
                   "FAIL: phase self-times do not partition the pipeline "
                   "total: accounted %.6fs vs pipeline %.6fs (%.1f%% drift)\n",
                   ts.accounted_seconds, ts.pipeline_seconds, drift * 100.0);
      rc = 1;
    }
  } else {
    std::fprintf(stderr, "FAIL: telemetry batch recorded no pipeline spans\n");
    rc = 1;
  }

  // Acceptance gate 6 (smoke, non-sanitized): disabled telemetry must cost
  // ~nothing. Warm serial thread CPU after an enable/disable cycle must be
  // within 10% of the pass just before it, in the median over interleaved
  // pairs (one relaxed atomic load per span site is below measurement
  // noise; anything above it is a residue bug — e.g. a recorder left
  // attached or the flag check hoisted wrong).
  if (smoke && IDEOBF_SANITIZED) {
    std::printf("telemetry-overhead gate: skipped under sanitizers\n");
  } else if (smoke) {
    std::printf("telemetry-overhead gate: off-after/off-before = %.3f (thread CPU, median of pairs)\n",
                ts.overhead_ratio);
    if (ts.overhead_ratio > 1.10) {
      std::fprintf(stderr,
                   "FAIL: disabled telemetry costs %.1f%% after an "
                   "enable/disable cycle (ratio %.3f > 1.10)\n",
                   (ts.overhead_ratio - 1.0) * 100.0, ts.overhead_ratio);
      rc = 1;
    }
  }

  // Acceptance gate 7 (non-sanitized, CLI present): the resident daemon
  // must amortize at least 2x over spawning the CLI per script — otherwise
  // `ideobf serve` has no reason to exist. Wall-clock-based, so skipped
  // under sanitizers.
  if (IDEOBF_SANITIZED) {
    std::printf("server-amortization gate: skipped under sanitizers\n");
  } else if (!ss.cli_available) {
    std::printf("server-amortization gate: skipped (CLI binary not built)\n");
  } else {
    std::printf("server-amortization gate: %.2fx (>= 2.0 required)\n",
                ss.amortization_ratio);
    if (ss.amortization_ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: warm server only %.2fx faster per script than "
                   "one-shot CLI (< 2x)\n",
                   ss.amortization_ratio);
      rc = 1;
    }
  }
  // Acceptance gate 8: piece-evaluation ladder accounting. Every piece
  // execution of the cold telemetry window must be either a memo hit or
  // resolved by exactly one ladder stage — a leak here means a stage
  // double-counts or an execution path bypasses the ladder. The corpus
  // always contains pure pieces (string concatenations of literals), so the
  // fold stage must have fired. Count/identity-based, so it runs under
  // sanitizers too.
  if (ts.piece_execs == 0 ||
      ts.piece_execs !=
          ts.piece_memo_hits + ts.folds + ts.treewalk_fallbacks) {
    std::fprintf(stderr,
                 "FAIL: piece-eval ladder does not account for every "
                 "execution: execs=%llu hits=%llu folds=%llu tree-walk=%llu\n",
                 static_cast<unsigned long long>(ts.piece_execs),
                 static_cast<unsigned long long>(ts.piece_memo_hits),
                 static_cast<unsigned long long>(ts.folds),
                 static_cast<unsigned long long>(ts.treewalk_fallbacks));
    rc = 1;
  }
  if (ts.folds == 0) {
    std::fprintf(stderr,
                 "FAIL: fold stage never fired over a corpus with pure "
                 "constant pieces\n");
    rc = 1;
  }

  // Acceptance gate 11 (fleet, count-based): the crash drill must end every
  // request in a terminal reply — a hang or a dropped request is exactly
  // the failure mode crash containment exists to prevent — and the
  // worker-abort faults must actually have fired (worker-crash or
  // quarantined replies observed, next to surviving innocent traffic).
  if (fs.available && fs.crash_requests > 0) {
    if (fs.crash_terminal != fs.crash_requests ||
        fs.crash_ok == 0 ||
        fs.crash_worker_crash + fs.crash_quarantined == 0) {
      std::fprintf(stderr,
                   "FAIL: crash drill not contained: %zu/%zu terminal, "
                   "ok=%zu worker-crash=%zu quarantined=%zu\n",
                   fs.crash_terminal, fs.crash_requests, fs.crash_ok,
                   fs.crash_worker_crash, fs.crash_quarantined);
      rc = 1;
    }
  }

  // Acceptance gate 12 (fleet, count-based): the zipf replay must hit the
  // shared cache on at least half its requests — a campaign-skewed stream
  // that misses more than that means the cache is not actually shared (or
  // not actually content-addressed).
  if (fs.available) {
    std::printf("fleet-cache gate: hit rate %.3f (>= 0.50 required)\n",
                fs.cache_hit_rate);
    if (fs.cache_hit_rate < 0.50) {
      std::fprintf(stderr, "FAIL: fleet shared-cache hit rate %.3f < 0.50\n",
                   fs.cache_hit_rate);
      rc = 1;
    }
  }

  // Acceptance gate 13 (fleet, non-sanitized): a shared-cache hit must be
  // cheaper than the warm single-process pipeline round trip — otherwise
  // the cache adds risk without buying latency. Wall-clock-based.
  if (IDEOBF_SANITIZED) {
    std::printf("fleet-hit-latency gate: skipped under sanitizers\n");
  } else if (fs.available && fs.hit_ms_per_script > 0.0) {
    std::printf(
        "fleet-hit-latency gate: hit %.3f ms vs warm single-process "
        "%.3f ms per script\n",
        fs.hit_ms_per_script, ss.server_ms_per_script);
    if (fs.hit_ms_per_script >= ss.server_ms_per_script) {
      std::fprintf(stderr,
                   "FAIL: shared-cache hit path %.3f ms/script is not "
                   "cheaper than the warm pipeline %.3f ms/script\n",
                   fs.hit_ms_per_script, ss.server_ms_per_script);
      rc = 1;
    }
  }

  // Acceptance gate 16 (non-sanitized): the per-request observability plane
  // must be close to free. A traced serve pass ("server_trace": true on
  // every request — the span breakdown in every reply) may cost at most
  // 10% more process CPU than the untraced pass on the same warm daemon.
  // Timing-based, so skipped under sanitizers.
  if (IDEOBF_SANITIZED) {
    std::printf("serve-trace-overhead gate: skipped under sanitizers\n");
  } else if (ss.trace_overhead_ratio > 0.0) {
    std::printf("serve-trace-overhead gate: traced/untraced = %.3fx CPU\n",
                ss.trace_overhead_ratio);
    if (ss.trace_overhead_ratio > kServeTraceOverheadBudget) {
      std::fprintf(stderr,
                   "FAIL: traced serve pass costs %.3fx the untraced pass's "
                   "process CPU (budget %.2fx)\n",
                   ss.trace_overhead_ratio, kServeTraceOverheadBudget);
      rc = 1;
    }
  }

  // Acceptance gate 14 (non-sanitized, wide box only): on a machine with
  // at least 8 hardware threads, the warm batch must scale at least 3x
  // from 1 thread to the widest measured count. Narrow runners cannot
  // prove scaling by physics, so they skip rather than vacuously pass.
  if (IDEOBF_SANITIZED) {
    std::printf("multi-core-scaling gate: skipped under sanitizers\n");
  } else if (std::thread::hardware_concurrency() < 8 || speedup_threads < 8) {
    std::printf(
        "multi-core-scaling gate: skipped (hardware_concurrency=%u, "
        "measured at %ut; needs >= 8 of both)\n",
        std::thread::hardware_concurrency(), speedup_threads);
  } else {
    std::printf("multi-core-scaling gate: %.2fx at %ut (>= 3.0 required)\n",
                speedup_widest, speedup_threads);
    if (speedup_widest < 3.0) {
      std::fprintf(stderr,
                   "FAIL: warm batch speedup %.2fx at %u threads < 3x on "
                   "a %u-thread machine\n",
                   speedup_widest, speedup_threads,
                   std::thread::hardware_concurrency());
      rc = 1;
    }
  }

  // Acceptance gate 15: storm gates (count-based — every concurrent storm
  // client answered, innocents served through the drill, slow consumers
  // actually reaped).
  if (storm_gates(sts) != 0) rc = 1;

  return rc;
}

/// `--storm-only`: just the connection-storm section and its count-based
/// gates — the fast ctest registration that keeps the epoll I/O core's
/// storm behavior (and the slow-consumer reaps) from bit-rotting without
/// paying for the full corpus sweep.
int run_storm_only(bool smoke) {
  std::vector<Row> rows;
  const StormSummary sts = run_storm_section(smoke, rows);
  print_rows(rows);
  print_storm(sts);
  return storm_gates(sts);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  bool storm_only = false;
  std::size_t scripts = 0;
  unsigned threads = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--storm-only") == 0) {
      storm_only = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--scripts") == 0 && i + 1 < argc) {
      scripts = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_pipeline [--smoke] [--json] [--storm-only] "
                   "[--threads N] [--scripts M]\n");
      return 2;
    }
  }
  if (storm_only) return run_storm_only(smoke);
  if (scripts == 0) scripts = smoke ? 64 : 300;
  if (threads == 0) threads = 1;
  return run(scripts, threads, json, smoke);
}
