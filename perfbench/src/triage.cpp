// triage_cold: offline triage of never-seen scripts (the paper's Fig 6
// setting). A fresh seeded corpus plus the checked-in goldens goes through
// a fresh Engine::handle_batch per round, so every round is cold: lexing,
// parsing, piece evaluation, memo inserts and multilayer do the work, and
// the working set outgrows the parse cache and the recovery memo.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "ideobf/api.h"
#include "replay.h"
#include "server/protocol.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

/// Generated scripts per round (plus the 30 goldens). Large enough that
/// the corpus mean cost, which heavy-tailed multilayer scripts dominate,
/// varies little from seed to seed.
constexpr std::size_t kCorpusScripts = 6000;
/// Disjoint warm-up scripts that pay lazy set-up (and the allocator's
/// growth to a round's working set) untimed.
constexpr std::size_t kWarmupScripts = 1500;
/// Set-up probes per run; setup_s is their median.
constexpr int kSetupProbes = 15;

unsigned pool_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One cold start: spawn this binary as a set-up probe and wait for its
/// first reply byte.
double probe_setup_once() {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::string exe = "/proc/self/exe";
  std::string flag = "--probe-setup";
  char* argv[] = {exe.data(), flag.data(), nullptr};
  pid_t pid = -1;
  const double t0 = now_seconds();
  const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv,
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot spawn the set-up probe");
  }
  char byte = 0;
  const ssize_t got = ::read(fds[0], &byte, 1);
  const double seconds = now_seconds() - t0;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != 1 || byte != '1' || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed");
  }
  return seconds;
}

std::vector<ideobf::Request> requests_of(const std::vector<Item>& items) {
  std::vector<ideobf::Request> requests(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    requests[i].source = items[i].source;
    requests[i].language = items[i].language;
  }
  return requests;
}

/// CPU seconds (user + system) of this process, every thread included.
double process_cpu_seconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

bool served(const ideobf::Response& r) {
  return r.ok && r.report.degradation_rung == 0;
}

}  // namespace

int probe_setup_main() {
  // Engine construction + worker-pool spin-up to the first reply.
  ideobf::Options options;
  options.threads = pool_threads();
  const ideobf::Engine engine(options);
  std::vector<ideobf::Request> batch(options.threads);
  for (ideobf::Request& r : batch) r.source = "Write-Host ('set'+'up')";
  const std::vector<ideobf::Response> out = engine.handle_batch(batch);
  const bool ok = !out.empty() && out.front().ok;
  const char byte = ok ? '1' : '0';
  return ::write(STDOUT_FILENO, &byte, 1) == 1 && ok ? 0 : 1;
}

void run_triage(const Args& args, RunResult& result) {
  const unsigned threads = pool_threads();
  std::vector<Item> items = load_goldens();
  {
    std::vector<Item> generated = generate_items(args.seed, kCorpusScripts);
    items.insert(items.end(), std::make_move_iterator(generated.begin()),
                 std::make_move_iterator(generated.end()));
  }
  const std::vector<ideobf::Request> requests = requests_of(items);
  double bytes = 0;
  for (const Item& item : items) bytes += static_cast<double>(item.source.size());
  result.note("corpus", std::to_string(items.size()) + " scripts (" +
                            std::to_string(kCorpusScripts) +
                            " generated + 30 goldens), mean " +
                            std::to_string(bytes / items.size()) +
                            " bytes, " + std::to_string(threads) +
                            " pool threads");

  if (args.trace) {
    const std::vector<double> handle_ms = engine_layer_metrics(
        items, threads, args.seconds, spans_path(args), result);
    // Per-script engine time within the cold batch.
    result.add("latency_p50_ms", percentile(handle_ms, 50.0), "ms");
    result.add("latency_p99_ms", percentile(handle_ms, 99.0), "ms");
    // The wire codec on this workload's payloads; the server layers are
    // bypassed here.
    const ideobf::Engine engine{ideobf::Options{}};
    std::vector<ideobf::Request> sample(
        requests.begin(),
        requests.begin() + std::min<std::ptrdiff_t>(
                               static_cast<std::ptrdiff_t>(requests.size()),
                               300));
    std::vector<std::string> lines;
    Quality quality;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const ideobf::Response r = engine.handle(sample[i]);
      lines.push_back(ideobf::server::render_response_line(r));
      if (items[i].golden) quality.check(items[i], r.result);
      result.attempted++;
      if (!served(r)) result.failed++;
    }
    result.add("server.codec_us", codec_us(sample, lines), "us");
    add_bypassed_server_metrics(result);
    quality.report(result, false);
    return;
  }

  // Set-up: fresh processes, so every probe pays pool spin-up.
  {
    std::vector<double> probes;
    for (int i = 0; i < kSetupProbes; ++i) probes.push_back(probe_setup_once());
    result.add("setup_s", median(probes), "s");
    result.note("setup_s.base", std::to_string(kSetupProbes) +
                                    " cold-process probes, median");
  }

  // Warm-up on a disjoint corpus from another seed pays lazy set-up
  // (interners, tables, the process-wide pool) untimed.
  {
    ideobf::Options options;
    options.threads = threads;
    const ideobf::Engine engine(options);
    (void)engine.handle_batch(
        requests_of(generate_items(args.seed ^ 0x9e3779b97f4a7c15ULL,
                                   kWarmupScripts)));
  }

  // Timed rounds: a fresh engine each, so each round is cold.
  std::vector<double> rates;
  std::vector<double> cpu_ms;
  std::vector<ideobf::Response> first;
  const double end = now_seconds() + args.seconds;
  while (rates.size() < 3 || now_seconds() < end) {
    ideobf::Options options;
    options.threads = threads;
    const ideobf::Engine engine(options);
    const double cpu0 = process_cpu_seconds();
    const double t0 = now_seconds();
    std::vector<ideobf::Response> out = engine.handle_batch(requests);
    const double wall = now_seconds() - t0;
    rates.push_back(static_cast<double>(out.size()) / wall);
    cpu_ms.push_back((process_cpu_seconds() - cpu0) * 1000.0 /
                     static_cast<double>(out.size()));
    for (const ideobf::Response& r : out) {
      result.attempted++;
      if (!served(r)) result.failed++;
    }
    if (first.empty()) first = std::move(out);
  }
  result.add("scripts_per_s", median(rates), "1/s");
  std::string per_round;
  for (const double r : rates) per_round += " " + std::to_string(r);
  result.note("scripts_per_s.base",
              std::to_string(rates.size()) + " cold rounds, median of" +
                  per_round);
  result.add("cpu_ms_per_script", median(cpu_ms), "ms");
  result.note("cpu_ms_per_script.base",
              "process CPU per script of each round, median over rounds");
  add_served_share(result);
  result.add("peak_rss_mb", own_peak_rss_mb(), "MiB");

  // Output checks, after the timed window, on the first round's outputs.
  Quality quality;
  for (std::size_t i = 0; i < items.size(); ++i) {
    quality.check(items[i], first[i].result);
  }
  quality.report(result);
}

}  // namespace perfbench
