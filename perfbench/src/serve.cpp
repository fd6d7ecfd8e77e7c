// serve_campaign and serve_fresh: an open-loop request generator against a
// supervised `ideobf serve --fleet 2`.
//
// serve_campaign draws requests Zipf(1.1) over a seeded pool that fits the
// fleet's shared response cache, so most requests are cache hits and the
// wire, codec, admission, event loop and cache read path dominate.
// serve_fresh sends only never-seen scripts, so the same layers are used
// for cache writes and every request runs the engine.
//
// Each request is timed from its *scheduled* send time to the arrival of
// its full reply line, so a stall also charges the requests queued behind
// it; how late the generator ran is reported as bench.send_lag_p99_ms, and
// a run whose generator fell behind is refused rather than reported.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "corpus/corpus.h"
#include "ideobf/api.h"
#include "ideobf/client.h"
#include "replay.h"
#include "server/protocol.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// One workload's traffic shape. The nominal rate is the ladder's first
/// rung; latency_p50/p99 are reported at it. The nominal rung takes 60% of
/// the measured seconds (thousands of requests, so p99 has well over ten
/// samples beyond it) and the higher rungs share the rest.
struct Shape {
  /// Open-loop arrival rates, ascending; the first is the nominal rate.
  /// The ladder tops out below where this fleet saturates on a 4-core
  /// machine (README.md), so max_rate_rps is a steady capacity floor: a
  /// regression that makes a rung miss the limit drops it a whole rung.
  std::vector<double> ladder;
  /// p99 latency limit a rung must meet, in ms.
  double limit_ms;
};

/// The campaign pool: 8 concurrent campaigns of 32 scripts. The 256
/// scripts fit the fleet's shared cache (1024 slots, each key placed in a
/// 4-slot window) at a load factor of 1/4. At 512 scripts, placement
/// evictions turned a seed-dependent 0.2-2% of requests back into engine
/// runs, and the campaign's cost then hinged on which scripts collided;
/// serve_fresh covers the miss path.
constexpr std::size_t kCampaigns = 8;
constexpr std::size_t kCampaignScripts = 32;
constexpr double kZipfS = 1.1;
constexpr int kConnections = 4;
constexpr int kSetupSpawns = 15;
/// A rung whose generator sent its p99 request later than this share of
/// the latency limit did not deliver its load; at the nominal rate that
/// makes the run invalid.
constexpr double kMaxSendLagShare = 0.5;
/// Distinct scripts whose outputs are checked after the timed window.
constexpr std::size_t kQualityScripts = 1000;

Shape shape_of(bool fresh) {
  if (fresh) return {{300, 450, 600}, 250.0};
  return {{4000, 6000, 8000}, 25.0};
}

double rung_seconds(const Shape& shape, std::size_t rung, double seconds) {
  return rung == 0 ? 0.6 * seconds
                   : 0.4 * seconds / static_cast<double>(shape.ladder.size() - 1);
}

unsigned threads_per_worker() {
  // Daemon worker threads + the generator's two threads <= nproc.
  const unsigned n = std::max(4u, std::thread::hardware_concurrency());
  return std::max(1u, (n - 2) / 2);
}

// --- The daemon -------------------------------------------------------------

struct Fleet {
  pid_t pid = -1;
  std::string socket;
  std::string state_dir;
};

Fleet spawn_fleet(const Args& args, int index) {
  namespace fs = std::filesystem;
  Fleet f;
  const std::string dir = args.out_dir + "/serve/" + std::to_string(::getpid()) +
                          "-" + std::to_string(index);
  fs::remove_all(dir);
  fs::create_directories(dir);
  f.socket = dir + "/s.sock";
  f.state_dir = dir + "/state";
  std::vector<std::string> argv_s = {PERFBENCH_CLI_PATH,
                                     "serve",
                                     "--socket",
                                     f.socket,
                                     "--fleet",
                                     "2",
                                     "--threads",
                                     std::to_string(threads_per_worker()),
                                     "--state-dir",
                                     f.state_dir,
                                     "--max-queue",
                                     "4096"};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log = dir + "/daemon.log";
  const pid_t parent = ::getpid();
  f.pid = ::fork();
  if (f.pid < 0) throw std::runtime_error("cannot fork for ideobf serve");
  if (f.pid == 0) {
    // The daemon drains and exits if the benchmark dies first, so a killed
    // run never leaves a fleet behind.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(1);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return f;
}

std::vector<pid_t> children_of(pid_t pid) {
  std::vector<pid_t> out;
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& task :
       fs::directory_iterator("/proc/" + std::to_string(pid) + "/task", ec)) {
    std::ifstream in(task.path() / "children");
    pid_t child = 0;
    while (in >> child) out.push_back(child);
  }
  return out;
}

/// CPU seconds every thread of `pid` has run (schedstat, ns resolution).
double process_cpu_seconds(pid_t pid) {
  namespace fs = std::filesystem;
  double ns = 0.0;
  std::error_code ec;
  for (const auto& task :
       fs::directory_iterator("/proc/" + std::to_string(pid) + "/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    double run_ns = 0.0;
    if (in >> run_ns) ns += run_ns;
  }
  return ns * 1e-9;
}

/// CPU seconds of the supervisor and its workers.
double fleet_cpu_seconds(const Fleet& f) {
  double s = process_cpu_seconds(f.pid);
  for (const pid_t c : children_of(f.pid)) s += process_cpu_seconds(c);
  return s;
}

/// Supervisor + worker peak resident sets.
double fleet_peak_rss_mb(const Fleet& f) {
  double mb = peak_rss_mb(f.pid);
  for (const pid_t c : children_of(f.pid)) mb += peak_rss_mb(c);
  return mb;
}

/// SIGTERM (graceful drain), then SIGKILL the supervisor and its workers if
/// the drain overruns; always reaps the supervisor.
void stop_fleet(Fleet& f) {
  if (f.pid <= 0) return;
  const std::vector<pid_t> workers = children_of(f.pid);
  ::kill(f.pid, SIGTERM);
  const double give_up = now_seconds() + 20.0;
  while (now_seconds() < give_up) {
    if (::waitpid(f.pid, nullptr, WNOHANG) == f.pid) {
      f.pid = -1;
      break;
    }
    ::usleep(2000);
  }
  if (f.pid > 0) {
    for (const pid_t w : workers) ::kill(w, SIGKILL);
    ::kill(f.pid, SIGKILL);
    ::waitpid(f.pid, nullptr, 0);
    f.pid = -1;
  }
  // Workers are the supervisor's children; wait until each has gone.
  for (const pid_t w : workers) {
    for (int i = 0; i < 5000 && ::kill(w, 0) == 0; ++i) ::usleep(1000);
  }
  std::error_code ec;
  std::filesystem::remove_all(std::filesystem::path(f.socket).parent_path(),
                              ec);
}

// --- Raw NDJSON connections ---------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking read of one reply line (setup and probes only).
bool read_line(int fd, std::string& buf, std::string& line, double timeout_s) {
  const double end = now_seconds() + timeout_s;
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    pollfd p{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>((end - now_seconds()) * 1000);
    if (wait_ms <= 0 || ::poll(&p, 1, wait_ms) <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool round_trip(int fd, const std::string& request_line, std::string& reply,
                double timeout_s = 30.0) {
  std::string buf;
  return send_all(fd, request_line + "\n") &&
         read_line(fd, buf, reply, timeout_s);
}

/// Seconds from spawning the fleet until it is ready and has answered a
/// first deobfuscate request.
double wait_first_reply(const Fleet& f, const std::string& first_line) {
  const double t0 = now_seconds();
  const double give_up = t0 + 60.0;
  while (now_seconds() < give_up) {
    const int fd = connect_unix(f.socket);
    if (fd < 0) {
      ::usleep(1000);
      continue;
    }
    std::string reply;
    const bool ready =
        round_trip(fd, ideobf::server::render_op_line("ready"), reply, 5.0) &&
        reply.find("\"ready\":true") != std::string::npos;
    bool served = false;
    if (ready) {
      served = round_trip(fd, first_line, reply) &&
               reply.find("\"status\":\"ok\"") != std::string::npos;
    }
    ::close(fd);
    if (served) return now_seconds() - t0;
    if (!ready) ::usleep(1000);
  }
  throw std::runtime_error("ideobf serve did not become ready");
}

/// Fleet worker index from a reply's request id ("w<worker>-<seq>").
int worker_of(const std::string& reply_line) {
  ideobf::ServeReply reply;
  std::string error;
  if (!ideobf::server::parse_reply_line(reply_line, reply, error)) return -1;
  if (reply.request_id.size() < 2 || reply.request_id[0] != 'w') return -1;
  return std::atoi(reply.request_id.c_str() + 1);
}

/// kConnections connections spread evenly over the two workers. The kernel
/// hands each accept to whichever worker wins, and a worker still starting
/// wins none, so connections are opened (and surplus ones closed) until
/// each worker holds its share, for up to 30 seconds.
std::vector<int> balanced_connections(const Fleet& f, int& probes) {
  std::vector<int> fds;
  int per_worker[2] = {0, 0};
  const double give_up = now_seconds() + 30.0;
  while (static_cast<int>(fds.size()) < kConnections &&
         now_seconds() < give_up) {
    const int fd = connect_unix(f.socket);
    if (fd < 0) throw std::runtime_error("cannot connect to ideobf serve");
    ideobf::Request probe;
    probe.id = "probe";
    probe.source = "Write-Host 'probe " + std::to_string(probes++) + "'";
    std::string reply;
    const int w = round_trip(fd, ideobf::server::render_request_line(probe),
                             reply)
                      ? worker_of(reply)
                      : -1;
    if (w >= 0 && w < 2 && per_worker[w] < kConnections / 2) {
      per_worker[w]++;
      fds.push_back(fd);
    } else {
      ::close(fd);
      ::usleep(2000);
    }
  }
  if (static_cast<int>(fds.size()) < kConnections) {
    for (const int fd : fds) ::close(fd);
    throw std::runtime_error("could not spread connections over the fleet");
  }
  return fds;
}

// --- The open-loop generator --------------------------------------------------

struct Sent {
  double scheduled = 0.0;  ///< absolute due time
  double sent = 0.0;
  double received = 0.0;
  std::string reply;
};

struct Connection {
  int fd = -1;
  std::string buf;
};

/// The request index k of a reply line whose id is "r<k>" (render puts the
/// id first); npos when the line carries no such id. Replies are matched
/// by id, not by position: a shared-cache hit is answered at admission,
/// ahead of earlier requests of the same connection still in the engine.
std::size_t reply_index(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"id\":\"r";
  if (line.substr(0, kPrefix.size()) != kPrefix) return std::string::npos;
  std::size_t k = 0;
  std::size_t i = kPrefix.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') {
    return std::string::npos;
  }
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    k = k * 10 + static_cast<std::size_t>(line[i] - '0');
  }
  return i < line.size() && line[i] == '"' ? k : std::string::npos;
}

/// Sleeps until the steady-clock time `t` without spinning: a spinning
/// sender accrues CPU time and then loses every wakeup race against the
/// daemon's threads, which shows up as send lag.
void sleep_until(double t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t);
  ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Sends `lines[i]` at `start + offsets[i]` round-robin over `conns` and
/// collects the replies that arrive by `drain_s` after the last send; a
/// request left unanswered keeps received == 0.
void run_open_loop(std::vector<Connection>& conns,
                   const std::vector<std::string>& lines,
                   const std::vector<double>& offsets, double drain_s,
                   std::vector<Sent>& out) {
  const std::size_t n = lines.size();
  out.assign(n, Sent{});
  std::atomic<std::size_t> received{0};
  // Joined on every path: jthread requests a stop and joins on destruction.
  std::jthread receiver([&](const std::stop_token& stop) {
    std::vector<pollfd> pfds;
    for (const Connection& c : conns) pfds.push_back({c.fd, POLLIN, 0});
    char chunk[65536];
    while (!stop.stop_requested() && received.load() < n) {
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (std::size_t ci = 0; ci < conns.size(); ++ci) {
        if ((pfds[ci].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::recv(conns[ci].fd, chunk, sizeof(chunk), 0);
        if (got <= 0) {
          pfds[ci].fd = -1;  // transport error: its requests stay unanswered
          continue;
        }
        const double now = now_seconds();
        Connection& c = conns[ci];
        c.buf.append(chunk, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (std::size_t nl; (nl = c.buf.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          const std::size_t k =
              reply_index(std::string_view(c.buf).substr(start, nl - start));
          if (k >= n || out[k].received > 0) continue;
          out[k].received = now;
          out[k].reply.assign(c.buf, start, nl - start);
          received.fetch_add(1);
        }
        c.buf.erase(0, start);
      }
    }
  });

  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double t0 = now_seconds() + 0.01;
  for (std::size_t k = 0; k < n; ++k) {
    out[k].scheduled = t0 + offsets[k];
    sleep_until(out[k].scheduled);
    out[k].sent = now_seconds();
    send_all(conns[k % conns.size()].fd, lines[k]);
  }
  const double give_up = now_seconds() + drain_s;
  while (received.load() < n && now_seconds() < give_up) ::usleep(1000);
  receiver.request_stop();
  receiver.join();
}

// --- One rung -------------------------------------------------------------------

struct Rung {
  double rate = 0.0;
  std::size_t requests = 0;
  std::size_t ok = 0;            ///< status ok, rung 0
  std::size_t refused = 0;       ///< overloaded
  std::size_t cached = 0;        ///< answered from the shared cache
  std::size_t other_failed = 0;  ///< failed, degraded, invalid, unanswered
  std::vector<double> latency_ms;  ///< every request; a miss counts as +inf
  std::vector<double> send_lag_ms;
  double achieved_rps = 0.0;
  double send_lag_p99_ms = 0.0;
  double p99_ms = 0.0;
  double last_quarter_p50_ms = 0.0;
  double daemon_cpu_s = 0.0;  ///< supervisor + worker CPU over the rung
  bool passes = false;
};

struct Served {
  std::size_t item = 0;  ///< index into the workload's scripts
  ideobf::ServeReply reply;
  std::string line;
  double latency_ms = 0.0;
};

Rung run_rung(std::vector<Connection>& conns,
              const std::vector<std::size_t>& picks,
              const std::vector<std::string>& lines,
              const std::vector<double>& offsets, double duration,
              double limit_ms, double drain_s, std::vector<Served>* keep) {
  Rung r;
  r.requests = picks.size();
  std::vector<Sent> sent;
  run_open_loop(conns, lines, offsets, drain_s, sent);
  constexpr double kMiss = 1e12;
  std::vector<double> last_quarter;
  for (std::size_t k = 0; k < sent.size(); ++k) {
    const Sent& s = sent[k];
    r.send_lag_ms.push_back((s.sent - s.scheduled) * 1000.0);
    double latency = kMiss;
    ideobf::ServeReply reply;
    std::string error;
    if (s.received > 0 &&
        ideobf::server::parse_reply_line(s.reply, reply, error) &&
        reply.response.id == "r" + std::to_string(k)) {
      if (reply.status == "ok") {
        r.ok++;
        r.cached += reply.cached ? 1 : 0;
        latency = (s.received - s.scheduled) * 1000.0;
      } else if (reply.status == "overloaded") {
        r.refused++;
      } else {
        r.other_failed++;
      }
    } else {
      r.other_failed++;
    }
    r.latency_ms.push_back(latency);
    if (offsets[k] >= duration * 0.75) last_quarter.push_back(latency);
    if (keep != nullptr) {
      keep->push_back({picks[k], std::move(reply), s.reply, latency});
    }
  }
  r.rate = static_cast<double>(sent.size()) / duration;
  r.achieved_rps = static_cast<double>(r.ok) / duration;
  r.p99_ms = percentile(r.latency_ms, 99.0);
  r.last_quarter_p50_ms = percentile(last_quarter, 50.0);
  r.send_lag_p99_ms = percentile(r.send_lag_ms, 99.0);
  // Meets the limit, and no backlog built up: a queue still growing at the
  // end of the rung would push its last quarter's median past the limit.
  // A rung whose load the generator could not deliver on time (it shares
  // the machine with the daemon) does not pass either.
  r.passes = r.p99_ms <= limit_ms && r.last_quarter_p50_ms <= limit_ms &&
             r.send_lag_p99_ms <= kMaxSendLagShare * limit_ms;
  return r;
}

std::string request_line(const ideobf::Request& request) {
  return ideobf::server::render_request_line(request) + "\n";
}

/// The campaign pool: generated scripts whose reply fits one shared-cache
/// slot. A reply too large for its 16 KiB slot is never cached, so such a
/// script would turn every one of its requests into an engine run.
std::vector<Item> campaign_pool(std::uint64_t seed) {
  constexpr std::size_t kSlotBytes = 16u << 10;
  constexpr std::size_t kSlotHeaderMargin = 1024;
  const std::size_t want = kCampaigns * kCampaignScripts;
  ideobf::Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  const ideobf::Engine engine(options);
  ideobf::CorpusGenerator gen(seed);
  std::vector<Item> pool;
  while (pool.size() < want) {
    std::vector<Item> candidates = generate_items(gen, want - pool.size());
    std::vector<ideobf::Request> requests(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      requests[i].source = candidates[i].source;
    }
    const std::vector<ideobf::Response> replies = engine.handle_batch(requests);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (ideobf::server::render_response_line(replies[i]).size() +
              kSlotHeaderMargin <=
          kSlotBytes) {
        pool.push_back(std::move(candidates[i]));
      }
    }
  }
  return pool;
}

/// latency_p50/p99 with their base, for the human-readable report.
void add_latency_notes(RunResult& result, const std::vector<double>& ms,
                       double rate) {
  const std::size_t beyond = samples_beyond(ms.size(), 99.0);
  result.note("latency_p50_ms", std::to_string(percentile(ms, 50.0)) + " ms");
  result.note("latency_p99_ms",
              std::to_string(percentile(ms, 99.0)) + " ms (" +
                  std::to_string(ms.size()) + " requests at " +
                  std::to_string(static_cast<int>(rate)) + "/s from their "
                  "scheduled send time, " + std::to_string(beyond) +
                  " beyond p99; highest supported percentile p" +
                  std::to_string(tail_percentile(ms.size())) + ")");
  if (beyond < 10) result.fail("fewer than 10 samples beyond p99");
}

}  // namespace

void add_bypassed_server_metrics(RunResult& result) {
  result.add("server.shared_cache.hit_rate", 0.0, "ratio");
  result.add("server.hit_p50_ms", 0.0, "ms");
  result.add("server.miss_p50_ms", 0.0, "ms");
  result.add("server.residual_us", 0.0, "us");
  result.add("server.overloaded_replies", 0.0, "count");
  result.add("bench.send_lag_p99_ms", 0.0, "ms");
}

void run_serve(const Args& args, bool fresh, RunResult& result) {
  ::signal(SIGPIPE, SIG_IGN);
  const Shape shape = shape_of(fresh);
  const std::vector<Item> goldens = load_goldens();

  // --- Inputs: everything derives from the seed ----------------------------
  // Rung schedules are seeded per rung; the campaign stream is seeded Zipf
  // ranks over the pool; fresh requests consume the corpus in order.
  std::vector<std::vector<double>> schedules;
  std::size_t total = 0;
  const std::size_t rungs = args.trace ? 1 : shape.ladder.size();
  for (std::size_t i = 0; i < rungs; ++i) {
    const double duration = rung_seconds(shape, i, args.seconds);
    schedules.push_back(poisson_schedule(args.seed * 1000 + i,
                                         shape.ladder[i], duration));
    total += schedules.back().size();
  }
  const std::vector<Item> scripts =
      fresh ? generate_items(args.seed, total) : campaign_pool(args.seed);
  std::vector<std::uint32_t> stream;
  if (!fresh) {
    stream = campaign_stream(args.seed, kCampaigns, kCampaignScripts, kZipfS,
                             total);
  }
  const std::vector<Item> warmup =
      generate_items(args.seed ^ 0x9e3779b97f4a7c15ULL, 64);
  result.note("traffic", std::string(fresh ? "never-seen scripts"
                                           : "Zipf(1.1) within each of 8 "
                                             "campaigns of 32 scripts") +
                             ", open loop, Poisson arrivals, " +
                             std::to_string(kConnections) +
                             " connections, fleet of 2 x " +
                             std::to_string(threads_per_worker()) +
                             " worker threads");

  // --- Set-up: spawn to first ready + first reply, several times -----------
  ideobf::Request first;
  first.id = "first";
  first.source = warmup.front().source;
  const std::string first_line = ideobf::server::render_request_line(first);
  std::vector<double> setups;
  const double setup_start = now_seconds();
  Fleet fleet;
  const int spawns = args.trace ? 1 : kSetupSpawns;
  for (int i = 0; i < spawns; ++i) {
    fleet = spawn_fleet(args, i);
    try {
      setups.push_back(wait_first_reply(fleet, first_line));
    } catch (...) {
      stop_fleet(fleet);
      throw;
    }
    if (i + 1 < spawns) stop_fleet(fleet);
  }
  const double setup_phase_s = now_seconds() - setup_start;

  std::vector<Connection> conns(kConnections);
  std::vector<Rung> done;
  std::vector<Served> nominal;
  double rss = 0.0;
  int probes = 0;
  try {
    const std::vector<int> fds = balanced_connections(fleet, probes);
    result.note("connections", std::to_string(probes) +
                                   " connections opened to hold 2 on each "
                                   "fleet worker");
    for (std::size_t i = 0; i < conns.size(); ++i) conns[i].fd = fds[i];
    // Warm-up: a disjoint set pays the workers' lazy set-up untimed.
    {
      std::vector<std::size_t> picks;
      std::vector<std::string> lines;
      std::vector<double> offsets;
      // The campaign's kits are already circulating: every pool script is
      // seen once here, so the timed window measures a campaign in
      // progress (hits) rather than its first-sighting transient.
      std::vector<const Item*> seen_once;
      for (const Item& w : warmup) seen_once.push_back(&w);
      if (!fresh) {
        for (const Item& item : scripts) seen_once.push_back(&item);
      }
      for (std::size_t i = 0; i < seen_once.size(); ++i) {
        ideobf::Request r;
        r.source = seen_once[i]->source;
        r.id = "r" + std::to_string(i);
        picks.push_back(i);
        lines.push_back(request_line(r));
        offsets.push_back(0.002 * static_cast<double>(i));
      }
      (void)run_rung(conns, picks, lines, offsets, 1.0, 1e9, 30.0, nullptr);
    }

    std::size_t next = 0;  // position in the fresh corpus / Zipf stream
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const double duration = rung_seconds(shape, i, args.seconds);
      std::vector<std::size_t> picks;
      std::vector<std::string> lines;
      for (std::size_t k = 0; k < schedules[i].size(); ++k, ++next) {
        const std::size_t item = fresh ? next : stream[next];
        ideobf::Request r;
        r.source = scripts[item].source;
        r.language = scripts[item].language;
        r.id = "r" + std::to_string(k);
        picks.push_back(item);
        lines.push_back(request_line(r));
      }
      const double cpu0 = fleet_cpu_seconds(fleet);
      Rung rung = run_rung(conns, picks, lines, schedules[i], duration,
                           shape.limit_ms, 5.0, i == 0 ? &nominal : nullptr);
      rung.daemon_cpu_s = fleet_cpu_seconds(fleet) - cpu0;
      const bool passed = rung.passes;
      done.push_back(std::move(rung));
      if (!passed) break;  // the ladder stops at the first missed rung
    }
    rss = fleet_peak_rss_mb(fleet);
  } catch (...) {
    for (Connection& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    stop_fleet(fleet);
    throw;
  }

  // --- Goldens through the daemon (after the timed window) -----------------
  // On a connection of their own, so a late ladder reply cannot be taken
  // for a golden's.
  for (Connection& c : conns) ::close(c.fd);
  std::vector<std::string> golden_replies(goldens.size());
  if (const int fd = connect_unix(fleet.socket); fd >= 0) {
    for (std::size_t i = 0; i < goldens.size(); ++i) {
      ideobf::Request r;
      r.source = goldens[i].source;
      r.language = goldens[i].language;
      r.id = "g" + std::to_string(i);
      round_trip(fd, ideobf::server::render_request_line(r), golden_replies[i]);
    }
    ::close(fd);
  }
  stop_fleet(fleet);

  // --- Send lag: a generator that fell behind invalidates the run ----------
  const Rung& nom = done.front();
  const double lag_p99 = nom.send_lag_p99_ms;
  if (lag_p99 > kMaxSendLagShare * shape.limit_ms) {
    throw std::runtime_error("invalid run: the generator fell behind its "
                             "schedule at the nominal rate (send lag p99 " +
                             std::to_string(lag_p99) + " ms)");
  }

  for (const Rung& r : done) {
    result.attempted += static_cast<std::int64_t>(r.requests);
    result.failed += static_cast<std::int64_t>(r.refused + r.other_failed);
  }

  if (args.trace) {
    // Server layers from the nominal rung's requests and replies.
    std::vector<double> hit_ms, miss_ms;
    std::size_t hits = 0;
    for (const Served& s : nominal) {
      if (s.reply.status != "ok") continue;
      (s.reply.cached ? hit_ms : miss_ms).push_back(s.latency_ms);
      hits += s.reply.cached ? 1 : 0;
    }
    std::vector<ideobf::Request> requests;
    std::vector<std::string> reply_lines;
    for (const Served& s : nominal) {
      ideobf::Request r;
      r.source = scripts[s.item].source;
      r.id = s.reply.response.id;
      requests.push_back(std::move(r));
      reply_lines.push_back(s.line);
    }
    const double codec = codec_us(requests, reply_lines);
    // Residual: round trip - the engine time the request needed - codec.
    // A cache hit needed none; a miss needed an in-process handle of the
    // same script on a warmed engine (first sight of the script, as in the
    // daemon).
    std::vector<double> residual;
    {
      const ideobf::Engine engine{ideobf::Options{}};
      for (const Item& w : warmup) {
        ideobf::Request r;
        r.source = w.source;
        (void)engine.handle(r);
      }
      std::unordered_map<std::size_t, double> handle_us;
      for (const Served& s : nominal) {
        if (s.reply.status != "ok") continue;
        if (s.reply.cached) {
          residual.push_back(s.latency_ms * 1000.0 - codec);
          continue;
        }
        if (handle_us.count(s.item) == 0) {
          ideobf::Request r;
          r.source = scripts[s.item].source;
          const double t0 = now_seconds();
          (void)engine.handle(r);
          handle_us[s.item] = (now_seconds() - t0) * 1e6;
        }
        residual.push_back(s.latency_ms * 1000.0 - handle_us[s.item] - codec);
      }
    }
    result.add("server.codec_us", codec, "us");
    result.add("server.shared_cache.hit_rate",
               nominal.empty() ? 0.0
                               : static_cast<double>(hits) / nominal.size(),
               "ratio");
    result.add("server.hit_p50_ms", median(hit_ms), "ms");
    result.add("server.miss_p50_ms", median(miss_ms), "ms");
    result.add("server.residual_us", median(residual), "us");
    result.add("server.overloaded_replies", static_cast<double>(nom.refused),
               "count");
    result.add("bench.send_lag_p99_ms", lag_p99, "ms");
    result.add("latency_p50_ms", percentile(nom.latency_ms, 50.0), "ms");
    result.add("latency_p99_ms", percentile(nom.latency_ms, 99.0), "ms");
    add_latency_notes(result, nom.latency_ms, shape.ladder.front());
    result.note("server.base", std::to_string(nominal.size()) +
                                   " nominal-rate requests, " +
                                   std::to_string(hits) + " cache hits, " +
                                   std::to_string(miss_ms.size()) +
                                   " misses");

    // Engine layers on a sample of this workload's distinct scripts.
    std::vector<Item> sample;
    std::vector<bool> seen(scripts.size(), false);
    for (const Served& s : nominal) {
      if (!seen[s.item] && sample.size() < 600) {
        seen[s.item] = true;
        sample.push_back(scripts[s.item]);
      }
    }
    (void)engine_layer_metrics(sample, std::max(1u, std::thread::hardware_concurrency()),
                         args.seconds * 0.5, spans_path(args), result);
  } else {
    result.add("setup_s", median(setups), "s");
    result.note("setup_s.base",
                std::to_string(setups.size()) + " fleet spawns, median (" +
                    std::to_string(setup_phase_s) + " s spawning and stopping)");
    // Throughput at a latency limit: the highest ladder rung that met it,
    // as the rate the fleet actually completed there (max_rate_rps).
    double max_rate = 0.0;
    std::string ladder;
    for (const Rung& r : done) {
      if (r.passes) max_rate = r.achieved_rps;
      ladder += std::to_string(static_cast<int>(r.rate)) + "/s: p50 " +
                std::to_string(percentile(r.latency_ms, 50.0)) + " p99 " +
                std::to_string(r.p99_ms) + " last-quarter p50 " +
                std::to_string(r.last_quarter_p50_ms) + " ms, " +
                std::to_string(r.refused) + " refused, " +
                std::to_string(r.requests - r.cached) + " not from cache, send lag p99 " +
                std::to_string(r.send_lag_p99_ms) + " ms" +
                (r.passes ? " ok; " : " MISS; ");
    }
    result.add("scripts_per_s", max_rate, "1/s");
    result.note("max_rate_rps", std::to_string(max_rate) + " 1/s (limit p99 <= " +
                                    std::to_string(shape.limit_ms) + " ms; " +
                                    ladder + ")");
    // Over every rung: CPU per request falls as the rate rises (more
    // requests per event-loop wake-up), and the whole ladder averages that
    // and host noise better than one rung.
    double cpu_s = 0.0;
    std::size_t requests = 0;
    for (const Rung& r : done) {
      cpu_s += r.daemon_cpu_s;
      requests += r.requests;
    }
    result.add("cpu_ms_per_script",
               cpu_s * 1000.0 /
                   static_cast<double>(std::max<std::size_t>(requests, 1)),
               "ms");
    result.note("cpu_ms_per_script.base",
                "daemon (supervisor + workers) CPU over all " +
                    std::to_string(requests) + " ladder requests");
    add_served_share(result);
    result.add("peak_rss_mb", rss, "MiB");
    add_latency_notes(result, nom.latency_ms, shape.ladder.front());
  }

  // --- Output checks -------------------------------------------------------
  Quality quality;
  for (std::size_t i = 0; i < goldens.size(); ++i) {
    ideobf::ServeReply reply;
    std::string error;
    if (!ideobf::server::parse_reply_line(golden_replies[i], reply, error)) {
      result.fail("golden " + std::to_string(i) + " got no reply");
      continue;
    }
    quality.check(goldens[i], reply.response.result);
  }
  // Served outputs of distinct scripts against the generator's originals,
  // and against the in-process engine (a count, not gated).
  std::vector<const Served*> distinct;
  {
    std::vector<bool> seen(scripts.size(), false);
    for (const Served& s : nominal) {
      if (s.reply.status == "ok" && !seen[s.item] &&
          distinct.size() < kQualityScripts) {
        seen[s.item] = true;
        distinct.push_back(&s);
      }
    }
  }
  std::vector<ideobf::Request> requests;
  for (const Served* s : distinct) {
    ideobf::Request r;
    r.source = scripts[s->item].source;
    requests.push_back(std::move(r));
  }
  ideobf::Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<ideobf::Response> local =
      ideobf::Engine(options).handle_batch(requests);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const ideobf::Response& a = distinct[i]->reply.response;
    const ideobf::Response& b = local[i];
    if (a.result != b.result || a.failure != b.failure ||
        a.report.degradation_rung != b.report.degradation_rung ||
        distinct[i]->reply.status != ideobf::server::status_of(b)) {
      differ++;
    }
    quality.check(scripts[distinct[i]->item], a.result);
  }
  result.note("serve_vs_inprocess_differ",
              std::to_string(differ) + " of " + std::to_string(distinct.size()) +
                  " distinct served scripts differ from Engine::handle "
                  "(result, status, failure, rung)");
  quality.report(result, !args.trace);
}

}  // namespace perfbench
