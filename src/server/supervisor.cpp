#include "server/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "analysis/json_writer.h"
#include "server/flight_recorder.h"
#include "server/listen.h"
#include "telemetry/log.h"
#include "telemetry/snapshot.h"

namespace ideobf::server {

namespace {

using steady = std::chrono::steady_clock;

constexpr std::size_t kJournalRecordBytes = 64;

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

std::atomic<int> g_supervisor_pipe_fd{-1};

extern "C" void supervisor_signal_handler(int signum) {
  int fd = g_supervisor_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char b = signum == SIGHUP ? 'h' : 's';
    [[maybe_unused]] ssize_t r = ::write(fd, &b, 1);
  }
}

}  // namespace

struct Supervisor::Impl {
  FleetConfig cfg;
  int unix_fd = -1;
  int tcp_fd = -1;
  std::uint16_t bound_tcp_port = 0;
  int pipe_r = -1;
  int pipe_w = -1;
  bool stopping = false;

  struct WorkerSlot {
    pid_t pid = -1;
    steady::time_point started{};
    steady::time_point restart_at{};  ///< when pid < 0: earliest respawn
    unsigned restarts = 0;            ///< total respawns of this slot
    unsigned consecutive_crashes = 0;
    std::vector<steady::time_point> recent_crashes;  ///< circuit window
    bool circuit_open = false;
  };
  std::vector<WorkerSlot> slots;

  /// Crash counts per script hash (journal evidence) and the published
  /// quarantine set.
  std::map<std::string, unsigned> crash_counts;
  std::set<std::string> quarantined;
  std::uint64_t crashes_total = 0;

  explicit Impl(FleetConfig config) : cfg(std::move(config)) {}

  ~Impl() {
    if (unix_fd >= 0) ::close(unix_fd);
    if (tcp_fd >= 0) ::close(tcp_fd);
    if (pipe_r >= 0) ::close(pipe_r);
    if (pipe_w >= 0) ::close(pipe_w);
    int expected = pipe_w;
    g_supervisor_pipe_fd.compare_exchange_strong(expected, -1);
  }

  std::string journal_path(unsigned slot) const {
    return cfg.state_dir + "/journal." + std::to_string(slot);
  }
  std::string quarantine_path() const { return cfg.state_dir + "/quarantine"; }
  std::string cache_path() const { return cfg.state_dir + "/cache.bin"; }
  std::string status_path() const { return cfg.state_dir + "/fleet.json"; }
  std::string metrics_path(unsigned slot) const {
    return cfg.state_dir + "/metrics." + std::to_string(slot);
  }
  std::string flight_path(unsigned slot) const {
    return cfg.state_dir + "/flight." + std::to_string(slot);
  }
  std::string postmortem_path(unsigned slot) const {
    return cfg.state_dir + "/postmortem." + std::to_string(slot) + ".json";
  }
  std::string trace_path(unsigned slot) const {
    return cfg.state_dir + "/trace." + std::to_string(slot) + ".json";
  }

  // --- spawning ------------------------------------------------------------

  void spawn(unsigned slot) {
    // A stale journal (or flight recorder) from a previous life of this
    // slot must not be re-counted against anyone; the files are clean
    // before the worker runs.
    ::truncate(journal_path(slot).c_str(), 0);
    ::truncate(flight_path(slot).c_str(), 0);

    std::vector<std::string> argv_s;
    const std::string exec_path =
        cfg.exec_path.empty() ? "/proc/self/exe" : cfg.exec_path;
    argv_s.push_back(exec_path);
    argv_s.push_back("serve");
    argv_s.push_back("--socket");
    argv_s.push_back(cfg.unix_socket_path);
    argv_s.push_back("--worker-index");
    argv_s.push_back(std::to_string(slot));
    argv_s.push_back("--inherited-unix-fd");
    argv_s.push_back(std::to_string(unix_fd));
    if (tcp_fd >= 0) {
      argv_s.push_back("--inherited-tcp-fd");
      argv_s.push_back(std::to_string(tcp_fd));
    }
    argv_s.push_back("--threads");
    argv_s.push_back(std::to_string(cfg.threads_per_worker));
    argv_s.push_back("--max-queue");
    argv_s.push_back(std::to_string(cfg.max_queue));
    argv_s.push_back("--send-timeout-seconds");
    argv_s.push_back(std::to_string(cfg.send_timeout_seconds));
    if (cfg.idle_timeout_seconds > 0.0) {
      argv_s.push_back("--idle-timeout-seconds");
      argv_s.push_back(std::to_string(cfg.idle_timeout_seconds));
    }
    argv_s.push_back("--outbuf-high-water-bytes");
    argv_s.push_back(std::to_string(cfg.outbuf_high_water_bytes));
    if (cfg.default_deadline_ms != 0) {
      argv_s.push_back("--deadline-ms");
      argv_s.push_back(std::to_string(cfg.default_deadline_ms));
    }
    if (cfg.admission_rate > 0.0) {
      argv_s.push_back("--rate");
      argv_s.push_back(std::to_string(cfg.admission_rate));
      if (cfg.admission_burst > 0.0) {
        argv_s.push_back("--burst");
        argv_s.push_back(std::to_string(cfg.admission_burst));
      }
    }
    argv_s.push_back("--journal");
    argv_s.push_back(journal_path(slot));
    argv_s.push_back("--quarantine");
    argv_s.push_back(quarantine_path());
    if (cfg.cache) {
      argv_s.push_back("--cache-path");
      argv_s.push_back(cache_path());
      argv_s.push_back("--cache-slots");
      argv_s.push_back(std::to_string(cfg.cache_slots));
      argv_s.push_back("--cache-slot-bytes");
      argv_s.push_back(std::to_string(cfg.cache_slot_bytes));
    }
    if (!cfg.reload_config_path.empty()) {
      argv_s.push_back("--config");
      argv_s.push_back(cfg.reload_config_path);
    }
    if (!cfg.fault_spec.empty()) {
      argv_s.push_back("--fault");
      argv_s.push_back(cfg.fault_spec);
    }
    argv_s.push_back("--metrics-snapshot");
    argv_s.push_back(metrics_path(slot));
    argv_s.push_back("--flight-recorder");
    argv_s.push_back(flight_path(slot));
    if (!cfg.log_level.empty()) {
      argv_s.push_back("--log-level");
      argv_s.push_back(cfg.log_level);
    }
    if (cfg.trace) {
      argv_s.push_back("--trace-out");
      argv_s.push_back(trace_path(slot));
    }

    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t supervisor_pid = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error(std::string("fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      // Child: a worker never outlives its supervisor. The death signal
      // fires when the forking *thread* exits, and spawn() runs on the
      // thread that runs start() and run() to the end. The getppid() check
      // closes the race with a supervisor that died before prctl.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != supervisor_pid) ::_exit(127);
      // The inherited listener fds ride through exec (no CLOEXEC on
      // listener sockets); exec resets signal dispositions but keeps the
      // death signal.
      ::execv(argv[0], argv.data());
      // Only reached on exec failure; _exit keeps the child from running
      // the parent's atexit/static-destructor machinery.
      ::_exit(127);
    }
    WorkerSlot& w = slots[slot];
    w.pid = pid;
    w.started = steady::now();
  }

  // --- crash accounting ----------------------------------------------------

  /// Reads a dead worker's journal: every in-flight ('A') record names a
  /// script hash that was executing when the worker died.
  std::vector<std::string> scan_journal(unsigned slot) {
    std::vector<std::string> hashes;
    std::ifstream in(journal_path(slot), std::ios::binary);
    if (!in.is_open()) return hashes;
    char record[kJournalRecordBytes];
    while (in.read(record, sizeof(record))) {
      if (record[0] != 'A') continue;
      std::string hex(record + 2, 16);
      if (hex.find_first_not_of("0123456789abcdef") == std::string::npos) {
        hashes.push_back(std::move(hex));
      }
    }
    return hashes;
  }

  /// Publishes the quarantine file atomically (tmp + rename) and SIGHUPs
  /// the live workers so they reload it.
  void publish_quarantine() {
    const std::string tmp = quarantine_path() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      for (const std::string& hash : quarantined) out << hash << '\n';
    }
    ::rename(tmp.c_str(), quarantine_path().c_str());
    for (const WorkerSlot& w : slots) {
      if (w.pid > 0) ::kill(w.pid, SIGHUP);
    }
  }

  /// Post-crash evidence: reads the dead worker's flight-recorder mirror
  /// and publishes `postmortem.<slot>.json` (tmp + rename) carrying every
  /// record still marked "inflight" — the requests that were executing when
  /// the worker died, with their request ids, client ids, and script
  /// hashes.
  void harvest_flight(unsigned slot, int status) {
    std::ifstream in(flight_path(slot), std::ios::binary);
    std::vector<std::string> inflight;
    if (in.is_open()) {
      char record[FlightRecorder::kFileRecordBytes];
      while (in.read(record, sizeof(record))) {
        std::string line(record, sizeof(record));
        const std::size_t end = line.find_last_not_of(" \n");
        if (end == std::string::npos) continue;
        line.resize(end + 1);
        if (line.empty() || line.front() != '{' || line.back() != '}') {
          continue;  // torn or padding-only slot
        }
        if (line.find("\"outcome\":\"inflight\"") == std::string::npos) {
          continue;
        }
        inflight.push_back(std::move(line));
      }
    }
    std::string json = "{\"worker\":" + std::to_string(slot);
    json += ",\"signaled\":";
    json += WIFSIGNALED(status) ? "true" : "false";
    json += ",\"status\":" +
            std::to_string(WIFSIGNALED(status) ? WTERMSIG(status)
                                               : WEXITSTATUS(status));
    json += ",\"inflight\":[";
    for (std::size_t i = 0; i < inflight.size(); ++i) {
      if (i != 0) json += ',';
      json += inflight[i];
    }
    json += "]}";
    const std::string path = postmortem_path(slot);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << json << '\n';
    }
    ::rename(tmp.c_str(), path.c_str());
    if (telemetry::log_enabled(telemetry::LogLevel::Warn)) {
      telemetry::LogEvent(telemetry::LogLevel::Warn, "supervisor",
                          "worker-postmortem")
          .field("slot", static_cast<std::int64_t>(slot))
          .field("inflight", static_cast<std::uint64_t>(inflight.size()))
          .field("path", path);
    }
  }

  void on_worker_death(unsigned slot, int status) {
    WorkerSlot& w = slots[slot];
    w.pid = -1;
    const bool abnormal =
        WIFSIGNALED(status) || (WIFEXITED(status) && WEXITSTATUS(status) != 0);
    const double uptime = seconds_since(w.started);
    if (telemetry::log_enabled(telemetry::LogLevel::Info)) {
      telemetry::LogEvent(telemetry::LogLevel::Info, "supervisor",
                          "worker-died")
          .field("slot", static_cast<std::int64_t>(slot))
          .field_bool("abnormal", abnormal)
          .field("uptime_seconds", uptime);
    }
    if (stopping) return;

    if (abnormal) {
      crashes_total++;
      harvest_flight(slot, status);
      bool changed = false;
      for (const std::string& hash : scan_journal(slot)) {
        const unsigned count = ++crash_counts[hash];
        if (count >= cfg.quarantine_after &&
            quarantined.insert(hash).second) {
          changed = true;
        }
      }
      if (changed) publish_quarantine();

      if (uptime >= cfg.stable_uptime_seconds) {
        w.consecutive_crashes = 0;
        w.recent_crashes.clear();
      }
      w.consecutive_crashes++;
      const steady::time_point now = steady::now();
      w.recent_crashes.push_back(now);
      std::erase_if(w.recent_crashes, [&](steady::time_point t) {
        return std::chrono::duration<double>(now - t).count() >
               cfg.circuit_window_seconds;
      });
      if (w.recent_crashes.size() > cfg.circuit_max_restarts) {
        // Crash loop: stop feeding the loop; one half-open retry after the
        // reset period.
        w.circuit_open = true;
        w.restart_at =
            now + std::chrono::duration_cast<steady::duration>(
                      std::chrono::duration<double>(cfg.circuit_reset_seconds));
        return;
      }
      double backoff = cfg.backoff_initial_seconds;
      for (unsigned i = 1; i < w.consecutive_crashes; ++i) backoff *= 2.0;
      if (backoff > cfg.backoff_max_seconds) backoff = cfg.backoff_max_seconds;
      w.restart_at = now + std::chrono::duration_cast<steady::duration>(
                               std::chrono::duration<double>(backoff));
    } else {
      // A clean exit (e.g. someone sent one worker the shutdown op) is
      // respawned promptly, with no crash accounting.
      w.consecutive_crashes = 0;
      w.restart_at = steady::now();
    }
  }

  // --- status --------------------------------------------------------------

  void write_status() {
    JsonWriter w;
    w.begin_object();
    w.field("stopping", stopping);
    w.field("quarantine_count", static_cast<std::int64_t>(quarantined.size()));
    w.field("crashes_total", static_cast<std::int64_t>(crashes_total));
    w.begin_array("workers");
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const WorkerSlot& s = slots[i];
      w.begin_object();
      w.field("index", static_cast<std::int64_t>(i));
      w.field("pid", static_cast<std::int64_t>(s.pid));
      w.field("restarts", static_cast<std::int64_t>(s.restarts));
      w.field("state", s.pid > 0             ? "running"
                       : stopping            ? "exited"
                       : s.circuit_open      ? "circuit-open"
                                             : "backoff");
      // Observability facts from the worker's durable metrics snapshot:
      // how stale it is and how many requests the worker has accepted.
      std::ifstream snap_in(metrics_path(static_cast<unsigned>(i)));
      if (snap_in.is_open()) {
        std::string header(256, '\0');
        snap_in.read(header.data(),
                     static_cast<std::streamsize>(header.size()));
        header.resize(static_cast<std::size_t>(snap_in.gcount()));
        telemetry::MetricsSnapshotFile snap;
        if (telemetry::parse_snapshot_header(header, snap)) {
          const std::uint64_t now =
              static_cast<std::uint64_t>(::time(nullptr));
          w.field("snapshot_age_seconds",
                  static_cast<std::int64_t>(
                      now >= snap.unix_seconds ? now - snap.unix_seconds
                                               : 0));
          w.field("requests_total",
                  static_cast<std::int64_t>(snap.requests_total));
        }
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    const std::string tmp = status_path() + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      out << w.str() << '\n';
    }
    ::rename(tmp.c_str(), status_path().c_str());
  }

  // --- main loop -----------------------------------------------------------

  void tick() {
    bool changed = false;
    const steady::time_point now = steady::now();
    for (unsigned slot = 0; slot < slots.size(); ++slot) {
      WorkerSlot& w = slots[slot];
      if (w.pid > 0) {
        int status = 0;
        const pid_t r = ::waitpid(w.pid, &status, WNOHANG);
        if (r == w.pid) {
          on_worker_death(slot, status);
          changed = true;
        } else if (w.circuit_open &&
                   seconds_since(w.started) >= cfg.stable_uptime_seconds) {
          // The half-open retry survived its probation; close the circuit.
          w.circuit_open = false;
          w.recent_crashes.clear();
          changed = true;
        }
      } else if (!stopping && now >= w.restart_at) {
        spawn(slot);
        w.restarts++;
        changed = true;
      }
    }
    if (changed) write_status();
  }

  void drain_and_reap() {
    stopping = true;
    for (WorkerSlot& w : slots) {
      if (w.pid > 0) ::kill(w.pid, SIGTERM);
    }
    const steady::time_point give_up =
        steady::now() + std::chrono::duration_cast<steady::duration>(
                            std::chrono::duration<double>(
                                std::max(cfg.drain_grace_seconds, 0.1)));
    for (;;) {
      bool any_alive = false;
      for (WorkerSlot& w : slots) {
        if (w.pid <= 0) continue;
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
          w.pid = -1;
        } else {
          any_alive = true;
        }
      }
      if (!any_alive) break;
      if (steady::now() >= give_up) {
        for (WorkerSlot& w : slots) {
          if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
          }
        }
        break;
      }
      ::usleep(20 * 1000);
    }
    write_status();
    if (!cfg.unix_socket_path.empty()) {
      ::unlink(cfg.unix_socket_path.c_str());
    }
  }
};

Supervisor::Supervisor(FleetConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Supervisor::~Supervisor() = default;

void Supervisor::start() {
  Impl& s = *impl_;
  if (s.cfg.workers == 0) s.cfg.workers = 1;
  if (s.cfg.state_dir.empty()) {
    throw std::runtime_error("fleet mode needs a --state-dir");
  }
  if (::mkdir(s.cfg.state_dir.c_str(), 0700) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create state dir '" + s.cfg.state_dir +
                             "': " + std::strerror(errno));
  }
  if (!s.cfg.log_level.empty()) {
    telemetry::LogLevel level;
    if (!telemetry::parse_log_level(s.cfg.log_level, level)) {
      throw std::runtime_error("unknown --log-level '" + s.cfg.log_level +
                               "' (debug|info|warn|error|off)");
    }
    telemetry::set_log_level(level);
  }
  int pfd[2];
  if (::pipe2(pfd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  s.pipe_r = pfd[0];
  s.pipe_w = pfd[1];
  s.unix_fd = make_unix_listener(s.cfg.unix_socket_path);
  if (s.cfg.tcp) {
    s.tcp_fd = make_tcp_listener(s.cfg.tcp_port, s.bound_tcp_port);
  }
  s.slots.resize(s.cfg.workers);
  for (unsigned i = 0; i < s.cfg.workers; ++i) s.spawn(i);
  s.write_status();
}

int Supervisor::run() {
  Impl& s = *impl_;
  pollfd pfd{s.pipe_r, POLLIN, 0};
  for (;;) {
    pfd.revents = 0;
    ::poll(&pfd, 1, 100);
    if ((pfd.revents & POLLIN) != 0) {
      char drain[64];
      bool stop = false;
      bool hup = false;
      ssize_t n;
      while ((n = ::read(s.pipe_r, drain, sizeof(drain))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (drain[i] == 'h') {
            hup = true;
          } else {
            stop = true;
          }
        }
      }
      if (hup) {
        // Operator-driven fleet-wide reload: forward to every worker.
        for (const Impl::WorkerSlot& w : s.slots) {
          if (w.pid > 0) ::kill(w.pid, SIGHUP);
        }
      }
      if (stop) break;
    }
    s.tick();
  }
  s.drain_and_reap();
  return 0;
}

void Supervisor::request_stop() {
  if (impl_->pipe_w >= 0) {
    char b = 's';
    [[maybe_unused]] ssize_t r = ::write(impl_->pipe_w, &b, 1);
  }
}

void Supervisor::install_signal_handlers() {
  g_supervisor_pipe_fd.store(impl_->pipe_w, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = supervisor_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

std::uint16_t Supervisor::tcp_port() const { return impl_->bound_tcp_port; }

std::string Supervisor::status_path() const { return impl_->status_path(); }

}  // namespace ideobf::server
