#pragma once

/// \file supervisor.h
/// The fleet supervisor: binds the listeners once, fork+execs N worker
/// processes that inherit the listening fds (the kernel load-balances
/// accept() across them), and treats worker death as a normal event —
/// PowerShell malware triage feeds the workers actively hostile input, so
/// "a worker segfaulted" is an expected Tuesday, not an outage.
///
/// Responsibilities:
///  - restart dead workers with exponential backoff, reset after a stable
///    uptime, with a crash-loop circuit breaker per worker slot;
///  - scan each dead worker's crash journal for the script hashes that were
///    in flight, count crashes per hash, and quarantine repeat killers by
///    atomically publishing the quarantine file and SIGHUPing the fleet;
///  - publish a status JSON (state_dir/fleet.json) after every change so
///    operators and tests can observe pids, restart counts, and quarantine
///    size without a wire protocol;
///  - drain on SIGTERM/SIGINT: forward SIGTERM to every worker, wait, exit.
///
/// The supervisor itself never parses request bytes — it has no attack
/// surface beyond signals and waitpid.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ideobf::server {

struct FleetConfig {
  /// Listener shape (bound by the supervisor, inherited by workers).
  std::string unix_socket_path;
  bool tcp = false;
  std::uint16_t tcp_port = 0;

  /// Fleet shape.
  unsigned workers = 2;
  unsigned threads_per_worker = 2;
  /// Directory for fleet state: crash journals, quarantine file, shared
  /// cache, status JSON. Created 0700 if missing.
  std::string state_dir;
  /// Binary to exec for workers; empty uses /proc/self/exe.
  std::string exec_path;

  /// Worker knobs forwarded on the child command line.
  std::size_t max_queue = 64;
  std::uint64_t default_deadline_ms = 0;
  double send_timeout_seconds = 10.0;
  double idle_timeout_seconds = 0.0;
  std::size_t outbuf_high_water_bytes = 32u << 20;
  double admission_rate = 0.0;
  double admission_burst = 0.0;
  bool cache = true;
  std::uint32_t cache_slots = 1024;
  std::uint32_t cache_slot_bytes = 16u << 10;
  std::string reload_config_path;
  /// Fault-injection spec forwarded verbatim as --fault (crash drills).
  std::string fault_spec;
  /// Structured-log threshold forwarded as --log-level (and applied to the
  /// supervisor's own records). Empty keeps logging off.
  std::string log_level;
  /// Forward --trace-out state_dir/trace.<N>.json to every worker so each
  /// writes its Chrome trace at exit (and serves the `trace` op live).
  bool trace = false;

  /// Restart policy.
  double backoff_initial_seconds = 0.25;
  double backoff_max_seconds = 5.0;
  /// A worker alive this long gets its backoff (and circuit window) reset.
  double stable_uptime_seconds = 10.0;
  /// Crash-loop circuit breaker: more than this many abnormal deaths of one
  /// slot inside `circuit_window_seconds` opens the circuit; the slot stays
  /// down for `circuit_reset_seconds`, then one half-open retry is allowed.
  unsigned circuit_max_restarts = 8;
  double circuit_window_seconds = 30.0;
  double circuit_reset_seconds = 10.0;

  /// A script hash seen in the journal of this many crashed workers is
  /// quarantined (ISSUE acceptance: repeat killers quarantined after <= 2).
  unsigned quarantine_after = 2;

  /// Drain budget when stopping: SIGTERM then wait this long before SIGKILL.
  double drain_grace_seconds = 30.0;
};

class Supervisor {
 public:
  explicit Supervisor(FleetConfig config);
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Binds listeners, prepares state_dir, spawns the initial fleet. Throws
  /// std::runtime_error on setup failure. Call start() and run() on one
  /// thread that lives as long as the fleet: each worker is killed when the
  /// thread that forked it exits.
  void start();

  /// Supervises until a stop is requested (signal or request_stop());
  /// returns the process exit code (0 on clean drain).
  int run();

  /// Async-signal-safe-ish stop trigger (writes the self-pipe).
  void request_stop();

  /// Installs SIGTERM/SIGINT (drain) and SIGHUP (re-publish quarantine +
  /// forward SIGHUP to workers) handlers targeting this supervisor.
  void install_signal_handlers();

  /// The bound TCP port (after start(), when tcp is on).
  [[nodiscard]] std::uint16_t tcp_port() const;

  /// state_dir/fleet.json path (for tests and operators).
  [[nodiscard]] std::string status_path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ideobf::server
