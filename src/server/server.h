#pragma once

/// \file server.h
/// The `ideobf serve` daemon: a persistent deobfuscation service on the
/// process-lifetime worker pool, behind the unified Request/Response API.
///
/// Shape of the machine:
///  - listeners: a Unix domain socket (always) and an optional TCP loopback
///    (127.0.0.1, ephemeral port supported), both non-blocking;
///  - one epoll event thread owns every client fd: non-blocking reads feed
///    an incremental NDJSON line assembler, complete requests are admitted
///    (quarantine, token bucket, shared cache) and pushed onto a bounded
///    queue — a full queue answers "overloaded" immediately instead of
///    buffering without bound. There are no per-connection threads;
///  - writes never block: responses land in a per-connection output buffer
///    drained by EPOLLOUT. Worker completions reach the loop over an
///    eventfd. A consumer that stops reading is reaped once its buffered
///    output makes no progress for send_timeout_seconds or crosses
///    outbuf_high_water_bytes; an idle connection is reaped after
///    idle_timeout_seconds. No reap ever blocks an event or worker thread;
///  - worker slots: `threads` long-lived items on ps::WorkerPool, each
///    binding its telemetry shard and calling the one shared Engine (every
///    request's pipeline run owns its piece memo and parse table, so no
///    response depends on an earlier one);
///  - per-request envelopes: a worker calls Engine::handle(request, token)
///    with the request's own cancellation token, registered on its
///    connection at admission. The engine resolves the request's limits
///    (admission fills in default_deadline_ms when the request names no
///    deadline_ms), and the engine's watchdog backstops a runaway call at
///    deadline * watchdog_factor. A client that disconnects cancels its own
///    queued and in-flight work;
///  - graceful drain: SIGTERM/shutdown-op stops accepting, serves
///    everything queued and in flight, then exits. Once drain_grace_seconds
///    have passed, the event loop's periodic pass cancels every
///    connection's outstanding request tokens.
///
/// Protocol: src/server/protocol.h; worked examples: docs/SERVER.md.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ideobf/options.h"
#include "server/shared_cache.h"

namespace ideobf::server {

struct ServerConfig {
  /// Path of the Unix domain socket to listen on (required). An existing
  /// *socket* at this path is unlinked before bind; any other file type is
  /// a startup error (a typoed --socket must not delete a regular file).
  /// The socket is created owner-only (mode 0600).
  std::string unix_socket_path;
  /// Also listen on TCP loopback (127.0.0.1) when true.
  bool tcp = false;
  /// TCP port; 0 picks an ephemeral port (read it back via tcp_port()).
  std::uint16_t tcp_port = 0;
  /// Worker slots serving the queue. 0 means hardware concurrency.
  unsigned threads = 0;
  /// Bounded request-queue capacity; a push onto a full queue is answered
  /// with an "overloaded" response (explicit backpressure).
  std::size_t max_queue = 64;
  /// Engine configuration every request runs under unless it carries its
  /// own `options` object.
  Options options;
  /// Default per-request deadline in milliseconds, filled in at admission
  /// when a request names none (0 = no default: the configured options'
  /// deadline, if any, applies). A SIGHUP reload may replace it.
  std::uint64_t default_deadline_ms = 0;
  /// How long a graceful drain may spend serving queued and in-flight work
  /// before the event loop cancels what remains. 0 disables the backstop.
  double drain_grace_seconds = 30.0;
  /// Write-stall budget. Responses are buffered per connection and flushed
  /// by the event loop without ever blocking; a client whose buffered
  /// output makes no forward progress for this long (it stopped reading)
  /// is reaped and its buffered bytes dropped — a worker slot can never
  /// wedge on a non-reading client, and a graceful drain stays bounded.
  /// 0 disables the stall reaper (not recommended outside tests).
  double send_timeout_seconds = 10.0;
  /// Reap a connection that has been idle this long: no complete request
  /// line received (a half-written line does not count — the slow-loris
  /// shape), nothing queued or in flight, and no output pending. 0 (the
  /// default) disables idle reaping.
  double idle_timeout_seconds = 0.0;
  /// Per-connection output-buffer cap. A connection whose buffered, unread
  /// responses already hold this many bytes when another response arrives
  /// is reaped (one response may overshoot the cap, so a single oversized
  /// result is still deliverable; it is accumulation that is bounded).
  std::size_t outbuf_high_water_bytes = 32u << 20;
  /// Honor {"op":"shutdown"} arriving over the TCP listener. Off by
  /// default: TCP loopback carries no peer authentication, so shutdown is
  /// restricted to the filesystem-permissioned Unix socket unless the
  /// operator opts in (see "Trust model" in docs/SERVER.md).
  bool allow_tcp_shutdown = false;

  // --- Admission control ----------------------------------------------------
  /// Per-client token-bucket rate in requests/second; 0 disables admission
  /// control entirely (the bounded queue stays the only backpressure).
  double admission_rate = 0.0;
  /// Bucket capacity (burst allowance). 0 defaults to max(rate, 1).
  double admission_burst = 0.0;

  // --- Fleet mode (supervised worker processes; docs/SERVER.md) ------------
  /// Pre-bound listener fds inherited from the fleet supervisor across
  /// fork+exec. When >= 0 the server uses these instead of binding its own;
  /// every worker sharing one listening fd lets the kernel load-balance
  /// accept() across the fleet. The inheriting server never unlinks the
  /// socket path (the supervisor owns it).
  int inherited_unix_fd = -1;
  int inherited_tcp_fd = -1;
  /// This worker's index in the fleet; < 0 outside fleet mode. Only used
  /// for labeling (metrics, status).
  int worker_index = -1;
  /// Crash journal: before dispatching a request, its script hash is
  /// recorded (one fixed-size record per worker slot, pwrite into this
  /// file) and cleared after — so the supervisor can tell which script a
  /// dead worker was executing. Empty disables.
  std::string crash_journal_path;
  /// Quarantine file (one 16-hex script hash per line): requests hashing to
  /// a listed value are refused with failure=quarantined without touching
  /// the engine. Loaded at startup and on SIGHUP. Empty disables.
  std::string quarantine_path;
  /// Shared response cache backing file; empty disables the cache.
  std::string cache_path;
  std::uint32_t cache_slots = 1024;
  std::uint32_t cache_slot_bytes = 16u << 10;
  /// JSON config hot-reloaded on SIGHUP (default_deadline_ms,
  /// admission_rate, admission_burst, extra_blocklist). Empty disables.
  std::string reload_config_path;
  /// Server-side fault injection points (WorkerAbort / WorkerHang /
  /// CacheCorrupt). Non-owning; null disables. Fleet workers arm the
  /// process-wide injector from --fault and point this at it.
  FaultInjector* server_fault = nullptr;

  // --- Observability (request tracing, fleet metrics, flight recorder) ------
  /// Arms a process-wide Chrome trace recorder: every PhaseSpan (plus the
  /// serve-side queue-wait spans) lands in per-worker lanes, the `trace`
  /// service op dumps the JSON live, and the full trace is written here at
  /// shutdown. Empty disables.
  std::string trace_out_path;
  /// Durable registry snapshot (`state-dir/metrics.N` in fleet mode),
  /// rewritten atomically on every metrics op and on SIGHUP. Any worker
  /// answering `{"op":"metrics","scope":"fleet"}` merges its siblings'
  /// snapshots from the same directory. Empty disables.
  std::string metrics_snapshot_path;
  /// File mirror of the flight-recorder ring (`state-dir/flight.N` in fleet
  /// mode); the supervisor harvests it after an abnormal worker death. The
  /// in-memory ring behind the `debug` op is always on. Empty disables the
  /// mirror only.
  std::string flight_recorder_path;
};

/// Monotonic service counters, kept as plain atomics so they work with
/// telemetry disabled (integration tests assert on them). The same events
/// also feed `ideobf_server_*` registry metrics for the metrics op.
struct ServerStats {
  std::uint64_t connections_total = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t ok_total = 0;
  std::uint64_t degraded_total = 0;
  std::uint64_t failed_total = 0;
  std::uint64_t invalid_total = 0;
  std::uint64_t overloaded_total = 0;
  std::uint64_t shutting_down_total = 0;
  /// In-flight or queued requests cancelled because their client hung up.
  std::uint64_t disconnect_cancelled_total = 0;
  /// Queued or in-flight requests cancelled because a graceful drain ran
  /// past drain_grace_seconds. Deadline backstop cancels are the engine's
  /// (ideobf_watchdog_cancel_total{source="deadline"}).
  std::uint64_t watchdog_cancelled_total = 0;
  std::uint64_t queue_depth = 0;
  /// Admission-control refusals (token bucket empty; subset of overloaded).
  std::uint64_t admission_rejected_total = 0;
  /// Requests refused because their script hash is quarantined.
  std::uint64_t quarantined_total = 0;
  /// Shared response cache traffic (zeros when the cache is disabled).
  std::uint64_t cache_hits_total = 0;
  std::uint64_t cache_misses_total = 0;
  std::uint64_t cache_stores_total = 0;
  /// Cache entries whose checksum failed verification (served as misses).
  std::uint64_t cache_corrupt_total = 0;
  /// SIGHUP config/quarantine reloads applied.
  std::uint64_t reloads_total = 0;
  /// epoll_wait returns that delivered at least one event.
  std::uint64_t epoll_wakeups_total = 0;
  /// Bytes currently buffered toward clients across all connections.
  std::uint64_t outbuf_bytes = 0;
  /// Connections reaped by the idle timeout.
  std::uint64_t idle_reaped_total = 0;
  /// Connections reaped because buffered output made no progress for
  /// send_timeout_seconds (the client stopped reading).
  std::uint64_t stall_reaped_total = 0;
  /// Connections reaped at the output-buffer high-water mark.
  std::uint64_t outbuf_reaped_total = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the event loop and worker slots.
  /// Throws std::runtime_error when a listener cannot be bound.
  void start();

  /// Initiates a graceful drain (async-signal-safe is NOT guaranteed here;
  /// signal handlers should use notify_stop_from_signal()). Idempotent.
  void request_stop();

  /// Blocks until the server has fully drained and torn down. start() must
  /// have been called.
  void wait();

  /// request_stop() + wait().
  void stop();

  /// The bound TCP port (meaningful after start() when config.tcp is set;
  /// 0 otherwise).
  [[nodiscard]] std::uint16_t tcp_port() const;

  [[nodiscard]] ServerStats stats() const;

  /// Async-signal-safe stop trigger: installs this server as the target of
  /// SIGTERM/SIGINT. The handler only writes a byte to the server's
  /// self-pipe; the accept loop turns that into a graceful drain.
  void install_signal_handlers();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Stable fingerprint text of everything option-shaped that can change a
/// response — the second half of the shared-cache key (make_cache_key).
/// `language` must be the request's *resolved* front-end language ("" and
/// "auto" already normalized), so identical source bytes submitted under
/// different front-ends never alias to one cached response. The server
/// never builds this text per request (RequestHasher continues a hash of
/// its fixed head instead); it is the reference the key tests compare
/// against.
[[nodiscard]] std::string options_fingerprint(
    const Options& options, std::uint64_t deadline_ms,
    const std::vector<std::string>& blocklist, std::string_view language);

/// The serve path's request hashing under one configuration. Built where
/// the configuration is loaded (start-up and each SIGHUP reload), it holds
/// the FNV-1a state of options_fingerprint's fixed head — the fields of the
/// server's Options — and the blocklist in force. hash() continues that
/// state over a request's deadline, resolved language and the blocklist,
/// then hashes the source in one pass (hash_source). For every input,
/// `hash(source, deadline_ms, language)` has
///   script == fnv1a64(source, 0) and
///   key == make_cache_key(source, options_fingerprint(options,
///              deadline_ms, blocklist(), language)).
class RequestHasher {
 public:
  RequestHasher(const Options& options, std::vector<std::string> blocklist);

  [[nodiscard]] SourceHashes hash(std::string_view source,
                                  std::uint64_t deadline_ms,
                                  std::string_view language) const;

  [[nodiscard]] const std::vector<std::string>& blocklist() const {
    return blocklist_;
  }

 private:
  std::uint64_t head_state_ = 0;
  std::vector<std::string> blocklist_;
};

}  // namespace ideobf::server
