#include "server/server.h"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/json_writer.h"
#include "core/fault.h"
#include "frontends/registry.h"
#include "ideobf/api.h"
#include "psvalue/worker_pool.h"
#include "server/admission.h"
#include "server/event_loop.h"
#include "server/flight_recorder.h"
#include "server/json.h"
#include "server/listen.h"
#include "server/protocol.h"
#include "server/shared_cache.h"
#include "telemetry/build_info.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/exposition.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"
#include "telemetry/telemetry.h"

namespace ideobf::server {

namespace {

using steady = std::chrono::steady_clock;

/// Hard cap on one request line. The source script rides in a single JSON
/// line, so the cap is generous — but a client streaming bytes without ever
/// sending '\n' must not grow the buffer without bound.
constexpr std::size_t kMaxLineBytes = 64u << 20;

/// Fixed-size crash-journal record, one per worker slot, rewritten in place
/// with pwrite. 'A' marks a dispatch in flight; anything else is inactive.
/// The supervisor reads these after an abnormal worker death to learn which
/// script hash was executing.
constexpr std::size_t kJournalRecordBytes = 64;

/// Monotonic seconds since process start — the token buckets' clock.
double now_seconds() {
  static const steady::time_point epoch = steady::now();
  return std::chrono::duration<double>(steady::now() - epoch).count();
}

/// 16-hex rendering of a script hash (the journal/quarantine spelling).
std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

/// options_fingerprint's fixed head: the fields of the server's Options,
/// each followed by '|'.
std::string options_fingerprint_head(const Options& o) {
  std::ostringstream fp;
  fp << o.token_pass << '|' << o.ast_recovery << '|' << o.multilayer << '|'
     << o.rename << '|' << o.reformat << '|' << o.parse_cache << '|'
     << o.limits.deadline_seconds << '|' << o.limits.memory_budget_bytes
     << '|' << o.limits.degrade << '|' << o.limits.max_layers << '|'
     << o.limits.max_steps_per_piece << '|' << o.limits.max_piece_size << '|'
     << o.limits.watchdog_factor << '|' << o.recovery.trace_functions << '|';
  return fp.str();
}

}  // namespace

// Declared in server.h. Two requests whose fingerprints match would produce
// byte-identical response bodies.
std::string options_fingerprint(const Options& o, std::uint64_t deadline_ms,
                                const std::vector<std::string>& blocklist,
                                std::string_view language) {
  std::string fp = options_fingerprint_head(o);
  fp += std::to_string(deadline_ms);
  fp += '|';
  fp += language;
  for (const std::string& name : blocklist) {
    fp += '|';
    fp += name;
  }
  return fp;
}

RequestHasher::RequestHasher(const Options& options,
                             std::vector<std::string> blocklist)
    : head_state_(fnv1a64(options_fingerprint_head(options), /*seed=*/0)),
      blocklist_(std::move(blocklist)) {}

SourceHashes RequestHasher::hash(std::string_view source,
                                 std::uint64_t deadline_ms,
                                 std::string_view language) const {
  // The same bytes options_fingerprint appends after its head.
  char digits[20];
  const char* end =
      std::to_chars(digits, digits + sizeof(digits), deadline_ms).ptr;
  std::uint64_t opts = fnv1a64_extend(
      head_state_,
      std::string_view(digits, static_cast<std::size_t>(end - digits)));
  opts = fnv1a64_extend(opts, "|");
  opts = fnv1a64_extend(opts, language);
  for (const std::string& name : blocklist_) {
    opts = fnv1a64_extend(opts, "|");
    opts = fnv1a64_extend(opts, name);
  }
  return hash_source(source, opts);
}

int make_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path empty or too long: '" + path +
                             "'");
  }
  // Replace only an existing *socket*. A regular file at this path is a
  // misconfiguration (typoed --socket); deleting it would silently destroy
  // user data and then mask the mistake when bind succeeds.
  struct stat st{};
  if (::lstat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw std::runtime_error("'" + path +
                               "' exists and is not a socket; refusing to "
                               "replace it");
    }
    ::unlink(path.c_str());
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot bind '" + path +
                             "': " + std::strerror(err));
  }
  // Owner-only: the unix socket is the trusted control plane (it carries
  // the shutdown op). Safe between bind and listen — connects are refused
  // until listen(), so no client can race the chmod.
  ::chmod(path.c_str(), 0600);
  // Deep backlog: a connection storm briefly parks in the backlog while the
  // event loop accepts in batches (the kernel clamps this to somaxconn).
  if (::listen(fd, 4096) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw std::runtime_error("cannot listen on '" + path +
                             "': " + std::strerror(err));
  }
  set_nonblocking(fd);
  return fd;
}

int make_tcp_listener(std::uint16_t port, std::uint16_t& bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4096) != 0) {
    int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("cannot listen on 127.0.0.1: ") +
                             std::strerror(err));
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    bound_port = ntohs(actual.sin_port);
  }
  set_nonblocking(fd);
  return fd;
}

namespace {

/// Why a connection was torn down — drives which reap counter increments.
enum class CloseReason : int {
  None = 0,
  Disconnect,  ///< peer hung up or a write failed outright
  Idle,        ///< idle_timeout_seconds with nothing pending
  WriteStall,  ///< buffered output made no progress for the stall budget
  OutbufCap,   ///< output accumulated past outbuf_high_water_bytes
};

/// One accepted client. The fd is owned here (closed when the last
/// reference — event loop or queued work — drops) but only the event-loop
/// thread performs I/O on it. Workers touch exactly two things: the
/// mutex-guarded output buffer (to enqueue a response) and the token map
/// (cancellation). Everything else is loop-thread-only state.
struct Connection {
  int fd = -1;
  bool via_tcp = false;
  /// Set once the connection is doomed; appends are refused after. Stored
  /// under out_mu so a worker's append and the loop's reap serialize.
  std::atomic<bool> dead{false};
  std::atomic<int> close_reason{static_cast<int>(CloseReason::None)};

  // --- event-loop-thread-only state ---------------------------------------
  LineAssembler in{kMaxLineBytes};
  bool want_write = false;  ///< EPOLLOUT currently armed
  /// Last complete request line (or accept). A half-written line does not
  /// refresh this — that is precisely the slow-loris shape the idle reaper
  /// exists for.
  steady::time_point last_line_at{};
  /// Fair-queue lane + admission identity; the bucket is only touched from
  /// the event-loop thread (all request admission happens there).
  std::uint64_t client_id = 0;
  TokenBucket bucket;

  // --- shared with worker threads ------------------------------------------
  std::mutex out_mu;
  OutputBuffer out;                        ///< guarded by out_mu
  steady::time_point write_progress_at{};  ///< guarded by out_mu

  std::mutex token_mu;
  std::map<std::uint64_t, CancellationToken> inflight;
  std::uint64_t next_token_id = 0;

  Connection(int fd_in, bool via_tcp_in) : fd(fd_in), via_tcp(via_tcp_in) {
    static std::atomic<std::uint64_t> next_client{1};
    client_id = next_client.fetch_add(1, std::memory_order_relaxed);
  }
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::uint64_t add_token(const CancellationToken& token) {
    std::lock_guard lk(token_mu);
    inflight.emplace(next_token_id, token);
    return next_token_id++;
  }
  void remove_token(std::uint64_t id) {
    std::lock_guard lk(token_mu);
    inflight.erase(id);
  }
  [[nodiscard]] bool idle_tokens() {
    std::lock_guard lk(token_mu);
    return inflight.empty();
  }
  /// Cancels every outstanding request of this client; returns how many
  /// were newly cancelled (the disconnect-cancel count).
  std::size_t cancel_all() {
    std::lock_guard lk(token_mu);
    std::size_t n = 0;
    for (auto& [id, token] : inflight) {
      if (!token.cancelled()) {
        token.request_cancel();
        ++n;
      }
    }
    return n;
  }
};

struct QueueItem {
  Request request;
  std::shared_ptr<Connection> conn;
  CancellationToken token;
  std::uint64_t token_id = 0;
  /// Script hash (journal/quarantine identity), computed at admission.
  std::uint64_t script_hash = 0;
  /// Shared-cache key; `cacheable` is false for trace requests and requests
  /// carrying their own options object.
  CacheKey cache_key;
  bool cacheable = false;
  /// Server-assigned request id (`w<worker>-<seq>`), echoed on every reply —
  /// the join key across logs, traces, and flight-recorder records.
  std::string request_id;
  /// telemetry::now_ns() at admission (queue-wait timing origin).
  std::uint64_t admitted_ns = 0;
  /// Time spent on the shared-cache lookup at admission (a miss; hits are
  /// answered before queueing).
  double cache_seconds = 0.0;
};

struct AtomicStats {
  std::atomic<std::uint64_t> connections_total{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> ok_total{0};
  std::atomic<std::uint64_t> degraded_total{0};
  std::atomic<std::uint64_t> failed_total{0};
  std::atomic<std::uint64_t> invalid_total{0};
  std::atomic<std::uint64_t> overloaded_total{0};
  std::atomic<std::uint64_t> shutting_down_total{0};
  std::atomic<std::uint64_t> disconnect_cancelled_total{0};
  std::atomic<std::uint64_t> watchdog_cancelled_total{0};
  std::atomic<std::uint64_t> admission_rejected_total{0};
  std::atomic<std::uint64_t> quarantined_total{0};
  std::atomic<std::uint64_t> cache_hits_total{0};
  std::atomic<std::uint64_t> cache_misses_total{0};
  std::atomic<std::uint64_t> cache_stores_total{0};
  std::atomic<std::uint64_t> cache_corrupt_total{0};
  std::atomic<std::uint64_t> reloads_total{0};
  std::atomic<std::uint64_t> epoll_wakeups_total{0};
  std::atomic<std::uint64_t> outbuf_bytes{0};
  std::atomic<std::uint64_t> idle_reaped_total{0};
  std::atomic<std::uint64_t> stall_reaped_total{0};
  std::atomic<std::uint64_t> outbuf_reaped_total{0};
};

/// The signal handler's only capability: one byte into the active server's
/// self-pipe ('s' = stop, 'h' = hot reload). Everything else happens on the
/// event loop.
std::atomic<int> g_signal_pipe_fd{-1};

extern "C" void serve_signal_handler(int signum) {
  int fd = g_signal_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char b = signum == SIGHUP ? 'h' : 's';
    [[maybe_unused]] ssize_t r = ::write(fd, &b, 1);
  }
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerConfig config)
      : cfg(std::move(config)),
        engine(cfg.options),
        queue(cfg.max_queue),
        c_ok(&telemetry::registry().counter("ideobf_server_requests_total",
                                            "status=\"ok\"")),
        c_degraded(&telemetry::registry().counter(
            "ideobf_server_requests_total", "status=\"degraded\"")),
        c_failed(&telemetry::registry().counter("ideobf_server_requests_total",
                                                "status=\"failed\"")),
        c_invalid(&telemetry::registry().counter("ideobf_server_requests_total",
                                                 "status=\"invalid\"")),
        c_overloaded(&telemetry::registry().counter(
            "ideobf_server_requests_total", "status=\"overloaded\"")),
        c_shutting_down(&telemetry::registry().counter(
            "ideobf_server_requests_total", "status=\"shutting-down\"")),
        c_connections(&telemetry::registry().counter(
            "ideobf_server_connections_total")),
        c_disconnect_cancel(&telemetry::registry().counter(
            "ideobf_server_disconnect_cancel_total")),
        c_drain_cancel(&telemetry::registry().counter(
            "ideobf_watchdog_cancel_total", "source=\"drain\"")),
        c_epoll_wakeups(&telemetry::registry().counter(
            "ideobf_server_epoll_wakeups_total")),
        c_idle_reaped(&telemetry::registry().counter(
            "ideobf_server_idle_reaped_total")),
        c_stall_reaped(&telemetry::registry().counter(
            "ideobf_server_reaped_total", "reason=\"write_stall\"")),
        c_outbuf_reaped(&telemetry::registry().counter(
            "ideobf_server_reaped_total", "reason=\"outbuf_high_water\"")),
        g_outbuf_bytes(
            &telemetry::registry().gauge("ideobf_server_outbuf_bytes")),
        g_queue_depth(
            &telemetry::registry().gauge("ideobf_server_queue_depth")),
        h_request_seconds(&telemetry::registry().histogram(
            "ideobf_server_request_seconds")),
        c_admission_rejected(&telemetry::registry().counter(
            "ideobf_fleet_admission_rejected_total")),
        c_quarantined(&telemetry::registry().counter(
            "ideobf_fleet_quarantined_total")),
        c_cache_hit(&telemetry::registry().counter(
            "ideobf_fleet_cache_requests_total", "result=\"hit\"")),
        c_cache_miss(&telemetry::registry().counter(
            "ideobf_fleet_cache_requests_total", "result=\"miss\"")),
        c_cache_store(&telemetry::registry().counter(
            "ideobf_fleet_cache_stores_total")),
        c_cache_corrupt(&telemetry::registry().counter(
            "ideobf_fleet_cache_corrupt_total")),
        c_reloads(&telemetry::registry().counter(
            "ideobf_fleet_reloads_total")),
        h_cache_hit_seconds(&telemetry::registry().histogram(
            "ideobf_fleet_cache_hit_seconds")),
        h_queue_wait(&telemetry::registry().histogram(
            "ideobf_server_queue_wait_seconds")) {
    live_deadline_ms = cfg.default_deadline_ms;
    live_rate = cfg.admission_rate;
    live_burst = cfg.admission_burst;
    live_hasher = std::make_shared<const RequestHasher>(
        cfg.options, cfg.options.recovery.extra_blocklist);
  }

  ServerConfig cfg;
  Engine engine;
  FairBoundedQueue<QueueItem> queue;
  AtomicStats stats;

  // Interned once; recording is lock-free.
  telemetry::Counter* c_ok;
  telemetry::Counter* c_degraded;
  telemetry::Counter* c_failed;
  telemetry::Counter* c_invalid;
  telemetry::Counter* c_overloaded;
  telemetry::Counter* c_shutting_down;
  telemetry::Counter* c_connections;
  telemetry::Counter* c_disconnect_cancel;
  telemetry::Counter* c_drain_cancel;
  telemetry::Counter* c_epoll_wakeups;
  telemetry::Counter* c_idle_reaped;
  telemetry::Counter* c_stall_reaped;
  telemetry::Counter* c_outbuf_reaped;
  telemetry::Gauge* g_outbuf_bytes;
  telemetry::Gauge* g_queue_depth;
  telemetry::Histogram* h_request_seconds;
  telemetry::Counter* c_admission_rejected;
  telemetry::Counter* c_quarantined;
  telemetry::Counter* c_cache_hit;
  telemetry::Counter* c_cache_miss;
  telemetry::Counter* c_cache_store;
  telemetry::Counter* c_cache_corrupt;
  telemetry::Counter* c_reloads;
  telemetry::Histogram* h_cache_hit_seconds;
  telemetry::Histogram* h_queue_wait;

  int unix_fd = -1;
  int tcp_fd = -1;
  std::uint16_t bound_tcp_port = 0;
  int pipe_r = -1;
  int pipe_w = -1;
  /// Worker-completion doorbell: workers enqueue a response, push the
  /// connection onto `completions`, and ring this; the loop drains and
  /// flushes. Also rung by wait() to start the final flush.
  int event_fd = -1;

  std::unique_ptr<Epoll> ep;
  /// Live connections, keyed by fd. Event-loop-thread-only: no lock. The
  /// map entry pins the Connection (and so its fd) while registered.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::mutex comp_mu;
  std::vector<std::shared_ptr<Connection>> completions;

  // --- observability -------------------------------------------------------
  /// Always-on ring of recent request summaries (the `debug` op); its file
  /// mirror is armed from cfg.flight_recorder_path for supervisor harvest.
  FlightRecorder flight;
  /// Armed from cfg.trace_out_path; installed process-wide so engine
  /// PhaseSpans land in it alongside the serve-side queue-wait spans.
  std::unique_ptr<telemetry::TraceRecorder> trace_recorder;
  std::atomic<std::uint64_t> next_request_seq{1};

  /// Fleet worker index used for labeling; standalone daemons are worker 0.
  [[nodiscard]] int worker_label() const {
    return cfg.worker_index < 0 ? 0 : cfg.worker_index;
  }

  std::string make_request_id() {
    return "w" + std::to_string(worker_label()) + "-" +
           std::to_string(
               next_request_seq.fetch_add(1, std::memory_order_relaxed));
  }

  // --- fleet state ---------------------------------------------------------
  std::unique_ptr<SharedResponseCache> cache;
  int journal_fd = -1;
  std::mutex quarantine_mu;
  std::unordered_set<std::uint64_t> quarantine;  ///< script hashes
  /// Hot-reloadable knobs (SIGHUP): guarded by reload_mu, read per request.
  std::mutex reload_mu;
  std::uint64_t live_deadline_ms = 0;
  double live_rate = 0.0;
  double live_burst = 0.0;
  /// Cache keying under the live blocklist (which it holds); replaced, never
  /// mutated, so a request's snapshot is one shared_ptr copy.
  std::shared_ptr<const RequestHasher> live_hasher;
  bool blocklist_overridden = false;
  /// A shared-cache hit's payload; reused across requests (loop thread).
  std::string hit_payload;

  std::atomic<bool> started{false};
  std::atomic<bool> stop_requested{false};
  /// Set by wait() after the workers drained: the loop's only remaining job
  /// is flushing buffered responses, then it exits.
  std::atomic<bool> finalize_requested{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  std::mutex teardown_mu;
  bool torn_down = false;

  std::jthread io_thread;
  std::jthread driver_thread;
  /// The event-loop thread's id, stored by io_loop itself: reading
  /// io_thread.get_id() raced with start()'s assignment of io_thread.
  std::atomic<std::thread::id> loop_thread_id{};

  [[nodiscard]] bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_id.load();
  }

  // --- response path -------------------------------------------------------

  void ring_doorbell() {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(event_fd, &one, sizeof(one));
  }

  void notify_loop(const std::shared_ptr<Connection>& conn) {
    {
      std::lock_guard lk(comp_mu);
      completions.push_back(conn);
    }
    ring_doorbell();
  }

  /// Dooms a connection from any thread: no more appends, fd shut down so
  /// the loop's read path observes EOF and finishes the reap. Idempotent.
  void doom(const std::shared_ptr<Connection>& conn, CloseReason reason) {
    bool first;
    {
      std::lock_guard lk(conn->out_mu);
      conn->close_reason.store(static_cast<int>(reason),
                               std::memory_order_relaxed);
      first = !conn->dead.exchange(true, std::memory_order_relaxed);
    }
    if (!first) return;
    ::shutdown(conn->fd, SHUT_RDWR);
    notify_loop(conn);
  }

  /// Queues one response line toward a client: `render(std::string&)`
  /// appends the line, newline included, straight onto the connection's
  /// output buffer (OutputBuffer::append_rendered). Never blocks: from the
  /// loop thread the buffer is flushed opportunistically; from a worker the
  /// loop is rung over the eventfd. A connection already holding
  /// outbuf_high_water_bytes of unread output is doomed instead — the
  /// slow-consumer path costs a bounded buffer, never a stalled thread.
  template <typename Render>
  void enqueue(const std::shared_ptr<Connection>& conn, Render&& render) {
    bool over_cap = false;
    {
      std::lock_guard lk(conn->out_mu);
      if (conn->dead.load(std::memory_order_relaxed)) return;
      if (conn->out.bytes() >= cfg.outbuf_high_water_bytes) {
        over_cap = true;
      } else {
        const std::size_t before = conn->out.bytes();
        conn->out.append_rendered(render);
        if (before == 0) conn->write_progress_at = steady::now();
        const std::size_t added = conn->out.bytes() - before;
        stats.outbuf_bytes.fetch_add(added, std::memory_order_relaxed);
        g_outbuf_bytes->add(static_cast<std::int64_t>(added));
      }
    }
    if (over_cap) {
      stats.outbuf_reaped_total.fetch_add(1, std::memory_order_relaxed);
      c_outbuf_reaped->add();
      doom(conn, CloseReason::OutbufCap);
      return;
    }
    if (on_loop_thread()) {
      flush_conn(conn);
    } else {
      notify_loop(conn);
    }
  }

  void reply(const std::shared_ptr<Connection>& conn, std::string_view line) {
    enqueue(conn, [line](std::string& out) {
      out += line;
      out += '\n';
    });
  }

  // --- request path --------------------------------------------------------

  void handle_line(const std::shared_ptr<Connection>& conn,
                   std::string_view line) {
    WireRequest wire;
    std::string error;
    if (!parse_request_line(line, wire, error)) {
      stats.invalid_total.fetch_add(1, std::memory_order_relaxed);
      c_invalid->add();
      reply(conn, render_error_line("", kStatusInvalid, error));
      return;
    }
    switch (wire.op) {
      case WireRequest::Op::Ping:
        reply(conn, render_pong_line());
        return;
      case WireRequest::Op::Live:
        reply(conn, render_live_line());
        return;
      case WireRequest::Op::Ready:
        reply(conn, render_ready_line(
                        started.load(std::memory_order_relaxed) &&
                        !stop_requested.load(std::memory_order_relaxed)));
        return;
      case WireRequest::Op::Metrics:
        handle_metrics(conn, wire.fleet_scope);
        return;
      case WireRequest::Op::Trace:
        handle_trace(conn);
        return;
      case WireRequest::Op::Debug:
        reply(conn, "{\"status\":\"ok\",\"worker\":" +
                        std::to_string(worker_label()) + ",\"flight\":[" +
                        flight.dump_json() + "]}");
        return;
      case WireRequest::Op::Shutdown:
        if (conn->via_tcp && !cfg.allow_tcp_shutdown) {
          // TCP loopback has no peer authentication; any local process
          // could otherwise terminate the daemon. Shutdown stays a
          // unix-socket (filesystem-permissioned) privilege unless the
          // operator opted in.
          stats.invalid_total.fetch_add(1, std::memory_order_relaxed);
          c_invalid->add();
          reply(conn, render_error_line(
                          "", kStatusInvalid,
                          "shutdown is not permitted over TCP (use the unix "
                          "socket, or start with --allow-tcp-shutdown)"));
          return;
        }
        reply(conn, render_shutdown_line());
        request_stop();
        return;
      case WireRequest::Op::Deobfuscate:
        break;
    }

    stats.requests_total.fetch_add(1, std::memory_order_relaxed);
    // One request id per admitted deobfuscate request, echoed on every
    // reply path — refusals included, so a client can always join its reply
    // against server-side logs and traces.
    const std::string request_id = make_request_id();
    if (stop_requested.load(std::memory_order_relaxed)) {
      stats.shutting_down_total.fetch_add(1, std::memory_order_relaxed);
      c_shutting_down->add();
      reply(conn, render_error_line(wire.request.id, kStatusShuttingDown,
                                    "server is draining", request_id));
      return;
    }

    // Snapshot the hot-reloadable knobs once per request.
    std::uint64_t deadline_default;
    double rate;
    double burst;
    std::shared_ptr<const RequestHasher> hasher;
    bool blocklist_over;
    {
      std::lock_guard lk(reload_mu);
      deadline_default = live_deadline_ms;
      rate = live_rate;
      burst = live_burst;
      hasher = live_hasher;
      blocklist_over = blocklist_overridden;
    }

    Request& request = wire.request;
    if (request.deadline_ms == 0) request.deadline_ms = deadline_default;
    // Shared response cache: requests with inline options or a trace ask
    // (either flavor — a cached line has no span breakdown to serve) are not
    // content-addressable here. One pass over the source yields the script
    // hash (journal/quarantine identity) and, when cacheable, the cache key.
    const bool cacheable = cache != nullptr && !request.trace &&
                           !request.server_trace &&
                           !request.options.has_value();
    SourceHashes hashes;
    if (cacheable) {
      hashes = hasher->hash(request.source, request.deadline_ms,
                            resolve_language(request.language, request.source));
    } else {
      hashes.script = fnv1a64(request.source, 0);
    }

    // Quarantine: a script hash that keeps killing workers is answered
    // terminally here, before it can reach an engine (or a journal) again.
    if (!cfg.quarantine_path.empty()) {
      bool listed;
      {
        std::lock_guard lk(quarantine_mu);
        listed = quarantine.contains(hashes.script);
      }
      if (listed) {
        stats.quarantined_total.fetch_add(1, std::memory_order_relaxed);
        stats.failed_total.fetch_add(1, std::memory_order_relaxed);
        c_quarantined->add();
        c_failed->add();
        Response refusal;
        refusal.id = request.id;
        refusal.result = request.source;  // deobfuscation is total
        refusal.ok = false;
        refusal.failure = FailureKind::Quarantined;
        refusal.failure_detail =
            "script hash " + hash_hex(hashes.script) +
            " is quarantined after repeated worker crashes";
        refusal.report.failure = refusal.failure;
        refusal.report.failure_detail = refusal.failure_detail;
        ResponseExtras extras;
        extras.request_id = request_id;
        extras.worker = worker_label();
        reply(conn, render_response_line(refusal, extras));
        return;
      }
    }

    // Admission control: each client spends from its own token bucket, so
    // one firehosing client is refused at its bucket while everyone else
    // still fits the queue.
    if (rate > 0.0) {
      const double capacity = burst > 0.0 ? burst : std::max(rate, 1.0);
      const double now = now_seconds();
      if (!conn->bucket.try_take(rate, capacity, now)) {
        stats.overloaded_total.fetch_add(1, std::memory_order_relaxed);
        stats.admission_rejected_total.fetch_add(1, std::memory_order_relaxed);
        c_overloaded->add();
        c_admission_rejected->add();
        reply(conn, render_overloaded_line(
                        request.id, "per-client rate limit exceeded",
                        conn->bucket.retry_after_ms(rate, capacity, now),
                        request_id));
        return;
      }
    }

    // A hit is answered straight from the event loop — no queue slot, no
    // engine, no journal entry: the verified cached line is spliced with
    // this request's ids directly into the connection's output buffer.
    double cache_seconds = 0.0;
    if (cacheable) {
      const std::uint64_t t0 = telemetry::now_ns();
      const CacheLookup found = cache->lookup(hashes.key, hit_payload);
      if (found == CacheLookup::Hit &&
          hit_payload.starts_with(kCachedLinePrefix)) {
        // Counted before the reply can reach the client.
        stats.cache_hits_total.fetch_add(1, std::memory_order_relaxed);
        stats.ok_total.fetch_add(1, std::memory_order_relaxed);
        c_cache_hit->add();
        c_ok->add();
        h_cache_hit_seconds->observe_ns(telemetry::now_ns() - t0);
        enqueue(conn, [&](std::string& out) {
          append_cached_response_line(hit_payload, request.id, out,
                                      request_id);
          out += '\n';
        });
        return;
      }
      cache_seconds = static_cast<double>(telemetry::now_ns() - t0) / 1e9;
      stats.cache_misses_total.fetch_add(1, std::memory_order_relaxed);
      c_cache_miss->add();
      if (found == CacheLookup::Corrupt) {
        stats.cache_corrupt_total.fetch_add(1, std::memory_order_relaxed);
        c_cache_corrupt->add();
      }
    }

    QueueItem item;
    item.request = std::move(request);
    item.conn = conn;
    item.script_hash = hashes.script;
    item.cache_key = hashes.key;
    item.cacheable = cacheable;
    item.cache_seconds = cache_seconds;

    // Hot-reloaded blocklist: applied by attaching the server's effective
    // options to requests that carry none (the request then runs on its own
    // pipeline configuration, so no engine rebuild is needed).
    if (blocklist_over && !item.request.options.has_value()) {
      item.request.options = cfg.options;
      item.request.options->recovery.extra_blocklist = hasher->blocklist();
    }

    item.request_id = request_id;
    item.admitted_ns = telemetry::now_ns();
    item.token = CancellationToken::make();
    item.token_id = conn->add_token(item.token);
    const std::string id = item.request.id;
    const std::uint64_t token_id = item.token_id;
    if (!queue.try_push(conn->client_id, std::move(item))) {
      conn->remove_token(token_id);
      stats.overloaded_total.fetch_add(1, std::memory_order_relaxed);
      c_overloaded->add();
      reply(conn, render_error_line(id, kStatusOverloaded,
                                    "request queue is full", request_id));
      return;
    }
    g_queue_depth->add(1);
  }

  // --- observability ops ---------------------------------------------------

  /// Rewrites this worker's durable snapshot (atomic tmp + rename), so the
  /// supervisor and fleet-scope scrapes see fresh totals. Called on every
  /// metrics op, on SIGHUP, and once more at teardown.
  void dump_metrics_snapshot() {
    if (cfg.metrics_snapshot_path.empty()) return;
    telemetry::MetricsSnapshotFile file;
    file.worker = worker_label();
    file.unix_seconds = static_cast<std::uint64_t>(::time(nullptr));
    file.requests_total = stats.requests_total.load(std::memory_order_relaxed);
    file.snapshot = telemetry::registry().snapshot();
    std::string error;
    if (!telemetry::write_file_atomic(cfg.metrics_snapshot_path,
                                      telemetry::serialize_snapshot(file),
                                      error) &&
        telemetry::log_enabled(telemetry::LogLevel::Warn)) {
      telemetry::LogEvent(telemetry::LogLevel::Warn, "server",
                          "metrics-snapshot-write-failed")
          .field("error", error);
    }
  }

  void handle_metrics(const std::shared_ptr<Connection>& conn,
                      bool fleet_scope) {
    telemetry::register_build_info();
    telemetry::update_uptime_gauge();
    dump_metrics_snapshot();
    const int worker = worker_label();
    if (!fleet_scope) {
      reply(conn,
            render_metrics_line(
                telemetry::render_prometheus(telemetry::registry()), worker));
      return;
    }
    // Fleet scope: this worker's live registry plus every sibling's durable
    // snapshot from the shared state directory.
    std::vector<telemetry::MetricsSnapshotFile> files;
    telemetry::MetricsSnapshotFile own;
    own.worker = worker;
    own.unix_seconds = static_cast<std::uint64_t>(::time(nullptr));
    own.requests_total = stats.requests_total.load(std::memory_order_relaxed);
    own.snapshot = telemetry::registry().snapshot();
    files.push_back(std::move(own));
    collect_sibling_snapshots(files);
    const int merged = static_cast<int>(files.size());
    reply(conn, render_metrics_line(
                    telemetry::render_prometheus(
                        telemetry::merge_snapshots(files)),
                    worker, merged));
  }

  /// Parses `metrics.N` files next to this worker's own snapshot path,
  /// skipping its own worker index (the live registry already covers it).
  void collect_sibling_snapshots(
      std::vector<telemetry::MetricsSnapshotFile>& files) {
    if (cfg.metrics_snapshot_path.empty()) return;
    const std::size_t slash = cfg.metrics_snapshot_path.rfind('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : cfg.metrics_snapshot_path.substr(0, slash);
    DIR* dp = ::opendir(dir.c_str());
    if (dp == nullptr) return;
    while (dirent* entry = ::readdir(dp)) {
      const std::string_view name(entry->d_name);
      if (!name.starts_with("metrics.")) continue;
      const std::string_view suffix = name.substr(8);
      if (suffix.empty() ||
          suffix.find_first_not_of("0123456789") != std::string_view::npos) {
        continue;
      }
      std::ifstream in(dir + "/" + std::string(name));
      if (!in.is_open()) continue;
      std::ostringstream buf;
      buf << in.rdbuf();
      telemetry::MetricsSnapshotFile file;
      std::string error;
      if (!telemetry::parse_snapshot(buf.str(), file, error)) {
        if (telemetry::log_enabled(telemetry::LogLevel::Warn)) {
          telemetry::LogEvent(telemetry::LogLevel::Warn, "server",
                              "sibling-snapshot-unreadable")
              .field("file", std::string(name))
              .field("error", error);
        }
        continue;
      }
      if (file.worker == worker_label()) continue;  // own stale dump
      files.push_back(std::move(file));
    }
    ::closedir(dp);
  }

  void handle_trace(const std::shared_ptr<Connection>& conn) {
    telemetry::TraceRecorder* rec = telemetry::Telemetry::trace_recorder();
    if (rec == nullptr) {
      stats.invalid_total.fetch_add(1, std::memory_order_relaxed);
      c_invalid->add();
      reply(conn, render_error_line(
                      "", kStatusInvalid,
                      "no trace recorder armed (start serve with "
                      "--trace-out)"));
      return;
    }
    JsonWriter w;
    w.begin_object();
    w.field("status", kStatusOk);
    w.field("worker", static_cast<std::int64_t>(worker_label()));
    w.field("chrome_trace", rec->render());
    w.end_object();
    reply(conn, w.str());
  }

  /// Journal bookkeeping around a dispatch: one fixed-size record per
  /// worker slot, rewritten in place. The kernel page cache makes the
  /// record survive this process's death (no fsync needed — the record only
  /// has to outlive the worker, not a machine crash).
  void journal_dispatch(unsigned slot, std::uint64_t script_hash) {
    if (journal_fd < 0) return;
    char record[kJournalRecordBytes];
    std::memset(record, ' ', sizeof(record));
    const std::string hex = hash_hex(script_hash);
    record[0] = 'A';
    std::memcpy(record + 2, hex.data(), hex.size());
    record[sizeof(record) - 1] = '\n';
    const ssize_t r =
        ::pwrite(journal_fd, record, sizeof(record),
                 static_cast<off_t>(slot) * kJournalRecordBytes);
    if (r != static_cast<ssize_t>(sizeof(record)) &&
        telemetry::log_enabled(telemetry::LogLevel::Warn)) {
      // A failed journal write silently blinds the supervisor's crash
      // attribution — worth a structured record.
      telemetry::LogEvent(telemetry::LogLevel::Warn, "server",
                          "journal-write-failed")
          .field("slot", static_cast<std::int64_t>(slot))
          .field("errno", r < 0 ? errno : 0)
          .field("script", hex);
    }
  }

  void journal_done(unsigned slot) {
    if (journal_fd < 0) return;
    char record[kJournalRecordBytes];
    std::memset(record, ' ', sizeof(record));
    record[0] = 'D';
    record[sizeof(record) - 1] = '\n';
    [[maybe_unused]] ssize_t r =
        ::pwrite(journal_fd, record, sizeof(record),
                 static_cast<off_t>(slot) * kJournalRecordBytes);
  }

  void process(QueueItem& item, unsigned slot) {
    g_queue_depth->sub(1);
    // Queue wait: admission to worker-slot dispatch. Recorded straight into
    // the trace recorder (never via PhaseSpan, which would land it in the
    // engine profile and break the self-time partition invariant).
    const std::uint64_t dispatched_ns = telemetry::now_ns();
    const std::uint64_t queue_wait_ns =
        item.admitted_ns != 0 && dispatched_ns > item.admitted_ns
            ? dispatched_ns - item.admitted_ns
            : 0;
    const double queue_seconds = static_cast<double>(queue_wait_ns) / 1e9;
    h_queue_wait->observe_ns(queue_wait_ns);
    if (telemetry::TraceRecorder* rec =
            telemetry::Telemetry::trace_recorder()) {
      rec->record(telemetry::Phase::QueueWait, {}, item.admitted_ns,
                  queue_wait_ns);
    }
    if (item.conn->dead.load(std::memory_order_relaxed)) {
      // Client already gone; its tokens were cancelled at the reap. Do
      // not burn a worker slot on output nobody will read.
      item.conn->remove_token(item.token_id);
      return;
    }
    // Flight record + journal record must both cover every instruction that
    // touches the request — including the injected crash below, which is
    // exactly the spot a hostile script would take the process down for
    // real. An abnormal death leaves this record saying "inflight", which
    // is what the supervisor's postmortem harvest looks for.
    FlightRecorder::Record frec;
    frec.request_id = item.request_id;
    frec.client_id = item.request.id;
    frec.script_hash = hash_hex(item.script_hash);
    frec.client = item.conn->client_id;
    frec.queue_seconds = queue_seconds;
    const std::uint64_t flight_seq = flight.begin(std::move(frec));
    journal_dispatch(slot, item.script_hash);
    if (cfg.server_fault != nullptr) {
      cfg.server_fault->inject(FaultSite::WorkerAbort, &item.request.source);
      cfg.server_fault->inject(FaultSite::WorkerHang, &item.request.source);
    }
    Response response = engine.handle(item.request, item.token);
    journal_done(slot);
    flight.finish(flight_seq, status_of(response),
                  response.report.profile.total_seconds(
                      telemetry::Phase::Pipeline),
                  response.seconds, response.report.profile);
    item.conn->remove_token(item.token_id);

    // Publish cacheable full-strength responses for the whole fleet. The
    // cached line is rendered with an empty id (spliced per request on the
    // hit path); degraded/failed responses are never cached — a response
    // shaped by this call's deadline pressure must not be replayed.
    if (item.cacheable && cache != nullptr && response.ok &&
        response.report.degradation_rung == 0 &&
        response.report.trace.empty()) {
      Response anonymous = response;
      anonymous.id.clear();
      if (cache->store(item.cache_key, render_response_line(anonymous))) {
        stats.cache_stores_total.fetch_add(1, std::memory_order_relaxed);
        c_cache_store->add();
        if (cfg.server_fault != nullptr) {
          std::string probe = item.request.source;
          if (cfg.server_fault->inject(FaultSite::CacheCorrupt, &probe)) {
            cache->corrupt_entry(item.cache_key);
          }
        }
      }
    }

    const std::string_view status = status_of(response);
    if (status == kStatusOk) {
      stats.ok_total.fetch_add(1, std::memory_order_relaxed);
      c_ok->add();
    } else if (status == kStatusDegraded) {
      stats.degraded_total.fetch_add(1, std::memory_order_relaxed);
      c_degraded->add();
    } else {
      stats.failed_total.fetch_add(1, std::memory_order_relaxed);
      c_failed->add();
    }
    h_request_seconds->observe_seconds(response.seconds);
    ResponseExtras extras;
    extras.request_id = item.request_id;
    extras.worker = worker_label();
    if (item.request.trace || item.request.server_trace) {
      extras.server_trace = true;
      extras.queue_seconds = queue_seconds;
      extras.cache_seconds = item.cache_seconds;
    }
    reply(item.conn, render_response_line(response, extras));
  }

  void worker_slot(unsigned slot) {
    telemetry::set_current_shard(slot);
    QueueItem item;
    while (queue.pop(item)) {
      process(item, slot);
      item = QueueItem{};  // drop conn/token references promptly
    }
  }

  // --- the event loop ------------------------------------------------------

  /// Finishes a connection on the loop thread: deregisters, drops any
  /// unflushed output, cancels the client's outstanding work. Idempotent —
  /// every teardown path (EOF, error, idle/stall/cap reap, drain) lands
  /// here exactly once per connection.
  void reap_conn(const std::shared_ptr<Connection>& conn,
                 CloseReason fallback) {
    auto it = conns.find(conn->fd);
    if (it == conns.end() || it->second != conn) return;
    conns.erase(it);
    ep->del(conn->fd);
    std::size_t dropped;
    {
      std::lock_guard lk(conn->out_mu);
      conn->dead.store(true, std::memory_order_relaxed);
      dropped = conn->out.bytes();
    }
    if (dropped > 0) {
      stats.outbuf_bytes.fetch_sub(dropped, std::memory_order_relaxed);
      g_outbuf_bytes->sub(static_cast<std::int64_t>(dropped));
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    const int stored = conn->close_reason.load(std::memory_order_relaxed);
    const CloseReason reason = stored != 0 ? static_cast<CloseReason>(stored)
                                           : fallback;
    switch (reason) {
      case CloseReason::Idle:
        stats.idle_reaped_total.fetch_add(1, std::memory_order_relaxed);
        c_idle_reaped->add();
        break;
      case CloseReason::WriteStall:
        stats.stall_reaped_total.fetch_add(1, std::memory_order_relaxed);
        c_stall_reaped->add();
        break;
      default:
        break;  // Disconnect / OutbufCap counted where detected
    }
    const std::size_t cancelled = conn->cancel_all();
    if (cancelled > 0) {
      stats.disconnect_cancelled_total.fetch_add(cancelled,
                                                 std::memory_order_relaxed);
      c_disconnect_cancel->add(cancelled);
    }
    stats.connections_active.fetch_sub(1, std::memory_order_relaxed);
    // Reaps other than an ordinary hangup were previously invisible outside
    // the counters; name the client and the why.
    if (reason != CloseReason::Disconnect &&
        telemetry::log_enabled(telemetry::LogLevel::Info)) {
      telemetry::LogEvent(telemetry::LogLevel::Info, "server", "conn-reaped")
          .field("client", conn->client_id)
          .field("reason", reason == CloseReason::Idle        ? "idle"
                           : reason == CloseReason::WriteStall ? "write-stall"
                           : reason == CloseReason::OutbufCap
                               ? "outbuf-high-water"
                               : "other")
          .field("cancelled", static_cast<std::uint64_t>(cancelled));
    }
  }

  /// Flushes a connection's buffered output as far as the socket allows and
  /// keeps EPOLLOUT armed exactly while bytes remain. Loop-thread-only.
  void flush_conn(const std::shared_ptr<Connection>& conn) {
    auto it = conns.find(conn->fd);
    if (it == conns.end() || it->second != conn) return;  // already reaped
    OutputBuffer::FlushResult result;
    std::size_t flushed;
    {
      std::lock_guard lk(conn->out_mu);
      if (conn->dead.load(std::memory_order_relaxed)) return;
      const std::size_t before = conn->out.bytes();
      result = before == 0 ? OutputBuffer::FlushResult::Drained
                           : conn->out.flush(conn->fd);
      flushed = before - conn->out.bytes();
      if (flushed > 0) conn->write_progress_at = steady::now();
    }
    if (flushed > 0) {
      stats.outbuf_bytes.fetch_sub(flushed, std::memory_order_relaxed);
      g_outbuf_bytes->sub(static_cast<std::int64_t>(flushed));
    }
    if (result == OutputBuffer::FlushResult::Error) {
      reap_conn(conn, CloseReason::Disconnect);
      return;
    }
    const bool want = result == OutputBuffer::FlushResult::Partial;
    if (want != conn->want_write) {
      conn->want_write = want;
      ep->mod(conn->fd, EPOLLIN | (want ? EPOLLOUT : 0u));
    }
  }

  void accept_ready(int lfd, bool via_tcp) {
    for (;;) {
      int cfd = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: drained — or, on a fleet's shared listener, a sibling
        // worker won this connection. Either way, back to epoll. Anything
        // else (EMFILE, ENFILE, ...) was a silently dropped client.
        if (errno != EAGAIN && errno != EWOULDBLOCK &&
            telemetry::log_enabled(telemetry::LogLevel::Warn)) {
          telemetry::LogEvent(telemetry::LogLevel::Warn, "server",
                              "accept-failed")
              .field("errno", errno)
              .field_bool("tcp", via_tcp);
        }
        return;
      }
      stats.connections_total.fetch_add(1, std::memory_order_relaxed);
      stats.connections_active.fetch_add(1, std::memory_order_relaxed);
      c_connections->add();
      auto conn = std::make_shared<Connection>(cfd, via_tcp);
      conn->last_line_at = steady::now();
      conns.emplace(cfd, conn);
      ep->add(cfd, EPOLLIN);
    }
  }

  void on_readable(const std::shared_ptr<Connection>& conn) {
    char chunk[65536];
    for (;;) {
      ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        reap_conn(conn, CloseReason::Disconnect);
        return;
      }
      conn->in.append(chunk, static_cast<std::size_t>(n));
      std::string_view line;
      while (conn->in.next(line)) {
        conn->last_line_at = steady::now();
        if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
        handle_line(conn, line);
        if (conn->dead.load(std::memory_order_relaxed) ||
            !conns.contains(conn->fd)) {
          reap_conn(conn, CloseReason::Disconnect);
          return;
        }
      }
      if (conn->in.overflowed()) {
        stats.invalid_total.fetch_add(1, std::memory_order_relaxed);
        c_invalid->add();
        reply(conn,
              render_error_line("", kStatusInvalid, "request line too long"));
        reap_conn(conn, CloseReason::Disconnect);
        return;
      }
      // Short read: the socket is drained. (Level-triggered epoll makes
      // this a safe heuristic — a racing refill re-arms the event.) It also
      // bounds how long one firehosing client can hog the loop.
      if (n < static_cast<ssize_t>(sizeof(chunk))) return;
    }
  }

  void drain_completions() {
    std::vector<std::shared_ptr<Connection>> batch;
    {
      std::lock_guard lk(comp_mu);
      batch.swap(completions);
    }
    for (const std::shared_ptr<Connection>& conn : batch) {
      if (conn->dead.load(std::memory_order_relaxed)) {
        reap_conn(conn, CloseReason::Disconnect);
      } else {
        flush_conn(conn);
      }
    }
  }

  /// Periodic reaper sweep: write-stalled consumers (buffered output, no
  /// progress for send_timeout_seconds) and idle connections (no complete
  /// request for idle_timeout_seconds, nothing pending in either
  /// direction). Loop-thread-only.
  void scan_timeouts(steady::time_point now) {
    const double stall_to = cfg.send_timeout_seconds;
    const double idle_to = cfg.idle_timeout_seconds;
    if (stall_to <= 0.0 && idle_to <= 0.0) return;
    std::vector<std::pair<std::shared_ptr<Connection>, CloseReason>> victims;
    for (const auto& [fd, conn] : conns) {
      bool pending;
      steady::time_point progress_at;
      {
        std::lock_guard lk(conn->out_mu);
        pending = !conn->out.empty();
        progress_at = conn->write_progress_at;
      }
      if (pending) {
        if (stall_to > 0.0 &&
            std::chrono::duration<double>(now - progress_at).count() >=
                stall_to) {
          victims.emplace_back(conn, CloseReason::WriteStall);
        }
      } else if (idle_to > 0.0 &&
                 std::chrono::duration<double>(now - conn->last_line_at)
                         .count() >= idle_to &&
                 conn->idle_tokens()) {
        victims.emplace_back(conn, CloseReason::Idle);
      }
    }
    for (const auto& [conn, reason] : victims) reap_conn(conn, reason);
  }

  /// Cancels every connection's outstanding requests, queued ones included:
  /// their tokens are registered at admission. Run by the periodic pass
  /// once a graceful drain has lasted drain_grace_seconds. Loop-thread-only.
  void cancel_past_drain_grace() {
    for (const auto& [fd, conn] : conns) {
      const std::size_t cancelled = conn->cancel_all();
      if (cancelled > 0) {
        stats.watchdog_cancelled_total.fetch_add(cancelled,
                                                 std::memory_order_relaxed);
        c_drain_cancel->add(cancelled);
      }
    }
  }

  void close_listeners() {
    if (unix_fd >= 0) {
      ep->del(unix_fd);
      ::close(unix_fd);
      unix_fd = -1;
    }
    if (tcp_fd >= 0) {
      ep->del(tcp_fd);
      ::close(tcp_fd);
      tcp_fd = -1;
    }
    // An inherited listener belongs to the supervisor: other workers are
    // still accepting on the same socket, so never unlink the path here.
    if (!cfg.unix_socket_path.empty() && cfg.inherited_unix_fd < 0) {
      ::unlink(cfg.unix_socket_path.c_str());
    }
  }

  void io_loop() {
    loop_thread_id.store(std::this_thread::get_id());
    std::vector<epoll_event> events(128);
    steady::time_point next_scan = steady::now();
    steady::time_point finalize_deadline{};
    steady::time_point drain_cancel_at = steady::time_point::max();
    bool listeners_open = true;
    bool finalizing = false;
    for (;;) {
      const steady::time_point now = steady::now();
      if (listeners_open && stop_requested.load(std::memory_order_relaxed)) {
        close_listeners();
        listeners_open = false;
        if (cfg.drain_grace_seconds > 0.0) {
          drain_cancel_at = now + std::chrono::duration_cast<steady::duration>(
                                      std::chrono::duration<double>(
                                          cfg.drain_grace_seconds));
        }
      }
      if (!finalizing && finalize_requested.load(std::memory_order_acquire)) {
        // Workers are done; every response is buffered. Flush what the
        // clients will read, bounded by the stall budget — a consumer that
        // stops reading now cannot hold the shutdown hostage.
        finalizing = true;
        finalize_deadline =
            cfg.send_timeout_seconds > 0.0
                ? now + std::chrono::duration_cast<steady::duration>(
                            std::chrono::duration<double>(
                                cfg.send_timeout_seconds + 0.25))
                : steady::time_point::max();
      }
      if (finalizing) {
        bool output_pending = false;
        for (const auto& [fd, conn] : conns) {
          std::lock_guard lk(conn->out_mu);
          if (!conn->out.empty()) {
            output_pending = true;
            break;
          }
        }
        if (!output_pending || now >= finalize_deadline) break;
      }

      const int n = ep->wait(events.data(), static_cast<int>(events.size()),
                             finalizing ? 20 : 100);
      if (n > 0) {
        stats.epoll_wakeups_total.fetch_add(1, std::memory_order_relaxed);
        c_epoll_wakeups->add();
      }
      bool stop_byte = false;
      bool hup_byte = false;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ev = events[i].events;
        if (fd == pipe_r) {
          // Self-pipe bytes: 's' = stop (possibly straight from a signal
          // handler that could not call request_stop itself), 'h' = SIGHUP
          // hot reload of limits/blocklist/quarantine.
          char drain[64];
          ssize_t r;
          while ((r = ::read(pipe_r, drain, sizeof(drain))) > 0) {
            for (ssize_t j = 0; j < r; ++j) {
              if (drain[j] == 'h') {
                hup_byte = true;
              } else {
                stop_byte = true;
              }
            }
          }
        } else if (fd == event_fd) {
          std::uint64_t count;
          while (::read(event_fd, &count, sizeof(count)) > 0) {
          }
        } else if (listeners_open && fd == unix_fd) {
          accept_ready(fd, false);
        } else if (listeners_open && fd == tcp_fd) {
          accept_ready(fd, true);
        } else {
          auto it = conns.find(fd);
          if (it == conns.end()) continue;
          std::shared_ptr<Connection> conn = it->second;
          if ((ev & EPOLLERR) != 0) {
            reap_conn(conn, CloseReason::Disconnect);
            continue;
          }
          if ((ev & EPOLLOUT) != 0) flush_conn(conn);
          if ((ev & (EPOLLIN | EPOLLHUP)) != 0 && conns.contains(fd)) {
            on_readable(conn);
          }
        }
      }
      if (hup_byte) reload();
      if (stop_byte) request_stop();
      drain_completions();
      if (now >= next_scan) {
        scan_timeouts(now);
        if (now >= drain_cancel_at) cancel_past_drain_grace();
        next_scan = now + std::chrono::milliseconds(100);
      }
    }
    // Teardown: whatever is still connected is done being served (workers
    // have drained; output either flushed or past its stall budget).
    std::vector<std::shared_ptr<Connection>> remaining;
    remaining.reserve(conns.size());
    for (const auto& [fd, conn] : conns) remaining.push_back(conn);
    for (const std::shared_ptr<Connection>& conn : remaining) {
      reap_conn(conn, CloseReason::Disconnect);
    }
  }

  // --- hot reload ----------------------------------------------------------

  /// SIGHUP: re-reads the quarantine file and (when configured) the reload
  /// config JSON. Unparseable input keeps the previous values — a bad edit
  /// must not take a serving worker down.
  void reload() {
    if (!cfg.quarantine_path.empty()) load_quarantine();
    if (!cfg.reload_config_path.empty()) load_reload_config();
    // SIGHUP doubles as the fleet-wide "dump your metrics snapshot" signal
    // (the supervisor forwards it to every worker), so a fleet-scope scrape
    // right after a SIGHUP sees every sibling fresh.
    dump_metrics_snapshot();
    stats.reloads_total.fetch_add(1, std::memory_order_relaxed);
    c_reloads->add();
    if (telemetry::log_enabled(telemetry::LogLevel::Info)) {
      std::size_t quarantine_size;
      {
        std::lock_guard lk(quarantine_mu);
        quarantine_size = quarantine.size();
      }
      telemetry::LogEvent(telemetry::LogLevel::Info, "server", "reloaded")
          .field("quarantine_size",
                 static_cast<std::uint64_t>(quarantine_size));
    }
  }

  void load_quarantine() {
    std::ifstream in(cfg.quarantine_path);
    if (!in.is_open()) return;  // no file yet = nothing quarantined
    std::unordered_set<std::uint64_t> fresh;
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
        line.pop_back();
      }
      // hash_hex's spelling only: 16 lowercase hex digits.
      std::uint64_t hash = 0;
      if (line.size() == 16 &&
          line.find_first_not_of("0123456789abcdef") == std::string::npos &&
          std::from_chars(line.data(), line.data() + 16, hash, 16).ec ==
              std::errc()) {
        fresh.insert(hash);
      }
    }
    std::lock_guard lk(quarantine_mu);
    quarantine = std::move(fresh);
  }

  void load_reload_config() {
    std::ifstream in(cfg.reload_config_path);
    if (!in.is_open()) return;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::optional<JsonValue> doc = parse_json(buf.str());
    if (!doc.has_value() || !doc->is_object()) {
      // Previous values stay live; the operator who fat-fingered the JSON
      // deserves more than silence.
      if (telemetry::log_enabled(telemetry::LogLevel::Warn)) {
        telemetry::LogEvent(telemetry::LogLevel::Warn, "server",
                            "reload-config-invalid")
            .field("path", cfg.reload_config_path);
      }
      return;
    }
    std::lock_guard lk(reload_mu);
    if (const JsonValue* v = doc->find("default_deadline_ms");
        v != nullptr && v->is_number()) {
      live_deadline_ms = static_cast<std::uint64_t>(v->as_double());
    }
    if (const JsonValue* v = doc->find("admission_rate");
        v != nullptr && v->is_number()) {
      live_rate = v->as_double();
    }
    if (const JsonValue* v = doc->find("admission_burst");
        v != nullptr && v->is_number()) {
      live_burst = v->as_double();
    }
    if (const JsonValue* v = doc->find("extra_blocklist");
        v != nullptr && v->is_array()) {
      std::vector<std::string> names;
      for (const JsonValue& item : *v->as_array()) {
        if (item.is_string()) names.push_back(item.as_string());
      }
      // Besides start-up, the one place a hasher is built: the new
      // blocklist feeds every later request's cache key.
      live_hasher = std::make_shared<const RequestHasher>(cfg.options,
                                                          std::move(names));
      blocklist_overridden = true;
    }
  }

  // --- lifecycle -----------------------------------------------------------

  void request_stop() {
    bool expected = false;
    if (!stop_requested.compare_exchange_strong(expected, true)) return;
    {
      // Taken so that wait() cannot miss the notify between its check and
      // its sleep.
      std::lock_guard lk(stop_mu);
    }
    stop_cv.notify_all();
    if (pipe_w >= 0) {
      char b = 's';
      [[maybe_unused]] ssize_t r = ::write(pipe_w, &b, 1);
    }
  }
};

Server::Server(ServerConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() {
  if (impl_->started.load(std::memory_order_relaxed)) stop();
  int expected = impl_->pipe_w;
  g_signal_pipe_fd.compare_exchange_strong(expected, -1);
  if (impl_->pipe_r >= 0) ::close(impl_->pipe_r);
  if (impl_->pipe_w >= 0) ::close(impl_->pipe_w);
  if (impl_->event_fd >= 0) ::close(impl_->event_fd);
  if (impl_->journal_fd >= 0) ::close(impl_->journal_fd);
}

void Server::start() {
  Impl& s = *impl_;
  if (s.started.exchange(true)) {
    throw std::logic_error("Server::start() called twice");
  }
  int pfd[2];
  if (::pipe2(pfd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  s.pipe_r = pfd[0];
  s.pipe_w = pfd[1];
  s.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (s.event_fd < 0) throw std::runtime_error("eventfd failed");
  if (s.cfg.inherited_unix_fd >= 0) {
    // Fleet worker: the supervisor bound the listener before fork+exec;
    // every worker accept()ing on the same fd is the load balancer. The
    // shared fd must be non-blocking here — with siblings racing for the
    // same backlog, a readiness event is a hint, not a guarantee, and a
    // blocking accept() would wedge this worker's whole event loop.
    s.unix_fd = s.cfg.inherited_unix_fd;
    set_nonblocking(s.unix_fd);
  } else {
    s.unix_fd = make_unix_listener(s.cfg.unix_socket_path);
  }
  if (s.cfg.inherited_tcp_fd >= 0) {
    s.tcp_fd = s.cfg.inherited_tcp_fd;
    set_nonblocking(s.tcp_fd);
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(s.tcp_fd, reinterpret_cast<sockaddr*>(&actual), &len) ==
        0) {
      s.bound_tcp_port = ntohs(actual.sin_port);
    }
  } else if (s.cfg.tcp) {
    s.tcp_fd = make_tcp_listener(s.cfg.tcp_port, s.bound_tcp_port);
  }

  if (!s.cfg.crash_journal_path.empty()) {
    s.journal_fd = ::open(s.cfg.crash_journal_path.c_str(),
                          O_RDWR | O_CREAT | O_CLOEXEC, 0600);
    if (s.journal_fd < 0) {
      throw std::runtime_error("cannot open crash journal '" +
                               s.cfg.crash_journal_path +
                               "': " + std::strerror(errno));
    }
  }
  if (!s.cfg.cache_path.empty()) {
    SharedResponseCache::Config cc;
    cc.path = s.cfg.cache_path;
    cc.slot_count = s.cfg.cache_slots;
    cc.slot_bytes = s.cfg.cache_slot_bytes;
    std::string cache_error;
    s.cache = SharedResponseCache::open(cc, cache_error);
    if (s.cache == nullptr) {
      throw std::runtime_error("shared cache: " + cache_error);
    }
  }
  if (!s.cfg.quarantine_path.empty()) s.load_quarantine();
  if (!s.cfg.reload_config_path.empty()) s.load_reload_config();

  // Observability plane: build/worker identity series, the structured-log
  // worker stamp, the flight-recorder file mirror, and (when asked) the
  // process-wide Chrome trace recorder. A resident service always records:
  // the metrics op is part of the protocol and `"trace": true` replies
  // carry the engine span breakdown, so phase accounting must be live even
  // for embedded (in-process) servers that never went through the CLI.
  telemetry::Telemetry::enable();
  telemetry::register_build_info();
  const int widx = s.worker_label();
  telemetry::registry()
      .gauge("ideobf_worker_id",
             telemetry::prom_label("worker", std::to_string(widx)))
      .set(widx);
  if (s.cfg.worker_index >= 0) telemetry::set_log_worker(s.cfg.worker_index);
  if (!s.cfg.flight_recorder_path.empty()) {
    std::string error;
    if (!s.flight.open_mirror(s.cfg.flight_recorder_path, error)) {
      throw std::runtime_error(error);
    }
  }
  if (!s.cfg.trace_out_path.empty()) {
    s.trace_recorder = std::make_unique<telemetry::TraceRecorder>();
    telemetry::Telemetry::set_trace_recorder(s.trace_recorder.get());
  }

  s.ep = std::make_unique<Epoll>();
  s.ep->add(s.pipe_r, EPOLLIN);
  s.ep->add(s.event_fd, EPOLLIN);
  s.ep->add(s.unix_fd, EPOLLIN);
  if (s.tcp_fd >= 0) s.ep->add(s.tcp_fd, EPOLLIN);

  unsigned threads = s.cfg.threads != 0 ? s.cfg.threads
                                        : std::thread::hardware_concurrency();
  if (threads == 0) threads = 2;
  // The calling executor counts as a slot, so the pool can staff at most
  // worker_count() + 1 concurrent loops; more would just idle in the queue.
  threads = std::min(threads, ps::WorkerPool::instance().worker_count() + 1);

  s.driver_thread = std::jthread([&s, threads] {
    ps::WorkerPool::instance().parallel(
        threads, threads,
        [&s](std::size_t, unsigned slot) { s.worker_slot(slot); });
  });
  s.io_thread = std::jthread([&s] { s.io_loop(); });
}

void Server::request_stop() { impl_->request_stop(); }

void Server::wait() {
  Impl& s = *impl_;
  {
    std::unique_lock lk(s.stop_mu);
    s.stop_cv.wait(lk, [&] {
      return s.stop_requested.load(std::memory_order_relaxed);
    });
  }
  std::lock_guard teardown(s.teardown_mu);
  if (s.torn_down) return;
  // The event loop closed (or is about to close) the listeners; everything
  // accepted before the stop still gets served (pop() drains the queue
  // before reporting closed), with responses flushed by the loop as the
  // workers complete them.
  s.queue.close();
  if (s.driver_thread.joinable()) s.driver_thread.join();
  // Workers are done: tell the loop this was the last of the output, let it
  // finish flushing (bounded by the stall budget), then join it.
  s.finalize_requested.store(true, std::memory_order_release);
  s.ring_doorbell();
  if (s.io_thread.joinable()) s.io_thread.join();
  // Flush the observability tail: the full Chrome trace to --trace-out and
  // one last snapshot so terminal request totals survive this process.
  if (s.trace_recorder != nullptr) {
    telemetry::Telemetry::set_trace_recorder(nullptr);
    std::string error;
    if (!telemetry::write_file_atomic(s.cfg.trace_out_path,
                                      s.trace_recorder->render(), error) &&
        telemetry::log_enabled(telemetry::LogLevel::Warn)) {
      telemetry::LogEvent(telemetry::LogLevel::Warn, "server",
                          "trace-write-failed")
          .field("error", error);
    }
  }
  s.dump_metrics_snapshot();
  s.torn_down = true;
}

void Server::stop() {
  request_stop();
  wait();
}

std::uint16_t Server::tcp_port() const { return impl_->bound_tcp_port; }

ServerStats Server::stats() const {
  const AtomicStats& a = impl_->stats;
  ServerStats out;
  out.connections_total = a.connections_total.load(std::memory_order_relaxed);
  out.connections_active =
      a.connections_active.load(std::memory_order_relaxed);
  out.requests_total = a.requests_total.load(std::memory_order_relaxed);
  out.ok_total = a.ok_total.load(std::memory_order_relaxed);
  out.degraded_total = a.degraded_total.load(std::memory_order_relaxed);
  out.failed_total = a.failed_total.load(std::memory_order_relaxed);
  out.invalid_total = a.invalid_total.load(std::memory_order_relaxed);
  out.overloaded_total = a.overloaded_total.load(std::memory_order_relaxed);
  out.shutting_down_total =
      a.shutting_down_total.load(std::memory_order_relaxed);
  out.disconnect_cancelled_total =
      a.disconnect_cancelled_total.load(std::memory_order_relaxed);
  out.watchdog_cancelled_total =
      a.watchdog_cancelled_total.load(std::memory_order_relaxed);
  out.queue_depth = impl_->queue.depth();
  out.admission_rejected_total =
      a.admission_rejected_total.load(std::memory_order_relaxed);
  out.quarantined_total = a.quarantined_total.load(std::memory_order_relaxed);
  out.cache_hits_total = a.cache_hits_total.load(std::memory_order_relaxed);
  out.cache_misses_total =
      a.cache_misses_total.load(std::memory_order_relaxed);
  out.cache_stores_total =
      a.cache_stores_total.load(std::memory_order_relaxed);
  out.cache_corrupt_total =
      a.cache_corrupt_total.load(std::memory_order_relaxed);
  out.reloads_total = a.reloads_total.load(std::memory_order_relaxed);
  out.epoll_wakeups_total =
      a.epoll_wakeups_total.load(std::memory_order_relaxed);
  out.outbuf_bytes = a.outbuf_bytes.load(std::memory_order_relaxed);
  out.idle_reaped_total = a.idle_reaped_total.load(std::memory_order_relaxed);
  out.stall_reaped_total =
      a.stall_reaped_total.load(std::memory_order_relaxed);
  out.outbuf_reaped_total =
      a.outbuf_reaped_total.load(std::memory_order_relaxed);
  return out;
}

void Server::install_signal_handlers() {
  g_signal_pipe_fd.store(impl_->pipe_w, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);  // hot reload, not a stop
  ::signal(SIGPIPE, SIG_IGN);
}

}  // namespace ideobf::server
