// The `ideobf serve` daemon end to end: in-process daemon on a temp Unix
// socket, real clients over the real wire. Round trips, per-request
// envelopes (deadline expiry), bounded-queue backpressure, client
// disconnect cancelling its own in-flight work, graceful drain serving
// everything accepted before the stop, and the canonical cancellation
// detail string shared with the batch watchdog.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/json_writer.h"
#include "core/fault.h"
#include "corpus/corpus.h"
#include "gtest/gtest.h"
#include "ideobf/api.h"
#include "ideobf/client.h"
#include "server/flight_recorder.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/log.h"

namespace {

using ideobf::FailureKind;
using ideobf::Request;
using ideobf::ServeClient;
using ideobf::ServeReply;
using ideobf::server::Server;
using ideobf::server::ServerConfig;

/// The hostile input of choice: runs until something external stops it.
constexpr const char* kInfiniteLoop = "$a = $( while ($true) { 1 } )\n$a\n";
/// A benign input with a predictable normalization.
constexpr const char* kTicked = "wr`ite-ho`st 'hello'";

std::string test_socket(const std::string& name) {
  return "/tmp/ideobf-test-" + name + "-" + std::to_string(::getpid()) +
         ".sock";
}

ServerConfig base_config(const std::string& socket_path) {
  ServerConfig cfg;
  cfg.unix_socket_path = socket_path;
  cfg.threads = 2;
  return cfg;
}

/// A raw fire-and-forget connection, for tests that must send without
/// consuming the reply (pipelining, disconnect) — ServeClient is strictly
/// call/response.
struct RawConn {
  int fd = -1;

  explicit RawConn(const std::string& socket_path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)))
        << std::strerror(errno);
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send_line(std::string line) {
    line.push_back('\n');
    ASSERT_EQ(static_cast<ssize_t>(line.size()),
              ::send(fd, line.data(), line.size(), MSG_NOSIGNAL));
  }

  std::string recv_line() {
    std::string buf;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
      if (c == '\n') return buf;
      buf.push_back(c);
    }
    return buf;
  }
};

Request deobf_request(const std::string& source, const std::string& id,
                      std::uint64_t deadline_ms = 0) {
  Request request;
  request.source = source;
  request.id = id;
  request.deadline_ms = deadline_ms;
  return request;
}

/// A request that genuinely occupies a worker until the clock (or a cancel)
/// stops it: the per-request options lift the per-piece step cap out of
/// reach, exactly like the governor tests do.
Request hostile_request(const std::string& id, std::uint64_t deadline_ms) {
  Request request = deobf_request(kInfiniteLoop, id, deadline_ms);
  ideobf::Options options;
  options.limits.max_steps_per_piece = std::size_t{1} << 40;
  request.options = options;
  return request;
}

}  // namespace

TEST(ServerTest, RoundTripNormalizesAndEchoesId) {
  const std::string sock = test_socket("roundtrip");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  const ServeReply reply = client.call(deobf_request(kTicked, "req-1"));
  EXPECT_EQ(reply.status, "ok");
  EXPECT_TRUE(reply.response.ok);
  EXPECT_EQ(reply.response.id, "req-1");
  EXPECT_NE(reply.response.result.find("Write-Host"), std::string::npos)
      << reply.response.result;
  EXPECT_GT(reply.response.report.token.ticks_removed, 0);
  EXPECT_EQ(reply.response.failure, FailureKind::None);
  EXPECT_GE(reply.response.seconds, 0.0);

  server.stop();
  EXPECT_GE(server.stats().ok_total, 1u);
}

TEST(ServerTest, PingMetricsAndTraceOnTheWire) {
  const std::string sock = test_socket("ops");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  EXPECT_TRUE(client.ping());

  // A traced request round-trips its structured trace through the NDJSON.
  Request request = deobf_request(kTicked, "traced");
  request.trace = true;
  const ServeReply traced = client.call(request);
  EXPECT_EQ(traced.status, "ok");
  EXPECT_FALSE(traced.response.report.trace.empty());

  const std::string metrics = client.metrics();
  EXPECT_NE(metrics.find("ideobf_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("ideobf_server_connections_total"),
            std::string::npos);
  server.stop();
}

TEST(ServerTest, MalformedRequestsAreRefusedNotGuessed) {
  const std::string sock = test_socket("invalid");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  // Malformed JSON, a typoed key, a wrong type, a missing source, integers
  // a cast could not represent, and number spellings outside the JSON
  // grammar must each produce an "invalid" refusal — and the connection
  // stays usable.
  for (const char* bad : {
           "{not json",
           R"({"op":"deobfuscate","source":"x","bogus_key":1})",
           R"({"op":"deobfuscate","source":42})",
           R"({"op":"deobfuscate"})",
           R"({"op":"deobfuscate","source":"x","options":{"limits":{"deadlin_seconds":1}}})",
           // In-grammar numbers that no integer field can hold: the guards
           // must refuse them instead of invoking UB in the cast.
           R"({"op":"deobfuscate","source":"x","deadline_ms":1e300})",
           R"({"op":"deobfuscate","source":"x","options":{"limits":{"max_layers":1e30}}})",
           R"({"op":"deobfuscate","source":"x","options":{"limits":{"max_layers":-1e30}}})",
           // Spellings RFC 8259 forbids: leading zero, bare fraction,
           // trailing dot.
           R"({"op":"deobfuscate","source":"x","deadline_ms":01})",
           R"({"op":"deobfuscate","source":"x","deadline_ms":.5})",
           R"({"op":"deobfuscate","source":"x","deadline_ms":1.})",
       }) {
    ServeReply reply;
    std::string error;
    ASSERT_TRUE(ideobf::server::parse_reply_line(client.raw_call(bad), reply,
                                                 error))
        << error;
    EXPECT_EQ(reply.status, "invalid") << bad;
    EXPECT_FALSE(reply.response.ok);
  }
  const ServeReply good = client.call(deobf_request(kTicked, "after"));
  EXPECT_EQ(good.status, "ok");

  server.stop();
  EXPECT_GE(server.stats().invalid_total, 11u);
}

TEST(ServerTest, ConcurrentClientsAllServed) {
  const std::string sock = test_socket("concurrent");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 4;
  Server server(std::move(cfg));
  server.start();

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 5;
  std::vector<std::thread> clients;
  std::atomic<int> served{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeClient client = ServeClient::connect_unix(sock);
      for (int r = 0; r < kRequestsEach; ++r) {
        const std::string id =
            "c" + std::to_string(c) + "-r" + std::to_string(r);
        const ServeReply reply = client.call(deobf_request(kTicked, id));
        if (reply.status == "ok" && reply.response.id == id &&
            reply.response.result.find("Write-Host") != std::string::npos) {
          served.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(served.load(), kClients * kRequestsEach);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.ok_total, static_cast<std::uint64_t>(kClients) *
                                kRequestsEach);
  EXPECT_EQ(stats.connections_total, static_cast<std::uint64_t>(kClients));
}

TEST(ServerTest, DeadlineExpiryDegradesToPassthrough) {
  const std::string sock = test_socket("deadline");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  Server server(std::move(cfg));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  const auto start = std::chrono::steady_clock::now();
  const ServeReply reply =
      client.call(hostile_request("hostile", /*deadline_ms=*/300));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // The full-strength attempt times out; a safer rung still serves real
  // output, so the verdict is "degraded", not "failed".
  EXPECT_EQ(reply.status, "degraded");
  EXPECT_TRUE(reply.response.ok);
  EXPECT_EQ(reply.response.failure, FailureKind::Timeout);
  EXPECT_GE(reply.response.report.degradation_rung, 1);
  EXPECT_FALSE(reply.response.result.empty());
  // Ladder worst case is 1.75x the deadline plus scheduling noise.
  EXPECT_LT(elapsed, 5.0);
  server.stop();
  EXPECT_GE(server.stats().degraded_total, 1u);
}

TEST(ServerTest, FullQueueAnswersOverloaded) {
  const std::string sock = test_socket("backpressure");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  cfg.max_queue = 1;
  Server server(std::move(cfg));
  server.start();

  // Occupy the single worker, then fill the single queue slot.
  RawConn busy(sock);
  busy.send_line(
      ideobf::server::render_request_line(hostile_request("busy", 2000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  RawConn queued(sock);
  queued.send_line(
      ideobf::server::render_request_line(hostile_request("queued", 2000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The next request must be refused immediately, not buffered.
  ServeClient client = ServeClient::connect_unix(sock);
  const auto start = std::chrono::steady_clock::now();
  const ServeReply reply = client.call(deobf_request(kTicked, "rejected"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(reply.status, "overloaded");
  EXPECT_FALSE(reply.response.ok);
  EXPECT_EQ(reply.response.id, "rejected");
  EXPECT_LT(elapsed, 1.0);  // backpressure is explicit AND immediate

  server.stop();
  EXPECT_GE(server.stats().overloaded_total, 1u);
}

TEST(ServerTest, DisconnectCancelsOwnWorkAndFreesTheWorker) {
  const std::string sock = test_socket("disconnect");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  Server server(std::move(cfg));
  server.start();

  {
    // An hour-long hostile request... whose client immediately hangs up.
    RawConn doomed(sock);
    doomed.send_line(ideobf::server::render_request_line(
        hostile_request("doomed", 3600 * 1000)));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }  // ~RawConn closes the socket: disconnect

  // The disconnect must cancel the in-flight run; the single worker comes
  // free long before the hour-long deadline.
  ServeClient client = ServeClient::connect_unix(sock);
  const auto start = std::chrono::steady_clock::now();
  const ServeReply reply = client.call(deobf_request(kTicked, "next"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(reply.status, "ok");
  EXPECT_LT(elapsed, 30.0);

  server.stop();
  EXPECT_GE(server.stats().disconnect_cancelled_total, 1u);
}

TEST(ServerTest, GracefulDrainServesAcceptedWorkAndRefusesNew) {
  const std::string sock = test_socket("drain");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  Server server(std::move(cfg));
  server.start();

  // Occupy the worker, and queue one benign request behind it.
  RawConn busy(sock);
  busy.send_line(
      ideobf::server::render_request_line(hostile_request("busy", 700)));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  RawConn pending(sock);
  pending.send_line(ideobf::server::render_request_line(
      deobf_request(kTicked, "pending")));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Ask for a graceful drain, then try to submit new work.
  RawConn control(sock);
  control.send_line(ideobf::server::render_op_line("shutdown"));
  EXPECT_NE(control.recv_line().find("\"shutdown\":true"), std::string::npos);
  control.send_line(ideobf::server::render_request_line(
      deobf_request(kTicked, "too-late")));
  const std::string refused = control.recv_line();
  EXPECT_NE(refused.find("shutting-down"), std::string::npos) << refused;

  // The queued request was accepted before the stop: it must still be
  // served, with real output.
  ServeReply pending_reply;
  std::string error;
  ASSERT_TRUE(ideobf::server::parse_reply_line(pending.recv_line(),
                                               pending_reply, error))
      << error;
  EXPECT_EQ(pending_reply.status, "ok");
  EXPECT_NE(pending_reply.response.result.find("Write-Host"),
            std::string::npos);

  server.wait();
  EXPECT_GE(server.stats().shutting_down_total, 1u);
}

TEST(ServerTest, DrainGraceCancelsStragglersWithCanonicalDetail) {
  const std::string sock = test_socket("graced");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  cfg.drain_grace_seconds = 0.3;
  Server server(std::move(cfg));
  server.start();

  // A straggler that would outlive any reasonable drain.
  ServeReply straggler;
  std::thread straggler_thread([&] {
    ServeClient client = ServeClient::connect_unix(sock);
    straggler = client.call(hostile_request("straggler", 3600 * 1000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ServeClient control = ServeClient::connect_unix(sock);
  control.shutdown_server();
  server.wait();
  straggler_thread.join();

  // The grace backstop cancelled it — and the cancellation surfaces the ONE
  // canonical detail string shared with every other cancel path
  // (ideobf::kCancelledDetail; the batch watchdog asserts the same string).
  EXPECT_EQ(straggler.status, "failed");
  EXPECT_EQ(straggler.response.failure, FailureKind::Cancelled);
  EXPECT_EQ(straggler.response.failure_detail,
            std::string(ideobf::kCancelledDetail));
  EXPECT_GE(server.stats().watchdog_cancelled_total, 1u);
}

TEST(ServerTest, PerRequestOptionsObjectRidesTheWire) {
  const std::string sock = test_socket("options");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  // Disable the token pass for this one request: the ticks must survive.
  Request request = deobf_request(kTicked, "opted");
  ideobf::Options options;
  options.token_pass = false;
  options.ast_recovery = false;
  options.rename = false;
  options.reformat = false;
  request.options = options;
  const ServeReply reply = client.call(request);
  EXPECT_EQ(reply.status, "ok");
  EXPECT_NE(reply.response.result.find('`'), std::string::npos)
      << reply.response.result;
  // The same source without the override normalizes as usual.
  const ServeReply normal = client.call(deobf_request(kTicked, "normal"));
  EXPECT_EQ(normal.response.result.find('`'), std::string::npos);
  server.stop();
}

TEST(ServerTest, TcpLoopbackSpeaksTheSameProtocol) {
  const std::string sock = test_socket("tcp");
  ServerConfig cfg = base_config(sock);
  cfg.tcp = true;
  cfg.tcp_port = 0;  // ephemeral
  Server server(std::move(cfg));
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  ServeClient client = ServeClient::connect_tcp(server.tcp_port());
  EXPECT_TRUE(client.ping());
  const ServeReply reply = client.call(deobf_request(kTicked, "tcp"));
  EXPECT_EQ(reply.status, "ok");
  EXPECT_NE(reply.response.result.find("Write-Host"), std::string::npos);
  server.stop();
}

TEST(ServerTest, SlowConsumerCannotWedgeWorkersOrDrain) {
  const std::string sock = test_socket("slowreader");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  cfg.send_timeout_seconds = 0.3;
  Server server(std::move(cfg));
  server.start();

  // A response far larger than any socket buffer, sent to a client that
  // never reads: the worker's send must time out and drop the connection
  // instead of blocking forever on the single worker slot.
  RawConn stalled(sock);
  std::string big_source = "$x = '";
  big_source.append(4u << 20, 'a');
  big_source += "'";
  stalled.send_line(
      ideobf::server::render_request_line(deobf_request(big_source, "big")));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The worker frees itself in ~send_timeout; a live client is served well
  // within the test budget.
  ServeClient client = ServeClient::connect_unix(sock);
  const auto start = std::chrono::steady_clock::now();
  const ServeReply reply = client.call(deobf_request(kTicked, "live"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(reply.status, "ok");
  EXPECT_LT(elapsed, 10.0);

  // And the drain cannot hang on the stalled writer either.
  server.stop();
}

TEST(ServerTest, ShutdownOverTcpIsRefusedByDefault) {
  const std::string sock = test_socket("tcpshutdown");
  ServerConfig cfg = base_config(sock);
  cfg.tcp = true;
  Server server(std::move(cfg));
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  // TCP loopback is submit-only: the shutdown op is refused and the daemon
  // keeps serving.
  ServeClient tcp = ServeClient::connect_tcp(server.tcp_port());
  const std::string refused =
      tcp.raw_call(ideobf::server::render_op_line("shutdown"));
  EXPECT_NE(refused.find("invalid"), std::string::npos) << refused;
  EXPECT_NE(refused.find("not permitted"), std::string::npos) << refused;
  EXPECT_TRUE(tcp.ping());

  // The unix socket stays the trusted control plane.
  ServeClient control = ServeClient::connect_unix(sock);
  control.shutdown_server();
  server.wait();
}

TEST(ServerTest, RefusesToReplaceANonSocketPath) {
  const std::string path = test_socket("clobber");
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "precious", 8), 8);
  ::close(fd);

  // A typoed --socket pointing at real data must fail loudly, not unlink.
  Server server(base_config(path));
  EXPECT_THROW(server.start(), std::runtime_error);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_TRUE(S_ISREG(st.st_mode));
  EXPECT_EQ(st.st_size, 8);
  ::unlink(path.c_str());
}

TEST(ServerTest, UnixSocketIsOwnerOnly) {
  const std::string sock = test_socket("perms");
  Server server(base_config(sock));
  server.start();
  struct stat st{};
  ASSERT_EQ(::stat(sock.c_str(), &st), 0);
  EXPECT_TRUE(S_ISSOCK(st.st_mode));
  EXPECT_EQ(st.st_mode & 0777, 0600u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Observability plane: request ids, server traces, metrics identity, the
// debug (flight recorder) and trace ops.
// ---------------------------------------------------------------------------

TEST(ServerObservability, TracedRequestCarriesRequestIdAndSpanBreakdown) {
  const std::string sock = test_socket("reqtrace");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  ideobf::Request request = deobf_request(kTicked, "traced-1");
  request.trace = true;
  const ServeReply reply = client.call(request);
  ASSERT_EQ(reply.status, "ok");

  // Every deobfuscate reply names its server-assigned request id; a
  // standalone daemon labels itself worker 0.
  ASSERT_FALSE(reply.request_id.empty());
  EXPECT_EQ(reply.request_id.rfind("w0-", 0), 0u) << reply.request_id;

  // The opt-in server trace splices the queue/cache/engine breakdown in.
  const ideobf::ServerTrace& st = reply.server_trace;
  ASSERT_TRUE(st.present);
  EXPECT_EQ(st.worker, 0);
  EXPECT_GE(st.queue_seconds, 0.0);
  EXPECT_GE(st.cache_seconds, 0.0);
  EXPECT_GT(st.engine_seconds, 0.0);
  ASSERT_FALSE(st.phases.empty());
  bool saw_pipeline = false;
  for (const auto& p : st.phases) {
    EXPECT_GT(p.count, 0u);
    if (p.phase == "pipeline") saw_pipeline = true;
  }
  EXPECT_TRUE(saw_pipeline);
  // The self-time partition invariant rides the wire intact: accounted
  // equals the engine span within 5% (plus a clock-granularity floor).
  const double tolerance = std::max(st.engine_seconds * 0.05, 1e-4);
  EXPECT_NEAR(st.accounted_seconds, st.engine_seconds, tolerance);

  // The lightweight opt-in gets the same span breakdown without the
  // per-pass change-trace events.
  ideobf::Request light = deobf_request(kTicked, "light-1");
  light.server_trace = true;
  const ServeReply lr = client.call(light);
  ASSERT_EQ(lr.status, "ok");
  EXPECT_TRUE(lr.server_trace.present);
  EXPECT_FALSE(lr.server_trace.phases.empty());
  EXPECT_TRUE(lr.response.report.trace.empty());

  // An untraced request still gets a (distinct) request id, but pays for no
  // span rendering.
  const ServeReply plain = client.call(deobf_request(kTicked, "plain"));
  ASSERT_EQ(plain.status, "ok");
  EXPECT_FALSE(plain.request_id.empty());
  EXPECT_NE(plain.request_id, reply.request_id);
  EXPECT_FALSE(plain.server_trace.present);
  server.stop();
}

TEST(ServerObservability, MetricsReplyCarriesWorkerAndBuildIdentity) {
  const std::string sock = test_socket("metricsid");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  (void)client.call(deobf_request(kTicked, "m1"));
  const ideobf::MetricsReply m = client.metrics_reply();
  EXPECT_EQ(m.worker, 0);
  EXPECT_EQ(m.fleet_workers, 0);  // process scope merges nothing
  EXPECT_NE(m.exposition.find("ideobf_build_info{"), std::string::npos);
  EXPECT_NE(m.exposition.find("ideobf_server_uptime_seconds"),
            std::string::npos);
  EXPECT_NE(m.exposition.find("ideobf_worker_id{worker=\"0\"} 0"),
            std::string::npos)
      << m.exposition.substr(0, 2000);
  EXPECT_NE(m.exposition.find("ideobf_server_queue_wait_seconds"),
            std::string::npos);
  server.stop();
}

TEST(ServerObservability, DebugOpDumpsFlightRecorderWithRequestIds) {
  const std::string sock = test_socket("debugop");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  const ServeReply reply = client.call(deobf_request(kTicked, "fdr-1"));
  ASSERT_EQ(reply.status, "ok");
  ASSERT_FALSE(reply.request_id.empty());

  const std::string dump = client.debug_dump();
  EXPECT_NE(dump.find("\"flight\":["), std::string::npos) << dump;
  // The completed request is in the ring, joined by its request id, with
  // its client correlation id and a terminal outcome.
  EXPECT_NE(dump.find(reply.request_id), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"id\":\"fdr-1\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"outcome\":\"ok\""), std::string::npos) << dump;
  server.stop();
}

TEST(ServerObservability, TraceOpNeedsAnArmedRecorder) {
  const std::string sock = test_socket("traceop");
  {
    // Unarmed daemon: the op answers an invalid error, the client helper
    // maps that to empty.
    Server server(base_config(sock));
    server.start();
    ServeClient client = ServeClient::connect_unix(sock);
    EXPECT_TRUE(client.trace_json().empty());
    server.stop();
  }
  {
    const std::string trace_path = sock + ".trace.json";
    ServerConfig cfg = base_config(sock);
    cfg.trace_out_path = trace_path;
    Server server(std::move(cfg));
    server.start();
    ServeClient client = ServeClient::connect_unix(sock);
    ASSERT_EQ(client.call(deobf_request(kTicked, "t1")).status, "ok");
    const std::string live = client.trace_json();
    EXPECT_NE(live.find("\"traceEvents\":["), std::string::npos);
    server.stop();
    // Teardown wrote the full Chrome trace to --trace-out.
    std::ifstream in(trace_path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"traceEvents\":["), std::string::npos);
    ::unlink(trace_path.c_str());
  }
}

TEST(ServerObservability, RefusalsEchoTheRequestId) {
  const std::string sock = test_socket("refusalid");
  ServerConfig cfg = base_config(sock);
  cfg.threads = 1;
  cfg.max_queue = 1;
  Server server(std::move(cfg));
  server.start();

  RawConn busy(sock);
  busy.send_line(
      ideobf::server::render_request_line(hostile_request("busy", 2000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  RawConn queued(sock);
  queued.send_line(
      ideobf::server::render_request_line(hostile_request("queued", 2000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ServeClient client = ServeClient::connect_unix(sock);
  const ServeReply reply = client.call(deobf_request(kTicked, "rejected"));
  EXPECT_EQ(reply.status, "overloaded");
  // Even a refusal is joinable against the logs and the flight recorder.
  EXPECT_FALSE(reply.request_id.empty()) << "overloaded reply lost its id";
  server.stop();
}

TEST(FlightRecorder, RingRecordsLifecycleAndMirrorsToFile) {
  using ideobf::server::FlightRecorder;
  FlightRecorder recorder;
  const std::string path = test_socket("flight") + ".bin";
  std::string error;
  ASSERT_TRUE(recorder.open_mirror(path, error)) << error;

  FlightRecorder::Record record;
  record.request_id = "w0-7";
  record.client_id = "client-req";
  record.script_hash = "00000000deadbeef";
  record.client = 42;
  record.queue_seconds = 0.001;
  const std::uint64_t seq = recorder.begin(record);
  ASSERT_GT(seq, 0u);

  // In flight: the dump (and the file mirror) say so.
  std::string dump = recorder.dump_json();
  EXPECT_NE(dump.find("\"request_id\":\"w0-7\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"outcome\":\"inflight\""), std::string::npos);

  // The mirror is pre-sized (one fixed record per slot) so a harvester
  // never short-reads, and already carries the in-flight record.
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<std::size_t>(st.st_size),
            FlightRecorder::kSlots * FlightRecorder::kFileRecordBytes);
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"request_id\":\"w0-7\""), std::string::npos);
    EXPECT_NE(ss.str().find("\"outcome\":\"inflight\""), std::string::npos);
  }

  // Completion overwrites the slot in place.
  ideobf::telemetry::PipelineProfile profile;
  recorder.finish(seq, "ok", 0.002, 0.003, profile);
  dump = recorder.dump_json();
  EXPECT_NE(dump.find("\"outcome\":\"ok\""), std::string::npos) << dump;
  EXPECT_EQ(dump.find("\"outcome\":\"inflight\""), std::string::npos);

  // Newest first: a second request leads the dump.
  FlightRecorder::Record second;
  second.request_id = "w0-8";
  recorder.begin(second);
  dump = recorder.dump_json();
  EXPECT_LT(dump.find("w0-8"), dump.find("w0-7")) << dump;
  ::unlink(path.c_str());
}

TEST(FlightRecorder, InflightRecordOutlivesLaterDispatches) {
  using ideobf::server::FlightRecorder;
  FlightRecorder recorder;
  const std::string path = test_socket("flight-hung") + ".bin";
  std::string error;
  ASSERT_TRUE(recorder.open_mirror(path, error)) << error;

  // A hung request, then twice the ring's worth of requests that complete.
  FlightRecorder::Record hung;
  hung.request_id = "w0-hung";
  (void)recorder.begin(hung);
  const ideobf::telemetry::PipelineProfile profile;
  for (std::size_t i = 0; i < 2 * FlightRecorder::kSlots; ++i) {
    FlightRecorder::Record done;
    done.request_id = "w0-" + std::to_string(i);
    recorder.finish(recorder.begin(done), "ok", 0.001, 0.001, profile);
  }

  const auto expect_hung_inflight = [](const std::string& text) {
    const std::size_t at = text.find("\"request_id\":\"w0-hung\"");
    ASSERT_NE(at, std::string::npos) << text;
    const std::size_t end = text.find('}', at);
    EXPECT_NE(text.substr(at, end - at).find("\"outcome\":\"inflight\""),
              std::string::npos);
  };
  expect_hung_inflight(recorder.dump_json());
  std::ifstream in(path, std::ios::binary);
  std::stringstream mirror;
  mirror << in.rdbuf();
  expect_hung_inflight(mirror.str());
  // The newest completed request is still there too.
  const std::string newest =
      "w0-" + std::to_string(2 * FlightRecorder::kSlots - 1);
  EXPECT_NE(recorder.dump_json().find(newest), std::string::npos);
  ::unlink(path.c_str());
}

// -------------------------------------------------------- path equivalence

/// Renders a parsed JSON value with sorted keys, leaving out `skip` keys of
/// the top-level object.
void render_sorted(const ideobf::server::JsonValue& v, std::string& out,
                   const std::vector<std::string>& skip) {
  using ideobf::server::JsonValue;
  if (const auto* obj = v.as_object()) {
    out += '{';
    for (const auto& [key, member] : *obj) {
      if (std::find(skip.begin(), skip.end(), key) != skip.end()) continue;
      out += ideobf::json_quote(key) + ':';
      render_sorted(member, out, {});
      out += ',';
    }
    out += '}';
  } else if (const auto* arr = v.as_array()) {
    out += '[';
    for (const JsonValue& item : *arr) {
      render_sorted(item, out, {});
      out += ',';
    }
    out += ']';
  } else if (v.is_string()) {
    out += ideobf::json_quote(v.as_string());
  } else if (v.is_number()) {
    out += std::to_string(v.as_double());
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else {
    out += "null";
  }
}

/// A response line with what may differ between paths set aside: timing
/// fields, the server's request id and its cache marker.
std::string comparable(const std::string& line) {
  const auto doc = ideobf::server::parse_json(line);
  EXPECT_TRUE(doc.has_value()) << line;
  std::string out;
  if (doc) {
    render_sorted(*doc, out, {"seconds", "request_id", "cached", "server_trace"});
  }
  return out;
}

#ifdef IDEOBF_CLI_PATH
/// A real `ideobf serve --fleet 2`: a supervisor and two worker processes
/// sharing one response cache. Stopped with SIGTERM (SIGKILL if it hangs)
/// on destruction.
struct CliFleet {
  pid_t pid = -1;
  std::string socket_path;
  std::string state_dir;

  explicit CliFleet(const std::string& name)
      : socket_path(test_socket(name)),
        // Stamped, so no state an earlier same-pid run left is reused.
        state_dir("/tmp/ideobf-test-" + name + "-" +
                  std::to_string(::getpid()) + "-" +
                  std::to_string(std::chrono::steady_clock::now()
                                     .time_since_epoch()
                                     .count()) +
                  ".state") {
    ::mkdir(state_dir.c_str(), 0700);
    std::vector<std::string> args = {
        IDEOBF_CLI_PATH, "serve",       "--socket", socket_path,
        "--fleet",       "2",           "--state-dir", state_dir,
        "--threads",     "1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid = ::fork();
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  CliFleet(const CliFleet&) = delete;
  CliFleet& operator=(const CliFleet&) = delete;

  ~CliFleet() {
    if (pid > 0) {
      ::kill(pid, SIGTERM);
      bool exited = false;
      for (int i = 0; i < 300 && !exited; ++i) {
        exited = ::waitpid(pid, nullptr, WNOHANG) == pid;
        if (!exited) ::usleep(20 * 1000);
      }
      if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  }

  /// Waits until a worker accepts and answers a readiness probe.
  [[nodiscard]] bool wait_ready() const {
    for (int i = 0; i < 400; ++i) {
      try {
        if (ServeClient::connect_unix(socket_path).ready()) return true;
      } catch (const std::exception&) {
      }
      ::usleep(50 * 1000);
    }
    return false;
  }
};
#endif

TEST(ServerPathEquivalence, ServedLinesMatchInProcessEngine) {
  std::vector<Request> requests;
  ideobf::CorpusGenerator gen(41);
  int n = 0;
  for (const ideobf::Sample& sample : gen.generate_batch(24)) {
    Request request = deobf_request(sample.obfuscated, "c" + std::to_string(n));
    switch (n++ % 6) {
      case 1:
        request.deadline_ms = 30000;
        break;
      case 2: {
        ideobf::Options options;
        options.rename = false;
        request.options = options;
        break;
      }
      case 3:
        request.trace = true;
        break;
      case 4: {
        ideobf::Options options;
        options.parse_cache = false;
        request.options = options;
        break;
      }
      case 5: {
        ideobf::Options options;
        options.recovery.memo = false;
        request.options = options;
        break;
      }
      default:
        break;
    }
    requests.push_back(std::move(request));
  }
  requests.push_back(deobf_request("broken ( input", "broken"));
  Request js = deobf_request("eval('con' + 'sole.log(\"w\")');", "js");
  js.language = "javascript";
  requests.push_back(js);

  const std::string sock = test_socket("path-equivalence");
  Server server(base_config(sock));
  server.start();
  RawConn conn(sock);
  const ideobf::Engine engine;
  for (const Request& request : requests) {
    conn.send_line(ideobf::server::render_request_line(request));
    const std::string served = conn.recv_line();
    const std::string in_process = comparable(
        ideobf::server::render_response_line(engine.handle(request)));
    ASSERT_NE(in_process.find("\"result\":"), std::string::npos);
    EXPECT_EQ(comparable(served), in_process) << request.id;
  }
  server.stop();

#ifdef IDEOBF_CLI_PATH
  // A fleet's shared-cache hit answers as the engine does: each cacheable
  // request goes twice through a real `--fleet 2`, the second time to be
  // served from the cache.
  CliFleet fleet("path-equivalence-fleet");
  ASSERT_TRUE(fleet.wait_ready());
  RawConn fleet_conn(fleet.socket_path);
  int hits = 0;
  for (const Request& request : requests) {
    if (request.trace || request.options.has_value()) continue;
    const std::string in_process = comparable(
        ideobf::server::render_response_line(engine.handle(request)));
    for (int pass = 0; pass < 2; ++pass) {
      fleet_conn.send_line(ideobf::server::render_request_line(request));
      const std::string served = fleet_conn.recv_line();
      if (served.find("\"cached\":true") != std::string::npos) ++hits;
      EXPECT_EQ(comparable(served), in_process)
          << request.id << " pass " << pass;
    }
  }
  EXPECT_GT(hits, 0);
#endif
}

TEST(ServerPathEquivalence, WedgedRequestAnswersAlikeOnEveryPath) {
  // Every piece sleeps 0.5 s, far past the watchdog's limit (50 ms deadline
  // x watchdog_factor 2): one-shot, batch and serve all hand the request to
  // the engine's one watchdog, which cancels it at the same point.
  ideobf::FaultInjector fault;
  ideobf::FaultSpec spec;
  spec.action = ideobf::FaultAction::Delay;
  spec.delay_seconds = 0.5;
  fault.arm(ideobf::FaultSite::PieceExecution, spec);
  ideobf::Options options;
  options.fault_injector = &fault;
  const Request request =
      deobf_request("Write-Host ('wed' + 'ged')", "wedged", 50);

  const ideobf::Engine engine(options);
  const ideobf::Response one_shot = engine.handle(request);
  const ideobf::Response batched = engine.handle_batch({request}).front();
  const std::string sock = test_socket("wedged");
  ServerConfig cfg = base_config(sock);
  cfg.options = options;
  Server server(std::move(cfg));
  server.start();
  const ServeReply served = ServeClient::connect_unix(sock).call(request);
  server.stop();

  EXPECT_EQ(one_shot.failure, FailureKind::Cancelled);
  EXPECT_EQ(one_shot.report.degradation_rung, 3);
  EXPECT_EQ(served.status, "failed");
  for (const ideobf::Response* response : {&batched, &served.response}) {
    EXPECT_EQ(response->failure, one_shot.failure);
    EXPECT_EQ(response->failure_detail, one_shot.failure_detail);
    EXPECT_EQ(response->report.degradation_rung,
              one_shot.report.degradation_rung);
    EXPECT_EQ(response->result, one_shot.result);
  }
}

// ------------------------------------------------------------ JSON quoting

TEST(JsonQuoting, EveryWriterRoundTripsControlCharactersQuotesAndBackslashes) {
  using ideobf::server::parse_json;
  namespace tel = ideobf::telemetry;
  std::vector<std::string> table;
  for (int c = 0; c < 0x20; ++c) {
    table.push_back("a" + std::string(1, static_cast<char>(c)) + "b");
  }
  table.push_back("a\"b");
  table.push_back("a\\b");
  table.push_back("\"\\\b\f\n\r\t\x01\x1f mixed");

  // json_quote (every serve reply and CLI --json output).
  for (const std::string& text : table) {
    const auto parsed = parse_json(ideobf::json_quote(text));
    ASSERT_TRUE(parsed.has_value()) << ideobf::json_quote(text);
    EXPECT_EQ(parsed->as_string(), text);
  }

  // The NDJSON log: one record per entry.
  const std::string path = test_socket("quote-log") + ".ndjson";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  tel::set_log_fd(fd);
  tel::set_log_rate_limit(0.0, 0.0);
  tel::set_log_level(tel::LogLevel::Info);
  for (const std::string& text : table) {
    tel::LogEvent(tel::LogLevel::Info, "test", "quote").field("v", text);
  }
  tel::set_log_level(tel::LogLevel::Off);
  tel::set_log_fd(2);
  ::close(fd);
  std::ifstream log(path, std::ios::binary);
  std::string line;
  std::size_t records = 0;
  while (std::getline(log, line)) {
    ASSERT_LT(records, table.size());
    const auto parsed = parse_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    const auto* v = parsed->find("v");
    ASSERT_NE(v, nullptr) << line;
    EXPECT_EQ(v->as_string(), table[records]);
    ++records;
  }
  EXPECT_EQ(records, table.size());
  ::unlink(path.c_str());

  // The Chrome trace: one span detail per entry.
  tel::TraceRecorder recorder;
  for (const std::string& text : table) {
    recorder.record(tel::Phase::Pipeline, text, 1000, 10);
  }
  const std::string trace = recorder.render();
  const auto parsed = parse_json(trace);
  ASSERT_TRUE(parsed.has_value()) << trace;
  const auto* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(events->as_array(), nullptr);
  std::vector<std::string> details;
  for (const auto& event : *events->as_array()) {
    if (const auto* args = event.find("args")) {
      if (const auto* detail = args->find("detail")) {
        details.push_back(detail->as_string());
      }
    }
  }
  std::sort(details.begin(), details.end());
  std::sort(table.begin(), table.end());
  EXPECT_EQ(details, table);
}

// ---------------------------------------------------------------- language

TEST(ServerLanguage, UnknownLanguageIsRefusedAtParseNotGuessed) {
  const std::string sock = test_socket("lang-refuse");
  Server server(base_config(sock));
  server.start();

  RawConn conn(sock);
  conn.send_line(
      R"({"op":"deobfuscate","source":"x = 1","language":"klingon"})");
  const std::string reply = conn.recv_line();
  // Strict like the rest of the schema: a typoed language fails the parse
  // loudly instead of falling through to an engine passthrough.
  EXPECT_NE(reply.find("\"status\":\"invalid\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("unknown language"), std::string::npos) << reply;
  EXPECT_NE(reply.find("klingon"), std::string::npos) << reply;

  server.stop();
  EXPECT_GE(server.stats().invalid_total, 1u);
}

TEST(ServerLanguage, JavascriptRequestRoundTripsOverTheWire) {
  const std::string sock = test_socket("lang-js");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  Request request = deobf_request("eval('con' + 'sole.log(\"w\")');", "js-1");
  request.language = "javascript";
  const ServeReply reply = client.call(request);
  EXPECT_EQ(reply.status, "ok");
  EXPECT_EQ(reply.response.language, "javascript");
  EXPECT_EQ(reply.response.result, "console.log(\"w\");");
  EXPECT_EQ(reply.response.report.multilayer.layers_unwrapped, 1);

  server.stop();
}

TEST(ServerLanguage, AutoSniffsEachRequestToItsFrontend) {
  const std::string sock = test_socket("lang-auto");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  Request js = deobf_request("var x = atob('aGk=');\nf(x);\n", "auto-js");
  js.language = "auto";
  const ServeReply js_reply = client.call(js);
  EXPECT_EQ(js_reply.response.language, "javascript");
  EXPECT_NE(js_reply.response.result.find("'hi'"), std::string::npos)
      << js_reply.response.result;

  Request ps = deobf_request(kTicked, "auto-ps");
  ps.language = "auto";
  const ServeReply ps_reply = client.call(ps);
  EXPECT_EQ(ps_reply.response.language, "powershell");
  EXPECT_NE(ps_reply.response.result.find("Write-Host"), std::string::npos);

  server.stop();
}

TEST(ServerLanguage, MixedLanguageTrafficOnOneConnection) {
  const std::string sock = test_socket("lang-mixed");
  Server server(base_config(sock));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  for (int round = 0; round < 3; ++round) {
    Request ps = deobf_request(kTicked, "ps-" + std::to_string(round));
    const ServeReply ps_reply = client.call(ps);
    EXPECT_EQ(ps_reply.response.language, "powershell");
    EXPECT_TRUE(ps_reply.response.ok);

    Request js = deobf_request("g('a' + 'b');", "js-" + std::to_string(round));
    js.language = "javascript";
    const ServeReply js_reply = client.call(js);
    EXPECT_EQ(js_reply.response.language, "javascript");
    EXPECT_EQ(js_reply.response.result, "g('ab');");
  }

  server.stop();
  EXPECT_GE(server.stats().ok_total, 6u);
}

TEST(ServerLanguage, OptionsFingerprintDivergesPerLanguage) {
  // The shared-cache key's second half must separate languages: identical
  // options and source bytes submitted under different front-ends may
  // never alias to one cached response.
  const ideobf::Options options;
  const std::vector<std::string> blocklist;
  const std::string ps_fp = ideobf::server::options_fingerprint(
      options, 0, blocklist, "powershell");
  const std::string js_fp = ideobf::server::options_fingerprint(
      options, 0, blocklist, "javascript");
  EXPECT_NE(ps_fp, js_fp);
  // Deterministic per language, so hits still happen within one.
  EXPECT_EQ(ps_fp, ideobf::server::options_fingerprint(options, 0, blocklist,
                                                       "powershell"));
}

TEST(ServerLanguage, SharedCacheDoesNotAliasAcrossLanguages) {
  const std::string sock = test_socket("lang-cache");
  const std::string cache = "/tmp/ideobf-test-langcache-" +
                            std::to_string(::getpid()) + ".bin";
  ServerConfig cfg = base_config(sock);
  cfg.cache_path = cache;
  Server server(cfg);
  server.start();

  // The same source bytes, valid in both grammars, with different
  // pipeline results: PowerShell leaves it alone, JavaScript folds it.
  const std::string source = "g('a' + 'b');";
  ServeClient client = ServeClient::connect_unix(sock);

  Request ps = deobf_request(source, "cache-ps");
  ps.language = "powershell";
  const ServeReply ps_reply = client.call(ps);
  EXPECT_TRUE(ps_reply.response.ok);
  EXPECT_FALSE(ps_reply.cached);

  Request js = deobf_request(source, "cache-js");
  js.language = "javascript";
  const ServeReply js_reply = client.call(js);
  // A language-blind cache key would serve the PowerShell entry here.
  EXPECT_FALSE(js_reply.cached);
  EXPECT_EQ(js_reply.response.result, "g('ab');");
  EXPECT_NE(js_reply.response.result, ps_reply.response.result);

  // Within one language the cache still hits.
  Request js_again = deobf_request(source, "cache-js-2");
  js_again.language = "javascript";
  const ServeReply again = client.call(js_again);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.response.result, "g('ab');");

  server.stop();
  ::unlink(cache.c_str());
}

TEST(ServerTest, PipelinedRepliesAreMatchedByIdNotOrder) {
  // An engine miss pipelined ahead of a shared-cache hit on one connection:
  // the hit is answered at admission, so it overtakes the miss still in
  // the engine. Clients must match replies by id.
  const std::string sock = test_socket("pipelined-order");
  const std::string cache = "/tmp/ideobf-test-ordercache-" +
                            std::to_string(::getpid()) + ".bin";
  ServerConfig cfg = base_config(sock);
  cfg.cache_path = cache;
  Server server(cfg);
  server.start();

  {  // Warm the shared cache with the request that will hit.
    ServeClient client = ServeClient::connect_unix(sock);
    const ServeReply warm = client.call(deobf_request(kTicked, "warm"));
    ASSERT_EQ(warm.status, "ok");
    ASSERT_FALSE(warm.cached);
  }

  RawConn conn(sock);
  conn.send_line(
      ideobf::server::render_request_line(hostile_request("miss", 500)) +
      "\n" +
      ideobf::server::render_request_line(deobf_request(kTicked, "hit")));

  std::vector<ServeReply> replies;
  for (int i = 0; i < 2; ++i) {
    ServeReply reply;
    std::string error;
    ASSERT_TRUE(ideobf::server::parse_reply_line(conn.recv_line(), reply,
                                                 error))
        << error;
    replies.push_back(std::move(reply));
  }
  const auto by_id = [&replies](const std::string& id) -> const ServeReply* {
    for (const ServeReply& r : replies) {
      if (r.response.id == id) return &r;
    }
    return nullptr;
  };
  const ServeReply* hit = by_id("hit");
  const ServeReply* miss = by_id("miss");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  EXPECT_TRUE(hit->cached);
  EXPECT_NE(hit->response.result.find("Write-Host"), std::string::npos);
  EXPECT_FALSE(miss->cached);
  EXPECT_TRUE(miss->response.ok);
  EXPECT_EQ(miss->response.failure, FailureKind::Timeout);
  // The later request's reply arrived first.
  EXPECT_EQ(replies.front().response.id, "hit");

  server.stop();
  ::unlink(cache.c_str());
}
