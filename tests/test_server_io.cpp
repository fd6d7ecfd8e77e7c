// The epoll I/O core of `ideobf serve`: incremental NDJSON framing under
// adversarial byte-at-a-time writes, pipelined requests, the output-buffer
// high-water reap, the idle-timeout reap, and a connection storm of
// hundreds of concurrent clients through the real CLI binary. The framing
// and buffering primitives (event_loop.h) are also unit-tested here without
// sockets.

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "ideobf/client.h"
#include "server/event_loop.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using ideobf::Request;
using ideobf::ServeClient;
using ideobf::ServeReply;
using ideobf::server::LineAssembler;
using ideobf::server::OutputBuffer;
using ideobf::server::Server;
using ideobf::server::ServerConfig;

constexpr const char* kTicked = "wr`ite-ho`st 'hello'";

std::string test_socket(const std::string& name) {
  return "/tmp/ideobf-io-" + name + "-" + std::to_string(::getpid()) +
         ".sock";
}

ServerConfig base_config(const std::string& socket_path) {
  ServerConfig cfg;
  cfg.unix_socket_path = socket_path;
  cfg.threads = 2;
  return cfg;
}

Request deobf_request(const std::string& source, const std::string& id) {
  Request request;
  request.source = source;
  request.id = id;
  return request;
}

/// A raw connection the server cannot distinguish from a hostile client:
/// sends whatever bytes we choose, reads only when told to.
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

  void send_bytes(std::string_view bytes) {
    ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
              ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL));
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

  /// True when the server closed this connection (EOF or reset) within
  /// `timeout_seconds` — the observable shape of every server-side reap.
  /// Drains (and discards) any data the kernel already buffered for us:
  /// EOF only surfaces after buffered bytes are consumed.
  bool closed_by_server(double timeout_seconds) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(timeout_seconds);
    char chunk[65536];
    while (std::chrono::steady_clock::now() < give_up) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n == 0) return true;
      if (n > 0) continue;  // discard; keep draining toward the EOF
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        return true;  // ECONNRESET counts: the server cut the line
      }
      ::usleep(10 * 1000);
    }
    return false;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Framing / buffering primitives (no sockets)
// ---------------------------------------------------------------------------

TEST(ServerIoUnits, LineAssemblerReassemblesByteAtATime) {
  LineAssembler in(1024);
  const std::string wire = "{\"op\":\"ping\"}\r\nsecond line\n";
  std::vector<std::string> lines;
  std::string_view line;
  for (char c : wire) {
    in.append(&c, 1);
    while (in.next(line)) lines.emplace_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"op\":\"ping\"}");  // '\r' stripped
  EXPECT_EQ(lines[1], "second line");
  EXPECT_EQ(in.buffered(), 0u);
  EXPECT_FALSE(in.partial_line_pending());
}

TEST(ServerIoUnits, LineAssemblerHandlesBatchesAndPartials) {
  LineAssembler in(1024);
  in.append("a\nb\nhalf", 8);
  std::string_view line;
  ASSERT_TRUE(in.next(line));
  EXPECT_EQ(line, "a");
  ASSERT_TRUE(in.next(line));
  EXPECT_EQ(line, "b");
  EXPECT_FALSE(in.next(line));
  EXPECT_TRUE(in.partial_line_pending());
  in.append("+rest\n", 6);
  ASSERT_TRUE(in.next(line));
  EXPECT_EQ(line, "half+rest");
}

TEST(ServerIoUnits, LineAssemblerLatchesOverflow) {
  LineAssembler in(8);
  in.append("0123456789", 10);  // no newline, past the cap
  EXPECT_TRUE(in.overflowed());
  std::string_view line;
  EXPECT_FALSE(in.next(line));
  in.append("\n", 1);  // too late: the connection is doomed, stay latched
  EXPECT_TRUE(in.overflowed());
  EXPECT_FALSE(in.next(line));
}

TEST(ServerIoUnits, LineAssemblerCompactsConsumedPrefix) {
  LineAssembler in(1u << 20);
  std::string_view line;
  // Enough consumed lines to trip the compaction path several times; the
  // assembler must stay correct across the internal erases.
  for (int round = 0; round < 2000; ++round) {
    const std::string payload =
        "line-" + std::to_string(round) + std::string(16, 'x');
    in.append(payload.data(), payload.size());
    in.append("\n", 1);
    ASSERT_TRUE(in.next(line));
    EXPECT_EQ(line, payload);
  }
  EXPECT_EQ(in.buffered(), 0u);
}

TEST(ServerIoUnits, OutputBufferFlushesAcrossFullSocketBuffers) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv));
  OutputBuffer out;
  const std::string payload(1u << 20, 'z');
  out.append(payload);
  out.append("\n");

  // First flush jams against the kernel buffer: partial, bytes remain.
  ASSERT_EQ(out.flush(sv[0]), OutputBuffer::FlushResult::Partial);
  EXPECT_GT(out.bytes(), 0u);

  // Drain the reader side while re-flushing until everything went through.
  std::string seen;
  char chunk[65536];
  for (int i = 0; i < 10000 && seen.size() < payload.size() + 1; ++i) {
    ssize_t n = ::recv(sv[1], chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) seen.append(chunk, static_cast<std::size_t>(n));
    if (!out.empty()) out.flush(sv[0]);
  }
  EXPECT_EQ(out.flush(sv[0]), OutputBuffer::FlushResult::Drained);
  EXPECT_EQ(seen.size(), payload.size() + 1);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ServerIoUnits, OutputBufferReportsErrorOnDeadPeer) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv));
  ::close(sv[1]);
  OutputBuffer out;
  out.append("nobody is listening\n");
  EXPECT_EQ(out.flush(sv[0]), OutputBuffer::FlushResult::Error);
  ::close(sv[0]);
}

// ---------------------------------------------------------------------------
// The live server under adversarial I/O shapes
// ---------------------------------------------------------------------------

TEST(ServerIoTest, ByteAtATimeRequestStillParses) {
  const std::string sock = test_socket("drip");
  Server server(base_config(sock));
  server.start();

  RawConn conn(sock);
  const std::string line =
      ideobf::server::render_request_line(deobf_request(kTicked, "drip-1")) +
      "\n";
  for (char c : line) conn.send_bytes(std::string_view(&c, 1));

  ServeReply reply;
  std::string error;
  ASSERT_TRUE(ideobf::server::parse_reply_line(conn.recv_line(), reply,
                                               error))
      << error;
  EXPECT_EQ(reply.status, "ok");
  EXPECT_EQ(reply.response.id, "drip-1");
  server.stop();
}

TEST(ServerIoTest, PipelinedAndSplitWritesAllAnswered) {
  const std::string sock = test_socket("pipeline");
  Server server(base_config(sock));
  server.start();

  RawConn conn(sock);
  // Ten requests in one write, the last one cut mid-line and finished in a
  // second write after a pause — the loop must hold the partial tail.
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    burst += ideobf::server::render_request_line(
                 deobf_request(kTicked, "p-" + std::to_string(i))) +
             "\n";
  }
  const std::size_t cut = burst.size() - 7;
  conn.send_bytes(std::string_view(burst).substr(0, cut));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  conn.send_bytes(std::string_view(burst).substr(cut));

  // Two worker threads race the ten requests, so replies may arrive out
  // of order — the protocol matches them by id, not position.
  std::set<std::string> ids;
  for (int i = 0; i < 10; ++i) {
    ServeReply reply;
    std::string error;
    ASSERT_TRUE(ideobf::server::parse_reply_line(conn.recv_line(), reply,
                                                 error))
        << error;
    EXPECT_EQ(reply.status, "ok");
    ids.insert(reply.response.id);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ids.count("p-" + std::to_string(i)) == 1)
        << "missing reply p-" << i;
  }
  server.stop();
}

TEST(ServerIoTest, IdleTimeoutReapsSlowLoris) {
  const std::string sock = test_socket("loris");
  ServerConfig cfg = base_config(sock);
  cfg.idle_timeout_seconds = 0.3;
  Server server(std::move(cfg));
  server.start();

  // A classic slow loris: opens the connection, dribbles half a request,
  // never finishes the line. Incomplete bytes must not count as activity.
  RawConn loris(sock);
  loris.send_bytes("{\"op\":\"deobfusc");
  EXPECT_TRUE(loris.closed_by_server(5.0));
  EXPECT_GE(server.stats().idle_reaped_total, 1u);

  // A fresh client is still served normally after the reap.
  ServeClient client = ServeClient::connect_unix(sock);
  EXPECT_EQ(client.call(deobf_request(kTicked, "after")).status, "ok");
  server.stop();
}

TEST(ServerIoTest, IdleTimeoutSparesActiveClients) {
  const std::string sock = test_socket("idle-active");
  ServerConfig cfg = base_config(sock);
  cfg.idle_timeout_seconds = 0.4;
  Server server(std::move(cfg));
  server.start();

  // Complete requests refresh the idle clock: a client pinging at half the
  // timeout stays connected well past several timeout windows.
  ServeClient client = ServeClient::connect_unix(sock);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.ping());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  EXPECT_EQ(server.stats().idle_reaped_total, 0u);
  server.stop();
}

TEST(ServerIoTest, OutbufHighWaterReapsUnreadConsumer) {
  const std::string sock = test_socket("highwater");
  ServerConfig cfg = base_config(sock);
  // Tiny accumulation cap and a long stall budget, so the reap observed
  // here is unambiguously the high-water mark, not the stall timer.
  cfg.outbuf_high_water_bytes = 64u << 10;
  cfg.send_timeout_seconds = 30.0;
  Server server(std::move(cfg));
  server.start();

  // Each response echoes ~512KiB of source back; the client never reads.
  // The kernel socket buffer absorbs a couple hundred KiB, but the first
  // response still leaves the output buffer far over the cap, so the next
  // append finds it over the mark and dooms the connection.
  const std::string big = "'" + std::string(512u << 10, 'a') + "'";
  RawConn glutton(sock);
  {
    std::string lines;
    for (int i = 0; i < 4; ++i) {
      lines += ideobf::server::render_request_line(
                   deobf_request(big, "g-" + std::to_string(i))) +
               "\n";
    }
    glutton.send_bytes(lines);
  }
  // Do not read anything until the server has decided: reading would drain
  // the kernel buffer and let the outbuf empty under the cap.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().outbuf_reaped_total == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().outbuf_reaped_total, 1u);
  EXPECT_TRUE(glutton.closed_by_server(10.0));

  // No worker or the event loop is wedged: an innocent client gets served
  // while the glutton's buffered output sits unread.
  ServeClient client = ServeClient::connect_unix(sock);
  EXPECT_EQ(client.call(deobf_request(kTicked, "innocent")).status, "ok");
  server.stop();
}

// ---------------------------------------------------------------------------
// Connection storm through the real binary
// ---------------------------------------------------------------------------

#ifdef IDEOBF_CLI_PATH

namespace {

/// Spawns `ideobf serve` (single process) and tears it down on destruction.
struct ServeProcess {
  pid_t pid = -1;
  std::string socket_path;

  ServeProcess() {
    socket_path = test_socket("storm-cli");
    std::vector<std::string> args = {
        IDEOBF_CLI_PATH, "serve",     "--socket", socket_path,
        "--threads",     "2",         "--max-queue", "256",
        "--idle-timeout-seconds", "30",
    };
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid = ::fork();
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~ServeProcess() {
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    for (int i = 0; i < 300; ++i) {
      if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
      ::usleep(20 * 1000);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }

  [[nodiscard]] bool wait_ready(double timeout_seconds = 20.0) const {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(timeout_seconds);
    while (std::chrono::steady_clock::now() < give_up) {
      try {
        ServeClient client = ServeClient::connect_unix(socket_path);
        if (client.ready()) return true;
      } catch (const std::exception&) {
      }
      ::usleep(50 * 1000);
    }
    return false;
  }
};

}  // namespace

TEST(ServerStormTest, HundredsOfConcurrentClientsAllServed) {
  ServeProcess serve;
  ASSERT_TRUE(serve.wait_ready());

  constexpr int kClients = 200;
  std::atomic<int> served{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&serve, &served, &failed, i] {
      try {
        ServeClient client = ServeClient::connect_unix(serve.socket_path);
        if (!client.ping()) {
          failed.fetch_add(1);
          return;
        }
        const ServeReply reply = client.call_retrying(
            deobf_request(kTicked, "storm-" + std::to_string(i)));
        if (reply.status == "ok") {
          served.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(served.load(), kClients);
}

#endif  // IDEOBF_CLI_PATH
