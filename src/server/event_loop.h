#pragma once

/// \file event_loop.h
/// Building blocks of the serve daemon's epoll event loop: a thin RAII epoll
/// wrapper, an incremental NDJSON line assembler for non-blocking reads, and
/// a per-connection output buffer drained by non-blocking writes. The loop
/// itself lives in server.cpp (it is entangled with dispatch state); these
/// pieces are kept free of server types so the unit tests can drive them
/// byte-at-a-time without sockets.

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ideobf::server {

/// Puts `fd` into non-blocking mode. Returns false on fcntl failure.
bool set_nonblocking(int fd);

/// RAII epoll instance. All methods are loop-thread-only; the ctor throws
/// std::runtime_error if epoll_create1 fails.
class Epoll {
 public:
  Epoll();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  bool add(int fd, std::uint32_t events);
  bool mod(int fd, std::uint32_t events);
  void del(int fd);
  /// epoll_wait with EINTR retry; returns the event count (0 on timeout).
  int wait(epoll_event* out, int capacity, int timeout_ms);

 private:
  int fd_ = -1;
};

/// Incremental NDJSON framing for a non-blocking socket: bytes arrive in
/// arbitrary fragments, complete lines come out. A line longer than the cap
/// latches `overflowed()` — the caller reaps the connection (the alternative
/// is buffering a firehose without bound).
class LineAssembler {
 public:
  explicit LineAssembler(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  void append(const char* data, std::size_t n);

  /// Yields the next complete line (without '\n', trailing '\r' stripped)
  /// as a view into the buffer, valid until the next append() or next().
  /// Returns false when no full line is buffered yet.
  bool next(std::string_view& line);

  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - start_; }
  /// True once at least one byte has arrived after the last complete line —
  /// i.e. a request is in flight but unfinished (the slow-loris shape).
  [[nodiscard]] bool partial_line_pending() const { return buffered() > 0; }

 private:
  std::string buf_;
  std::size_t start_ = 0;  ///< consumed prefix, erased lazily
  std::size_t scan_ = 0;   ///< resume point of the '\n' search
  std::size_t max_line_bytes_;
  bool overflowed_ = false;
};

/// Bytes queued toward one client, flushed opportunistically by the event
/// loop. Appends are cheap (amortized memmove via a consumed-prefix offset);
/// `flush()` writes as much as the socket accepts without ever blocking.
class OutputBuffer {
 public:
  enum class FlushResult {
    Drained,  ///< buffer is now empty
    Partial,  ///< socket would block; bytes remain (arm EPOLLOUT)
    Error,    ///< fatal write error; reap the connection
  };

  void append(std::string_view bytes);

  /// Lets `render(std::string&)` append a reply straight onto the pending
  /// bytes, so a line assembled from parts needs no staging string.
  template <typename Render>
  void append_rendered(Render&& render) {
    reclaim();
    render(pending_);
  }

  FlushResult flush(int fd);

  [[nodiscard]] bool empty() const { return pending_.size() == offset_; }
  [[nodiscard]] std::size_t bytes() const { return pending_.size() - offset_; }

 private:
  /// Drops flushed bytes ahead of an append (amortized: only once they
  /// dominate the buffer).
  void reclaim();

  std::string pending_;
  std::size_t offset_ = 0;
};

}  // namespace ideobf::server
