#include "server/event_loop.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "telemetry/log.h"

namespace ideobf::server {

namespace {

/// An epoll_ctl failure means a connection silently stops getting events —
/// previously invisible; now a structured warn names the fd and op.
void log_epoll_ctl_failure(const char* op, int fd) {
  if (!telemetry::log_enabled(telemetry::LogLevel::Warn)) return;
  telemetry::LogEvent(telemetry::LogLevel::Warn, "event_loop",
                      "epoll-ctl-failed")
      .field("op", op)
      .field("fd", fd)
      .field("errno", errno);
}

}  // namespace

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if ((flags & O_NONBLOCK) != 0) return true;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Epoll::Epoll() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1 failed: ") +
                             std::strerror(errno));
  }
}

Epoll::~Epoll() {
  if (fd_ >= 0) ::close(fd_);
}

bool Epoll::add(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    log_epoll_ctl_failure("add", fd);
    return false;
  }
  return true;
}

bool Epoll::mod(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    log_epoll_ctl_failure("mod", fd);
    return false;
  }
  return true;
}

void Epoll::del(int fd) { ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

int Epoll::wait(epoll_event* out, int capacity, int timeout_ms) {
  for (;;) {
    int n = ::epoll_wait(fd_, out, capacity, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

void LineAssembler::append(const char* data, std::size_t n) {
  if (overflowed_) return;  // connection is doomed; stop buffering
  // Compact once the consumed prefix dominates, so a long-lived chatty
  // connection does not grow its buffer with dead bytes.
  if (start_ > 4096 && start_ * 2 >= buf_.size()) {
    buf_.erase(0, start_);
    scan_ -= start_;
    start_ = 0;
  }
  buf_.append(data, n);
  if (buffered() > max_line_bytes_) overflowed_ = true;
}

bool LineAssembler::next(std::string_view& line) {
  if (overflowed_) return false;
  // Every line handed out so far is consumed: reuse the buffer from the
  // front. Done here rather than when the last line is yielded, which would
  // pull the bytes out from under that line's view.
  if (start_ == buf_.size()) {
    buf_.clear();
    start_ = 0;
    scan_ = 0;
  }
  if (scan_ < start_) scan_ = start_;
  const std::size_t pos = buf_.find('\n', scan_);
  if (pos == std::string::npos) {
    scan_ = buf_.size();
    return false;
  }
  std::size_t end = pos;
  if (end > start_ && buf_[end - 1] == '\r') --end;
  line = std::string_view(buf_).substr(start_, end - start_);
  start_ = pos + 1;
  scan_ = start_;
  return true;
}

void OutputBuffer::reclaim() {
  if (offset_ == pending_.size()) {
    pending_.clear();
    offset_ = 0;
  } else if (offset_ > (1u << 20) && offset_ * 2 >= pending_.size()) {
    pending_.erase(0, offset_);
    offset_ = 0;
  }
}

void OutputBuffer::append(std::string_view bytes) {
  reclaim();
  pending_.append(bytes);
}

OutputBuffer::FlushResult OutputBuffer::flush(int fd) {
  while (offset_ < pending_.size()) {
    ssize_t n = ::send(fd, pending_.data() + offset_,
                       pending_.size() - offset_, MSG_NOSIGNAL);
    if (n > 0) {
      offset_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return FlushResult::Partial;
    }
    return FlushResult::Error;
  }
  pending_.clear();
  offset_ = 0;
  return FlushResult::Drained;
}

}  // namespace ideobf::server
