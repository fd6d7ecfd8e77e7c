#include "telemetry/log.h"

#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>

#include "telemetry/metrics.h"

namespace ideobf::telemetry {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::Off)};
std::atomic<int> g_fd{2};
std::atomic<int> g_worker{-1};
std::atomic<std::uint64_t> g_dropped{0};

/// Rate limiter state, touched only on the (cold) emit path.
std::mutex g_rate_mu;
double g_rate_per_second = 200.0;
double g_rate_burst = 100.0;
double g_tokens = 100.0;
double g_last_refill = 0.0;

double monotonic_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// True when this record may be written; consumes one token.
bool rate_admit() {
  std::lock_guard lock(g_rate_mu);
  if (g_rate_per_second <= 0.0) return true;
  const double now = monotonic_seconds();
  g_tokens += (now - g_last_refill) * g_rate_per_second;
  g_last_refill = now;
  if (g_tokens > g_rate_burst) g_tokens = g_rate_burst;
  if (g_tokens < 1.0) return false;
  g_tokens -= 1.0;
  return true;
}

Counter& emitted_counter(LogLevel level) {
  // Function-local statics: thread-safe interning, one mutex hit per level.
  switch (level) {
    case LogLevel::Debug: {
      static Counter& c = registry().counter(
          "ideobf_telemetry_log_emitted_total", "level=\"debug\"");
      return c;
    }
    case LogLevel::Info: {
      static Counter& c = registry().counter(
          "ideobf_telemetry_log_emitted_total", "level=\"info\"");
      return c;
    }
    case LogLevel::Warn: {
      static Counter& c = registry().counter(
          "ideobf_telemetry_log_emitted_total", "level=\"warn\"");
      return c;
    }
    default: {
      static Counter& c = registry().counter(
          "ideobf_telemetry_log_emitted_total", "level=\"error\"");
      return c;
    }
  }
}

Counter& dropped_counter() {
  static Counter& c =
      registry().counter("ideobf_telemetry_log_dropped_total");
  return c;
}

}  // namespace

bool parse_log_level(std::string_view text, LogLevel& out) {
  if (text == "debug") out = LogLevel::Debug;
  else if (text == "info") out = LogLevel::Info;
  else if (text == "warn") out = LogLevel::Warn;
  else if (text == "error") out = LogLevel::Error;
  else if (text == "off") out = LogLevel::Off;
  else return false;
  return true;
}

std::string_view log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >=
             g_level.load(std::memory_order_relaxed) &&
         level != LogLevel::Off;
}

void set_log_fd(int fd) { g_fd.store(fd, std::memory_order_relaxed); }

void set_log_worker(int worker_index) {
  g_worker.store(worker_index, std::memory_order_relaxed);
}

void set_log_rate_limit(double per_second, double burst) {
  std::lock_guard lock(g_rate_mu);
  g_rate_per_second = per_second;
  g_rate_burst = burst;
  g_tokens = burst;
  g_last_refill = monotonic_seconds();
}

std::uint64_t log_dropped_count() {
  return g_dropped.load(std::memory_order_relaxed);
}

void append_json_quoted(std::string& out, std::string_view text) {
  out += '"';
  std::size_t clean = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    const char* esc = nullptr;
    char ubuf[8];
    switch (c) {
      case '"': esc = "\\\""; break;
      case '\\': esc = "\\\\"; break;
      case '\n': esc = "\\n"; break;
      case '\r': esc = "\\r"; break;
      case '\t': esc = "\\t"; break;
      case '\b': esc = "\\b"; break;
      case '\f': esc = "\\f"; break;
      default:
        if (c < 0x20) {
          std::snprintf(ubuf, sizeof(ubuf), "\\u%04x", c);
          esc = ubuf;
        }
    }
    if (esc != nullptr) {
      out.append(text, clean, i - clean);
      out += esc;
      clean = i + 1;
    }
  }
  out.append(text, clean, text.size() - clean);
  out += '"';
}

LogEvent::LogEvent(LogLevel level, std::string_view component,
                   std::string_view event)
    : armed_(log_enabled(level)), level_(level) {
  if (!armed_) return;
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  char head[64];
  std::snprintf(head, sizeof(head), "{\"ts\":%lld.%03ld,\"level\":",
                static_cast<long long>(ts.tv_sec), ts.tv_nsec / 1000000);
  line_ = head;
  append_json_quoted(line_, log_level_name(level));
  line_ += ",\"component\":";
  append_json_quoted(line_, component);
  line_ += ",\"event\":";
  append_json_quoted(line_, event);
  const int worker = g_worker.load(std::memory_order_relaxed);
  if (worker >= 0) {
    line_ += ",\"worker\":";
    line_ += std::to_string(worker);
  }
}

LogEvent::~LogEvent() { emit(); }

LogEvent& LogEvent::field(std::string_view key, std::string_view value) {
  if (!armed_) return *this;
  line_ += ',';
  append_json_quoted(line_, key);
  line_ += ':';
  append_json_quoted(line_, value);
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, std::int64_t value) {
  if (!armed_) return *this;
  line_ += ',';
  append_json_quoted(line_, key);
  line_ += ':';
  line_ += std::to_string(value);
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, std::uint64_t value) {
  if (!armed_) return *this;
  line_ += ',';
  append_json_quoted(line_, key);
  line_ += ':';
  line_ += std::to_string(value);
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, double value) {
  if (!armed_) return *this;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  line_ += ',';
  append_json_quoted(line_, key);
  line_ += ':';
  line_ += buf;
  return *this;
}

LogEvent& LogEvent::field_bool(std::string_view key, bool value) {
  if (!armed_) return *this;
  line_ += ',';
  append_json_quoted(line_, key);
  line_ += value ? ":true" : ":false";
  return *this;
}

void LogEvent::emit() {
  if (!armed_ || emitted_) return;
  emitted_ = true;
  if (!rate_admit()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    dropped_counter().add_unguarded();
    return;
  }
  emitted_counter(level_).add_unguarded();
  line_ += "}\n";
  // One write(2) per record: lines from concurrent threads (and from fleet
  // workers sharing the supervisor's stderr) stay whole.
  const int fd = g_fd.load(std::memory_order_relaxed);
  (void)!::write(fd, line_.data(), line_.size());
}

}  // namespace ideobf::telemetry
