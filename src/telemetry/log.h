#pragma once

/// \file log.h
/// Structured NDJSON logging for the serve fleet. One record per line:
///
///   {"ts":1754650000.123,"level":"warn","component":"server",
///    "event":"journal-write-failed","worker":2,"errno":5}
///
/// Design constraints mirror the metrics registry:
///  1. Off must cost ~nothing: `log_enabled(level)` is one relaxed atomic
///     load; every call site gates on it before building a record. The
///     default threshold is Off.
///  2. Emitting is a cold path (failures, lifecycle events), so a mutex and
///     a heap string per record are fine. A token bucket caps sustained
///     output — a hostile client that trips a warn per request cannot turn
///     the log into the bottleneck; drops are counted in
///     `ideobf_telemetry_log_dropped_total`.
///  3. std-only (this library is a leaf): hand-rolled JSON quoting, write(2)
///     to a configurable fd (stderr by default, so fleet workers' records
///     interleave line-atomically in the supervisor's stderr).

#include <cstdint>
#include <string>
#include <string_view>

namespace ideobf::telemetry {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Parses "debug"/"info"/"warn"/"error"/"off" (the `--log-level` grammar).
bool parse_log_level(std::string_view text, LogLevel& out);
std::string_view log_level_name(LogLevel level);

/// Threshold: records below it are never built. Default LogLevel::Off.
void set_log_level(LogLevel level);
LogLevel log_level();

/// The hot-path gate; call before constructing a LogEvent.
bool log_enabled(LogLevel level);

/// Redirects records (default fd 2). The fd is borrowed, never closed.
void set_log_fd(int fd);

/// Worker index stamped on every record as `"worker":N`; negative omits it
/// (standalone serve / CLI).
void set_log_worker(int worker_index);

/// Sustained-rate cap. `per_second <= 0` disables limiting (tests).
void set_log_rate_limit(double per_second, double burst);

/// Records dropped by the rate limiter since process start.
std::uint64_t log_dropped_count();

/// One record under construction. Field order is insertion order; `ts`,
/// `level`, `component`, `event`, and `worker` are always first. Emits on
/// destruction (or explicit emit()); a drop by the rate limiter is silent
/// except for the counter.
class LogEvent {
 public:
  LogEvent(LogLevel level, std::string_view component, std::string_view event);
  ~LogEvent();
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& field(std::string_view key, std::string_view value);
  LogEvent& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  LogEvent& field(std::string_view key, std::int64_t value);
  LogEvent& field(std::string_view key, std::uint64_t value);
  LogEvent& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  LogEvent& field(std::string_view key, double value);
  LogEvent& field_bool(std::string_view key, bool value);

  void emit();

 private:
  bool armed_ = false;
  bool emitted_ = false;
  LogLevel level_ = LogLevel::Off;
  std::string line_;
};

/// Appends `text` as a quoted JSON string: the one JSON string-quoting
/// routine, shared by this log, the Chrome trace, the snapshot and
/// flight-recorder writers and analysis/json_writer.h (every serve reply).
/// Clean runs are appended in bulk with escapes spliced between them;
/// control characters use the short escapes where JSON has them.
void append_json_quoted(std::string& out, std::string_view text);

}  // namespace ideobf::telemetry
