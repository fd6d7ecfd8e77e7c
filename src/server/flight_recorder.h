#pragma once

/// \file flight_recorder.h
/// Always-on crash flight recorder for serve mode: a fixed-size ring of
/// recent request summaries (request id, script hash, phase self-times,
/// outcome, client) kept per worker process.
///
/// Two consumers:
///  - the `debug` service op dumps the ring of a live worker (newest first);
///  - the fleet supervisor harvests the file mirror after an abnormal worker
///    death — the records whose outcome is still "inflight" name exactly the
///    requests that were executing when the worker died.
///
/// The file mirror (armed by a non-empty path) is one fixed-size 512-byte
/// JSON record per ring slot, rewritten in place with pwrite — the same
/// crash-survivability idiom as the crash journal: the kernel page cache
/// keeps the record alive past the process, no fsync needed (it has to
/// outlive the worker, not a machine crash).

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ideobf/profile.h"

namespace ideobf::server {

class FlightRecorder {
 public:
  /// Ring capacity. 64 covers every queue slot plus recent history at a
  /// fixed ~40 KiB of file mirror per worker.
  static constexpr std::size_t kSlots = 64;
  /// Fixed per-record file footprint (JSON line padded with spaces).
  static constexpr std::size_t kFileRecordBytes = 512;

  struct Record {
    std::uint64_t seq = 0;         ///< 0 = slot never used
    std::string request_id;        ///< server-assigned w<worker>-<n>
    std::string client_id;         ///< the request's own correlation id
    std::string script_hash;       ///< 16-hex journal/quarantine identity
    std::string outcome;           ///< "inflight" until completion
    std::uint64_t client = 0;      ///< connection identity
    double queue_seconds = 0.0;    ///< admission -> worker-slot dispatch
    double engine_seconds = 0.0;   ///< the engine Pipeline span
    double total_seconds = 0.0;    ///< Response::seconds
    std::uint64_t unix_seconds = 0;  ///< wall clock at dispatch
    /// Per-phase self-times of the completed request, in enum order,
    /// count>0 phases only. Empty while in flight.
    std::vector<std::pair<std::string_view, double>> phases;
  };

  FlightRecorder() = default;
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Arms the file mirror. False (with a reason) when the file cannot be
  /// opened; the in-memory ring works either way.
  bool open_mirror(const std::string& path, std::string& error);

  /// Records a dispatch (outcome "inflight") in the next slot whose record
  /// is not itself in flight; returns the sequence number to pass to
  /// finish(). Thread-safe (worker slots call this concurrently).
  std::uint64_t begin(Record record);

  /// Completes the record `seq`: outcome, timings, and the phase self-time
  /// breakdown from the served response's profile. A record no longer in
  /// the ring is ignored.
  void finish(std::uint64_t seq, std::string_view outcome,
              double engine_seconds, double total_seconds,
              const telemetry::PipelineProfile& profile);

  /// The ring as JSON objects, newest first — the `debug` op's `flight`
  /// array body (no enclosing brackets).
  [[nodiscard]] std::string dump_json() const;

  /// Renders one record as a single JSON object (exposed for the mirror
  /// format and its supervisor-side parser tests).
  static std::string render_record(const Record& record);

 private:
  void mirror(std::size_t slot, const Record& record);

  mutable std::mutex mu_;
  std::array<Record, kSlots> ring_{};
  std::uint64_t next_seq_ = 1;
  std::size_t cursor_ = 0;  ///< where begin() starts looking for a slot
  int fd_ = -1;
};

}  // namespace ideobf::server
