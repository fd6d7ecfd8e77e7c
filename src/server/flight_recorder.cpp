#include "server/flight_recorder.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "telemetry/log.h"
#include "telemetry/telemetry.h"

namespace ideobf::server {

namespace {

void append_number_field(std::string& out, std::string_view key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  telemetry::append_json_quoted(out, key);
  out += ':';
  out += buf;
}

}  // namespace

FlightRecorder::~FlightRecorder() {
  if (fd_ >= 0) ::close(fd_);
}

bool FlightRecorder::open_mirror(const std::string& path, std::string& error) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0600);
  if (fd < 0) {
    error = "cannot open flight recorder '" + path +
            "': " + std::strerror(errno);
    return false;
  }
  // Pre-size so the supervisor's harvest never reads a short file.
  if (::ftruncate(fd, static_cast<off_t>(kSlots * kFileRecordBytes)) != 0) {
    error = "cannot size flight recorder '" + path +
            "': " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  std::lock_guard lk(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  return true;
}

std::string FlightRecorder::render_record(const Record& record) {
  std::string out = "{";
  telemetry::append_json_quoted(out, "seq");
  out += ':';
  out += std::to_string(record.seq);
  out += ',';
  telemetry::append_json_quoted(out, "request_id");
  out += ':';
  telemetry::append_json_quoted(out, record.request_id);
  out += ',';
  telemetry::append_json_quoted(out, "id");
  out += ':';
  telemetry::append_json_quoted(out, record.client_id);
  out += ',';
  telemetry::append_json_quoted(out, "script");
  out += ':';
  telemetry::append_json_quoted(out, record.script_hash);
  out += ',';
  telemetry::append_json_quoted(out, "outcome");
  out += ':';
  telemetry::append_json_quoted(out, record.outcome);
  out += ',';
  telemetry::append_json_quoted(out, "client");
  out += ':';
  out += std::to_string(record.client);
  out += ',';
  telemetry::append_json_quoted(out, "ts");
  out += ':';
  out += std::to_string(record.unix_seconds);
  out += ',';
  append_number_field(out, "queue_seconds", record.queue_seconds);
  out += ',';
  append_number_field(out, "engine_seconds", record.engine_seconds);
  out += ',';
  append_number_field(out, "total_seconds", record.total_seconds);
  if (!record.phases.empty()) {
    out += ',';
    telemetry::append_json_quoted(out, "phases");
    out += ":{";
    bool first = true;
    for (const auto& [name, self_seconds] : record.phases) {
      if (!first) out += ',';
      first = false;
      append_number_field(out, name, self_seconds);
    }
    out += '}';
  }
  out += '}';
  return out;
}

void FlightRecorder::mirror(std::size_t slot, const Record& record) {
  if (fd_ < 0) return;
  char file_record[kFileRecordBytes];
  std::memset(file_record, ' ', sizeof(file_record));
  std::string json = render_record(record);
  if (json.size() > kFileRecordBytes - 1) {
    // An oversized record (pathological ids) keeps its fixed footprint by
    // dropping the phases object, then the tail — the harvest only needs
    // the identity fields at the front.
    Record trimmed = record;
    trimmed.phases.clear();
    json = render_record(trimmed);
    if (json.size() > kFileRecordBytes - 1) {
      json.resize(kFileRecordBytes - 1);
    }
  }
  std::memcpy(file_record, json.data(), json.size());
  file_record[kFileRecordBytes - 1] = '\n';
  [[maybe_unused]] ssize_t r =
      ::pwrite(fd_, file_record, sizeof(file_record),
               static_cast<off_t>(slot * kFileRecordBytes));
}

std::uint64_t FlightRecorder::begin(Record record) {
  std::lock_guard lk(mu_);
  record.seq = next_seq_++;
  record.outcome = "inflight";
  record.unix_seconds = static_cast<std::uint64_t>(::time(nullptr));
  // The first slot from the cursor on whose record is not in flight: a
  // request's record stays until it finishes, however many dispatches
  // overtake it — a hung hostile script is what a postmortem harvest must
  // name. At most `threads` records are in flight, fewer than kSlots; were
  // every slot in flight, the cursor's slot would be reused.
  std::size_t slot = cursor_;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t candidate = (cursor_ + i) % kSlots;
    if (ring_[candidate].outcome != "inflight") {
      slot = candidate;
      break;
    }
  }
  cursor_ = (slot + 1) % kSlots;
  ring_[slot] = std::move(record);
  mirror(slot, ring_[slot]);
  return ring_[slot].seq;
}

void FlightRecorder::finish(std::uint64_t seq, std::string_view outcome,
                            double engine_seconds, double total_seconds,
                            const telemetry::PipelineProfile& profile) {
  std::lock_guard lk(mu_);
  const auto it = std::find_if(ring_.begin(), ring_.end(),
                               [&](const Record& r) { return r.seq == seq; });
  if (it == ring_.end()) return;  // overwritten: every slot was in flight
  Record& record = *it;
  record.outcome = std::string(outcome);
  record.engine_seconds = engine_seconds;
  record.total_seconds = total_seconds;
  record.phases.clear();
  for (std::size_t i = 0; i < telemetry::kPhaseCount; ++i) {
    const auto phase = static_cast<telemetry::Phase>(i);
    const telemetry::PhaseStat& stat = profile.stat(phase);
    if (stat.count == 0) continue;
    record.phases.emplace_back(telemetry::phase_name(phase),
                               static_cast<double>(stat.self_ns) / 1e9);
  }
  mirror(static_cast<std::size_t>(it - ring_.begin()), record);
}

std::string FlightRecorder::dump_json() const {
  std::lock_guard lk(mu_);
  std::vector<const Record*> used;
  for (const Record& record : ring_) {
    if (record.seq != 0) used.push_back(&record);
  }
  std::sort(used.begin(), used.end(),
            [](const Record* a, const Record* b) { return a->seq > b->seq; });
  std::string out;
  for (const Record* record : used) {  // newest first
    if (!out.empty()) out += ',';
    out += render_record(*record);
  }
  return out;
}

}  // namespace ideobf::server
