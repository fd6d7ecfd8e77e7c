#include "telemetry/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "telemetry/log.h"

namespace ideobf::telemetry {

namespace {

void append_microseconds(std::string& out, std::uint64_t ns) {
  // Chrome trace timestamps are microseconds; keep nanosecond precision
  // with a fixed three-decimal fraction.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t max_events)
    : max_events_(max_events == 0 ? 1 : max_events) {}

void TraceRecorder::record(Phase phase, std::string_view detail,
                           std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_events_) {
    recorded_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Lane& lane = lanes_[current_shard()];
  std::lock_guard lock(lane.mu);
  lane.events.push_back(Event{phase, detail, start_ns, dur_ns});
}

std::size_t TraceRecorder::event_count() const {
  return recorded_.load(std::memory_order_relaxed);
}

std::vector<std::pair<unsigned, TraceRecorder::Event>>
TraceRecorder::snapshot_events() const {
  std::vector<std::pair<unsigned, Event>> out;
  for (unsigned lane = 0; lane < kShardCount; ++lane) {
    std::lock_guard lock(lanes_[lane].mu);
    for (const Event& e : lanes_[lane].events) out.emplace_back(lane, e);
  }
  return out;
}

std::string TraceRecorder::render() const {
  const auto events = snapshot_events();
  std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [lane, e] : events) epoch = std::min(epoch, e.start_ns);
  if (events.empty()) epoch = 0;

  std::string out;
  out.reserve(events.size() * 96 + 512);
  out += "{\"displayTimeUnit\":\"ms\",\"truncated\":";
  out += truncated() ? "true" : "false";
  out += ",\"droppedEvents\":";
  out += std::to_string(dropped());
  out += ",\"traceEvents\":[";

  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };

  // One lane per worker slot, named so Perfetto shows "slot N" tracks.
  std::array<bool, kShardCount> occupied{};
  for (const auto& [lane, e] : events) occupied[lane] = true;
  for (unsigned lane = 0; lane < kShardCount; ++lane) {
    if (!occupied[lane]) continue;
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(lane + 1);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"slot ";
    out += std::to_string(lane);
    out += "\"}}";
  }

  for (const auto& [lane, e] : events) {
    comma();
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(lane + 1);
    out += ",\"cat\":\"pipeline\",\"name\":";
    append_json_quoted(out, phase_name(e.phase));
    out += ",\"ts\":";
    append_microseconds(out, e.start_ns - epoch);
    out += ",\"dur\":";
    append_microseconds(out, e.dur_ns);
    if (!e.detail.empty()) {
      out += ",\"args\":{\"detail\":";
      append_json_quoted(out, e.detail);
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void TraceRecorder::clear() {
  for (Lane& lane : lanes_) {
    std::lock_guard lock(lane.mu);
    lane.events.clear();
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace ideobf::telemetry
