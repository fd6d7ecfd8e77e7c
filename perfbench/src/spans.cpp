#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "analysis/json_writer.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string_view name,
                           std::uint32_t request)
    : recorder_(&recorder) {
  if (!recorder.enabled_) return;
  const std::int32_t parent =
      recorder.open_.empty() ? -1 : recorder.open_.back();
  index_ = recorder.add(name, now_ns(), 0, parent, request);
  recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  recorder_->open_.pop_back();
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t SpanRecorder::add(std::string_view name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int32_t parent,
                               std::uint32_t request) {
  spans_.push_back({intern(name), start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union merged so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[names_[spans_[i].name]];
    t.count++;
    t.total_s += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) *
                 1e-9;
    t.self_s += self[i];
  }
  return out;
}

std::string SpanRecorder::chrome_trace() const {
  ideobf::JsonWriter w;
  w.begin_object();
  w.begin_array("traceEvents");
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    w.begin_object();
    w.field("name", names_[s.name]);
    w.field("ph", "X");
    w.field("pid", 1);
    w.field("tid", static_cast<std::int64_t>(s.request));
    w.field("ts", static_cast<double>(s.start_ns - origin) / 1000.0);
    w.field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    w.key("args");
    w.begin_object();
    w.field("parent", static_cast<std::int64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
