#include "analysis/json_writer.h"

#include <charconv>

#include "telemetry/log.h"

namespace ideobf {

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  telemetry::append_json_quoted(out, s);
  return out;
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value belongs to the written key; no comma
  }
  if (!state_.empty() && state_.back() == '1') out_ += ',';
  if (!state_.empty()) state_.back() = '1';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  state_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  if (!state_.empty()) state_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(std::string_view k) {
  if (!k.empty()) key(k);
  comma();
  out_ += '[';
  state_.push_back('0');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  if (!state_.empty()) state_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  telemetry::append_json_quoted(out_, name);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  telemetry::append_json_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t n) {
  comma();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), n);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  // Same digits snprintf "%.6g" would produce, without the locale machinery
  // — double fields dominate traced serve replies (per-phase span times).
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general, 6);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

}  // namespace ideobf
