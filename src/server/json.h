#pragma once

/// \file json.h
/// A minimal dependency-free JSON parser for the `ideobf serve` wire
/// protocol (the library already had a writer — analysis/json_writer.h —
/// but nothing that could read). Strict by design: one complete document
/// per call, hard nesting-depth cap (hostile clients are the normal input
/// distribution on a malware-triage service), no extensions. Numbers are
/// surfaced as double; \uXXXX escapes (surrogate pairs included) decode to
/// UTF-8. Strings decode by appending whole runs of plain bytes, so a large
/// `source` costs one scan and a few bulk copies, not a push_back per byte.

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ideobf::server {

/// One parsed JSON value. std::map keeps object keys ordered, so rendering
/// round-trips deterministically in tests.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;
  using Storage =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

  JsonValue() : v_(nullptr) {}
  explicit JsonValue(Storage v) : v_(std::move(v)) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(v_);
  }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(v_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<Array>(v_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<Object>(v_);
  }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    const bool* b = std::get_if<bool>(&v_);
    return b != nullptr ? *b : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    const double* d = std::get_if<double>(&v_);
    return d != nullptr ? *d : fallback;
  }
  [[nodiscard]] const std::string& as_string() const {
    static const std::string empty;
    const std::string* s = std::get_if<std::string>(&v_);
    return s != nullptr ? *s : empty;
  }
  [[nodiscard]] const Array* as_array() const {
    return std::get_if<Array>(&v_);
  }
  [[nodiscard]] const Object* as_object() const {
    return std::get_if<Object>(&v_);
  }
  /// Moves a string value out, leaving this value an empty string; empty
  /// for non-strings. Lets a reader keep a large member without a copy.
  [[nodiscard]] std::string take_string() {
    std::string* s = std::get_if<std::string>(&v_);
    return s != nullptr ? std::move(*s) : std::string();
  }

  /// Object member lookup; null for non-objects and missing keys.
  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    const Object* obj = as_object();
    if (obj == nullptr) return nullptr;
    auto it = obj->find(key);
    return it != obj->end() ? &it->second : nullptr;
  }
  [[nodiscard]] JsonValue* find(std::string_view key) {
    Object* obj = std::get_if<Object>(&v_);
    if (obj == nullptr) return nullptr;
    auto it = obj->find(key);
    return it != obj->end() ? &it->second : nullptr;
  }

  [[nodiscard]] const Storage& storage() const { return v_; }

 private:
  Storage v_;
};

/// Maximum nesting depth accepted (objects + arrays combined). A line
/// crafted as ten thousand open brackets must fail fast, not recurse the
/// stack away.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses exactly one JSON document from `text` (surrounding whitespace
/// allowed, trailing garbage is an error). Returns nullopt on malformed
/// input, with a short reason in `*error` when provided.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

}  // namespace ideobf::server
