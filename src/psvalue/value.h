#pragma once

/// \file value.h
/// The PowerShell runtime value model used by the mini interpreter.
///
/// PowerShell is dynamically typed over .NET values; the deobfuscation
/// recovery step (paper section III-B2) needs exactly the distinctions this
/// model draws: String and Number results are written back into the script,
/// Char behaves like a one-character string under concatenation, Byte[]
/// feeds the encoding/compression pipelines, and opaque Objects cause the
/// recoverable piece to be kept as-is.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ps {

class Value;
class PsObject;

using Array = std::vector<Value>;
using Bytes = std::vector<std::uint8_t>;

/// A single UTF-32 code point, the analogue of .NET System.Char.
struct PsChar {
  std::uint32_t code = 0;
  friend bool operator==(const PsChar&, const PsChar&) = default;
};

/// A deferred script block value ({ ... }). Invoking it parses `text`,
/// which keeps the value model independent of the AST library, unless the
/// interpreter is still running the tree the block was evaluated from: then
/// it runs the block's node there.
struct ScriptBlock {
  std::string text;  ///< body text, without the surrounding braces
  friend bool operator==(const ScriptBlock&, const ScriptBlock&) = default;
};

/// An ordered, case-insensitive (for string keys) hashtable (@{...}).
struct Hashtable {
  std::vector<std::pair<Value, Value>> entries;
  /// Returns the value for a string key (case-insensitive) or nullptr.
  const Value* find(std::string_view key) const;
};

/// Base for opaque runtime objects (WebClient, MemoryStream, ...). These
/// are produced by New-Object and .NET statics; when one is the result of
/// executing a recoverable piece, the deobfuscator keeps the original text.
class PsObject {
 public:
  virtual ~PsObject() = default;
  /// The .NET-style type name, e.g. "System.Net.WebClient".
  [[nodiscard]] virtual std::string type_name() const = 0;
  /// What string interpolation would produce; defaults to the type name.
  [[nodiscard]] virtual std::string to_display() const { return type_name(); }
};

/// A discriminated union over the PowerShell value kinds our interpreter
/// produces. Copying is cheap: aggregates are shared_ptr-backed, matching
/// .NET reference semantics for arrays/hashtables/objects.
class Value {
 public:
  using Storage =
      std::variant<std::monostate, bool, std::int64_t, double, PsChar,
                   std::string, std::shared_ptr<Array>, std::shared_ptr<Bytes>,
                   std::shared_ptr<Hashtable>, ScriptBlock,
                   std::shared_ptr<PsObject>>;

  Value() = default;  // $null
  Value(bool b) : v_(b) {}
  Value(std::int64_t i) : v_(i) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(PsChar c) : v_(c) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(Array a) : v_(std::make_shared<Array>(std::move(a))) {}
  Value(Bytes b) : v_(std::make_shared<Bytes>(std::move(b))) {}
  Value(Hashtable h) : v_(std::make_shared<Hashtable>(std::move(h))) {}
  Value(ScriptBlock sb) : v_(std::move(sb)) {}
  Value(std::shared_ptr<PsObject> o) : v_(std::move(o)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_char() const { return std::holds_alternative<PsChar>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<std::shared_ptr<Array>>(v_); }
  [[nodiscard]] bool is_bytes() const { return std::holds_alternative<std::shared_ptr<Bytes>>(v_); }
  [[nodiscard]] bool is_hashtable() const { return std::holds_alternative<std::shared_ptr<Hashtable>>(v_); }
  [[nodiscard]] bool is_scriptblock() const { return std::holds_alternative<ScriptBlock>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<std::shared_ptr<PsObject>>(v_); }

  [[nodiscard]] bool get_bool() const { return std::get<bool>(v_); }
  [[nodiscard]] std::int64_t get_int() const { return std::get<std::int64_t>(v_); }
  [[nodiscard]] double get_double() const { return std::get<double>(v_); }
  [[nodiscard]] PsChar get_char() const { return std::get<PsChar>(v_); }
  [[nodiscard]] const std::string& get_string() const { return std::get<std::string>(v_); }
  [[nodiscard]] Array& get_array() { return *std::get<std::shared_ptr<Array>>(v_); }
  [[nodiscard]] const Array& get_array() const { return *std::get<std::shared_ptr<Array>>(v_); }
  [[nodiscard]] Bytes& get_bytes() { return *std::get<std::shared_ptr<Bytes>>(v_); }
  [[nodiscard]] const Bytes& get_bytes() const { return *std::get<std::shared_ptr<Bytes>>(v_); }
  [[nodiscard]] Hashtable& get_hashtable() { return *std::get<std::shared_ptr<Hashtable>>(v_); }
  [[nodiscard]] const Hashtable& get_hashtable() const { return *std::get<std::shared_ptr<Hashtable>>(v_); }
  [[nodiscard]] const ScriptBlock& get_scriptblock() const { return std::get<ScriptBlock>(v_); }
  [[nodiscard]] const std::shared_ptr<PsObject>& get_object() const {
    return std::get<std::shared_ptr<PsObject>>(v_);
  }

  /// .NET-ish type name: "String", "Int64", "Double", "Char", "Boolean",
  /// "Object[]", "Byte[]", "Hashtable", "ScriptBlock", object type names.
  [[nodiscard]] std::string type_name() const;

  /// The string .ToString() would produce (used for interpolation and for
  /// writing recovered values back into scripts). Arrays join elements with
  /// a single space, matching $OFS-default interpolation.
  [[nodiscard]] std::string to_display_string() const;

  /// PowerShell truthiness: $null/0/""/empty array are false.
  [[nodiscard]] bool to_bool() const;

  /// Numeric coercion following PowerShell rules (strings parse as numbers,
  /// chars use their code point). Returns false if not coercible.
  bool try_to_int(std::int64_t& out) const;
  bool try_to_double(double& out) const;

  /// Flattens nested arrays one level, the way PowerShell pipelines do.
  [[nodiscard]] static Value from_stream(std::vector<Value> items);

  [[nodiscard]] const Storage& storage() const { return v_; }

  friend bool operator==(const Value& a, const Value& b);

 private:
  Storage v_;
};

/// Renders a UTF-32 code point as UTF-8.
std::string utf8_encode(std::uint32_t code);

/// Formats a double like PowerShell/.NET would (no trailing zeros).
std::string format_double(double d);

}  // namespace ps
