#pragma once

/// \file alias_table.h
/// The default PowerShell alias table used by the token-parsing phase to
/// expand aliases back to canonical cmdlet names (paper section III-A), and
/// by the obfuscator to do the reverse.

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ps {

/// Case-insensitive mapping between PowerShell default aliases and their
/// canonical cmdlet names (e.g. `iex` -> `Invoke-Expression`).
class AliasTable {
 public:
  /// Returns the process-wide default table (immutable).
  static const AliasTable& standard();

  /// Canonical cmdlet name for `alias`, or nullopt if not an alias.
  [[nodiscard]] std::optional<std::string> resolve(std::string_view alias) const;

  /// Some alias (the shortest) for a canonical cmdlet name, or nullopt.
  [[nodiscard]] std::optional<std::string> alias_for(std::string_view cmdlet) const;

  /// True if `name` (case-insensitive) is a known canonical cmdlet name.
  [[nodiscard]] bool is_known_cmdlet(std::string_view name) const;

  /// All (alias, cmdlet) pairs, for enumeration by tests and the obfuscator.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  AliasTable();
  std::vector<std::pair<std::string, std::string>> entries_;
  /// Lowercase alias -> its first entry's cmdlet: resolve() is one lookup.
  std::unordered_map<std::string, std::string> by_alias_;
  /// Lowercase cmdlet -> its shortest alias (the first in table order among
  /// equals): alias_for() is one lookup.
  std::unordered_map<std::string, std::string> alias_by_cmdlet_;
  /// Lowercase canonical cmdlet names, aliased or not.
  std::unordered_set<std::string> known_cmdlets_;
};

/// ASCII-lowercases a string (PowerShell identifiers are case-insensitive).
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII string equality.
bool iequals(std::string_view a, std::string_view b);

/// Lowercases a type name and strips a leading `system.`: the form cast
/// and static-member dispatch compare against (`[System.Char]` -> `char`).
std::string normalize_type_name(std::string_view name);

}  // namespace ps
