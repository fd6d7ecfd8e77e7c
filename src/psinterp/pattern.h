#pragma once

/// \file pattern.h
/// The single home of regex matching for the pattern operators: `-split`,
/// `-replace`, `-match`/`-notmatch`, `Select-String`, and
/// `[regex]::Split/Replace/Matches`. A pattern is classified once, at
/// construction:
///
/// - **literal** — no unescaped `^$.|?*+()[{` (a `\` before a
///   metacharacter stands for that character). It is matched by a plain
///   substring scan; `icase` folds ASCII letters only, as `std::regex::icase`
///   does in the C locale, and bytes >= 0x80 compare exactly.
/// - **everything else** (including the empty pattern, `\d`, `\t`) runs
///   through `std::regex` with the ECMAScript grammar.
///
/// Both paths give exactly what libstdc++'s `std::regex` gives, including
/// the `sregex_token_iterator(-1)` field quirks documented on split().

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ps {

/// Raised when `std::regex` rejects a pattern (or fails while matching).
class PatternError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Pattern {
 public:
  /// Throws PatternError for a pattern `std::regex` rejects.
  Pattern(std::string_view pattern, bool icase);
  ~Pattern();

  /// True when the pattern runs as a substring scan, without std::regex.
  bool literal() const { return regex_ == nullptr; }

  /// True if the pattern occurs anywhere in `text` (regex_search).
  bool search(std::string_view text) const;

  /// regex_search with captures: on a hit, `groups` holds the whole match
  /// then every capture group ("" when a group did not participate).
  bool search(std::string_view text, std::vector<std::string>& groups) const;

  /// Every non-overlapping match, left to right (sregex_iterator).
  std::vector<std::string> matches(std::string_view text) const;

  /// The fields between matches (sregex_token_iterator with submatch -1):
  /// a leading empty field is kept, a trailing empty field is dropped, and
  /// text without a match — the empty string included — is one field.
  std::vector<std::string> split(std::string_view text) const;

  /// regex_replace with the ECMAScript format: `$&`, `$1`, `$$`, ... in
  /// `replacement` are expanded, so such a replacement always runs through
  /// std::regex.
  std::string replace(std::string_view text, const std::string& replacement) const;

 private:
  struct Regex;

  /// Position of the first literal match at or after `from`, or npos.
  std::size_t find(std::string_view text, std::size_t from) const;
  /// Compiles the pattern source; for a literal only when a `$` replacement
  /// needs the regex formatter.
  std::unique_ptr<const Regex> compile() const;

  std::string source_;
  std::string needle_;  ///< the unescaped literal, ASCII-lowered when folding
  bool icase_ = false;
  bool fold_ = false;   ///< icase and the needle has an ASCII letter
  std::unique_ptr<const Regex> regex_;  ///< null for a literal
};

}  // namespace ps
