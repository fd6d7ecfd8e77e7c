#include "psinterp/pattern.h"

#include <iterator>
#include <regex>

namespace ps {

namespace {

/// ECMAScript's special characters, as libstdc++'s scanner lists them.
constexpr std::string_view kMeta = "^$\\.*+?()[]{}|";
/// The subset that forces the regex engine when unescaped: `]` and `}`
/// alone are ordinary characters.
constexpr std::string_view kUnescapedMeta = "^$.|?*+()[{";

char fold(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c; }

/// The unescaped needle when `pattern` is a literal, else false.
bool classify_literal(std::string_view pattern, std::string& needle) {
  if (pattern.empty()) return false;
  needle.clear();
  needle.reserve(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const char c = pattern[i];
    if (c == '\\') {
      if (i + 1 == pattern.size() || kMeta.find(pattern[i + 1]) == std::string_view::npos) {
        return false;
      }
      needle.push_back(pattern[++i]);
    } else if (kUnescapedMeta.find(c) != std::string_view::npos) {
      return false;
    } else {
      needle.push_back(c);
    }
  }
  return true;
}

}  // namespace

struct Pattern::Regex {
  std::regex re;
};

Pattern::Pattern(std::string_view pattern, bool icase)
    : source_(pattern), icase_(icase) {
  if (classify_literal(pattern, needle_)) {
    if (!icase) return;
    for (char& c : needle_) {
      c = fold(c);
      // Without an ASCII letter, folding cannot change a comparison.
      if (c >= 'a' && c <= 'z') fold_ = true;
    }
    return;
  }
  regex_ = compile();
}

Pattern::~Pattern() = default;

std::unique_ptr<const Pattern::Regex> Pattern::compile() const {
  auto flags = std::regex::ECMAScript;
  if (icase_) flags |= std::regex::icase;
  try {
    return std::make_unique<const Regex>(Regex{std::regex(source_, flags)});
  } catch (const std::regex_error& e) {
    throw PatternError(e.what());
  }
}

std::size_t Pattern::find(std::string_view text, std::size_t from) const {
  if (!fold_) return text.find(needle_, from);
  const std::size_t n = needle_.size();
  if (text.size() < n) return std::string_view::npos;
  for (std::size_t i = from; i + n <= text.size(); ++i) {
    std::size_t k = 0;
    while (k < n && fold(text[i + k]) == needle_[k]) ++k;
    if (k == n) return i;
  }
  return std::string_view::npos;
}

bool Pattern::search(std::string_view text) const {
  if (literal()) return find(text, 0) != std::string_view::npos;
  try {
    return std::regex_search(text.begin(), text.end(), regex_->re);
  } catch (const std::regex_error& e) {
    throw PatternError(e.what());
  }
}

bool Pattern::search(std::string_view text, std::vector<std::string>& groups) const {
  groups.clear();
  if (literal()) {
    const std::size_t at = find(text, 0);
    if (at == std::string_view::npos) return false;
    groups.emplace_back(text.substr(at, needle_.size()));
    return true;
  }
  try {
    std::match_results<std::string_view::const_iterator> m;
    if (!std::regex_search(text.begin(), text.end(), m, regex_->re)) return false;
    for (std::size_t g = 0; g < m.size(); ++g) groups.push_back(m[g].str());
    return true;
  } catch (const std::regex_error& e) {
    throw PatternError(e.what());
  }
}

std::vector<std::string> Pattern::matches(std::string_view text) const {
  std::vector<std::string> out;
  if (literal()) {
    for (std::size_t at = find(text, 0); at != std::string_view::npos;
         at = find(text, at + needle_.size())) {
      out.emplace_back(text.substr(at, needle_.size()));
    }
    return out;
  }
  try {
    using It = std::regex_iterator<std::string_view::const_iterator>;
    for (It it(text.begin(), text.end(), regex_->re); it != It(); ++it) {
      out.push_back(it->str());
    }
  } catch (const std::regex_error& e) {
    throw PatternError(e.what());
  }
  return out;
}

std::vector<std::string> Pattern::split(std::string_view text) const {
  std::vector<std::string> out;
  if (literal()) {
    // sregex_token_iterator(-1): every match's prefix (empty ones too),
    // then the suffix after the last match only when non-empty; no match
    // at all yields the whole text, even when it is empty.
    std::size_t start = 0;
    for (std::size_t at = find(text, 0); at != std::string_view::npos;
         at = find(text, start)) {
      out.emplace_back(text.substr(start, at - start));
      start = at + needle_.size();
    }
    if (out.empty() || start < text.size()) out.emplace_back(text.substr(start));
    return out;
  }
  try {
    using It = std::regex_token_iterator<std::string_view::const_iterator>;
    for (It it(text.begin(), text.end(), regex_->re, -1); it != It(); ++it) {
      out.push_back(it->str());
    }
  } catch (const std::regex_error& e) {
    throw PatternError(e.what());
  }
  return out;
}

std::string Pattern::replace(std::string_view text, const std::string& replacement) const {
  const bool formats = replacement.find('$') != std::string::npos;
  if (literal() && !formats) {
    std::string out;
    std::size_t start = 0;
    for (std::size_t at = find(text, 0); at != std::string_view::npos;
         at = find(text, start)) {
      out.append(text, start, at - start);
      out += replacement;
      start = at + needle_.size();
    }
    out.append(text, start, std::string_view::npos);
    return out;
  }
  const std::unique_ptr<const Regex> own = literal() ? compile() : nullptr;
  const std::regex& re = literal() ? own->re : regex_->re;
  try {
    std::string out;
    std::regex_replace(std::back_inserter(out), text.begin(), text.end(), re,
                       replacement);
    return out;
  } catch (const std::regex_error& e) {
    throw PatternError(e.what());
  }
}

}  // namespace ps
