#pragma once

/// \file parse_cache.h
/// Parse-once pipeline support: a content-keyed table of the parses one
/// deobfuscation run makes. One parse of any given script text serves the
/// run's per-step syntax check, the next phase's AST input, the multilayer
/// recursion and the interpreter's script-block parses, instead of each of
/// those re-parsing the identical text. Entries carry a validity verdict,
/// so syntactically invalid intermediates are negative-cached too.
///
/// A table lives for one pipeline attempt, beside the run's piece memo, and
/// releases every parse when the run ends. Sharing parses across scripts
/// does not pay: serve and triage traffic is fresh scripts, and identical
/// scripts already hit the server's response cache.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "psast/ast.h"

namespace ps {

struct ParseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< lookups that parsed and stored
  /// Always 0: a per-run table never evicts. Kept for readers of the stats.
  std::uint64_t evictions = 0;
  std::uint64_t bypasses = 0;    ///< texts past the bound, parsed uncached
};

/// The parse table of one run. Single-threaded: each run owns its table.
/// The only member safe to call concurrently is `add_counts`, which is how
/// `ideobf::Options::shared_parse_cache` (a counts-only sink) collects the
/// counts of runs on several threads.
class ParseCache {
 public:
  /// A parse. `ast` is an arena-backed handle (== nullptr when the text
  /// does not parse). `source` owns the exact text the AST extents index
  /// into and lives *inside* the same arena, so handing out a parse costs
  /// one refcount bump on a single Arena. Since extents are plain offsets
  /// they are equally valid against any caller buffer with identical
  /// content.
  struct Result {
    ParsedScript ast;
    std::shared_ptr<const std::string> source;
    bool valid = false;
  };

  static constexpr std::size_t kDefaultMaxEntries = 512;
  static constexpr std::size_t kDefaultMaxBytes = 32u << 20;

  /// The table retains at most `max_entries` parses and `max_bytes` of
  /// text plus arena chunks; a text that would cross either bound is
  /// parsed but not stored, and counted as a bypass.
  explicit ParseCache(std::size_t max_entries = kDefaultMaxEntries,
                      std::size_t max_bytes = kDefaultMaxBytes);

  /// The stored parse of `text`, parsing it on a miss.
  Result get(std::string_view text);

  /// Stored equivalent of ps::is_valid_syntax.
  bool is_valid(std::string_view text) { return get(text).valid; }

  [[nodiscard]] ParseCacheStats stats() const;
  /// Adds another table's counts to this one's. Thread-safe.
  void add_counts(const ParseCacheStats& counts);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  /// Text plus arena-chunk bytes the stored parses retain.
  [[nodiscard]] std::size_t retained_bytes() const { return bytes_; }
  void clear();

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::unordered_map<std::string, Result, StringHash, std::equal_to<>> map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bypasses_{0};
};

}  // namespace ps
