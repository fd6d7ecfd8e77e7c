#pragma once

/// \file recovery.h
/// Phase 2 of Invoke-Deobfuscation (paper section III-B): recovery based on
/// AST. Identifies recoverable nodes, traces variables (Algorithm 1),
/// executes recoverable pieces through the Invoke substrate with the
/// execution blocklist, and reconstructs the script by post-order in-place
/// replacement.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/trace.h"
#include "psast/ast.h"
#include "psvalue/budget.h"
#include "psvalue/value.h"

namespace ps {
class Budget;
class ParseCache;
}  // namespace ps

namespace ideobf {

class FaultInjector;

// RecoveryStats moved to the public facade (include/ideobf/report.h),
// which core/trace.h re-exports.

/// Memoizes sandbox executions of recoverable pieces within one pipeline
/// run: the same obfuscated fragment under the same traced-variable context
/// is executed once, not once per occurrence per layer per fixed-point pass.
/// Keyed by the piece text plus a fingerprint of the visible symbol-table
/// entries and loaded function definitions. An empty memoized literal
/// records "known unrecoverable", so failed executions are not retried
/// either.
///
/// Scoped to one run (one degradation-ladder attempt), which is what makes
/// the key sound: the execution limits, blocklist and front-end are fixed
/// for the run, and every failure kind a hit stands for was already
/// recorded by the execution that stored it. Single-threaded: each run
/// owns its memo.
class RecoveryMemo {
 public:
  /// The memoized literal for this piece under this context, or nullopt
  /// when the piece has not been executed yet. "" means execution failed or
  /// the result had no literal form.
  [[nodiscard]] std::optional<std::string> lookup(std::size_t context,
                                                  std::string_view piece);
  void store(std::size_t context, std::string_view piece, std::string literal);

  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t lookups() const { return lookups_; }
  [[nodiscard]] std::size_t misses() const { return lookups_ - hits_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  struct Key {
    std::size_t context;
    std::string piece;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return k.context ^ std::hash<std::string>{}(k.piece);
    }
  };
  /// Growth bound for pathological scripts with unbounded distinct pieces.
  static constexpr std::size_t kMaxEntries = 8192;

  std::unordered_map<Key, std::string, KeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t lookups_ = 0;
};

struct RecoveryOptions {
  std::size_t max_steps_per_piece = 200000;
  std::size_t max_piece_size = 4u << 20;
  std::vector<std::string> extra_blocklist;
  /// Extension beyond the paper (its section V-C limitation): when enabled,
  /// user function definitions seen earlier in the script are loaded into
  /// the recovery interpreter, so pieces that call a decoder function (the
  /// "recovery algorithm in a function" evasion) can still be executed.
  bool trace_functions = false;
  /// Optional piece-execution memo, shared across layers and fixed-point
  /// passes of one deobfuscation run. Null executes every piece.
  RecoveryMemo* memo = nullptr;
  /// Optional execution budget for the whole pass: piece interpreters
  /// checkpoint against it, and a BudgetError (deadline / allocation /
  /// cancellation) aborts the pass instead of being absorbed as a per-piece
  /// failure. Non-owning; may be null.
  ps::Budget* budget = nullptr;
  /// Optional fault injector (sites: PieceExecution, MemoLookup). Injected
  /// FaultErrors likewise propagate out of the pass. May be null.
  FaultInjector* fault = nullptr;
  /// Reference evaluation for tests: every rewritten piece and assignment
  /// parses its rebuilt text, as before subtree evaluation existed. The
  /// subtree path must give the same output (DESIGN.md §7, invariant 8).
  bool reparse_rewritten = false;
  /// Check for tests: every refused piece is evaluated anyway, and a
  /// failure kind other than the refusal's raises std::logic_error out of
  /// the pass (DESIGN.md §7, invariant 9).
  bool verify_refusals = false;
  /// Check for tests: before a piece or assignment evaluates, every impure
  /// outcome recorded under it is walked again on a freshly seeded
  /// interpreter, and any difference in value, failure kind, steps or
  /// budget bytes raises std::logic_error out of the pass (DESIGN.md §7,
  /// invariant 10).
  bool verify_bindings = false;
  /// Reference for tests: false records no evaluated outcome, so every
  /// piece evaluates its whole subtree, as before binding existed. Limits
  /// and outputs must not change either way.
  bool bind_values = true;
};

/// True when evaluating `root` (a recoverable piece, or the single statement
/// of a rewritten piece's parse) cannot observe interpreter state, so it
/// folds on a shared table-free interpreter under one constant memo context.
/// Nodes bound in `overrides` (replaced by literals, or pure values) count
/// as constants; an impure record (BoundValue::impure) does not.
/// Pure pieces are built only from constants, type literals, `$`-free
/// expandable strings, the constant automatic variables ($true, $false,
/// $null, $pshome, $psscriptroot, $shellid, $home, $pwd), binary operators,
/// the value unary operators (`-` `+` `!` `-not` `-bnot` `-join` `-split`
/// `,`), casts, indexing, array literals, paren/sub/array expressions
/// holding one pure statement, and pipelines: a pure first expression
/// followed by any number of *item blocks*. An item block is
/// `ForEach-Object`/`%`/`foreach` or `Where-Object`/`?`/`where` with one
/// script-block argument and nothing else (no `-Begin`/`-End`, no param
/// block) whose body is one pure statement in which `$_` counts as a
/// constant; `$_` is impure anywhere else. A command name in
/// `traced_functions` (lowercase names of the function definitions the
/// pass has loaded into its interpreters) is not an item block, since the
/// function would run instead. Other commands (where the blocklist
/// applies), member access, assignments, `++`/`--`, hashtables, script
/// blocks, and every other variable read are impure.
[[nodiscard]] bool is_pure_piece(
    const ps::Ast& root, const ps::NodeOverrides* overrides = nullptr,
    std::span<const std::string> traced_functions = {});

/// Runs one recovery pass. Returns the input unchanged when it does not
/// parse (the caller's per-step syntax check handles rollback).
std::string recovery_pass(std::string_view script, const RecoveryOptions& options,
                          RecoveryStats* stats = nullptr,
                          TraceSink* trace = nullptr);

/// Parse-once overload: runs the pass over an already-parsed handle of
/// `script` (extents must index into `script`). Pieces evaluate from their
/// own subtrees, with replaced children bound as overrides; only pieces
/// whose rewrites a subtree cannot carry (DESIGN.md §11) parse their text.
/// Those parses, the interpreters' and the output syntax check go through
/// the run's parse table `cache` when provided, so the caller's subsequent
/// parse of the result is a hit.
std::string recovery_pass(std::string_view script,
                          const ps::ParsedScript& parsed,
                          const RecoveryOptions& options,
                          RecoveryStats* stats = nullptr,
                          TraceSink* trace = nullptr,
                          ps::ParseCache* cache = nullptr);

/// Renders a runtime value as PowerShell literal source text, or empty when
/// the value has no faithful literal form (objects, arrays, ...), matching
/// the paper's String/Number rule in section III-B2.
std::string value_to_literal(const ps::Value& value);

}  // namespace ideobf
