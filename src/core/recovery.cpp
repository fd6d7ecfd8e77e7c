#include "core/recovery.h"

#include <map>
#include <memory>
#include <unordered_set>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/blocklist.h"
#include "core/failure.h"
#include "core/fault.h"
#include "pslang/alias_table.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "psinterp/interpreter.h"
#include "telemetry/telemetry.h"

namespace ideobf {

namespace {

telemetry::Counter& memo_lookup_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_recovery_memo_lookup_total");
  return c;
}
telemetry::Counter& memo_hit_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_recovery_memo_hit_total");
  return c;
}
telemetry::Counter& memo_miss_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_recovery_memo_miss_total");
  return c;
}

// Per-stage counters of the piece-evaluation ladder. Every execute_piece
// entry lands in exactly one of: a memo hit, a fold (pure piece on the
// shared fold interpreter), or a tree-walk fallback (seeded interpreter) —
// the identity the bench smoke gate asserts.
telemetry::Counter& piece_exec_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_recovery_piece_exec_total");
  return c;
}
telemetry::Counter& piece_memo_hit_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_recovery_piece_memo_hit_total");
  return c;
}
telemetry::Counter& fold_counter() {
  static auto& c = telemetry::registry().counter("ideobf_recovery_fold_total");
  return c;
}
telemetry::Counter& treewalk_fallback_counter() {
  static auto& c = telemetry::registry().counter(
      "ideobf_recovery_treewalk_fallback_total");
  return c;
}

/// Tree-walk entries the seeded interpreter refused before evaluating
/// (a subset of the tree-walk fallbacks).
telemetry::Counter& piece_refused_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_recovery_piece_refused_total");
  return c;
}

telemetry::Histogram& fold_histogram() {
  static auto& h = telemetry::registry().histogram("ideobf_piece_eval_seconds",
                                                   "stage=\"fold\"");
  return h;
}
telemetry::Histogram& fallback_histogram() {
  static auto& h = telemetry::registry().histogram("ideobf_piece_eval_seconds",
                                                   "stage=\"fallback\"");
  return h;
}

/// Per-NodeKind recovery attempt counter, interned lazily per kind (the
/// registry is idempotent, so a first-use race costs one duplicate intern).
telemetry::Counter& piece_kind_counter(ps::NodeKind kind) {
  static std::array<std::atomic<telemetry::Counter*>, 64> slots{};
  auto& slot = slots[static_cast<std::size_t>(kind) % slots.size()];
  telemetry::Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    std::string labels = "kind=\"";
    labels += ps::to_string(kind);
    labels += '"';
    c = &telemetry::registry().counter("ideobf_recovery_piece_total", labels);
    slot.store(c, std::memory_order_release);
  }
  return *c;
}

}  // namespace

using ps::Ast;
using ps::NodeKind;
using ps::Value;

std::string value_to_literal(const Value& value) {
  if (value.is_string() || value.is_char()) {
    const std::string s = value.to_display_string();
    std::string out;
    out.reserve(s.size() + 2);
    out += '\'';
    for (char c : s) {
      // Control characters have no single-quoted literal representation.
      if ((c >= 0 && c < 0x20 && c != '\n' && c != '\t' && c != '\r') ||
          c == 0x7f) {
        return "";
      }
      if (c == '\'') out += "''";
      else out.push_back(c);
    }
    out += '\'';
    return out;
  }
  if (value.is_int()) return std::to_string(value.get_int());
  if (value.is_double()) return ps::format_double(value.get_double());
  return "";  // Boolean / Object / Array / null: keep the original piece
}

std::optional<std::string> RecoveryMemo::lookup(std::size_t context,
                                                std::string_view piece) {
  ++lookups_;
  memo_lookup_counter().add();
  const auto it = map_.find(Key{context, std::string(piece)});
  if (it != map_.end()) {
    ++hits_;
    memo_hit_counter().add();
    return it->second;
  }
  memo_miss_counter().add();
  return std::nullopt;
}

void RecoveryMemo::store(std::size_t context, std::string_view piece,
                         std::string literal) {
  if (map_.size() >= kMaxEntries) return;
  map_.emplace(Key{context, std::string(piece)}, std::move(literal));
}

namespace {

/// Automatic variables that must never be substituted textually even though
/// the interpreter knows their value.
bool is_untouchable_variable(const std::string& bare_lower) {
  static const char* kNames[] = {"_",     "args",  "input", "matches", "this",
                                 "true",  "false", "null",  "error",   "lastexitcode",
                                 "psitem", "myinvocation", "psboundparameters",
                                 "executioncontext", "psversiontable", "host",
                                 "profile", "ofs"};
  for (const char* n : kNames) {
    if (bare_lower == n) return true;
  }
  return false;
}

/// True when the reconstructed text is already a plain literal, so
/// executing it cannot simplify anything.
bool is_trivial_literal(std::string_view text) {
  std::size_t b = 0, e = text.size();
  while (b < e && (text[b] == ' ' || text[b] == '\t' || text[b] == '(' )) ++b;
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t' || text[e - 1] == ')')) --e;
  if (b >= e) return true;
  std::string_view body = text.substr(b, e - b);
  if (body.front() == '\'' && body.back() == '\'' &&
      body.find('\'', 1) == body.size() - 1) {
    return true;
  }
  bool all_digits = true;
  for (std::size_t i = body.front() == '-' ? 1 : 0; i < body.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(body[i])) && body[i] != '.') {
      all_digits = false;
      break;
    }
  }
  return all_digits;
}

/// The value a replacement literal reparses to, or nullopt when the
/// literal has no such form (then an enclosing piece must parse its text).
/// Strings come from value_to_literal's single quotes, so only doubled
/// quotes need undoing; numbers are accepted in the plain `-12` / `3.5`
/// form that binds as a number in expression and argument position alike,
/// with the parser's own conversion. `%.15g` exponent forms and `inf` /
/// `nan` have no such form, and neither has the most negative int: outside
/// a command argument `-N` is unary minus applied to N, and that N
/// overflows.
std::optional<Value> literal_value(std::string_view literal) {
  if (literal == std::to_string(std::numeric_limits<std::int64_t>::min())) {
    return std::nullopt;
  }
  if (literal.size() >= 2 && literal.front() == '\'' &&
      literal.back() == '\'') {
    std::string s;
    s.reserve(literal.size() - 2);
    for (std::size_t i = 1; i + 1 < literal.size(); ++i) {
      s.push_back(literal[i]);
      if (literal[i] == '\'') ++i;  // '' is one quote
    }
    return Value(std::move(s));
  }
  std::size_t i = !literal.empty() && literal.front() == '-' ? 1 : 0;
  const std::size_t digits = i;
  bool dot = false;
  for (; i < literal.size(); ++i) {
    if (literal[i] == '.' && !dot && i > digits && i + 1 < literal.size()) {
      dot = true;
    } else if (!std::isdigit(static_cast<unsigned char>(literal[i]))) {
      return std::nullopt;
    }
  }
  if (literal.size() == digits) return std::nullopt;
  return ps::parse_number_token(literal);
}

/// Characters that continue a name or bareword token.
bool is_name_char(char c) {
  const auto u = static_cast<unsigned char>(c);
  return std::isalnum(u) != 0 || c == '_' || u >= 0x80;
}

/// True when `node` is lexed in command-argument mode: a command element
/// or `-Name:` argument, or the target of a postfix chain or an item of a
/// comma list that is one.
bool in_command_argument(const Ast& node) {
  const Ast* child = &node;
  for (const Ast* p = node.parent(); p != nullptr;
       child = p, p = p->parent()) {
    switch (p->kind()) {
      case NodeKind::Command:
      case NodeKind::CommandParameter:
        return true;
      case NodeKind::ArrayLiteral:
        continue;
      case NodeKind::MemberExpression:
      case NodeKind::InvokeMemberExpression:
        if (static_cast<const ps::MemberExpressionAst*>(p)->target.get() !=
            child) {
          return false;
        }
        continue;
      case NodeKind::IndexExpression:
        if (static_cast<const ps::IndexExpressionAst*>(p)->target.get() !=
            child) {
          return false;
        }
        continue;
      default:
        return false;
    }
  }
  return false;
}

/// True when `node` is a whole argument of a command (not its name), or
/// an item of a comma list that is one.
bool is_whole_argument(const Ast& node) {
  const Ast* p = node.parent();
  if (p != nullptr && p->kind() == NodeKind::ArrayLiteral) p = p->parent();
  return p != nullptr && p->kind() == NodeKind::Command &&
         static_cast<const ps::CommandAst*>(p)->elements.front().get() !=
             &node;
}

/// Node kinds whose evaluation reads their body by source extent (the
/// body becomes a script block's text), so a rewrite inside them is only
/// seen through a parse of the rewritten text.
bool reads_source_text(NodeKind kind) {
  return kind == NodeKind::ScriptBlockExpression ||
         kind == NodeKind::FunctionDefinition;
}

class Reconstructor {
 public:
  Reconstructor(std::string_view src, const RecoveryOptions& options,
                RecoveryStats& stats, TraceSink* trace,
                ps::ParseCache* cache = nullptr)
      : src_(src), options_(options), stats_(stats), trace_(trace),
        cache_(cache) {
    scope_path_.push_back(0);
  }

  std::string run(const Ast& root) {
    const Rebuilt rebuilt = reconstruct(root);
    return std::string(text_of(root, rebuilt));
  }

 private:
  struct VarInfo {
    Value value;
    std::vector<int> scope;
  };

  /// A node's reconstructed text, and whether its own subtree can still
  /// stand for that text.
  struct Rebuilt {
    /// The spliced text, set only when `rewritten`; an unchanged node's
    /// text is its source slice (text_of).
    std::string text;
    /// Some node in the extent was replaced, so the node's text differs
    /// from its source.
    bool rewritten = false;
    /// Every outermost replaced node in the extent has its literal's value
    /// in overrides_, and none sits under a reads_source_text() node: then
    /// evaluating the subtree with the overrides is evaluating `text`,
    /// with no parse.
    bool replayable = true;
  };

  /// A rebuilt node's text: the spliced text when something in it was
  /// replaced, its source slice otherwise.
  std::string_view text_of(const Ast& node, const Rebuilt& rebuilt) const {
    return rebuilt.rewritten ? std::string_view(rebuilt.text)
                             : node.text_in(src_);
  }

  std::string_view src_;
  const RecoveryOptions& options_;
  RecoveryStats& stats_;
  TraceSink* trace_;
  ps::ParseCache* cache_;  ///< the run's parse table; may be null
  /// Replaced nodes of this pass -> the value their literal reparses to,
  /// and evaluated pure pieces with no literal form -> their value and
  /// cost. Recovery is post-order, so a piece's children are bound before
  /// the piece itself evaluates.
  ps::NodeOverrides overrides_;
  /// The value-bound nodes in overrides_, in binding (post) order, so a
  /// node's bound descendants are a suffix.
  std::vector<const Ast*> value_bound_;
  /// Bumped by every change to what a seeded interpreter starts from (the
  /// traced table, the visible scope, the loaded functions) and by every
  /// walk that wrote interpreter state: each bump drops the impure records,
  /// which read that state.
  std::uint64_t generation_ = 0;
  /// Whether overrides_ may hold an impure record.
  bool impure_recorded_ = false;
  /// End offsets of this pass's replaced nodes: a literal spliced right
  /// after another one may merge with it.
  std::unordered_set<std::size_t> replaced_ends_;
  std::map<std::string, VarInfo> table_;  ///< S_v and S_c of Algorithm 1
  std::vector<std::string> function_defs_;  ///< trace_functions extension
  /// The lowercase names of function_defs_, which shadow item blocks.
  std::vector<std::string> function_names_;
  std::vector<int> scope_path_;
  int scope_counter_ = 0;
  int conditional_depth_ = 0;
  /// Shared interpreter for the fold stage: pure pieces cannot observe
  /// interpreter state, so one table-free strict interpreter (built lazily,
  /// steps reset per piece) serves every fold in the pass — no per-piece
  /// construction, no table seeding, no function-definition replay.
  std::unique_ptr<ps::Interpreter> fold_interp_;

  /// Memo context for pure pieces: they cannot read the table, so one
  /// constant context serves every pure piece of the run.
  static constexpr std::size_t kPureContext = 0x517cc1b727220a95ull;
  /// Memo context for environment-variable probes: their evaluation uses a
  /// fresh table-free interpreter, so their result depends on the variable
  /// text alone.
  static constexpr std::size_t kEnvProbeContext = 0x9e3779b97f4a7c15ull;

  /// Fingerprint of the visible symbol-table entries (name, value kind,
  /// display form) and the loaded function definitions. Within one run
  /// (fixed limits, blocklist and front-end), equal text + equal
  /// fingerprint implies the interpreter would produce the same result, so
  /// the memoized literal substitutes for re-execution.
  std::size_t context_fingerprint() const {
    std::size_t h = 14695981039346656037ull;
    const auto mix = [&h](std::string_view s) {
      for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
      }
      h ^= 0xffu;  // field separator
      h *= 1099511628211ull;
    };
    for (const auto& [name, info] : table_) {
      if (!scope_visible(info.scope)) continue;
      mix(name);
      const char tag = info.value.is_string()   ? 's'
                       : info.value.is_char()   ? 'c'
                       : info.value.is_int()    ? 'i'
                       : info.value.is_double() ? 'd'
                                                : 'o';
      mix(std::string_view(&tag, 1));
      mix(info.value.to_display_string());
    }
    for (const std::string& def : function_defs_) mix(def);
    return h;
  }

  bool scope_visible(const std::vector<int>& recorded) const {
    if (recorded.size() > scope_path_.size()) return false;
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      if (recorded[i] != scope_path_[i]) return false;
    }
    return true;
  }

  /// Records one failed piece/assignment execution in the pass stats.
  void record_piece_failure(ps::FailureKind kind) {
    stats_.pieces_failed++;
    stats_.worst_failure = ps::worse_failure(stats_.worst_failure, kind);
  }

  /// A fresh strict interpreter preloaded with the traced variable values,
  /// charging `budget` (the pass's by default).
  std::unique_ptr<ps::Interpreter> make_interpreter(
      ps::Budget* budget = nullptr) const {
    ps::InterpreterOptions opts;
    opts.max_steps = options_.max_steps_per_piece;
    opts.strict_variables = true;
    opts.refuse_blocklisted = true;
    opts.command_filter = make_recovery_filter(options_.extra_blocklist);
    opts.parse_cache = cache_;
    opts.budget = budget != nullptr ? budget : options_.budget;
    auto interp = std::make_unique<ps::Interpreter>(opts);
    for (const auto& [name, info] : table_) {
      if (scope_visible(info.scope)) interp->set_variable(name, info.value);
    }
    // Function-tracing extension: register earlier function definitions so
    // pieces calling a user decoder can execute (blocklist still applies).
    for (const std::string& def : function_defs_) {
      try {
        interp->evaluate_script(def);
      } catch (const ps::BudgetError&) {
        throw;  // the item's envelope, not this definition's problem
      } catch (const std::exception&) {
        // A definition that does not evaluate is simply unavailable.
      }
    }
    interp->mark_seeded();
    return interp;
  }

  /// Drops every impure record: the state it read may have changed.
  void bump_generation() {
    ++generation_;
    if (!impure_recorded_) return;
    std::erase_if(value_bound_, [this](const Ast* node) {
      const auto it = overrides_.find(node);
      if (!it->second.impure) return false;
      overrides_.erase(it);
      return true;
    });
    impure_recorded_ = false;
  }

  /// Removes a variable from the traced table.
  void untrace(const std::string& bare) {
    if (table_.erase(bare) != 0) bump_generation();
  }

  /// The fold-stage interpreter: same limits/blocklist/budget as
  /// make_interpreter() but with no table seeding and no function replay —
  /// pure pieces can't read either. Reused across every fold of the pass.
  ps::Interpreter& fold_interpreter() {
    if (fold_interp_ == nullptr) {
      ps::InterpreterOptions opts;
      opts.max_steps = options_.max_steps_per_piece;
      opts.strict_variables = true;
      opts.refuse_blocklisted = true;
      opts.command_filter = make_recovery_filter(options_.extra_blocklist);
      opts.parse_cache = cache_;
      opts.budget = options_.budget;
      fold_interp_ = std::make_unique<ps::Interpreter>(opts);
    }
    return *fold_interp_;
  }

  /// The single statement of a parsed piece, or null when the piece is not
  /// exactly one statement (then evaluate_script semantics — multiple
  /// statements, param blocks — are beyond a single folded node).
  static const Ast* single_statement(const ps::ScriptBlockAst& root) {
    if (root.param_block != nullptr) return nullptr;
    const Ast* found = nullptr;
    for (const auto& block : root.named_blocks) {
      for (const auto& st : block->statements) {
        if (found != nullptr) return nullptr;
        found = st.get();
      }
    }
    return found;
  }

  /// Which tree a piece evaluates: its own subtree with the overrides
  /// (the subtree path), or the single statement of a parse of its
  /// rewritten text (the parse path, whose parse `parsed` pins).
  struct PieceRoot {
    const Ast* node = nullptr;  ///< null: evaluate the text as a script
    std::string_view source;
    const ps::NodeOverrides* overrides = nullptr;
  };

  /// Whether a piece or assignment evaluates its own subtree (with the
  /// overrides) rather than a parse of its rebuilt text.
  bool subtree_path(const Rebuilt& piece) const {
    return piece.replayable &&
           !(piece.rewritten && options_.reparse_rewritten);
  }

  /// The overrides a subtree-path evaluation of `node` reads: null when
  /// nothing below it is bound.
  const ps::NodeOverrides* overrides_under(const Rebuilt& piece,
                                           const Ast& node) const {
    return piece.rewritten || (!value_bound_.empty() &&
                               value_bound_.back()->start() >= node.start())
               ? &overrides_
               : nullptr;
  }

  /// Verbatim pieces and replayable rewritten ones take the subtree path;
  /// the rest parse their text, through the run's parse table if any.
  PieceRoot piece_root(const Rebuilt& piece, const Ast& node,
                       ps::ParsedScript& parsed) const {
    if (subtree_path(piece)) return {&node, src_, overrides_under(piece, node)};
    const std::string_view text = text_of(node, piece);
    parsed = cache_ != nullptr ? cache_->get(text).ast : ps::try_parse(text);
    return {parsed != nullptr ? single_statement(*parsed) : nullptr, text,
            nullptr};
  }

  /// Splices the reconstructed children into the node's original text.
  std::string splice(const Ast& node,
                     const std::vector<std::pair<const Ast*, Rebuilt>>& kids) {
    std::string out;
    std::size_t pos = node.start();
    for (const auto& [child, kid] : kids) {
      if (child->start() < pos) continue;  // defensive: skip overlaps
      out += src_.substr(pos, child->start() - pos);
      out += text_of(*child, kid);
      pos = child->end();
    }
    out += src_.substr(pos, node.end() - pos);
    return out;
  }

  /// Whether `literal`, spliced over `node`, lexes as one token standing
  /// where the node stood in every piece that contains it, so that the
  /// literal's value is what the spliced text means there (DESIGN.md §7,
  /// invariant 8). Decided on the source characters around the node, which
  /// are the spliced text's unless a replaced node ends right before it:
  /// the literal must not merge with a neighbour (`'x''y'` is one string,
  /// `42.Length` one argument bareword), a number in an argument must be a
  /// whole argument, and a negative number must not meet an operator, cast
  /// or postfix that would take its sign apart (`--5`, `[int]-5`,
  /// `-5.Length`).
  bool splices_as_token(const Ast& node, std::string_view literal) const {
    if (replaced_ends_.count(node.start()) != 0) return false;
    const auto at = [this](std::size_t i) {
      return i < src_.size() ? src_[i] : ' ';
    };
    const char before = node.start() > 0 ? at(node.start() - 1) : ' ';
    const char before2 = node.start() > 1 ? at(node.start() - 2) : ' ';
    const char after = at(node.end());
    const char after2 = at(node.end() + 1);
    const auto space = [](char c) {
      return c == ' ' || c == '\t' || c == '\r' || c == '\n';
    };
    if (is_name_char(after)) return false;
    // A member or static-member name position (`$o.$m`), but not a range.
    if ((before == '.' && before2 != '.') || before == ':') return false;
    if (literal.front() == '\'') return before != '\'' && after != '\'';
    if (is_name_char(before) ||
        (after == '.' && std::isdigit(static_cast<unsigned char>(after2)))) {
      return false;
    }
    if (in_command_argument(node)) {
      // An argument-mode number is a bareword that runs on to the next
      // command-word break, and binds as a number only when it is all of
      // one argument.
      return is_whole_argument(node) && (space(before) || before == ',') &&
             (space(after) || after == ';' || after == '|' || after == ')' ||
              after == '}' || after == ',');
    }
    if (literal.front() != '-') return true;
    const Ast* parent = node.parent();
    return (parent == nullptr ||
            parent->kind() != NodeKind::ConvertExpression) &&
           (space(before) || before == '(' || before == ',' ||
            before == '=' || before == '{' || before == '[' ||
            before == ';' || before == '|') &&
           (space(after) || after == ')' || after == ',' || after == ';' ||
            after == '}' || after == ']' || after == '|');
  }

  /// Replaces `node`'s text by `literal`. When the literal splices as a
  /// token, binds the value it reparses to, so enclosing pieces can
  /// evaluate their subtree; otherwise they parse their text.
  Rebuilt replaced(const Ast& node, std::string literal) {
    release_values_under(node);
    std::optional<Value> value = literal_value(literal);
    const bool replayable =
        value.has_value() && splices_as_token(node, literal);
    if (replayable) overrides_.insert_or_assign(&node, std::move(*value));
    replaced_ends_.insert(node.end());
    return {std::move(literal), true, replayable};
  }

  /// Drops the value bindings of nodes inside `node`: once `node` is
  /// bound, or its statement has finished, nothing reads them.
  void release_values_under(const Ast& node) {
    while (!value_bound_.empty() &&
           value_bound_.back()->start() >= node.start() &&
           value_bound_.back()->end() <= node.end()) {
      overrides_.erase(value_bound_.back());
      value_bound_.pop_back();
    }
  }

  /// Binds a pure piece's value, which has no literal form, with its
  /// evaluation's cost, for enclosing pieces to read instead of evaluating
  /// the piece again. Values an index assignment could alias are copied on
  /// every read; objects, which carry state, and pieces that set
  /// `$matches` are never bound, nor is a pipeline with no output (its
  /// value would read as one `$null`).
  void bind_value(const Ast& node, ps::BoundValue bound) {
    if (!bindable(bound.value) || writes_matches(node) ||
        (node.kind() == NodeKind::Pipeline && bound.value.is_null())) {
      return;
    }
    release_values_under(node);
    overrides_.insert_or_assign(&node, std::move(bound));
    value_bound_.push_back(&node);
    stats_.pieces_bound++;
  }

  /// Whether a value can be bound: `objects` admits objects, for impure
  /// records (a member call that mutates one is a write, which bumps the
  /// generation); script blocks never bind there, since invoking one runs
  /// its live node.
  static bool bindable(const Value& v, bool objects = false) {
    if (v.is_object()) return objects;
    if (objects && v.is_scriptblock()) return false;
    if (v.is_array()) {
      for (const Value& item : v.get_array()) {
        if (!bindable(item, objects)) return false;
      }
    }
    if (v.is_hashtable()) {
      for (const auto& [k, item] : v.get_hashtable().entries) {
        if (!bindable(k, objects) || !bindable(item, objects)) return false;
      }
    }
    return true;
  }

  /// Records an impure tree-walked piece's outcome (its value with no
  /// literal form, or a failure that is not a limit's), with its cost, for
  /// enclosing pieces to replay or refuse. The walk wrote no interpreter
  /// state, so the outcome holds until the next bump_generation().
  void record_outcome(const Ast& node, ps::FailureKind failure,
                      ps::BoundValue outcome) {
    if (failure == ps::FailureKind::None) {
      if (!bindable(outcome.value, true) ||
          (node.kind() == NodeKind::Pipeline && outcome.value.is_null())) {
        return;
      }
    } else if (failure != ps::FailureKind::EvalError &&
               failure != ps::FailureKind::BlockedCommand &&
               failure != ps::FailureKind::ParseError) {
      return;
    }
    outcome.failure = failure;
    outcome.impure = true;
    release_values_under(node);
    overrides_.insert_or_assign(&node, std::move(outcome));
    value_bound_.push_back(&node);
    impure_recorded_ = true;
    stats_.pieces_bound++;
  }

  /// The steps past the one that reaches `node` from an enclosing piece:
  /// a standalone evaluation enters an expression through exec_statement
  /// and eval_expr, a pipeline through exec_statement alone.
  static std::size_t steps_past_entry(const Ast& node, std::size_t steps) {
    const std::size_t entry = node.kind() == NodeKind::Pipeline ? 1 : 2;
    return steps - std::min(entry, steps);
  }

  std::size_t bytes_charged() const {
    return options_.budget != nullptr ? options_.budget->bytes_charged() : 0;
  }

  /// RecoveryOptions::verify_bindings: walks every impure record under
  /// `node` on a freshly seeded interpreter with an unlimited budget of its
  /// own, and raises std::logic_error when its outcome differs from the
  /// record's.
  void verify_records_under(const Ast& node) const {
    for (auto it = value_bound_.rbegin();
         it != value_bound_.rend() && (*it)->start() >= node.start(); ++it) {
      const ps::BoundValue& record = overrides_.at(*it);
      if (!record.impure || (*it)->end() > node.end()) continue;
      ps::NodeOverrides others = overrides_;
      others.erase(*it);
      ps::Budget budget{ps::Budget::Limits{}};
      const std::unique_ptr<ps::Interpreter> interp = make_interpreter(&budget);
      const std::size_t steps0 = interp->steps();
      ps::FailureKind failure = ps::FailureKind::None;
      Value value;
      try {
        value = interp->evaluate(**it, src_, &others);
      } catch (const ps::BudgetError&) {
        throw;
      } catch (const FaultError&) {
        throw;
      } catch (const std::exception& e) {
        failure = classify(e).first;
      }
      const std::size_t steps = steps_past_entry(**it, interp->steps() - steps0);
      if (failure != record.failure || steps != record.steps ||
          budget.bytes_charged() != record.bytes ||
          (failure == ps::FailureKind::None && !same_value(value, record.value))) {
        throw std::logic_error(
            "binding mismatch on `" + std::string((*it)->text_in(src_)) +
            "`: recorded " + ps::to_string(record.failure) + " in " +
            std::to_string(record.steps) + " steps and " +
            std::to_string(record.bytes) + " bytes, the walk gave " +
            ps::to_string(failure) + " in " + std::to_string(steps) +
            " steps and " + std::to_string(budget.bytes_charged()) + " bytes");
      }
    }
  }

  /// Equality of two evaluations' values: objects by type and display.
  static bool same_value(const Value& a, const Value& b) {
    if (a.is_object() || b.is_object()) {
      return a.is_object() && b.is_object() &&
             a.get_object()->type_name() == b.get_object()->type_name() &&
             a.get_object()->to_display() == b.get_object()->to_display();
    }
    if (a.is_array() && b.is_array()) {
      const auto& x = a.get_array();
      const auto& y = b.get_array();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!same_value(x[i], y[i])) return false;
      }
      return true;
    }
    return a.type_name() == b.type_name() && a == b;
  }

  /// Whether evaluating `node` can run a `-match` (which assigns
  /// `$matches`), not counting bound nodes, which are not evaluated.
  bool writes_matches(const Ast& node) const {
    if (node.kind() == NodeKind::BinaryExpression &&
        static_cast<const ps::BinaryExpressionAst&>(node).id == ps::Op::Match) {
      return true;
    }
    for (const Ast* child : node.children()) {
      if (overrides_.count(child) == 0 && writes_matches(*child)) return true;
    }
    return false;
  }

  bool is_loop_or_conditional(NodeKind kind) const {
    switch (kind) {
      case NodeKind::IfStatement:
      case NodeKind::SwitchStatement:
      case NodeKind::WhileStatement:
      case NodeKind::DoWhileStatement:
      case NodeKind::ForStatement:
      case NodeKind::ForEachStatement:
        return true;
      default:
        return false;
    }
  }

  Rebuilt reconstruct(const Ast& node) {
    // Scope bookkeeping (the six scope kinds of Algorithm 1).
    const bool scoped = ps::is_scope_kind(node.kind());
    const bool conditional = is_loop_or_conditional(node.kind());
    const std::uint64_t generation = generation_;
    if (scoped) scope_path_.push_back(++scope_counter_);
    if (conditional) ++conditional_depth_;

    const ps::ChildList children = node.children();
    std::vector<std::pair<const Ast*, Rebuilt>> kids;
    kids.reserve(children.size());
    Rebuilt self;
    for (const Ast* child : children) {
      Rebuilt kid = reconstruct(*child);
      if (kid.rewritten) {
        self.rewritten = true;
        self.replayable = self.replayable && kid.replayable;
      }
      kids.emplace_back(child, std::move(kid));
    }

    if (conditional) --conditional_depth_;
    if (scoped) {
      scope_path_.pop_back();
      // What the scope traced is out of sight now.
      if (generation_ != generation) bump_generation();
    }

    if (self.rewritten && reads_source_text(node.kind())) {
      self.replayable = false;
    }
    if (self.rewritten) self.text = splice(node, kids);
    self = recover(node, std::move(self));

    const Ast* parent = node.parent();
    if (parent != nullptr && (parent->kind() == NodeKind::NamedBlock ||
                              parent->kind() == NodeKind::StatementBlock)) {
      release_values_under(node);  // a finished statement
    }
    return self;
  }

  /// Algorithm 1's action at `node`, once its children are rebuilt.
  Rebuilt recover(const Ast& node, Rebuilt self) {
    switch (node.kind()) {
      case NodeKind::VariableExpression:
        return handle_variable(static_cast<const ps::VariableExpressionAst&>(node),
                               std::move(self));
      case NodeKind::AssignmentStatement:
        return handle_assignment(
            static_cast<const ps::AssignmentStatementAst&>(node), std::move(self));
      case NodeKind::FunctionDefinition:
        if (options_.trace_functions && conditional_depth_ == 0) {
          function_defs_.emplace_back(text_of(node, self));
          function_names_.push_back(ps::to_lower(
              static_cast<const ps::FunctionDefinitionAst&>(node).name));
          bump_generation();
        }
        return self;
      case NodeKind::ExpandableStringExpression:
        return handle_expandable(std::move(self), node);
      default:
        break;
    }
    if (ps::is_recoverable_kind(node.kind())) {
      return try_recover(std::move(self), node);
    }
    return self;
  }

  Rebuilt handle_variable(const ps::VariableExpressionAst& var, Rebuilt self) {
    const std::string_view text = text_of(var, self);
    const std::string bare = var.bare_name();
    const std::string scope = var.scope_qualifier();

    // Algorithm 1 lines 8-12: any variable touched inside a loop or
    // conditional statement becomes untraceable.
    if (conditional_depth_ > 0) {
      untrace(bare);
      return self;
    }
    if (is_untouchable_variable(bare)) return self;

    // Never substitute binding positions.
    const Ast* parent = var.parent();
    if (parent != nullptr) {
      if (parent->kind() == NodeKind::AssignmentStatement &&
          static_cast<const ps::AssignmentStatementAst*>(parent)->left.get() ==
              &var) {
        return self;
      }
      if (parent->kind() == NodeKind::ForEachStatement &&
          static_cast<const ps::ForEachStatementAst*>(parent)->variable.get() ==
              &var) {
        return self;
      }
      if (parent->kind() == NodeKind::UnaryExpression) {
        const auto& un = static_cast<const ps::UnaryExpressionAst&>(*parent);
        if (ps::is_increment(un.id)) {
          untrace(bare);
          return self;
        }
      }
    }

    // Traced user variable?
    if (scope.empty() || scope == "script" || scope == "global") {
      auto it = table_.find(bare);
      if (it != table_.end() && scope_visible(it->second.scope)) {
        std::string literal = value_to_literal(it->second.value);
        if (!literal.empty()) {
          stats_.variables_substituted++;
          if (trace_ != nullptr) {
            trace_->emit({TraceEvent::Kind::VariableSubstituted, var.start(),
                          std::string(text), literal, trace_->pass()});
          }
          return replaced(var, std::move(literal));
        }
        return self;
      }
    }

    // Environment / automatic variables resolve through Get-Variable
    // semantics (paper section III-B3). The probe interpreter is fresh and
    // table-free, so the result depends on the variable text alone and is
    // memoized under a fixed context.
    if (scope == "env" || scope.empty()) {
      const std::string probe_text(
          src_.substr(var.start(), var.end() - var.start()));
      telemetry::PhaseSpan probe_span(telemetry::Phase::PieceExecution,
                                      "env-probe");
      std::string literal;
      const std::optional<std::string> hit =
          options_.memo != nullptr
              ? options_.memo->lookup(kEnvProbeContext, probe_text)
              : std::nullopt;
      if (hit.has_value()) {
        stats_.memo_hits++;
        literal = *hit;
      } else {
        if (options_.memo != nullptr) stats_.memo_misses++;
        try {
          ps::InterpreterOptions opts;
          opts.strict_variables = true;
          opts.parse_cache = cache_;
          opts.budget = options_.budget;
          ps::Interpreter probe(opts);
          if (probe.refusal(var, nullptr)) {
            // An unknown variable: its walk would throw at its first step.
            if (options_.budget != nullptr) options_.budget->checkpoint();
          } else {
            const Value v = probe.evaluate(var, src_);
            if (v.is_string() || v.is_char()) literal = value_to_literal(v);
          }
        } catch (const ps::BudgetError&) {
          throw;
        } catch (const std::exception&) {
          stats_.pieces_thrown++;  // unknown: keep as-is
        }
        if (options_.memo != nullptr) {
          options_.memo->store(kEnvProbeContext, probe_text, literal);
        }
      }
      if (!literal.empty()) {
        stats_.variables_substituted++;
        if (trace_ != nullptr) {
          trace_->emit({TraceEvent::Kind::VariableSubstituted, var.start(),
                        std::string(text), literal, trace_->pass()});
        }
        return replaced(var, std::move(literal));
      }
    }
    return self;
  }

  Rebuilt handle_assignment(const ps::AssignmentStatementAst& st,
                            Rebuilt self) {
    if (st.left->kind() != NodeKind::VariableExpression) return self;
    const auto& var = static_cast<const ps::VariableExpressionAst&>(*st.left);
    const std::string bare = var.bare_name();
    if (conditional_depth_ > 0 || is_untouchable_variable(bare)) {
      untrace(bare);
      return self;
    }
    telemetry::PhaseSpan trace_span(telemetry::Phase::VariableTrace);
    try {
      auto interp = make_interpreter();
      if (subtree_path(self)) {
        // The assignment's own subtree, replaced nodes bound.
        const ps::NodeOverrides* overrides = overrides_under(self, st);
        if (options_.verify_bindings && overrides != nullptr) {
          verify_records_under(st);
        }
        std::size_t bytes = 0;
        if (const std::optional<ps::FailureKind> refused =
                interp->refusal(st, overrides, &bytes)) {
          refuse(*interp, {&st, src_, overrides}, true, st.text_in(src_),
                 *refused, bytes);
          record_piece_failure(*refused);
          untrace(bare);
          return self;
        }
        interp->evaluate(st, src_, overrides);
      } else {
        stats_.pieces_reparsed++;
        interp->evaluate_script(text_of(st, self));
      }
      bump_generation();  // the walk wrote, and the table changes
      if (auto value = interp->get_variable(bare)) {
        table_[bare] = VarInfo{*value, scope_path_};
        stats_.variables_traced++;
        if (trace_ != nullptr) {
          trace_->emit({TraceEvent::Kind::VariableTraced, st.start(), "$" + bare,
                        value_to_literal(*value), trace_->pass()});
        }
      } else {
        untrace(bare);
      }
    } catch (const ps::BudgetError&) {
      throw;  // item-level envelope: aborts the pass, not just this record
    } catch (const FaultError&) {
      throw;  // injected faults must reach the governor
    } catch (const std::exception& e) {
      // Unknown variables / blocked commands / limits: drop the record
      // (Algorithm 1 lines 15-18) but remember what kind of failure it was
      // for the item classification. The walk may have written objects
      // the table shares.
      stats_.pieces_thrown++;
      record_piece_failure(classify(e).first);
      table_.erase(bare);
      bump_generation();
    }
    return self;
  }

  /// Executes a piece through the evaluation ladder:
  ///
  ///   1. classify the piece with is_pure_piece();
  ///   2. consult the run's memo — pure pieces under the constant pure
  ///      context (one entry per piece text), everything else under the
  ///      traced-table fingerprint;
  ///   3. on a miss, evaluate: *fold* pure pieces by tree-walking them on
  ///      the shared table-free interpreter, and tree-walk everything else
  ///      on a freshly seeded interpreter (*fallback*), unless that
  ///      interpreter refuses the piece because the tree (or an outcome
  ///      recorded in it) already shows how the walk would fail.
  ///
  /// A folded piece on the subtree path whose value has no literal form is
  /// bound for its enclosing pieces (bind_value); a tree-walked one that
  /// wrote no interpreter state records its value or failure
  /// (record_outcome). The returned literal is "" when the piece stays
  /// as-is (failed execution, no literal form, or no progress).
  std::string execute_piece(const Rebuilt& piece, const Ast& node) {
    const std::string_view text = text_of(node, piece);
    telemetry::PhaseSpan piece_span(telemetry::Phase::PieceExecution,
                                    ps::to_string(node.kind()));
    if (telemetry::enabled()) piece_kind_counter(node.kind()).add();
    piece_exec_counter().add();
    if (options_.fault != nullptr) {
      options_.fault->inject(FaultSite::PieceExecution);
    }
    ps::ParsedScript parsed;  // pins a parse-path piece's parse
    const PieceRoot root = piece_root(piece, node, parsed);
    const bool pure =
        root.node != nullptr &&
        is_pure_piece(*root.node, root.overrides, function_names_);
    std::size_t ctx = 0;
    if (options_.memo != nullptr) {
      if (options_.fault != nullptr) {
        options_.fault->inject(FaultSite::MemoLookup);
      }
      ctx = pure ? kPureContext : context_fingerprint();
      if (const std::optional<std::string> hit =
              options_.memo->lookup(ctx, text)) {
        stats_.memo_hits++;
        piece_memo_hit_counter().add();
        return *hit;
      }
      stats_.memo_misses++;
    }
    // Observe stage latency on scope exit so throwing evaluations (the
    // common case for hostile pieces) still charge their elapsed
    // nanoseconds to the stage.
    struct StageTimer {
      telemetry::Histogram* hist = nullptr;
      std::uint64_t t0 = 0;
      void start(telemetry::Histogram& h) {
        hist = &h;
        t0 = telemetry::now_ns();
      }
      void finish() {
        if (hist != nullptr) hist->observe_ns(telemetry::now_ns() - t0);
        hist = nullptr;
      }
      ~StageTimer() { finish(); }
    };
    StageTimer timer;
    const bool timed = telemetry::enabled();
    const bool subtree = root.node == &node;
    if (!subtree) stats_.pieces_reparsed++;
    ps::BoundValue result(Value{});  // the value, and the evaluation's cost
    ps::FailureKind failure;
    bool recordable = false;  // a walk that wrote nothing
    if (pure) {
      stats_.pieces_folded++;
      fold_counter().add();
      if (timed) timer.start(fold_histogram());
      failure = fold(root, result);
    } else {
      stats_.treewalk_fallbacks++;
      treewalk_fallback_counter().add();
      if (timed) timer.start(fallback_histogram());
      failure = tree_walk(root, subtree, text, result, recordable);
    }
    std::string literal;
    if (failure != ps::FailureKind::None) {
      record_piece_failure(failure);  // blocked / unknown / limit / error
    } else {
      literal = value_to_literal(result.value);
    }
    timer.finish();  // observe now; don't charge binding or memo time below
    if (subtree && options_.bind_values && literal.empty()) {
      if (pure && failure == ps::FailureKind::None) {
        bind_value(node, std::move(result));
      } else if (recordable) {
        record_outcome(node, failure, std::move(result));
      }
    }
    if (literal == text) literal.clear();  // no progress
    if (options_.memo != nullptr) options_.memo->store(ctx, text, literal);
    return literal;
  }

  /// Folds a pure piece on the shared interpreter. `result` receives the
  /// value, the steps past the one that reaches the node from an enclosing
  /// piece — a standalone evaluation enters an expression through
  /// exec_statement and eval_expr, a pipeline through exec_statement
  /// alone — and the budget bytes the evaluation charged.
  ps::FailureKind fold(const PieceRoot& root, ps::BoundValue& result) {
    try {
      ps::Interpreter& interp = fold_interpreter();
      // A fresh step allowance per piece, as a fresh interpreter has.
      interp.reset_steps();
      const std::size_t bytes0 = bytes_charged();
      result.value = interp.evaluate(*root.node, root.source, root.overrides);
      result.steps = steps_past_entry(*root.node, interp.steps());
      result.bytes = bytes_charged() - bytes0;
      return ps::FailureKind::None;
    } catch (const ps::BudgetError&) {
      throw;  // deadline / allocation / cancellation abort the whole pass
    } catch (const FaultError&) {
      throw;  // injected faults must reach the governor
    } catch (const std::exception& e) {
      stats_.pieces_thrown++;
      return classify(e).first;
    }
  }

  /// Tree-walks an impure piece on a freshly seeded interpreter, after
  /// asking it for a refusal. `result` receives the value and the walk's
  /// cost, or the cost up to the throw. `recordable` is set when the piece
  /// was walked and wrote no interpreter state; a walk that wrote some
  /// bumps the generation, since objects and arrays it changed may be the
  /// table's.
  ps::FailureKind tree_walk(const PieceRoot& root, bool subtree,
                            std::string_view text, ps::BoundValue& result,
                            bool& recordable) {
    const std::unique_ptr<ps::Interpreter> interp = make_interpreter();
    // evaluate_script counts the parse path's steps from zero.
    if (!subtree) interp->reset_steps();
    if (root.node != nullptr) {
      if (options_.verify_bindings && root.overrides != nullptr) {
        verify_records_under(*root.node);
      }
      std::size_t bytes = 0;
      if (const std::optional<ps::FailureKind> refused =
              interp->refusal(*root.node, root.overrides, &bytes)) {
        stats_.pieces_refused++;
        piece_refused_counter().add();
        refuse(*interp, root, subtree, text, *refused, bytes);
        return *refused;
      }
    }
    const std::size_t steps0 = interp->steps();
    const std::size_t bytes0 = bytes_charged();
    ps::FailureKind failure = ps::FailureKind::None;
    try {
      result.value = walk(*interp, root, subtree, text);
    } catch (const ps::BudgetError&) {
      throw;
    } catch (const FaultError&) {
      throw;
    } catch (const std::exception& e) {
      stats_.pieces_thrown++;
      failure = classify(e).first;
    }
    if (interp->wrote()) {
      bump_generation();
    } else if (subtree) {
      recordable = true;
      result.steps = steps_past_entry(*root.node, interp->steps() - steps0);
      result.bytes = bytes_charged() - bytes0;
    }
    return failure;
  }

  /// Books a refusal as the walk's failure: the bytes the walk would
  /// charge before it, and one budget checkpoint, as the walk's first step
  /// would pass. Under verify_refusals the walk runs anyway (charging the
  /// bytes itself) and must fail with the refusal's kind.
  void refuse(ps::Interpreter& interp, const PieceRoot& root, bool subtree,
              std::string_view text, ps::FailureKind refused,
              std::size_t bytes) {
    if (options_.verify_refusals) {
      verify_refusal(interp, root, subtree, text, refused);
    } else if (options_.budget != nullptr && bytes != 0) {
      options_.budget->charge_bytes(bytes);
    }
    if (options_.budget != nullptr) options_.budget->checkpoint();
  }

  Value walk(ps::Interpreter& interp, const PieceRoot& root, bool subtree,
             std::string_view text) {
    return subtree ? interp.evaluate(*root.node, root.source, root.overrides)
                   : interp.evaluate_script(text);
  }

  /// RecoveryOptions::verify_refusals: walks a refused piece anyway and
  /// raises std::logic_error unless it fails with the refusal's kind.
  void verify_refusal(ps::Interpreter& interp, const PieceRoot& root,
                      bool subtree, std::string_view text,
                      ps::FailureKind refused) {
    ps::FailureKind walked = ps::FailureKind::None;
    try {
      (void)walk(interp, root, subtree, text);
    } catch (const ps::BudgetError&) {
      throw;
    } catch (const FaultError&) {
      throw;
    } catch (const std::exception& e) {
      walked = classify(e).first;
    }
    if (walked != refused) {
      throw std::logic_error("refusal mismatch on `" + std::string(text) +
                             "`: refused " +
                             ps::to_string(refused) + ", the walk gave " +
                             ps::to_string(walked));
    }
  }

  /// Books a successful recovery ("" keeps the piece as rebuilt).
  Rebuilt apply_recovered(const Ast& node, Rebuilt piece, std::string literal) {
    if (literal.empty()) return piece;
    stats_.pieces_recovered++;
    if (trace_ != nullptr) {
      trace_->emit({TraceEvent::Kind::PieceRecovered, 0,
                    std::string(text_of(node, piece)), literal,
                    trace_->pass()});
    }
    return replaced(node, std::move(literal));
  }

  /// Expandable strings ("pre $url post") are not recoverable nodes, but
  /// with every referenced variable traced their value is known; evaluating
  /// them in the strict interpreter turns them into plain literals, which
  /// extends recovery to interpolation sites inside blocklisted pipelines.
  Rebuilt handle_expandable(Rebuilt self, const Ast& node) {
    if (conditional_depth_ > 0) return self;
    if (text_of(node, self).find('$') == std::string::npos) return self;
    std::string literal = execute_piece(self, node);
    return apply_recovered(node, std::move(self), std::move(literal));
  }

  Rebuilt try_recover(Rebuilt self, const Ast& node) {
    const std::string_view text = text_of(node, self);
    if (text.size() > options_.max_piece_size) return self;
    if (is_trivial_literal(text)) return self;
    std::string literal = execute_piece(self, node);
    return apply_recovered(node, std::move(self), std::move(literal));
  }
};

/// Automatic variables whose values are hard constants in the interpreter:
/// they short-circuit before any table/scope lookup, so reading them cannot
/// observe interpreter state.
bool is_constant_variable(const ps::VariableExpressionAst& var) {
  if (!var.scope_qualifier().empty()) return false;
  const std::string bare = var.bare_name();
  return bare == "true" || bare == "false" || bare == "null" ||
         bare == "pshome" || bare == "psscriptroot" || bare == "shellid" ||
         bare == "home" || bare == "pwd";
}

/// The pipeline item `$_`.
bool is_item_variable(const ps::VariableExpressionAst& var) {
  return var.scope_qualifier().empty() && var.bare_name() == "_";
}

/// is_pure_piece()'s walk. Inside an item block `$_` is the current
/// pipeline item, which the block's command binds before each run, so it
/// reads as a constant there and nowhere else.
class PurityCheck {
 public:
  PurityCheck(const ps::NodeOverrides* overrides,
              std::span<const std::string> traced_functions)
      : overrides_(overrides), traced_functions_(traced_functions) {}

  bool pure(const Ast& node) const {
    // A replaced node stands for its literal: a constant.
    if (bound(node)) return true;
    switch (node.kind()) {
      case NodeKind::ConstantExpression:
      case NodeKind::StringConstantExpression:
      case NodeKind::TypeExpression:
        return true;
      case NodeKind::ExpandableStringExpression:
        // A `$` may read a variable or run a `$(...)` subexpression.
        return static_cast<const ps::ExpandableStringExpressionAst&>(node)
                   .raw.find('$') == std::string::npos;
      case NodeKind::VariableExpression: {
        const auto& var = static_cast<const ps::VariableExpressionAst&>(node);
        return is_constant_variable(var) ||
               (in_item_block_ && is_item_variable(var));
      }
      case NodeKind::BinaryExpression: {
        const auto& bin = static_cast<const ps::BinaryExpressionAst&>(node);
        return pure(*bin.left) && pure(*bin.right);
      }
      case NodeKind::UnaryExpression: {
        // `++`/`--` assign their operand; every other unary operator only
        // transforms its value.
        const auto& un = static_cast<const ps::UnaryExpressionAst&>(node);
        return !ps::is_increment(un.id) && pure(*un.child);
      }
      case NodeKind::ConvertExpression:
        return pure(*static_cast<const ps::ConvertExpressionAst&>(node).child);
      case NodeKind::IndexExpression: {
        const auto& idx = static_cast<const ps::IndexExpressionAst&>(node);
        return pure(*idx.target) && pure(*idx.index);
      }
      case NodeKind::ArrayLiteral:
        for (const auto& el :
             static_cast<const ps::ArrayLiteralAst&>(node).elements) {
          if (!pure(*el)) return false;
        }
        return true;
      case NodeKind::ParenExpression:
        return statement(
            *static_cast<const ps::ParenExpressionAst&>(node).pipeline);
      case NodeKind::SubExpression:
        return statements(
            static_cast<const ps::SubExpressionAst&>(node).statements);
      case NodeKind::ArrayExpression:
        return statements(
            static_cast<const ps::ArrayExpressionAst&>(node).statements);
      case NodeKind::Pipeline:
        return pipeline(static_cast<const ps::PipelineAst&>(node));
      default:
        // Other commands (where the blocklist applies), member access,
        // invocation, hashtables, script blocks, assignments.
        return false;
    }
  }

 private:
  const ps::NodeOverrides* overrides_;
  std::span<const std::string> traced_functions_;
  bool in_item_block_ = false;

  /// A pure binding or a literal; an impure record is not a constant.
  bool bound(const Ast& node) const {
    if (overrides_ == nullptr) return false;
    const auto it = overrides_->find(&node);
    return it != overrides_->end() && !it->second.impure;
  }

  /// A pure first expression, then any number of item blocks.
  bool pipeline(const ps::PipelineAst& pipe) const {
    if (pipe.elements.empty()) return false;
    const Ast& first = *pipe.elements.front();
    if (first.kind() != NodeKind::CommandExpression ||
        !pure(*static_cast<const ps::CommandExpressionAst&>(first).expression)) {
      return false;
    }
    for (std::size_t i = 1; i < pipe.elements.size(); ++i) {
      if (!item_block(*pipe.elements[i])) return false;
    }
    return true;
  }

  /// The body of a paren/sub/array expression or an item block.
  bool statement(const Ast& stmt) const {
    return bound(stmt) ||
           (stmt.kind() == NodeKind::Pipeline &&
            pipeline(static_cast<const ps::PipelineAst&>(stmt)));
  }

  bool statements(const std::vector<ps::AstPtr>& stmts) const {
    return stmts.empty() || (stmts.size() == 1 && statement(*stmts[0]));
  }

  /// `ForEach-Object { … }` or `Where-Object { … }`, under any spelling
  /// that resolves to them and that no traced function shadows, with one
  /// script-block argument and nothing else: no parameters (`-Begin`,
  /// `-End`), no param block, one implicit block of one pure statement.
  bool item_block(const Ast& el) const {
    if (el.kind() != NodeKind::Command) return false;
    const auto& cmd = static_cast<const ps::CommandAst&>(el);
    if (cmd.invocation != ps::CommandAst::Invocation::None ||
        cmd.elements.size() != 2 ||
        cmd.elements[0]->kind() != NodeKind::StringConstantExpression ||
        cmd.elements[1]->kind() != NodeKind::ScriptBlockExpression) {
      return false;
    }
    if (!item_command(
            static_cast<const ps::StringConstantExpressionAst&>(*cmd.elements[0])
                .value)) {
      return false;
    }
    const auto& sb = static_cast<const ps::ScriptBlockAst&>(
        *static_cast<const ps::ScriptBlockExpressionAst&>(*cmd.elements[1])
             .script_block);
    if (sb.param_block != nullptr || sb.named_blocks.size() != 1) return false;
    const ps::NamedBlockAst& body = *sb.named_blocks.front();
    if (body.name != ps::NamedBlockAst::BlockName::Unnamed ||
        body.statements.size() != 1) {
      return false;
    }
    PurityCheck inner = *this;
    inner.in_item_block_ = true;
    return inner.statement(*body.statements.front());
  }

  /// Whether a command name dispatches to the built-in ForEach-Object or
  /// Where-Object: standard aliases resolved as the interpreter resolves
  /// them, and no traced function definition under either name.
  bool item_command(std::string_view name) const {
    const std::string spelled = ps::to_lower(name);
    const std::optional<std::string> alias =
        ps::AliasTable::standard().resolve(spelled);
    const std::string resolved = alias ? ps::to_lower(*alias) : spelled;
    if (resolved != "foreach-object" && resolved != "where-object") {
      return false;
    }
    for (const std::string& fn : traced_functions_) {
      if (fn == resolved || fn == spelled) return false;
    }
    return true;
  }
};

}  // namespace

bool is_pure_piece(const Ast& node, const ps::NodeOverrides* overrides,
                   std::span<const std::string> traced_functions) {
  return PurityCheck(overrides, traced_functions).pure(node);
}

std::string recovery_pass(std::string_view script,
                          const ps::ParsedScript& parsed,
                          const RecoveryOptions& options, RecoveryStats* stats,
                          TraceSink* trace, ps::ParseCache* cache) {
  if (parsed == nullptr) return std::string(script);
  telemetry::PhaseSpan span(telemetry::Phase::Recovery);
  RecoveryStats local;
  Reconstructor rec(script, options, local, trace, cache);
  std::string out = rec.run(*parsed);
  if (stats != nullptr) *stats = local;
  // An unchanged result is the (already parsed) input; anything else must
  // still reparse before it may replace the input.
  const bool ok = out == script || (cache != nullptr
                                        ? cache->is_valid(out)
                                        : ps::is_valid_syntax(out));
  if (!ok) return std::string(script);
  return out;
}

std::string recovery_pass(std::string_view script, const RecoveryOptions& options,
                          RecoveryStats* stats, TraceSink* trace) {
  const ps::ParsedScript root = ps::try_parse(script);
  if (root == nullptr) return std::string(script);
  return recovery_pass(script, root, options, stats, trace, nullptr);
}

}  // namespace ideobf
