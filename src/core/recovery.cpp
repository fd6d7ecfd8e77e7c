#include "core/recovery.h"

#include <map>
#include <memory>

#include <array>
#include <atomic>

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

class Reconstructor {
 public:
  Reconstructor(std::string_view src, const RecoveryOptions& options,
                RecoveryStats& stats, TraceSink* trace,
                ps::ParseCache* cache = nullptr)
      : src_(src), options_(options), stats_(stats), trace_(trace),
        cache_(cache) {
    scope_path_.push_back(0);
  }

  std::string run(const Ast& root) { return reconstruct(root); }

 private:
  struct VarInfo {
    Value value;
    std::vector<int> scope;
  };

  std::string_view src_;
  const RecoveryOptions& options_;
  RecoveryStats& stats_;
  TraceSink* trace_;
  ps::ParseCache* cache_;  ///< shared parse cache for piece interpreters
  std::map<std::string, VarInfo> table_;  ///< S_v and S_c of Algorithm 1
  std::vector<std::string> function_defs_;  ///< trace_functions extension
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

  /// A fresh strict interpreter preloaded with the traced variable values.
  std::unique_ptr<ps::Interpreter> make_interpreter() const {
    ps::InterpreterOptions opts;
    opts.max_steps = options_.max_steps_per_piece;
    opts.strict_variables = true;
    opts.refuse_blocklisted = true;
    opts.command_filter = make_recovery_filter(options_.extra_blocklist);
    opts.parse_cache = cache_;
    opts.budget = options_.budget;
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
    return interp;
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

  /// The node to fold when the piece is pure, else null. A verbatim piece
  /// is classified by its own subtree (evaluated against src_); text
  /// rewritten by child substitutions by the single statement of its cached
  /// parse, pinned in `parsed` (evaluated against the text itself). Without
  /// a parse cache rewritten text is never folded.
  const Ast* pure_root(const std::string& text, const Ast* node,
                       ps::ParsedScript& parsed) const {
    const Ast* root = nullptr;
    if (node != nullptr && matches_source(*node, text)) {
      root = node;
    } else if (cache_ != nullptr) {
      parsed = cache_->get(text).ast;
      if (parsed != nullptr) root = single_statement(*parsed);
    }
    return root != nullptr && is_pure_piece(*root) ? root : nullptr;
  }

  /// Splices the reconstructed children into the node's original text.
  std::string splice(const Ast& node,
                     const std::vector<std::pair<const Ast*, std::string>>& kids) {
    std::string out;
    std::size_t pos = node.start();
    for (const auto& [child, text] : kids) {
      if (child->start() < pos) continue;  // defensive: skip overlaps
      out += src_.substr(pos, child->start() - pos);
      out += text;
      pos = child->end();
    }
    out += src_.substr(pos, node.end() - pos);
    return out;
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

  std::string reconstruct(const Ast& node) {
    // Scope bookkeeping (the six scope kinds of Algorithm 1).
    const bool scoped = ps::is_scope_kind(node.kind());
    const bool conditional = is_loop_or_conditional(node.kind());
    if (scoped) scope_path_.push_back(++scope_counter_);
    if (conditional) ++conditional_depth_;

    std::vector<std::pair<const Ast*, std::string>> kids;
    for (const Ast* child : node.children()) {
      kids.emplace_back(child, reconstruct(*child));
    }

    if (conditional) --conditional_depth_;
    if (scoped) scope_path_.pop_back();

    std::string text = splice(node, kids);

    switch (node.kind()) {
      case NodeKind::VariableExpression:
        return handle_variable(static_cast<const ps::VariableExpressionAst&>(node),
                               std::move(text));
      case NodeKind::AssignmentStatement:
        return handle_assignment(
            static_cast<const ps::AssignmentStatementAst&>(node), std::move(text));
      case NodeKind::FunctionDefinition:
        if (options_.trace_functions && conditional_depth_ == 0) {
          function_defs_.push_back(text);
        }
        return text;
      case NodeKind::ExpandableStringExpression:
        return handle_expandable(std::move(text), node);
      default:
        break;
    }

    if (ps::is_recoverable_kind(node.kind())) {
      return try_recover(std::move(text), node);
    }
    return text;
  }

  /// True when the spliced text is the node's verbatim source text — no
  /// child was substituted, so the already-parsed subtree still describes
  /// it and can be evaluated without re-parsing.
  bool matches_source(const Ast& node, std::string_view text) const {
    return text == src_.substr(node.start(), node.end() - node.start());
  }

  std::string handle_variable(const ps::VariableExpressionAst& var,
                              std::string text) {
    const std::string bare = var.bare_name();
    const std::string scope = var.scope_qualifier();

    // Algorithm 1 lines 8-12: any variable touched inside a loop or
    // conditional statement becomes untraceable.
    if (conditional_depth_ > 0) {
      table_.erase(bare);
      return text;
    }
    if (is_untouchable_variable(bare)) return text;

    // Never substitute binding positions.
    const Ast* parent = var.parent();
    if (parent != nullptr) {
      if (parent->kind() == NodeKind::AssignmentStatement &&
          static_cast<const ps::AssignmentStatementAst*>(parent)->left.get() ==
              &var) {
        return text;
      }
      if (parent->kind() == NodeKind::ForEachStatement &&
          static_cast<const ps::ForEachStatementAst*>(parent)->variable.get() ==
              &var) {
        return text;
      }
      if (parent->kind() == NodeKind::UnaryExpression) {
        const auto& un = static_cast<const ps::UnaryExpressionAst&>(*parent);
        if (un.op.rfind("++", 0) == 0 || un.op.rfind("--", 0) == 0) {
          table_.erase(bare);
          return text;
        }
      }
    }

    // Traced user variable?
    if (scope.empty() || scope == "script" || scope == "global") {
      auto it = table_.find(bare);
      if (it != table_.end() && scope_visible(it->second.scope)) {
        const std::string literal = value_to_literal(it->second.value);
        if (!literal.empty()) {
          stats_.variables_substituted++;
          if (trace_ != nullptr) {
            trace_->emit({TraceEvent::Kind::VariableSubstituted, var.start(),
                          text, literal, trace_->pass()});
          }
          return literal;
        }
        return text;
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
          // Parse-once: the variable node is a verbatim subtree of the
          // already-parsed script, so no piece parse is needed.
          const Value v = cache_ != nullptr
                              ? probe.evaluate(var, src_)
                              : probe.evaluate_script(probe_text);
          if (v.is_string() || v.is_char()) literal = value_to_literal(v);
        } catch (const ps::BudgetError&) {
          throw;
        } catch (const std::exception&) {
          // unknown: keep as-is
        }
        if (options_.memo != nullptr) {
          options_.memo->store(kEnvProbeContext, probe_text, literal);
        }
      }
      if (!literal.empty()) {
        stats_.variables_substituted++;
        if (trace_ != nullptr) {
          trace_->emit({TraceEvent::Kind::VariableSubstituted, var.start(),
                        text, literal, trace_->pass()});
        }
        return literal;
      }
    }
    return text;
  }

  std::string handle_assignment(const ps::AssignmentStatementAst& st,
                                std::string text) {
    if (st.left->kind() != NodeKind::VariableExpression) return text;
    const auto& var = static_cast<const ps::VariableExpressionAst&>(*st.left);
    const std::string bare = var.bare_name();
    if (conditional_depth_ > 0 || is_untouchable_variable(bare)) {
      table_.erase(bare);
      return text;
    }
    telemetry::PhaseSpan trace_span(telemetry::Phase::VariableTrace);
    try {
      auto interp = make_interpreter();
      if (cache_ != nullptr && matches_source(st, text)) {
        interp->evaluate(st, src_);  // parse-once: reuse the subtree
      } else {
        interp->evaluate_script(text);
      }
      if (auto value = interp->get_variable(bare)) {
        table_[bare] = VarInfo{*value, scope_path_};
        stats_.variables_traced++;
        if (trace_ != nullptr) {
          trace_->emit({TraceEvent::Kind::VariableTraced, st.start(), "$" + bare,
                        value_to_literal(*value), trace_->pass()});
        }
      } else {
        table_.erase(bare);
      }
    } catch (const ps::BudgetError&) {
      throw;  // item-level envelope: aborts the pass, not just this record
    } catch (const FaultError&) {
      throw;  // injected faults must reach the governor
    } catch (const std::exception&) {
      // Unknown variables / blocked commands / limits: drop the record
      // (Algorithm 1 lines 15-18) but remember what kind of failure it was
      // for the item classification.
      record_piece_failure(classify_current_exception().first);
      table_.erase(bare);
    }
    return text;
  }

  /// Executes a piece through the two-rung evaluation ladder:
  ///
  ///   1. classify the piece with is_pure_piece();
  ///   2. consult the run's memo — pure pieces under the constant pure
  ///      context (one entry per piece text), everything else under the
  ///      traced-table fingerprint;
  ///   3. on a miss, evaluate: *fold* pure pieces by tree-walking them on
  ///      the shared table-free interpreter, and tree-walk everything else
  ///      on a freshly seeded interpreter (*fallback*).
  ///
  /// The returned literal is "" when the piece stays as-is (failed
  /// execution, no literal form, or no progress).
  std::string execute_piece(const std::string& text, const Ast* node) {
    telemetry::PhaseSpan piece_span(
        telemetry::Phase::PieceExecution,
        node != nullptr ? ps::to_string(node->kind()) : std::string_view{});
    if (node != nullptr && telemetry::enabled()) {
      piece_kind_counter(node->kind()).add();
    }
    piece_exec_counter().add();
    if (options_.fault != nullptr) {
      options_.fault->inject(FaultSite::PieceExecution);
    }
    ps::ParsedScript parsed;  // pins a rewritten piece's cached parse
    const Ast* const pure = pure_root(text, node, parsed);
    std::size_t ctx = 0;
    if (options_.memo != nullptr) {
      if (options_.fault != nullptr) {
        options_.fault->inject(FaultSite::MemoLookup);
      }
      ctx = pure != nullptr ? kPureContext : context_fingerprint();
      if (const std::optional<std::string> hit =
              options_.memo->lookup(ctx, text)) {
        stats_.memo_hits++;
        piece_memo_hit_counter().add();
        return *hit;
      }
      stats_.memo_misses++;
    }
    std::string literal;
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
    try {
      Value result;
      if (pure != nullptr) {
        stats_.pieces_folded++;
        fold_counter().add();
        if (timed) timer.start(fold_histogram());
        ps::Interpreter& interp = fold_interpreter();
        // A fresh step allowance per piece, as a fresh interpreter has.
        interp.reset_steps();
        result = interp.evaluate(
            *pure, pure == node ? src_ : std::string_view(text));
      } else {
        stats_.treewalk_fallbacks++;
        treewalk_fallback_counter().add();
        if (timed) timer.start(fallback_histogram());
        auto interp = make_interpreter();
        // Parse-once: a piece whose text is still the node's verbatim
        // source evaluates from the already-parsed subtree; only pieces
        // rewritten by child substitutions need a (cached) piece parse.
        result =
            cache_ != nullptr && node != nullptr && matches_source(*node, text)
                ? interp->evaluate(*node, src_)
                : interp->evaluate_script(text);
      }
      literal = value_to_literal(result);
    } catch (const ps::BudgetError&) {
      throw;  // deadline / allocation / cancellation abort the whole pass
    } catch (const FaultError&) {
      throw;  // injected faults must reach the governor
    } catch (const std::exception&) {
      record_piece_failure(classify_current_exception().first);
      literal.clear();  // blocked / unknown / limit / error: keep the piece
    }
    timer.finish();  // observe now; don't charge memo-store time below
    if (literal == text) literal.clear();  // no progress
    if (options_.memo != nullptr) options_.memo->store(ctx, text, literal);
    return literal;
  }

  /// Books a successful recovery ("" keeps the original text).
  std::string apply_recovered(std::string text, std::string literal) {
    if (literal.empty()) return text;
    stats_.pieces_recovered++;
    if (trace_ != nullptr) {
      trace_->emit({TraceEvent::Kind::PieceRecovered, 0, std::move(text),
                    literal, trace_->pass()});
    }
    return literal;
  }

  /// Expandable strings ("pre $url post") are not recoverable nodes, but
  /// with every referenced variable traced their value is known; evaluating
  /// them in the strict interpreter turns them into plain literals, which
  /// extends recovery to interpolation sites inside blocklisted pipelines.
  std::string handle_expandable(std::string text, const Ast& node) {
    if (conditional_depth_ > 0) return text;
    if (text.find('$') == std::string::npos) return text;
    std::string literal = execute_piece(text, &node);
    return apply_recovered(std::move(text), std::move(literal));
  }

  std::string try_recover(std::string text, const Ast& node) {
    if (text.size() > options_.max_piece_size) return text;
    if (is_trivial_literal(text)) return text;
    std::string literal = execute_piece(text, &node);
    return apply_recovered(std::move(text), std::move(literal));
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

/// Unary operators that only transform their operand's value (`++`/`--`
/// mutate a variable instead).
bool is_value_unary_op(const std::string& op) {
  return op == "-" || op == "+" || op == "!" || op == "-not" ||
         op == "-bnot" || op == "-join" || op == "-split" || op == ",";
}

/// A pipeline of exactly one expression element (no commands).
bool is_pure_lone_pipeline(const ps::PipelineAst& pipe) {
  if (pipe.elements.size() != 1) return false;
  const Ast& el = *pipe.elements[0];
  return el.kind() == NodeKind::CommandExpression &&
         is_pure_piece(*static_cast<const ps::CommandExpressionAst&>(el)
                           .expression);
}

/// The body of a paren/sub/array expression: one lone-expression pipeline.
bool is_pure_lone_statement(const Ast& stmt) {
  return stmt.kind() == NodeKind::Pipeline &&
         is_pure_lone_pipeline(static_cast<const ps::PipelineAst&>(stmt));
}

bool is_pure_statements(const std::vector<ps::AstPtr>& statements) {
  return statements.empty() ||
         (statements.size() == 1 && is_pure_lone_statement(*statements[0]));
}

}  // namespace

bool is_pure_piece(const Ast& node) {
  switch (node.kind()) {
    case NodeKind::ConstantExpression:
    case NodeKind::StringConstantExpression:
    case NodeKind::TypeExpression:
      return true;
    case NodeKind::ExpandableStringExpression:
      // A `$` may read a variable or run a `$(...)` subexpression.
      return static_cast<const ps::ExpandableStringExpressionAst&>(node)
                 .raw.find('$') == std::string::npos;
    case NodeKind::VariableExpression:
      return is_constant_variable(
          static_cast<const ps::VariableExpressionAst&>(node));
    case NodeKind::BinaryExpression: {
      const auto& bin = static_cast<const ps::BinaryExpressionAst&>(node);
      return is_pure_piece(*bin.left) && is_pure_piece(*bin.right);
    }
    case NodeKind::UnaryExpression: {
      const auto& un = static_cast<const ps::UnaryExpressionAst&>(node);
      return is_value_unary_op(un.op) && is_pure_piece(*un.child);
    }
    case NodeKind::ConvertExpression:
      return is_pure_piece(
          *static_cast<const ps::ConvertExpressionAst&>(node).child);
    case NodeKind::IndexExpression: {
      const auto& idx = static_cast<const ps::IndexExpressionAst&>(node);
      return is_pure_piece(*idx.target) && is_pure_piece(*idx.index);
    }
    case NodeKind::ArrayLiteral:
      for (const auto& el :
           static_cast<const ps::ArrayLiteralAst&>(node).elements) {
        if (!is_pure_piece(*el)) return false;
      }
      return true;
    case NodeKind::ParenExpression:
      return is_pure_lone_statement(
          *static_cast<const ps::ParenExpressionAst&>(node).pipeline);
    case NodeKind::SubExpression:
      return is_pure_statements(
          static_cast<const ps::SubExpressionAst&>(node).statements);
    case NodeKind::ArrayExpression:
      return is_pure_statements(
          static_cast<const ps::ArrayExpressionAst&>(node).statements);
    case NodeKind::Pipeline:
      return is_pure_lone_pipeline(static_cast<const ps::PipelineAst&>(node));
    default:
      // Commands (where the blocklist applies), member access, invocation,
      // hashtables, script blocks, assignments.
      return false;
  }
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
