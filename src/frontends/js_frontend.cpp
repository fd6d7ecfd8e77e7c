#include "frontends/js_frontend.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fault.h"
#include "jslang/eval.h"
#include "jslang/lexer.h"
#include "jslang/parser.h"
#include "psvalue/budget.h"
#include "telemetry/telemetry.h"

namespace ideobf {

namespace {

using jslang::JsValue;
using jslang::Node;

struct Replacement {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string text;
};

/// Applies non-overlapping extent replacements (any order) to `source`.
std::string splice(std::string_view source, std::vector<Replacement> repls) {
  std::sort(repls.begin(), repls.end(),
            [](const Replacement& a, const Replacement& b) {
              return a.begin < b.begin;
            });
  std::string out;
  out.reserve(source.size());
  std::size_t cursor = 0;
  for (const Replacement& r : repls) {
    if (r.begin < cursor || r.end > source.size()) continue;  // defensive
    out.append(source.substr(cursor, r.begin - cursor));
    out.append(r.text);
    cursor = r.end;
  }
  out.append(source.substr(cursor));
  return out;
}

/// The innermost Ident a write target resolves to (`a` in `a.b[0] = x`),
/// or nullptr when the base is not a plain identifier.
const Node* write_target_base(const Node& target) {
  const Node* n = &target;
  while ((n->kind == Node::Kind::Member || n->kind == Node::Kind::Index) &&
         !n->kids.empty()) {
    n = n->kids[0].get();
  }
  return n->kind == Node::Kind::Ident ? n : nullptr;
}

/// Scans the whole tree (function bodies included — an inner assignment
/// still mutates the outer binding) for names that are written outside
/// their declarator, plus names declared more than once. Either
/// disqualifies a variable from single-assignment tracing.
void scan_mutations(const Node& n, std::set<std::string>& mutated,
                    std::map<std::string, int>& decl_counts,
                    bool in_for_header) {
  switch (n.kind) {
    case Node::Kind::Assign:
    case Node::Kind::Update:
      if (!n.kids.empty()) {
        if (const Node* base = write_target_base(*n.kids[0])) {
          mutated.insert(base->name);
        }
      }
      break;
    case Node::Kind::VarDecl:
      for (const auto& d : n.kids) {
        ++decl_counts[d->name];
        // A declaration in a for-header is a loop variable: written every
        // iteration even without a visible assignment.
        if (in_for_header) mutated.insert(d->name);
      }
      break;
    case Node::Kind::FunctionDecl:
      mutated.insert(n.name);  // callable, not a constant
      break;
    default:
      break;
  }
  const bool for_header = n.kind == Node::Kind::For;
  for (const auto& kid : n.kids) {
    scan_mutations(*kid, mutated, decl_counts, for_header);
  }
}

bool is_statement(Node::Kind k) {
  switch (k) {
    case Node::Kind::VarDecl:
    case Node::Kind::Declarator:
    case Node::Kind::ExprStmt:
    case Node::Kind::Block:
    case Node::Kind::If:
    case Node::Kind::While:
    case Node::Kind::DoWhile:
    case Node::Kind::For:
    case Node::Kind::Return:
    case Node::Kind::Throw:
    case Node::Kind::Try:
    case Node::Kind::BreakStmt:
    case Node::Kind::ContinueStmt:
    case Node::Kind::FunctionDecl:
    case Node::Kind::Empty:
      return true;
    default:
      return false;
  }
}

/// One traced constant binding: value plus where its declarator ends, so
/// only uses *after* the declaration substitute (hoisted earlier uses read
/// `undefined`, not the value).
struct Binding {
  JsValue value;
  std::size_t decl_end = 0;
};

/// The recovery walk of one pass: traces single-assignment top-level
/// variables in statement order and folds constant subtrees largest-first
/// into literal replacements. One instance per recovery_pass call; the
/// front-end object itself stays stateless.
class Folder {
 public:
  Folder(std::string_view text, const jslang::EvalLimits& limits,
         const FrontendPhaseContext& ctx, std::set<std::string> untraceable,
         RecoveryStats& stats, TraceSink* trace)
      : text_(text),
        limits_(limits),
        ctx_(ctx),
        untraceable_(std::move(untraceable)),
        stats_(stats),
        trace_(trace) {}

  std::vector<Replacement> run(const std::vector<jslang::NodePtr>& stmts) {
    // Statements in source order: each statement folds against the
    // bindings completed by earlier statements, then contributes its own.
    for (const auto& stmt : stmts) fold_statement(*stmt);
    return std::move(repls_);
  }

 private:
  /// Restricts env to bindings declared before `position` (top-level
  /// statements run in order; a hoisted use before the declarator reads
  /// `undefined`, so substituting the value there would be wrong).
  [[nodiscard]] std::map<std::string, JsValue> visible_env(
      std::size_t position) const {
    std::map<std::string, JsValue> out;
    for (const auto& [name, binding] : env_) {
      if (binding.decl_end <= position) out.emplace(name, binding.value);
    }
    return out;
  }

  /// Whether folding should attempt to evaluate this node kind at all
  /// (literals stay put; composite expressions are worth a try).
  static bool fold_candidate(const Node& n) {
    switch (n.kind) {
      case Node::Kind::Binary:
      case Node::Kind::Call:
      case Node::Kind::Index:
      case Node::Kind::Member:
      case Node::Kind::Conditional:
      case Node::Kind::Ident:
        return true;
      default:
        return false;
    }
  }

  void fold_statement(const Node& stmt) {
    if (stmt.kind == Node::Kind::VarDecl) {
      // Declarators in order: fold each init against what is already
      // traced, then (when single-assignment and constant) trace it.
      for (const auto& decl : stmt.kids) {
        if (decl->kids.empty()) continue;
        fold_expression(*decl->kids[0]);
        trace_declarator(*decl);
      }
      return;
    }
    if (stmt.kind == Node::Kind::FunctionDecl) {
      return;  // bodies have their own scope; never folded
    }
    for (const auto& kid : stmt.kids) {
      if (is_statement(kid->kind)) {
        fold_statement(*kid);
      } else {
        fold_expression(*kid);
      }
    }
  }

  /// Records `var name = <constant>` into env when the name is
  /// single-assignment and the init is within the constant subset.
  void trace_declarator(const Node& decl) {
    if (decl.kids.empty()) return;
    if (untraceable_.count(decl.name) != 0) return;
    const std::optional<JsValue> value =
        jslang::evaluate(*decl.kids[0], visible_env(decl.begin), limits_);
    if (!value.has_value()) return;
    ++stats_.variables_traced;
    if (trace_ != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEvent::Kind::VariableTraced;
      ev.offset = decl.begin;
      ev.before = decl.name;
      ev.after = jslang::to_js_literal(*value);
      if (ev.after.empty()) ev.after = jslang::js_to_string(*value);
      ev.pass = trace_->pass();
      trace_->emit(std::move(ev));
    }
    env_[decl.name] = Binding{*std::move(value), decl.end};
  }

  void fold_expression(const Node& n) {
    if (fold_candidate(n) && try_fold(n)) {
      return;  // whole subtree replaced; nothing beneath it to visit
    }
    switch (n.kind) {
      case Node::Kind::Assign:
        // Only the value side; folding the write target would turn it into
        // a write to a literal.
        if (n.kids.size() > 1) fold_expression(*n.kids[1]);
        return;
      case Node::Kind::Update:
      case Node::Kind::FunctionExpr:
      case Node::Kind::Regex:
        return;
      case Node::Kind::Call:
      case Node::Kind::New: {
        // The callee of a known decoder is a name, not a piece; fold the
        // arguments (and a member callee's receiver).
        const Node& callee = *n.kids[0];
        if ((callee.kind == Node::Kind::Member ||
             callee.kind == Node::Kind::Index) &&
            !callee.kids.empty()) {
          fold_expression(*callee.kids[0]);
        }
        for (std::size_t i = 1; i < n.kids.size(); ++i) {
          fold_expression(*n.kids[i]);
        }
        return;
      }
      case Node::Kind::Member:
        fold_expression(*n.kids[0]);
        return;
      default:
        for (const auto& kid : n.kids) {
          if (is_statement(kid->kind)) {
            fold_statement(*kid);
          } else {
            fold_expression(*kid);
          }
        }
        return;
    }
  }

  /// Attempts to fold one candidate subtree to a literal; returns true when
  /// a replacement was recorded.
  bool try_fold(const Node& n) {
    if (n.end <= n.begin || n.end > text_.size()) return false;
    const std::string_view extent = text_.substr(n.begin, n.end - n.begin);
    if (ctx_.opts != nullptr &&
        extent.size() > ctx_.opts->limits.max_piece_size) {
      return false;
    }

    if (ctx_.fault != nullptr && n.kind == Node::Kind::Call) {
      ctx_.fault->inject(FaultSite::PieceExecution);
    }
    std::optional<JsValue> value;
    {
      telemetry::PhaseSpan piece_span(telemetry::Phase::PieceExecution,
                                      "js-fold");
      value = jslang::evaluate(n, visible_env(n.begin), limits_);
    }
    if (!value.has_value()) return false;
    const std::string literal = jslang::to_js_literal(*value);
    // No faithful literal form, no change, or an ASI hazard (a leading '-'
    // can fuse with the previous line into a subtraction): leave it.
    if (literal.empty() || literal == extent || literal[0] == '-') {
      return false;
    }
    if (n.kind == Node::Kind::Call) ++stats_.pieces_folded;
    record_fold(n, extent, literal);
    return true;
  }

  void record_fold(const Node& n, std::string_view extent,
                   const std::string& literal) {
    const bool substitution = n.kind == Node::Kind::Ident;
    if (substitution) {
      ++stats_.variables_substituted;
    } else {
      ++stats_.pieces_recovered;
    }
    if (trace_ != nullptr) {
      TraceEvent ev;
      ev.kind = substitution ? TraceEvent::Kind::VariableSubstituted
                             : TraceEvent::Kind::PieceRecovered;
      ev.offset = n.begin;
      ev.before = std::string(extent);
      ev.after = literal;
      ev.pass = trace_->pass();
      trace_->emit(std::move(ev));
    }
    repls_.push_back(Replacement{n.begin, n.end, literal});
  }

  std::string_view text_;
  const jslang::EvalLimits& limits_;
  const FrontendPhaseContext& ctx_;
  std::set<std::string> untraceable_;
  RecoveryStats& stats_;
  TraceSink* trace_;
  std::map<std::string, Binding> env_;
  std::vector<Replacement> repls_;
};

class JsFrontend final : public LanguageFrontend {
 public:
  [[nodiscard]] std::string_view name() const override { return "javascript"; }

  [[nodiscard]] bool syntax_ok(
      std::string_view text,
      const FrontendPhaseContext& /*ctx*/) const override {
    return jslang::is_valid_syntax(text);
  }

  // Phase 1: bracket-member normalization — `obj["prop"]` -> `obj.prop`
  // when the key is identifier-safe and not reserved. Purely lexical, like
  // the PowerShell tick/case pass.
  [[nodiscard]] std::string token_pass(std::string_view text,
                                       TokenPassStats& stats,
                                       TraceSink* trace) const override {
    const jslang::LexResult lexed = jslang::lex(text);
    if (!lexed.ok) return std::string(text);
    const auto& toks = lexed.tokens;
    std::vector<Replacement> repls;
    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      const jslang::Token& open = toks[i];
      const jslang::Token& key = toks[i + 1];
      const jslang::Token& close = toks[i + 2];
      if (open.kind != jslang::TokenKind::Punct || open.text != "[") continue;
      if (close.kind != jslang::TokenKind::Punct || close.text != "]") continue;
      if (key.kind != jslang::TokenKind::String) continue;
      if (!jslang::is_identifier(key.str_value) ||
          jslang::is_reserved_word(key.str_value)) {
        continue;
      }
      // Only after something that can end a member expression; `return
      // ["a"]` is an array literal, not an index.
      const jslang::Token& prev = toks[i - 1];
      const bool member_position =
          (prev.kind == jslang::TokenKind::Ident &&
           !jslang::is_reserved_word(prev.text)) ||
          (prev.kind == jslang::TokenKind::Punct &&
           (prev.text == ")" || prev.text == "]"));
      if (!member_position) continue;
      Replacement r;
      r.begin = open.begin;
      r.end = close.end;
      r.text = "." + key.str_value;
      if (trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEvent::Kind::TokenNormalized;
        ev.offset = open.begin;
        ev.before =
            std::string(text.substr(open.begin, close.end - open.begin));
        ev.after = r.text;
        ev.pass = trace->pass();
        trace->emit(std::move(ev));
      }
      repls.push_back(std::move(r));
      ++stats.aliases_expanded;
      i += 2;
    }
    if (repls.empty()) return std::string(text);
    return splice(text, std::move(repls));
  }

  // Phase 2: constant recovery — trace single-assignment variables, fold
  // constant subtrees largest-first, replace extents.
  [[nodiscard]] std::string recovery_pass(std::string_view text,
                                          const FrontendPhaseContext& ctx,
                                          RecoveryStats& stats,
                                          TraceSink* trace) const override {
    telemetry::PhaseSpan span(telemetry::Phase::Recovery);
    const jslang::Program program = jslang::parse(text);
    if (!program.ok) return std::string(text);

    std::set<std::string> mutated;
    std::map<std::string, int> decl_counts;
    for (const auto& stmt : program.stmts) {
      scan_mutations(*stmt, mutated, decl_counts, false);
    }
    for (const auto& [name, count] : decl_counts) {
      if (count > 1) mutated.insert(name);
    }

    jslang::EvalLimits limits;
    if (ctx.opts != nullptr) {
      limits.max_steps = ctx.opts->limits.max_steps_per_piece;
      limits.max_value_bytes = ctx.opts->limits.max_piece_size;
    }
    limits.budget = ctx.budget;

    Folder folder(text, limits, ctx, std::move(mutated), stats, trace);
    std::vector<Replacement> repls = folder.run(program.stmts);
    if (repls.empty()) return std::string(text);
    return splice(text, std::move(repls));
  }

  // Phase 2b: unwrap whole-statement eval-like wrappers whose payload is a
  // constant string, recursing the payload through the generic pipeline.
  [[nodiscard]] std::string unwrap_layers(std::string_view text,
                                          const FrontendPhaseContext& ctx,
                                          MultilayerStats& stats,
                                          TraceSink* trace,
                                          const Recurse& recurse)
      const override {
    const jslang::Program program = jslang::parse(text);
    if (!program.ok) return std::string(text);

    jslang::EvalLimits limits;
    if (ctx.opts != nullptr) {
      limits.max_steps = ctx.opts->limits.max_steps_per_piece;
      limits.max_value_bytes = ctx.opts->limits.max_piece_size;
    }
    limits.budget = ctx.budget;

    std::vector<Replacement> repls;
    for (const auto& stmt : program.stmts) {
      if (stmt->kind != Node::Kind::ExprStmt) continue;
      const Node& expr = *stmt->kids[0];
      std::string disguise;
      std::optional<std::string> payload =
          extract_payload(expr, limits, &disguise);
      if (!payload.has_value()) continue;
      if (ctx.fault != nullptr) {
        ctx.fault->inject(FaultSite::MultilayerDecode, &*payload);
      }
      if (ctx.budget != nullptr) {
        ctx.budget->charge_bytes(payload->size());
        ctx.budget->checkpoint();
      }
      std::string inner;
      {
        telemetry::PhaseSpan decode_span(telemetry::Phase::MultilayerDecode,
                                         disguise);
        inner = recurse(*payload);
      }
      if (trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEvent::Kind::LayerUnwrapped;
        ev.offset = stmt->begin;
        ev.before =
            std::string(text.substr(stmt->begin, stmt->end - stmt->begin));
        ev.after = inner;
        ev.pass = trace->pass();
        trace->emit(std::move(ev));
      }
      ++stats.layers_unwrapped;
      repls.push_back(Replacement{stmt->begin, stmt->end, std::move(inner)});
    }
    if (repls.empty()) return std::string(text);
    return splice(text, std::move(repls));
  }

  // Phase 3a: obfuscator-kit identifiers (`_0x1a2b3c`) -> `var{n}`.
  [[nodiscard]] std::string rename_pass(std::string_view text,
                                        RenameStats& stats,
                                        TraceSink* trace) const override {
    const jslang::LexResult lexed = jslang::lex(text);
    if (!lexed.ok) return std::string(text);
    const auto& toks = lexed.tokens;

    std::set<std::string, std::less<>> used;
    for (const auto& t : toks) {
      if (t.kind == jslang::TokenKind::Ident) used.insert(t.text);
    }
    // A kit name is "declared as a function" when any of its occurrences
    // follows the `function` keyword; classify before renaming so the
    // variables/functions split does not depend on first-use order.
    std::set<std::string> function_names;
    for (std::size_t i = 1; i < toks.size(); ++i) {
      if (toks[i].kind == jslang::TokenKind::Ident &&
          is_kit_identifier(toks[i].text) &&
          toks[i - 1].kind == jslang::TokenKind::Ident &&
          toks[i - 1].text == "function") {
        function_names.insert(toks[i].text);
      }
    }

    std::map<std::string, std::string> renames;
    int next_index = 0;
    std::vector<Replacement> repls;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const jslang::Token& t = toks[i];
      if (t.kind != jslang::TokenKind::Ident || !is_kit_identifier(t.text)) {
        continue;
      }
      // Property positions keep their name: `a._0x1` and `{_0x1: v}` are
      // keys on objects we do not model.
      if (i > 0 && toks[i - 1].kind == jslang::TokenKind::Punct &&
          (toks[i - 1].text == "." || toks[i - 1].text == "?.")) {
        continue;
      }
      if (i > 0 && i + 1 < toks.size() &&
          toks[i + 1].kind == jslang::TokenKind::Punct &&
          toks[i + 1].text == ":" &&
          toks[i - 1].kind == jslang::TokenKind::Punct &&
          (toks[i - 1].text == "{" || toks[i - 1].text == ",")) {
        continue;
      }
      auto it = renames.find(t.text);
      if (it == renames.end()) {
        std::string fresh;
        do {
          fresh = "var" + std::to_string(next_index++);
        } while (used.count(fresh) != 0);
        used.insert(fresh);
        it = renames.emplace(t.text, std::move(fresh)).first;
        if (function_names.count(t.text) != 0) {
          ++stats.functions_renamed;
        } else {
          ++stats.variables_renamed;
        }
      }
      if (trace != nullptr) {
        TraceEvent ev;
        ev.kind = TraceEvent::Kind::Renamed;
        ev.offset = t.begin;
        ev.before = t.text;
        ev.after = it->second;
        ev.pass = trace->pass();
        trace->emit(std::move(ev));
      }
      repls.push_back(Replacement{t.begin, t.end, it->second});
    }
    if (repls.empty()) return std::string(text);
    stats.renamed = true;
    return splice(text, std::move(repls));
  }

  // Phase 3b: whitespace normalization. Line structure is preserved
  // verbatim — ASI makes moving a token across a line break a semantic
  // change — so only horizontal spacing and indentation are canonicalized.
  [[nodiscard]] std::string reformat_pass(
      std::string_view text) const override {
    const jslang::LexResult lexed = jslang::lex(text);
    if (!lexed.ok || lexed.tokens.empty()) return std::string(text);
    const auto& toks = lexed.tokens;
    std::string out;
    out.reserve(text.size());
    int depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const jslang::Token& t = toks[i];
      if (i == 0 || t.newline_before) {
        if (i != 0) out += '\n';
        int indent = depth;
        if (t.kind == jslang::TokenKind::Punct &&
            (t.text == "}" || t.text == ")" || t.text == "]")) {
          indent = depth > 0 ? depth - 1 : 0;
        }
        out.append(static_cast<std::size_t>(indent) * 2, ' ');
      } else if (needs_space(toks, i)) {
        out += ' ';
      }
      out += t.text;
      if (t.kind == jslang::TokenKind::Punct) {
        if (t.text == "{" || t.text == "(" || t.text == "[") ++depth;
        if ((t.text == "}" || t.text == ")" || t.text == "]") && depth > 0) {
          --depth;
        }
      }
    }
    if (!text.empty() && text.back() == '\n') out += '\n';
    return out;
  }

  [[nodiscard]] double sniff(std::string_view source) const override {
    // Lexical signals only, mirroring the PowerShell sniffer: each signal
    // is a JavaScript-distinctive idiom; no parse of adversarial input.
    double score = 0.0;
    if (has_keyword(source, "function")) score += 0.3;
    if (has_keyword(source, "var") || has_keyword(source, "let") ||
        has_keyword(source, "const")) {
      score += 0.25;
    }
    if (source.find("eval(") != std::string_view::npos ||
        source.find("atob(") != std::string_view::npos ||
        source.find("unescape(") != std::string_view::npos ||
        source.find("fromCharCode") != std::string_view::npos) {
      score += 0.25;
    }
    if (source.find("_0x") != std::string_view::npos) score += 0.2;
    if (source.find("===") != std::string_view::npos ||
        source.find("!==") != std::string_view::npos) {
      score += 0.15;
    }
    if (source.find("window.") != std::string_view::npos ||
        source.find("document.") != std::string_view::npos ||
        source.find("globalThis.") != std::string_view::npos) {
      score += 0.15;
    }
    return score > 1.0 ? 1.0 : score;
  }

 private:
  static bool is_kit_identifier(std::string_view name) {
    if (name.size() < 4 || name.substr(0, 3) != "_0x") return false;
    for (char c : name.substr(3)) {
      const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                       (c >= 'A' && c <= 'F');
      if (!hex) return false;
    }
    return true;
  }

  static bool has_keyword(std::string_view source, std::string_view word) {
    std::size_t pos = 0;
    while ((pos = source.find(word, pos)) != std::string_view::npos) {
      const bool left_ok =
          pos == 0 ||
          (std::isalnum(static_cast<unsigned char>(source[pos - 1])) == 0 &&
           source[pos - 1] != '_' && source[pos - 1] != '$');
      const std::size_t after = pos + word.size();
      const bool right_ok =
          after >= source.size() ||
          (std::isalnum(static_cast<unsigned char>(source[after])) == 0 &&
           source[after] != '_' && source[after] != '$');
      if (left_ok && right_ok) return true;
      pos = after;
    }
    return false;
  }

  /// Recognizes a whole-expression eval-like wrapper and evaluates its
  /// payload argument to a constant string. Supported disguises:
  /// `eval(s)`, `window.eval(s)` (and globalThis/self), `Function(s)()`,
  /// `new Function(s)()`, `setTimeout(s, ...)` / `setInterval(s, ...)`.
  static std::optional<std::string> extract_payload(
      const Node& expr, const jslang::EvalLimits& limits,
      std::string* disguise) {
    if (expr.kind != Node::Kind::Call || expr.kids.empty()) {
      return std::nullopt;
    }
    const Node& callee = *expr.kids[0];

    const Node* payload_arg = nullptr;
    if (callee.kind == Node::Kind::Ident) {
      if (callee.name == "eval" && expr.kids.size() == 2) {
        payload_arg = expr.kids[1].get();
        *disguise = "eval";
      } else if ((callee.name == "setTimeout" ||
                  callee.name == "setInterval") &&
                 expr.kids.size() >= 2) {
        payload_arg = expr.kids[1].get();
        *disguise = callee.name;
      }
    } else if (callee.kind == Node::Kind::Member && callee.name == "eval" &&
               expr.kids.size() == 2) {
      const Node& object = *callee.kids[0];
      if (object.kind == Node::Kind::Ident &&
          (object.name == "window" || object.name == "globalThis" ||
           object.name == "self")) {
        payload_arg = expr.kids[1].get();
        *disguise = object.name + ".eval";
      }
    } else if ((callee.kind == Node::Kind::Call ||
                callee.kind == Node::Kind::New) &&
               expr.kids.size() == 1 && callee.kids.size() == 2) {
      const Node& fn = *callee.kids[0];
      if (fn.kind == Node::Kind::Ident && fn.name == "Function") {
        payload_arg = callee.kids[1].get();
        *disguise = "Function";
      }
    }
    if (payload_arg == nullptr) return std::nullopt;

    const std::map<std::string, JsValue> empty_env;
    const std::optional<JsValue> value =
        jslang::evaluate(*payload_arg, empty_env, limits);
    if (!value.has_value() || value->kind != JsValue::Kind::String) {
      return std::nullopt;
    }
    return value->string;
  }

  // Spacing policy for same-line adjacent tokens in reformat_pass.
  static bool needs_space(const std::vector<jslang::Token>& toks,
                          std::size_t i) {
    const jslang::Token& prev = toks[i - 1];
    const jslang::Token& cur = toks[i];
    const auto punct = [](const jslang::Token& t, std::string_view text) {
      return t.kind == jslang::TokenKind::Punct && t.text == text;
    };
    const bool prev_is_value_end =
        prev.kind == jslang::TokenKind::Ident ||
        prev.kind == jslang::TokenKind::Number ||
        prev.kind == jslang::TokenKind::String ||
        prev.kind == jslang::TokenKind::Regex || punct(prev, ")") ||
        punct(prev, "]");
    // Tight pairs.
    if (punct(prev, "(") || punct(prev, "[") || punct(prev, ".") ||
        punct(prev, "?.")) {
      return false;
    }
    if (punct(cur, ")") || punct(cur, "]") || punct(cur, ";") ||
        punct(cur, ",") || punct(cur, ".") || punct(cur, "?.")) {
      return false;
    }
    // Call / index: `f(x)`, `a[0]` — but `if (`, `return [` keep a space.
    if (punct(cur, "(") || punct(cur, "[")) {
      if (prev.kind == jslang::TokenKind::Ident &&
          jslang::is_reserved_word(prev.text)) {
        return true;
      }
      return !prev_is_value_end;
    }
    // Unary context: an operator right after a punct that cannot end a
    // value binds tight (`= -1`, `(!x)`).
    if ((punct(cur, "-") || punct(cur, "+") || punct(cur, "!") ||
         punct(cur, "~")) &&
        !prev_is_value_end) {
      return true;  // space before the unary op itself (`= -1`)
    }
    if ((punct(prev, "-") || punct(prev, "+") || punct(prev, "!") ||
         punct(prev, "~")) &&
        i >= 2) {
      const jslang::Token& before_op = toks[i - 2];
      const bool op_is_unary =
          (before_op.kind == jslang::TokenKind::Punct &&
           !(before_op.text == ")" || before_op.text == "]" ||
             before_op.text == "++" || before_op.text == "--")) ||
          (before_op.kind == jslang::TokenKind::Ident &&
           jslang::is_reserved_word(before_op.text));
      if (op_is_unary && !prev.newline_before) return false;
    }
    return true;
  }
};

}  // namespace

std::shared_ptr<const LanguageFrontend> make_js_frontend() {
  return std::make_shared<const JsFrontend>();
}

}  // namespace ideobf
