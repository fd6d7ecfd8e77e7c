#include "psast/parser.h"

#include <array>
#include <atomic>
#include <cstdlib>

#include "pslang/alias_table.h"
#include "pslang/lexer.h"
#include "telemetry/telemetry.h"

namespace ps {

Value parse_number_token(std::string_view content) {
  std::string s = to_lower(content);
  if (s.rfind("0x", 0) == 0) {
    return Value(static_cast<std::int64_t>(std::strtoll(s.c_str() + 2, nullptr, 16)));
  }
  std::int64_t mult = 1;
  if (s.size() >= 2) {
    const std::string suffix = s.substr(s.size() - 2);
    if (suffix == "kb") mult = 1024LL;
    else if (suffix == "mb") mult = 1024LL * 1024;
    else if (suffix == "gb") mult = 1024LL * 1024 * 1024;
    else if (suffix == "tb") mult = 1024LL * 1024 * 1024 * 1024;
    else if (suffix == "pb") mult = 1024LL * 1024 * 1024 * 1024 * 1024;
    if (mult != 1) s = s.substr(0, s.size() - 2);
  }
  if (!s.empty() && (s.back() == 'l' || s.back() == 'd')) s.pop_back();
  if (s.find('.') != std::string::npos || s.find('e') != std::string::npos) {
    return Value(std::strtod(s.c_str(), nullptr) * static_cast<double>(mult));
  }
  return Value(static_cast<std::int64_t>(std::strtoll(s.c_str(), nullptr, 10)) * mult);
}

namespace {

bool is_op(const Token& t, std::string_view op) {
  return t.type == TokenType::Operator && iequals(t.content, op);
}
bool is_kw(const Token& t, std::string_view kw) {
  return t.type == TokenType::Keyword && iequals(t.content, kw);
}
bool is_group_start(const Token& t, std::string_view g) {
  return t.type == TokenType::GroupStart && t.content == g;
}
bool is_group_end(const Token& t, std::string_view g) {
  return t.type == TokenType::GroupEnd && t.content == g;
}

/// Numeric barewords in argument position ("Start-Sleep 5") bind as numbers,
/// as PSParser does.
bool is_pure_number(std::string_view s) {
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i >= s.size()) return false;
  bool dot = false;
  for (; i < s.size(); ++i) {
    if (s[i] == '.') {
      if (dot) return false;
      dot = true;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

AstPtr make_command_word(Arena& arena, const Token& w) {
  if (is_pure_number(w.content)) {
    return arena.make<ConstantExpressionAst>(w.start, w.end(),
                                             parse_number_token(w.content));
  }
  return arena.make<StringConstantExpressionAst>(w.start, w.end(), w.content,
                                                 QuoteKind::None);
}

bool is_assignment_op(const Token& t) {
  if (t.type != TokenType::Operator) return false;
  return t.content == "=" || t.content == "+=" || t.content == "-=" ||
         t.content == "*=" || t.content == "/=" || t.content == "%=";
}

constexpr std::array<std::string_view, 3> kLogicalOps = {"-and", "-or", "-xor"};
constexpr std::array<std::string_view, 5> kBitwiseOps = {"-band", "-bor", "-bxor",
                                                         "-shl", "-shr"};
constexpr std::array<std::string_view, 35> kComparisonOps = {
    "-eq",    "-ne",       "-gt",          "-lt",      "-ge",      "-le",
    "-ceq",   "-cne",      "-ieq",         "-ine",     "-like",    "-notlike",
    "-clike", "-ilike",    "-match",       "-notmatch", "-cmatch", "-imatch",
    "-contains", "-notcontains", "-in",    "-notin",   "-replace", "-creplace",
    "-ireplace", "-split", "-csplit",      "-isplit",  "-join",    "-cjoin",
    "-ijoin", "-is",       "-isnot",       "-as",      "-ne"};
constexpr std::array<std::string_view, 2> kAdditiveOps = {"+", "-"};
constexpr std::array<std::string_view, 3> kMultiplicativeOps = {"*", "/", "%"};
constexpr std::array<std::string_view, 8> kUnaryOps = {
    "-", "+", "!", "-not", "-join", "-split", "-bnot", ","};

template <std::size_t N>
bool token_in(const Token& t, const std::array<std::string_view, N>& ops) {
  if (t.type != TokenType::Operator) return false;
  for (auto op : ops) {
    if (iequals(t.content, op)) return true;
  }
  return false;
}

class Parser {
 public:
  Parser(TokenStream tokens, std::size_t source_size, Arena& arena)
      : arena_(&arena), stream_(std::move(tokens)),
        source_size_(source_size) {
    // Tokens are cheap views; filtering copies them but shares the pinned
    // buffers through stream_, which must outlive toks_.
    toks_.reserve(stream_.size());
    for (const auto& t : stream_) {
      if (t.type == TokenType::Comment || t.type == TokenType::LineContinuation) {
        continue;
      }
      toks_.push_back(t);
    }
  }

  ScriptBlockAst* parse_script() {
    auto sb = parse_script_block_body(0, source_size_, "");
    if (!done()) fail("unexpected token '" + std::string(cur().text) + "'");
    link_parents(*sb);
    return sb.get();
  }

 private:
  /// All nodes are built here; the caller owns the arena and with it the
  /// whole tree, so the parser itself never frees anything.
  Arena* arena_;
  template <class T, class... Args>
  ArenaPtr<T> mk(Args&&... args) {
    return ArenaPtr<T>(arena_->make<T>(std::forward<Args>(args)...));
  }

  TokenStream stream_;
  std::vector<Token> toks_;
  std::size_t source_size_;
  std::size_t i_ = 0;
  int ignore_newlines_ = 0;
  int depth_ = 0;

  /// Recursion bound for the descent: a hostile script nested hundreds of
  /// groups deep must fail with ParseError, not overflow the thread stack
  /// (worker threads under ASan overflow near ~600 nested groups). One
  /// group level costs ~2 guarded entries, so this still admits the ~200
  /// paren levels the deep-nesting contract test requires while staying
  /// under half of an 8 MiB thread stack even with ASan-sized frames.
  static constexpr int kMaxNesting = 600;

  struct DepthGuard {
    explicit DepthGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxNesting) p_.fail("nesting too deep");
    }
    ~DepthGuard() { --p_.depth_; }
    Parser& p_;
  };

  [[noreturn]] void fail(const std::string& msg) {
    const std::size_t off = done() ? source_size_ : cur().start;
    throw ParseError(msg, off);
  }

  void skip_skippable() {
    while (i_ < toks_.size() && ignore_newlines_ > 0 &&
           toks_[i_].type == TokenType::NewLine) {
      ++i_;
    }
  }

  bool done() {
    skip_skippable();
    return i_ >= toks_.size();
  }

  const Token& cur() {
    skip_skippable();
    if (i_ >= toks_.size()) fail("unexpected end of input");
    return toks_[i_];
  }

  const Token& peek_ahead(std::size_t n = 1) {
    skip_skippable();
    std::size_t j = i_, seen = 0;
    while (j < toks_.size()) {
      if (ignore_newlines_ > 0 && toks_[j].type == TokenType::NewLine) {
        ++j;
        continue;
      }
      if (seen == n) return toks_[j];
      ++seen;
      ++j;
    }
    static const Token eof{};
    return eof;
  }

  const Token& take() {
    const Token& t = cur();
    ++i_;
    return t;
  }

  std::size_t prev_end() const {
    return i_ > 0 ? toks_[i_ - 1].end() : 0;
  }

  bool at_separator() {
    if (done()) return true;
    const Token& t = toks_[i_];
    return t.type == TokenType::NewLine || t.type == TokenType::StatementSeparator;
  }

  void skip_separators() {
    while (i_ < toks_.size() && (toks_[i_].type == TokenType::NewLine ||
                                 toks_[i_].type == TokenType::StatementSeparator)) {
      ++i_;
    }
  }

  bool at_group_end() {
    return !done() && cur().type == TokenType::GroupEnd;
  }

  void expect_group_end(std::string_view g) {
    if (done() || !is_group_end(cur(), g)) {
      fail(std::string("expected '") + std::string(g) + "'");
    }
    take();
  }

  // ----------------------------------------------------------- structure

  ArenaPtr<ScriptBlockAst> parse_script_block_body(std::size_t start,
                                                          std::size_t end_hint,
                                                          std::string_view closer) {
    skip_separators();
    ArenaPtr<ParamBlockAst> param_block;
    if (!done() && is_kw(cur(), "param")) {
      param_block = parse_param_block();
      skip_separators();
    }

    std::vector<ArenaPtr<NamedBlockAst>> blocks;
    if (!done() && cur().type == TokenType::Keyword &&
        (iequals(cur().content, "begin") || iequals(cur().content, "process") ||
         iequals(cur().content, "end"))) {
      while (!done() && cur().type == TokenType::Keyword &&
             (iequals(cur().content, "begin") || iequals(cur().content, "process") ||
              iequals(cur().content, "end"))) {
        const Token& kw = take();
        NamedBlockAst::BlockName name = NamedBlockAst::BlockName::End;
        if (iequals(kw.content, "begin")) name = NamedBlockAst::BlockName::Begin;
        else if (iequals(kw.content, "process")) name = NamedBlockAst::BlockName::Process;
        if (done() || !is_group_start(cur(), "{")) fail("expected '{' after named block");
        take();
        std::vector<AstPtr> stmts;
        parse_statement_list(stmts, "}");
        const std::size_t bend = prev_end();
        expect_group_end("}");
        blocks.push_back(mk<NamedBlockAst>(kw.start, prev_end(),
                                                         name, std::move(stmts)));
        (void)bend;
        skip_separators();
      }
    } else {
      std::vector<AstPtr> stmts;
      parse_statement_list(stmts, closer);
      const std::size_t bstart = stmts.empty() ? start : stmts.front()->start();
      const std::size_t bend = stmts.empty() ? start : stmts.back()->end();
      blocks.push_back(mk<NamedBlockAst>(
          bstart, bend, NamedBlockAst::BlockName::Unnamed, std::move(stmts)));
    }
    return mk<ScriptBlockAst>(start, end_hint,
                                            std::move(param_block),
                                            std::move(blocks));
  }

  ArenaPtr<ParamBlockAst> parse_param_block() {
    const std::size_t start = cur().start;
    take();  // param
    if (done() || !is_group_start(cur(), "(")) fail("expected '(' after param");
    take();
    ++ignore_newlines_;
    auto params = parse_parameter_list(")");
    --ignore_newlines_;
    expect_group_end(")");
    return mk<ParamBlockAst>(start, prev_end(), std::move(params));
  }

  std::vector<ArenaPtr<ParameterAst>> parse_parameter_list(
      std::string_view closer) {
    std::vector<ArenaPtr<ParameterAst>> params;
    while (!done() && !is_group_end(cur(), closer)) {
      // Optional type constraint before the variable.
      if (cur().type == TokenType::Type) take();
      if (cur().type != TokenType::Variable) fail("expected parameter variable");
      const Token& var = take();
      AstPtr def;
      if (!done() && is_op(cur(), "=")) {
        take();
        def = parse_expression();
      }
      params.push_back(mk<ParameterAst>(var.start, prev_end(),
                                                      var.content, std::move(def)));
      if (!done() && is_op(cur(), ",")) take();
    }
    return params;
  }

  void parse_statement_list(std::vector<AstPtr>& out, std::string_view closer) {
    while (true) {
      skip_separators();
      if (done()) break;
      if (cur().type == TokenType::GroupEnd) {
        if (!closer.empty() && is_group_end(cur(), closer)) break;
        if (closer.empty()) fail("unexpected '" + std::string(cur().text) + "'");
        break;
      }
      out.push_back(parse_statement());
      // PowerShell statements are separated by newlines or semicolons;
      // accepting run-on statements would paper over exactly the breakage
      // that line-flattening tools introduce.
      if (!done() && cur().type != TokenType::GroupEnd && !at_separator()) {
        fail("expected statement separator before '" + std::string(cur().text) + "'");
      }
    }
  }

  AstPtr parse_statement_block() {
    if (done() || !is_group_start(cur(), "{")) fail("expected '{'");
    const std::size_t start = cur().start;
    take();
    std::vector<AstPtr> stmts;
    parse_statement_list(stmts, "}");
    expect_group_end("}");
    return mk<StatementBlockAst>(start, prev_end(), std::move(stmts));
  }

  // ---------------------------------------------------------- statements

  AstPtr parse_statement() {
    DepthGuard guard(*this);
    const Token& t = cur();
    if (t.type == TokenType::Keyword) {
      const std::string kw = to_lower(t.content);
      if (kw == "if") return parse_if();
      if (kw == "while") return parse_while();
      if (kw == "do") return parse_do();
      if (kw == "for") return parse_for();
      if (kw == "foreach") return parse_foreach();
      if (kw == "switch") return parse_switch();
      if (kw == "function" || kw == "filter") return parse_function();
      if (kw == "try") return parse_try();
      if (kw == "return") return parse_flow(NodeKind::ReturnStatement);
      if (kw == "break") return parse_flow(NodeKind::BreakStatement);
      if (kw == "continue") return parse_flow(NodeKind::ContinueStatement);
      if (kw == "throw") return parse_flow(NodeKind::ThrowStatement);
      if (kw == "param") {
        // A stray param block (scriptblock bodies reach here).
        return parse_param_block();
      }
      fail("unsupported keyword '" + kw + "'");
    }
    return parse_pipeline();
  }

  AstPtr parse_condition_paren() {
    if (done() || !is_group_start(cur(), "(")) fail("expected '('");
    take();
    ++ignore_newlines_;
    AstPtr cond = parse_pipeline();
    --ignore_newlines_;
    expect_group_end(")");
    return cond;
  }

  AstPtr parse_if() {
    const std::size_t start = cur().start;
    take();  // if
    std::vector<IfStatementAst::Clause> clauses;
    {
      IfStatementAst::Clause c;
      c.condition = parse_condition_paren();
      skip_separators_limited();
      c.body = parse_statement_block();
      clauses.push_back(std::move(c));
    }
    AstPtr else_body;
    while (true) {
      const std::size_t save = i_;
      skip_separators_limited();
      if (!done() && is_kw(cur(), "elseif")) {
        take();
        IfStatementAst::Clause c;
        c.condition = parse_condition_paren();
        skip_separators_limited();
        c.body = parse_statement_block();
        clauses.push_back(std::move(c));
        continue;
      }
      if (!done() && is_kw(cur(), "else")) {
        take();
        skip_separators_limited();
        else_body = parse_statement_block();
        break;
      }
      i_ = save;
      break;
    }
    return mk<IfStatementAst>(start, prev_end(), std::move(clauses),
                                            std::move(else_body));
  }

  /// Skips newlines between a `)` / `}` and the following `{` / keyword.
  void skip_separators_limited() {
    while (i_ < toks_.size() && toks_[i_].type == TokenType::NewLine) ++i_;
  }

  AstPtr parse_while() {
    const std::size_t start = cur().start;
    take();
    AstPtr cond = parse_condition_paren();
    skip_separators_limited();
    AstPtr body = parse_statement_block();
    return mk<WhileStatementAst>(start, prev_end(), std::move(cond),
                                               std::move(body));
  }

  AstPtr parse_do() {
    const std::size_t start = cur().start;
    take();
    skip_separators_limited();
    AstPtr body = parse_statement_block();
    skip_separators_limited();
    bool until = false;
    if (!done() && is_kw(cur(), "until")) {
      until = true;
      take();
    } else if (!done() && is_kw(cur(), "while")) {
      take();
    } else {
      fail("expected while/until after do block");
    }
    AstPtr cond = parse_condition_paren();
    return mk<DoWhileStatementAst>(start, prev_end(), std::move(body),
                                                 std::move(cond), until);
  }

  AstPtr parse_for() {
    const std::size_t start = cur().start;
    take();
    if (done() || !is_group_start(cur(), "(")) fail("expected '(' after for");
    take();
    ++ignore_newlines_;
    AstPtr init, cond, iter;
    if (!done() && cur().type != TokenType::StatementSeparator) {
      init = parse_pipeline();
    }
    if (!done() && cur().type == TokenType::StatementSeparator) take();
    if (!done() && cur().type != TokenType::StatementSeparator &&
        !is_group_end(cur(), ")")) {
      cond = parse_pipeline();
    }
    if (!done() && cur().type == TokenType::StatementSeparator) take();
    if (!done() && !is_group_end(cur(), ")")) {
      iter = parse_pipeline();
    }
    --ignore_newlines_;
    expect_group_end(")");
    skip_separators_limited();
    AstPtr body = parse_statement_block();
    return mk<ForStatementAst>(start, prev_end(), std::move(init),
                                             std::move(cond), std::move(iter),
                                             std::move(body));
  }

  AstPtr parse_foreach() {
    const std::size_t start = cur().start;
    take();
    if (done() || !is_group_start(cur(), "(")) fail("expected '(' after foreach");
    take();
    ++ignore_newlines_;
    if (done() || cur().type != TokenType::Variable) {
      fail("expected variable in foreach");
    }
    const Token& var = take();
    AstPtr var_ast = mk<VariableExpressionAst>(var.start, var.end(),
                                                             var.content);
    if (done() || !is_kw(cur(), "in")) fail("expected 'in' in foreach");
    take();
    AstPtr expr = parse_pipeline();
    --ignore_newlines_;
    expect_group_end(")");
    skip_separators_limited();
    AstPtr body = parse_statement_block();
    return mk<ForEachStatementAst>(start, prev_end(),
                                                 std::move(var_ast),
                                                 std::move(expr), std::move(body));
  }

  AstPtr parse_switch() {
    const std::size_t start = cur().start;
    take();
    // Optional flags such as -regex / -wildcard / -exact.
    while (!done() && cur().type == TokenType::CommandParameter) take();
    AstPtr cond = parse_condition_paren();
    skip_separators_limited();
    if (done() || !is_group_start(cur(), "{")) fail("expected '{' in switch");
    take();
    std::vector<SwitchStatementAst::Clause> clauses;
    while (true) {
      skip_separators();
      if (done()) fail("unterminated switch");
      if (is_group_end(cur(), "}")) break;
      SwitchStatementAst::Clause clause;
      if ((cur().type == TokenType::Command ||
           cur().type == TokenType::CommandArgument ||
           (cur().type == TokenType::String && cur().quote == QuoteKind::None)) &&
          iequals(cur().content, "default")) {
        take();
      } else if (cur().type == TokenType::Command ||
                 cur().type == TokenType::CommandArgument) {
        const Token& word = take();
        clause.pattern = mk<StringConstantExpressionAst>(
            word.start, word.end(), word.content, QuoteKind::None);
      } else {
        clause.pattern = parse_expression();
      }
      skip_separators_limited();
      clause.body = parse_statement_block();
      clauses.push_back(std::move(clause));
    }
    expect_group_end("}");
    return mk<SwitchStatementAst>(start, prev_end(), std::move(cond),
                                                std::move(clauses));
  }

  AstPtr parse_function() {
    const std::size_t start = cur().start;
    const bool filter = iequals(cur().content, "filter");
    take();
    if (done()) fail("expected function name");
    const Token& name_tok = take();
    std::string name(name_tok.content);
    std::vector<ArenaPtr<ParameterAst>> params;
    if (!done() && is_group_start(cur(), "(")) {
      take();
      ++ignore_newlines_;
      params = parse_parameter_list(")");
      --ignore_newlines_;
      expect_group_end(")");
    }
    skip_separators_limited();
    if (done() || !is_group_start(cur(), "{")) fail("expected '{' in function");
    const std::size_t body_start = cur().start;
    take();
    auto body = parse_script_block_body(body_start, 0, "}");
    expect_group_end("}");
    body->set_extent(body_start, prev_end());
    return mk<FunctionDefinitionAst>(start, prev_end(),
                                                   std::move(name),
                                                   std::move(params),
                                                   std::move(body), filter);
  }

  AstPtr parse_try() {
    const std::size_t start = cur().start;
    take();
    skip_separators_limited();
    AstPtr body = parse_statement_block();
    std::vector<AstPtr> catches;
    AstPtr finally_body;
    while (true) {
      const std::size_t save = i_;
      skip_separators_limited();
      if (!done() && is_kw(cur(), "catch")) {
        take();
        while (!done() && cur().type == TokenType::Type) take();
        skip_separators_limited();
        catches.push_back(parse_statement_block());
        continue;
      }
      if (!done() && is_kw(cur(), "finally")) {
        take();
        skip_separators_limited();
        finally_body = parse_statement_block();
        break;
      }
      i_ = save;
      break;
    }
    if (catches.empty() && finally_body == nullptr) {
      fail("try without catch or finally");
    }
    return mk<TryStatementAst>(start, prev_end(), std::move(body),
                                             std::move(catches),
                                             std::move(finally_body));
  }

  AstPtr parse_flow(NodeKind kind) {
    const std::size_t start = cur().start;
    take();
    AstPtr operand;
    if (!at_separator() && !done() && cur().type != TokenType::GroupEnd) {
      operand = parse_pipeline();
    }
    return mk<FlowStatementAst>(kind, start, prev_end(),
                                              std::move(operand));
  }

  // ----------------------------------------------------------- pipelines

  bool starts_command() {
    const Token& t = cur();
    if (t.type == TokenType::Command) return true;
    if (is_op(t, "&") || is_op(t, ".")) return true;
    return false;
  }

  /// Parses one pipeline; returns an AssignmentStatementAst instead when the
  /// first element is an assignable expression followed by an assignment
  /// operator (PowerShell grammar treats assignment at this level).
  AstPtr parse_pipeline() {
    const std::size_t start = cur().start;
    std::vector<AstPtr> elements;

    if (!starts_command()) {
      AstPtr expr = parse_expression();
      if (!done() && is_assignment_op(cur())) {
        const std::string op(take().content);
        skip_separators_limited_inside();
        AstPtr rhs = parse_statement();
        return mk<AssignmentStatementAst>(start, prev_end(),
                                                        std::move(expr), op,
                                                        std::move(rhs));
      }
      elements.push_back(mk<CommandExpressionAst>(
          expr->start(), expr->end(), std::move(expr)));
    } else {
      elements.push_back(parse_command());
    }

    while (!done() && is_op(cur(), "|")) {
      take();
      skip_separators_limited_inside();
      if (done()) fail("pipeline ends with '|'");
      if (starts_command()) {
        elements.push_back(parse_command());
      } else {
        AstPtr expr = parse_expression();
        elements.push_back(mk<CommandExpressionAst>(
            expr->start(), expr->end(), std::move(expr)));
      }
    }
    return mk<PipelineAst>(start, prev_end(), std::move(elements));
  }

  /// After `|` or `=` a newline is allowed before the continuation.
  void skip_separators_limited_inside() {
    while (i_ < toks_.size() && toks_[i_].type == TokenType::NewLine) ++i_;
  }

  AstPtr parse_command() {
    const std::size_t start = cur().start;
    CommandAst::Invocation inv = CommandAst::Invocation::None;
    if (is_op(cur(), "&")) {
      inv = CommandAst::Invocation::Ampersand;
      take();
    } else if (is_op(cur(), ".")) {
      inv = CommandAst::Invocation::Dot;
      take();
    }
    std::vector<AstPtr> elements;
    while (!done()) {
      const Token& t = cur();
      if (t.type == TokenType::NewLine || t.type == TokenType::StatementSeparator ||
          t.type == TokenType::GroupEnd || is_op(t, "|")) {
        break;
      }
      if (t.type == TokenType::Command || t.type == TokenType::CommandArgument) {
        const Token& w = take();
        if (elements.empty()) {
          // The command-name element is always a bareword string.
          elements.push_back(mk<StringConstantExpressionAst>(
              w.start, w.end(), w.content, QuoteKind::None));
        } else {
          elements.push_back(make_command_word(*arena_, w));
        }
        continue;
      }
      if (t.type == TokenType::CommandParameter) {
        const Token& p = take();
        AstPtr argument;
        std::string name(p.content);
        if (!name.empty() && name.back() == ':') {
          name.pop_back();
          if (!done()) argument = parse_command_element_operand();
        }
        elements.push_back(mk<CommandParameterAst>(
            p.start, prev_end(), name, std::move(argument)));
        continue;
      }
      if (t.type == TokenType::Operator) {
        if (t.content == ",") {
          // Array argument: bind the previous element and the next operand.
          take();
          AstPtr next = parse_command_element_operand();
          if (elements.empty()) fail("unexpected ','");
          AstPtr prev = std::move(elements.back());
          elements.pop_back();
          std::vector<AstPtr> items;
          const std::size_t astart = prev->start();
          if (prev->kind() == NodeKind::ArrayLiteral) {
            auto* arr = static_cast<ArrayLiteralAst*>(prev.get());
            items = std::move(arr->elements);
          } else {
            items.push_back(std::move(prev));
          }
          items.push_back(std::move(next));
          elements.push_back(mk<ArrayLiteralAst>(astart, prev_end(),
                                                               std::move(items)));
          continue;
        }
        if (t.content.find('>') != std::string::npos) {
          // Redirection: consume the operator and, for file targets, the
          // target word; semantics are recorded by the interpreter's
          // command layer, not the AST.
          take();
          if (!done() && (cur().type == TokenType::CommandArgument ||
                          cur().type == TokenType::String ||
                          cur().type == TokenType::Variable)) {
            const Token& w = take();
            elements.push_back(mk<StringConstantExpressionAst>(
                w.start, w.end(), w.content, QuoteKind::None));
          }
          continue;
        }
        break;  // any other operator terminates the command
      }
      elements.push_back(parse_command_element_operand());
    }
    if (elements.empty()) fail("empty command");
    return mk<CommandAst>(start, prev_end(), inv, std::move(elements));
  }

  /// One operand in command-argument position: a string/variable/group with
  /// optional postfix member/index chains.
  AstPtr parse_command_element_operand() {
    const Token& t = cur();
    AstPtr prim;
    if (t.type == TokenType::Command || t.type == TokenType::CommandArgument) {
      return make_command_word(*arena_, take());
    }
    prim = parse_primary();
    return parse_postfix(std::move(prim));
  }

  // --------------------------------------------------------- expressions

  AstPtr parse_expression() { return parse_logical(); }

  AstPtr parse_logical() {
    AstPtr lhs = parse_bitwise();
    while (!done() && token_in(cur(), kLogicalOps)) {
      const std::string op = to_lower(take().content);
      skip_separators_limited_inside();
      AstPtr rhs = parse_bitwise();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  op, std::move(rhs));
    }
    return lhs;
  }

  AstPtr parse_bitwise() {
    AstPtr lhs = parse_comparison();
    while (!done() && token_in(cur(), kBitwiseOps)) {
      const std::string op = to_lower(take().content);
      skip_separators_limited_inside();
      AstPtr rhs = parse_comparison();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  op, std::move(rhs));
    }
    return lhs;
  }

  AstPtr parse_comparison() {
    AstPtr lhs = parse_format();
    while (!done() && token_in(cur(), kComparisonOps)) {
      const std::string op = to_lower(take().content);
      skip_separators_limited_inside();
      AstPtr rhs = parse_format();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  op, std::move(rhs));
    }
    return lhs;
  }

  AstPtr parse_format() {
    AstPtr lhs = parse_range();
    while (!done() && is_op(cur(), "-f")) {
      take();
      skip_separators_limited_inside();
      AstPtr rhs = parse_range();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  "-f", std::move(rhs));
    }
    return lhs;
  }

  AstPtr parse_range() {
    AstPtr lhs = parse_comma();
    while (!done() && is_op(cur(), "..")) {
      take();
      AstPtr rhs = parse_comma();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  "..", std::move(rhs));
    }
    return lhs;
  }

  AstPtr parse_comma() {
    AstPtr first = parse_additive();
    if (done() || !is_op(cur(), ",")) return first;
    std::vector<AstPtr> items;
    const std::size_t s = first->start();
    items.push_back(std::move(first));
    while (!done() && is_op(cur(), ",")) {
      take();
      skip_separators_limited_inside();
      items.push_back(parse_additive());
    }
    return mk<ArrayLiteralAst>(s, prev_end(), std::move(items));
  }

  AstPtr parse_additive() {
    AstPtr lhs = parse_multiplicative();
    while (!done() && token_in(cur(), kAdditiveOps)) {
      const std::string op(take().content);
      skip_separators_limited_inside();
      AstPtr rhs = parse_multiplicative();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  op, std::move(rhs));
    }
    return lhs;
  }

  AstPtr parse_multiplicative() {
    AstPtr lhs = parse_unary();
    while (!done() && token_in(cur(), kMultiplicativeOps)) {
      const std::string op(take().content);
      skip_separators_limited_inside();
      AstPtr rhs = parse_unary();
      const std::size_t s = lhs->start();
      lhs = mk<BinaryExpressionAst>(s, prev_end(), std::move(lhs),
                                                  op, std::move(rhs));
    }
    return lhs;
  }

  bool starts_operand() {
    if (done()) return false;
    const Token& t = cur();
    switch (t.type) {
      case TokenType::Number:
      case TokenType::String:
      case TokenType::Variable:
      case TokenType::Type:
      case TokenType::GroupStart:
        return true;
      case TokenType::Operator:
        return token_in(t, kUnaryOps) || iequals(t.content, "++") ||
               iequals(t.content, "--");
      default:
        return false;
    }
  }

  AstPtr parse_unary() {
    const Token& t = cur();
    if (t.type == TokenType::Operator &&
        (token_in(t, kUnaryOps) || t.content == "++" || t.content == "--")) {
      const std::size_t start = t.start;
      const std::string op = to_lower(take().content);
      AstPtr child = parse_unary();
      return mk<UnaryExpressionAst>(start, prev_end(), op,
                                                  std::move(child));
    }
    if (t.type == TokenType::Type) {
      const Token& ty = take();
      // `[type]` followed by an operand is a cast; otherwise a type literal
      // usable with `::` postfix.
      if (starts_operand()) {
        AstPtr child = parse_unary();
        return parse_postfix(mk<ConvertExpressionAst>(
            ty.start, prev_end(), ty.content, std::move(child)));
      }
      return parse_postfix(mk<TypeExpressionAst>(ty.start, ty.end(),
                                                               ty.content));
    }
    return parse_postfix(parse_primary());
  }

  AstPtr parse_member_name() {
    const Token& t = cur();
    if (t.type == TokenType::Member || t.type == TokenType::CommandArgument ||
        t.type == TokenType::Command) {
      const Token& m = take();
      return mk<StringConstantExpressionAst>(m.start, m.end(),
                                                           m.content,
                                                           QuoteKind::None);
    }
    if (t.type == TokenType::String) {
      const Token& m = take();
      if (m.expandable) {
        return mk<ExpandableStringExpressionAst>(m.start, m.end(),
                                                               m.content, m.quote);
      }
      return mk<StringConstantExpressionAst>(m.start, m.end(),
                                                           m.content, m.quote);
    }
    if (t.type == TokenType::Variable) {
      const Token& m = take();
      return mk<VariableExpressionAst>(m.start, m.end(), m.content);
    }
    if (is_group_start(t, "(")) {
      return parse_paren();
    }
    fail("expected member name");
  }

  AstPtr parse_postfix(AstPtr expr) {
    while (!done()) {
      const Token& t = cur();
      if (is_op(t, ".") || is_op(t, "::")) {
        const bool is_static = t.content == "::";
        take();
        AstPtr member = parse_member_name();
        const std::size_t s = expr->start();
        // Adjacent '(' turns the member access into a method invocation.
        if (!done() && is_group_start(cur(), "(") &&
            cur().start == prev_end()) {
          std::vector<AstPtr> args = parse_invoke_args();
          expr = mk<InvokeMemberExpressionAst>(
              s, prev_end(), std::move(expr), std::move(member), is_static,
              std::move(args));
        } else {
          expr = mk<MemberExpressionAst>(s, prev_end(),
                                                       std::move(expr),
                                                       std::move(member),
                                                       is_static);
        }
        continue;
      }
      if (is_group_start(t, "[")) {
        take();
        ++ignore_newlines_;
        AstPtr index = parse_expression();
        --ignore_newlines_;
        expect_group_end("]");
        const std::size_t s = expr->start();
        expr = mk<IndexExpressionAst>(s, prev_end(), std::move(expr),
                                                    std::move(index));
        continue;
      }
      if (is_op(t, "++") || is_op(t, "--")) {
        const std::string op = std::string(take().content) + "_post";
        const std::size_t s = expr->start();
        expr = mk<UnaryExpressionAst>(s, prev_end(), op,
                                                    std::move(expr));
        continue;
      }
      break;
    }
    return expr;
  }

  std::vector<AstPtr> parse_invoke_args() {
    take();  // (
    ++ignore_newlines_;
    std::vector<AstPtr> args;
    if (!done() && !is_group_end(cur(), ")")) {
      AstPtr expr = parse_expression();
      if (expr->kind() == NodeKind::ArrayLiteral) {
        // Comma-separated argument list parsed as one array literal.
        auto* arr = static_cast<ArrayLiteralAst*>(expr.get());
        for (auto& el : arr->elements) args.push_back(std::move(el));
      } else {
        args.push_back(std::move(expr));
      }
    }
    --ignore_newlines_;
    expect_group_end(")");
    return args;
  }

  AstPtr parse_paren() {
    const std::size_t start = cur().start;
    take();  // (
    ++ignore_newlines_;
    AstPtr inner = parse_statement();
    --ignore_newlines_;
    expect_group_end(")");
    return mk<ParenExpressionAst>(start, prev_end(),
                                                std::move(inner));
  }

  AstPtr parse_primary() {
    DepthGuard guard(*this);
    if (done()) fail("expected expression");
    const Token& t = cur();
    switch (t.type) {
      case TokenType::Number: {
        const Token& n = take();
        return mk<ConstantExpressionAst>(
            n.start, n.end(), parse_number_token(n.content));
      }
      case TokenType::String: {
        const Token& s = take();
        if (s.expandable) {
          return mk<ExpandableStringExpressionAst>(s.start, s.end(),
                                                                 s.content, s.quote);
        }
        return mk<StringConstantExpressionAst>(s.start, s.end(),
                                                             s.content, s.quote);
      }
      case TokenType::Variable: {
        const Token& v = take();
        return mk<VariableExpressionAst>(v.start, v.end(), v.content);
      }
      case TokenType::Type: {
        const Token& ty = take();
        return mk<TypeExpressionAst>(ty.start, ty.end(), ty.content);
      }
      case TokenType::Command:
      case TokenType::CommandArgument: {
        // Stray bareword in expression position: surface as bareword string.
        const Token& w = take();
        return mk<StringConstantExpressionAst>(w.start, w.end(),
                                                             w.content,
                                                             QuoteKind::None);
      }
      case TokenType::GroupStart: {
        if (t.content == "(") return parse_paren();
        if (t.content == "$(") {
          const std::size_t start = t.start;
          take();
          std::vector<AstPtr> stmts;
          parse_statement_list(stmts, ")");
          expect_group_end(")");
          return mk<SubExpressionAst>(start, prev_end(),
                                                    std::move(stmts));
        }
        if (t.content == "@(") {
          const std::size_t start = t.start;
          take();
          std::vector<AstPtr> stmts;
          parse_statement_list(stmts, ")");
          expect_group_end(")");
          return mk<ArrayExpressionAst>(start, prev_end(),
                                                      std::move(stmts));
        }
        if (t.content == "@{") {
          return parse_hashtable();
        }
        if (t.content == "{") {
          const std::size_t start = t.start;
          take();
          const std::size_t body_start = done() ? start + 1 : cur().start;
          auto body = parse_script_block_body(body_start, 0, "}");
          if (done() || !is_group_end(cur(), "}")) fail("expected '}'");
          const std::size_t body_end = cur().start;
          take();
          body->set_extent(start + 1, body_end);
          return mk<ScriptBlockExpressionAst>(
              start, prev_end(), std::move(body), std::string());
        }
        fail("unexpected group '" + std::string(t.content) + "'");
      }
      default:
        fail("unexpected token '" + std::string(t.text) + "'");
    }
  }

  AstPtr parse_hashtable() {
    const std::size_t start = cur().start;
    take();  // @{
    std::vector<HashtableExpressionAst::Entry> entries;
    while (true) {
      skip_separators();
      if (done()) fail("unterminated hashtable");
      if (is_group_end(cur(), "}")) break;
      HashtableExpressionAst::Entry entry;
      const Token& k = cur();
      if (k.type == TokenType::Command || k.type == TokenType::CommandArgument ||
          k.type == TokenType::Member) {
        const Token& kt = take();
        entry.key = mk<StringConstantExpressionAst>(
            kt.start, kt.end(), kt.content, QuoteKind::None);
      } else {
        entry.key = parse_primary();
      }
      if (done() || !is_op(cur(), "=")) fail("expected '=' in hashtable");
      take();
      skip_separators_limited_inside();
      entry.value = parse_statement();
      entries.push_back(std::move(entry));
    }
    expect_group_end("}");
    return mk<HashtableExpressionAst>(start, prev_end(),
                                                    std::move(entries));
  }
};

}  // namespace

namespace {
std::atomic<std::uint64_t> g_parse_calls{0};
}  // namespace

std::uint64_t parse_call_count() {
  return g_parse_calls.load(std::memory_order_relaxed);
}

const ScriptBlockAst* parse_into(Arena& arena, std::string_view source) {
  g_parse_calls.fetch_add(1, std::memory_order_relaxed);
  ideobf::telemetry::PhaseSpan parse_span(ideobf::telemetry::Phase::Parse);
  TokenStream tokens = [&] {
    ideobf::telemetry::PhaseSpan lex_span(ideobf::telemetry::Phase::Lex);
    return tokenize(source);
  }();
  Parser parser(std::move(tokens), source.size(), arena);
  return parser.parse_script();
}

ParsedScript parse(std::string_view source) {
  auto arena = std::make_shared<Arena>(Arena::chunk_bytes_for(source.size()));
  const ScriptBlockAst* root = parse_into(*arena, source);
  return ParsedScript(std::move(arena), root);
}

ParsedScript try_parse(std::string_view source, std::string* error) {
  try {
    return parse(source);
  } catch (const ParseError& e) {
    if (error != nullptr) *error = e.what();
  } catch (const LexError& e) {
    if (error != nullptr) *error = e.what();
  }
  return ParsedScript();
}

bool is_valid_syntax(std::string_view source) {
  return try_parse(source) != nullptr;
}

}  // namespace ps
