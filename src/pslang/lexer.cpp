#include "pslang/lexer.h"

#include <array>
#include <cctype>

#include "pslang/alias_table.h"
#include "pslang/operators.h"

namespace ps {

std::string_view to_string(TokenType type) {
  switch (type) {
    case TokenType::Unknown: return "Unknown";
    case TokenType::Command: return "Command";
    case TokenType::CommandParameter: return "CommandParameter";
    case TokenType::CommandArgument: return "CommandArgument";
    case TokenType::Number: return "Number";
    case TokenType::String: return "String";
    case TokenType::Variable: return "Variable";
    case TokenType::Member: return "Member";
    case TokenType::Type: return "Type";
    case TokenType::Operator: return "Operator";
    case TokenType::GroupStart: return "GroupStart";
    case TokenType::GroupEnd: return "GroupEnd";
    case TokenType::Keyword: return "Keyword";
    case TokenType::Comment: return "Comment";
    case TokenType::StatementSeparator: return "StatementSeparator";
    case TokenType::NewLine: return "NewLine";
    case TokenType::LineContinuation: return "LineContinuation";
  }
  return "?";
}

bool is_keyword(std::string_view word) {
  static const std::array<std::string_view, 26> kw = {
      "if",     "elseif",  "else",   "while",  "for",     "foreach", "function",
      "filter", "return",  "break",  "continue", "do",    "until",   "switch",
      "param",  "begin",   "process", "end",   "try",     "catch",   "finally",
      "throw",  "trap",    "in",     "class",  "enum"};
  for (auto k : kw) {
    if (iequals(k, word)) return true;
  }
  return false;
}

bool is_named_operator(std::string_view word) {
  return find_named_operator(word) != nullptr;
}

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool is_scope_prefix(std::string_view s) {
  return iequals(s, "global") || iequals(s, "local") || iequals(s, "script") ||
         iequals(s, "private") || iequals(s, "using") || iequals(s, "variable") ||
         iequals(s, "env");
}

/// Characters that terminate a bareword in command-argument position.
bool ends_command_word(char c) {
  switch (c) {
    case ' ': case '\t': case '\r': case '\n':
    case ';': case '|': case '&': case '(': case ')':
    case '{': case '}': case '<': case '>': case '#':
    case '\'': case '"': case '$': case ',':
      return true;
    default:
      return false;
  }
}

/// Characters allowed in an expression-position bareword (member names,
/// keywords, named-operator words).
bool is_word_char(char c) {
  return is_ident_char(c) || c == '-';
}

char escape_char(char c) {
  switch (c) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '0': return '\0';
    case 'a': return '\a';
    case 'b': return '\b';
    case 'f': return '\f';
    case 'v': return '\v';
    case 'e': return '\x1b';
    default: return c;  // `` ` ``, `'`, `"`, `$`, and anything else: literal
  }
}

class Lexer {
 public:
  /// The lexer pins its own copy of the source; every emitted token views
  /// that copy (or the interner), never the caller's buffer.
  Lexer(std::string_view src, bool lenient)
      : pinned_(std::make_shared<const std::string>(src)),
        interner_(std::make_shared<StringInterner>()),
        src_(*pinned_), lenient_(lenient) {}

  TokenStream run(bool& ok) {
    ok = true;
    try {
      while (pos_ < src_.size()) {
        lex_one();
      }
    } catch (const LexError&) {
      if (!lenient_) throw;
      ok = false;
    }
    return TokenStream(std::move(out_), std::move(pinned_),
                       std::move(interner_));
  }

 private:
  enum class Mode { StatementStart, Command, Expression };

  struct Frame {
    char closer;
    Mode saved_mode;
  };

  std::shared_ptr<const std::string> pinned_;
  std::shared_ptr<StringInterner> interner_;
  std::string_view src_;
  bool lenient_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Mode mode_ = Mode::StatementStart;
  bool after_operand_ = false;
  bool expect_member_ = false;
  bool first_command_element_ = false;
  bool after_function_kw_ = false;
  std::size_t last_token_end_ = static_cast<std::size_t>(-1);
  std::vector<Frame> stack_;
  std::vector<Token> out_;

  [[noreturn]] void fail(const std::string& msg) { throw LexError(msg, pos_); }

  char cur() const { return src_[pos_]; }
  char peek(std::size_t n = 1) const {
    return pos_ + n < src_.size() ? src_[pos_ + n] : '\0';
  }
  bool at_end() const { return pos_ >= src_.size(); }

  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  Token& emit(TokenType type, std::size_t start, int line, int col,
              std::string content) {
    Token t;
    t.type = type;
    t.start = start;
    t.length = pos_ - start;
    t.line = line;
    t.column = col;
    t.text = src_.substr(start, t.length);
    // Zero-copy content: most cooked content is byte-identical to the raw
    // slice (barewords, operators) or to the slice minus one leading quote
    // / sigil character (unescaped strings, variables); only genuinely
    // rewritten spellings (ticked words, escapes, lowercased keywords) go
    // through the interner.
    if (content.empty()) {
      t.content = std::string_view();
    } else if (content == t.text) {
      t.content = t.text;
    } else if (t.length > content.size() &&
               t.text.substr(1, content.size()) == content) {
      t.content = t.text.substr(1, content.size());
    } else {
      t.content = interner_->intern(content);
    }
    out_.push_back(t);
    last_token_end_ = pos_;
    return out_.back();
  }

  const Token* last_significant() const {
    for (auto it = out_.rbegin(); it != out_.rend(); ++it) {
      if (it->type != TokenType::Comment && it->type != TokenType::NewLine &&
          it->type != TokenType::LineContinuation) {
        return &*it;
      }
    }
    return nullptr;
  }

  void reset_statement() {
    mode_ = Mode::StatementStart;
    after_operand_ = false;
    expect_member_ = false;
    first_command_element_ = false;
  }

  void push_group(char closer) {
    stack_.push_back({closer, mode_});
    reset_statement();
  }

  void pop_group() {
    Mode saved = Mode::Expression;
    if (!stack_.empty()) {
      saved = stack_.back().saved_mode;
      stack_.pop_back();
    }
    // A group that was a command *argument* returns to argument mode so
    // `cmd ('a'+'b') -Key 5` keeps binding parameters; anywhere else the
    // completed group is an operand in expression position.
    mode_ = saved == Mode::Command ? Mode::Command : Mode::Expression;
    after_operand_ = true;
    expect_member_ = false;
    first_command_element_ = false;
  }

  void lex_one() {
    // Inter-token whitespace (spaces / tabs / carriage returns).
    while (!at_end() && (cur() == ' ' || cur() == '\t' || cur() == '\r')) advance();
    if (at_end()) return;

    const std::size_t start = pos_;
    const int line = line_;
    const int col = col_;
    const char c = cur();

    // Line continuation: backtick immediately before a newline.
    if (c == '`' && (peek() == '\n' || (peek() == '\r' && peek(2) == '\n'))) {
      advance();  // `
      while (!at_end() && cur() != '\n') advance();
      if (!at_end()) advance();  // newline
      emit(TokenType::LineContinuation, start, line, col, "");
      return;
    }

    if (c == '\n') {
      advance();
      emit(TokenType::NewLine, start, line, col, "\n");
      reset_statement();
      return;
    }

    if (c == ';') {
      advance();
      emit(TokenType::StatementSeparator, start, line, col, ";");
      reset_statement();
      return;
    }

    if (c == '#') {
      while (!at_end() && cur() != '\n') advance();
      emit(TokenType::Comment, start, line, col,
           std::string(src_.substr(start, pos_ - start)));
      return;
    }
    if (c == '<' && peek() == '#') {
      while (!at_end() && !(cur() == '#' && peek() == '>')) advance();
      if (at_end()) fail("unterminated block comment");
      advance();
      advance();
      emit(TokenType::Comment, start, line, col,
           std::string(src_.substr(start, pos_ - start)));
      return;
    }

    switch (mode_) {
      case Mode::StatementStart: lex_statement_start(start, line, col); return;
      case Mode::Command: lex_command(start, line, col); return;
      case Mode::Expression: lex_expression(start, line, col); return;
    }
  }

  // ---------------------------------------------------------------- strings

  void lex_single_string(std::size_t start, int line, int col, bool here) {
    std::string content;
    if (here) {
      pos_ += 2;  // @'
      col_ += 2;
      // Skip to end of line.
      while (!at_end() && cur() != '\n') advance();
      if (!at_end()) advance();
      while (true) {
        if (at_end()) fail("unterminated here-string");
        if (col_ == 1 && cur() == '\'' && peek() == '@') {
          if (!content.empty() && content.back() == '\n') content.pop_back();
          if (!content.empty() && content.back() == '\r') content.pop_back();
          advance();
          advance();
          break;
        }
        content.push_back(cur());
        advance();
      }
      Token& t = emit(TokenType::String, start, line, col, std::move(content));
      t.quote = QuoteKind::HereSingle;
      return;
    }
    advance();  // opening quote
    while (true) {
      if (at_end()) fail("unterminated string");
      if (cur() == '\'') {
        if (peek() == '\'') {
          content.push_back('\'');
          advance();
          advance();
          continue;
        }
        advance();
        break;
      }
      content.push_back(cur());
      advance();
    }
    Token& t = emit(TokenType::String, start, line, col, std::move(content));
    t.quote = QuoteKind::Single;
  }

  void lex_double_string(std::size_t start, int line, int col, bool here) {
    std::string cooked;
    std::string raw_inner;
    bool has_dollar = false;
    if (here) {
      pos_ += 2;
      col_ += 2;
      while (!at_end() && cur() != '\n') advance();
      if (!at_end()) advance();
      while (true) {
        if (at_end()) fail("unterminated here-string");
        if (col_ == 1 && cur() == '"' && peek() == '@') {
          if (!raw_inner.empty() && raw_inner.back() == '\n') raw_inner.pop_back();
          if (!raw_inner.empty() && raw_inner.back() == '\r') raw_inner.pop_back();
          advance();
          advance();
          break;
        }
        if (cur() == '$') has_dollar = true;
        raw_inner.push_back(cur());
        advance();
      }
      Token& t = emit(TokenType::String, start, line, col,
                      has_dollar ? raw_inner : raw_inner);
      t.quote = QuoteKind::HereDouble;
      t.expandable = has_dollar;
      return;
    }
    advance();  // opening quote
    int subexpr_depth = 0;
    while (true) {
      if (at_end()) fail("unterminated string");
      const char ch = cur();
      if (ch == '`' && pos_ + 1 < src_.size()) {
        raw_inner.push_back(ch);
        advance();
        raw_inner.push_back(cur());
        cooked.push_back(escape_char(cur()));
        advance();
        continue;
      }
      if (ch == '"') {
        if (subexpr_depth == 0) {
          if (peek() == '"') {
            raw_inner += "\"\"";
            cooked.push_back('"');
            advance();
            advance();
            continue;
          }
          advance();
          break;
        }
        // Inside an embedded $( ... ) a quote belongs to the subexpression.
        raw_inner.push_back(ch);
        cooked.push_back(ch);
        advance();
        continue;
      }
      if (ch == '$') {
        has_dollar = true;
        if (peek() == '(') subexpr_depth++;
      }
      if (ch == ')' && subexpr_depth > 0) subexpr_depth--;
      raw_inner.push_back(ch);
      cooked.push_back(ch);
      advance();
    }
    Token& t = emit(TokenType::String, start, line, col,
                    has_dollar ? raw_inner : cooked);
    t.quote = QuoteKind::Double;
    t.expandable = has_dollar;
  }

  // PS also strings barewords; reads a bareword with backtick unescaping.
  // `allow` decides which chars may appear.
  template <typename Pred>
  std::string read_word(Pred allow) {
    std::string content;
    while (!at_end()) {
      char ch = cur();
      if (ch == '`') {
        if (peek() == '\n' || peek() == '\0') break;
        advance();  // skip tick; next char literal
        content.push_back(cur());
        advance();
        continue;
      }
      if (!allow(ch)) break;
      content.push_back(ch);
      advance();
    }
    return content;
  }

  void lex_variable(std::size_t start, int line, int col) {
    advance();  // $
    std::string name;
    if (at_end()) {
      emit(TokenType::Variable, start, line, col, "$");
      return;
    }
    if (cur() == '{') {
      advance();
      while (!at_end() && cur() != '}') {
        name.push_back(cur());
        advance();
      }
      if (at_end()) fail("unterminated braced variable");
      advance();
    } else if (cur() == '_' || cur() == '$' || cur() == '?' || cur() == '^') {
      // $_ can continue as an identifier? No: $_ is exactly the automatic
      // variable, but $_abc is a normal variable named _abc.
      name.push_back(cur());
      advance();
      while (!at_end() && is_ident_char(cur())) {
        name.push_back(cur());
        advance();
      }
    } else {
      while (!at_end() && is_ident_char(cur())) {
        name.push_back(cur());
        advance();
      }
      if (!at_end() && cur() == ':' && peek() != ':' && is_scope_prefix(name) &&
          (is_ident_start(peek()) || std::isdigit(static_cast<unsigned char>(peek())))) {
        name.push_back(':');
        advance();
        while (!at_end() && is_ident_char(cur())) {
          name.push_back(cur());
          advance();
        }
      }
    }
    emit(TokenType::Variable, start, line, col, std::move(name));
    mode_ = Mode::Expression;
    after_operand_ = true;
    expect_member_ = false;
  }

  void lex_number(std::size_t start, int line, int col) {
    std::string content;
    if (cur() == '0' && (peek() == 'x' || peek() == 'X')) {
      content += "0x";
      advance();
      advance();
      while (!at_end() && std::isxdigit(static_cast<unsigned char>(cur()))) {
        content.push_back(cur());
        advance();
      }
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(cur()))) {
        content.push_back(cur());
        advance();
      }
      if (!at_end() && cur() == '.' &&
          std::isdigit(static_cast<unsigned char>(peek()))) {
        content.push_back('.');
        advance();
        while (!at_end() && std::isdigit(static_cast<unsigned char>(cur()))) {
          content.push_back(cur());
          advance();
        }
      }
      if (!at_end() && (cur() == 'e' || cur() == 'E') &&
          (std::isdigit(static_cast<unsigned char>(peek())) ||
           ((peek() == '+' || peek() == '-') &&
            std::isdigit(static_cast<unsigned char>(peek(2)))))) {
        content.push_back(cur());
        advance();
        if (cur() == '+' || cur() == '-') {
          content.push_back(cur());
          advance();
        }
        while (!at_end() && std::isdigit(static_cast<unsigned char>(cur()))) {
          content.push_back(cur());
          advance();
        }
      }
      // Size suffixes: kb, mb, gb, tb, pb.
      if (!at_end() && std::isalpha(static_cast<unsigned char>(cur()))) {
        char s0 = static_cast<char>(std::tolower(static_cast<unsigned char>(cur())));
        char s1 = static_cast<char>(std::tolower(static_cast<unsigned char>(peek())));
        if ((s0 == 'k' || s0 == 'm' || s0 == 'g' || s0 == 't' || s0 == 'p') &&
            s1 == 'b') {
          content.push_back(s0);
          content.push_back('b');
          advance();
          advance();
        } else if (s0 == 'l' || s0 == 'd') {
          content.push_back(s0);
          advance();
        }
      }
    }
    emit(TokenType::Number, start, line, col, std::move(content));
    mode_ = Mode::Expression;
    after_operand_ = true;
  }

  void lex_type_literal(std::size_t start, int line, int col) {
    advance();  // [
    std::string content;
    int depth = 1;
    while (!at_end()) {
      char ch = cur();
      if (ch == '[') depth++;
      if (ch == ']') {
        depth--;
        if (depth == 0) {
          advance();
          break;
        }
      }
      if (ch != ' ' && ch != '\t') content.push_back(ch);
      advance();
    }
    if (depth != 0) fail("unterminated type literal");
    emit(TokenType::Type, start, line, col, std::move(content));
    mode_ = Mode::Expression;
    after_operand_ = true;
    expect_member_ = false;
  }

  bool lex_string_if_any(std::size_t start, int line, int col) {
    const char c = cur();
    if (c == '\'') {
      lex_single_string(start, line, col, /*here=*/false);
      return true;
    }
    if (c == '"') {
      lex_double_string(start, line, col, /*here=*/false);
      return true;
    }
    if (c == '@' && peek() == '\'') {
      lex_single_string(start, line, col, /*here=*/true);
      return true;
    }
    if (c == '@' && peek() == '"') {
      lex_double_string(start, line, col, /*here=*/true);
      return true;
    }
    return false;
  }

  // ------------------------------------------------------------- modes

  void lex_statement_start(std::size_t start, int line, int col) {
    const char c = cur();

    if (lex_string_if_any(start, line, col)) {
      mode_ = Mode::Expression;
      after_operand_ = true;
      return;
    }

    if (c == '$') {
      if (peek() == '(') {
        advance();
        advance();
        emit(TokenType::GroupStart, start, line, col, "$(");
        push_group(')');
        return;
      }
      lex_variable(start, line, col);
      return;
    }

    if (c == '@' && peek() == '(') {
      advance();
      advance();
      emit(TokenType::GroupStart, start, line, col, "@(");
      push_group(')');
      return;
    }
    if (c == '@' && peek() == '{') {
      advance();
      advance();
      emit(TokenType::GroupStart, start, line, col, "@{");
      push_group('}');
      return;
    }
    if (c == '@' && is_ident_start(peek())) {
      // Splatted variable.
      lex_variable(start, line, col);
      return;
    }

    if (c == '(') {
      advance();
      emit(TokenType::GroupStart, start, line, col, "(");
      push_group(')');
      return;
    }
    if (c == '{') {
      advance();
      emit(TokenType::GroupStart, start, line, col, "{");
      push_group('}');
      return;
    }
    if (c == ')' || c == '}') {
      advance();
      emit(TokenType::GroupEnd, start, line, col, std::string(1, c));
      pop_group();
      return;
    }

    if (c == '|') {
      advance();
      emit(TokenType::Operator, start, line, col, "|");
      reset_statement();
      return;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek())))) {
      lex_number(start, line, col);
      return;
    }

    if (c == '[') {
      lex_type_literal(start, line, col);
      return;
    }

    if (c == '&') {
      advance();
      emit(TokenType::Operator, start, line, col, "&");
      mode_ = Mode::Command;
      first_command_element_ = true;
      return;
    }

    if (c == '.') {
      const char n = peek();
      if (n == ' ' || n == '\t' || n == '\'' || n == '"' || n == '$' ||
          n == '(') {
        advance();
        emit(TokenType::Operator, start, line, col, ".");
        mode_ = Mode::Command;
        first_command_element_ = true;
        return;
      }
      // `.\script.ps1` style command name: falls through to bareword.
    }

    if (c == '!') {
      advance();
      emit(TokenType::Operator, start, line, col, "!");
      mode_ = Mode::Expression;
      after_operand_ = false;
      return;
    }

    if ((c == '+' && peek() == '+') || (c == '-' && peek() == '-')) {
      advance();
      advance();
      emit(TokenType::Operator, start, line, col, std::string(2, c));
      mode_ = Mode::Expression;
      after_operand_ = false;
      return;
    }

    if (c == ',') {
      advance();
      emit(TokenType::Operator, start, line, col, ",");
      mode_ = Mode::Expression;
      after_operand_ = false;
      return;
    }

    if (c == '-') {
      const char n = peek();
      if (std::isdigit(static_cast<unsigned char>(n)) || n == '.') {
        advance();
        emit(TokenType::Operator, start, line, col, "-");
        mode_ = Mode::Expression;
        after_operand_ = false;
        return;
      }
      if (std::isalpha(static_cast<unsigned char>(n))) {
        // Prefix named operator: -join 'x', -not $a, -split 'a b'.
        std::size_t save = pos_;
        advance();
        std::string word = read_word(is_word_char);
        if (const OperatorInfo* named = find_named_operator(word)) {
          emit(TokenType::Operator, start, line, col,
               std::string(named->spelling));
          mode_ = Mode::Expression;
          after_operand_ = false;
          return;
        }
        pos_ = save;  // not an operator; fall through to bareword command
      }
    }

    // `%` and `?` alone are command aliases (ForEach-Object / Where-Object).
    if ((c == '%' || c == '?') &&
        (peek() == ' ' || peek() == '\t' || peek() == '{' || peek() == '\0' ||
         peek() == '(')) {
      advance();
      emit(TokenType::Command, start, line, col, std::string(1, c));
      mode_ = Mode::Command;
      return;
    }

    // Bareword: keyword or command name.
    std::string word = read_word([](char ch) { return !ends_command_word(ch); });
    if (word.empty()) {
      if (lenient_) {
        advance();
        emit(TokenType::Unknown, start, line, col, std::string(1, c));
        return;
      }
      fail("unexpected character at statement start");
    }

    const Token* prev = last_significant();
    const bool after_pipe =
        prev != nullptr && prev->type == TokenType::Operator && prev->content == "|";

    if (after_function_kw_) {
      after_function_kw_ = false;
      emit(TokenType::CommandArgument, start, line, col, std::move(word));
      mode_ = Mode::StatementStart;  // expect `(` or `{`
      return;
    }

    if (is_keyword(word) && !after_pipe) {
      Token& t = emit(TokenType::Keyword, start, line, col, to_lower(word));
      if (t.content == "function" || t.content == "filter") {
        after_function_kw_ = true;
      }
      reset_statement();
      return;
    }

    emit(TokenType::Command, start, line, col, std::move(word));
    mode_ = Mode::Command;
    first_command_element_ = false;
    return;
  }

  void lex_command(std::size_t start, int line, int col) {
    const char c = cur();

    if (lex_string_if_any(start, line, col)) {
      if (first_command_element_) first_command_element_ = false;
      return;
    }

    if (c == '$') {
      if (peek() == '(') {
        advance();
        advance();
        emit(TokenType::GroupStart, start, line, col, "$(");
        push_group(')');
        return;
      }
      Mode saved = mode_;
      lex_variable(start, line, col);
      // A variable in argument position does not flip us to expression mode.
      mode_ = saved;
      first_command_element_ = false;
      return;
    }

    if (c == '@' && peek() == '(') {
      advance();
      advance();
      emit(TokenType::GroupStart, start, line, col, "@(");
      push_group(')');
      return;
    }
    if (c == '@' && is_ident_start(peek())) {
      Mode saved = mode_;
      lex_variable(start, line, col);
      mode_ = saved;
      return;
    }

    if (c == '(') {
      advance();
      emit(TokenType::GroupStart, start, line, col, "(");
      push_group(')');
      return;
    }
    if (c == '{') {
      advance();
      emit(TokenType::GroupStart, start, line, col, "{");
      push_group('}');
      return;
    }
    if (c == ')' || c == '}') {
      advance();
      emit(TokenType::GroupEnd, start, line, col, std::string(1, c));
      pop_group();
      return;
    }

    if (c == '|') {
      advance();
      emit(TokenType::Operator, start, line, col, "|");
      reset_statement();
      return;
    }

    if (c == ',') {
      advance();
      emit(TokenType::Operator, start, line, col, ",");
      return;
    }

    // `=` directly in argument position only occurs inside hashtable
    // literals (`@{ key = value }`), where the key was lexed as a command.
    if (c == '=') {
      advance();
      emit(TokenType::Operator, start, line, col, "=");
      reset_statement();
      return;
    }

    if (c == '>' || (c == '2' && peek() == '>') ||
        (c == '1' && peek() == '>')) {
      // Redirections: >, >>, 2>, 2>&1, 1>...
      std::string op;
      while (!at_end() && (cur() == '>' || cur() == '&' || cur() == '1' ||
                           cur() == '2')) {
        op.push_back(cur());
        advance();
        if (op.size() > 4) break;
      }
      emit(TokenType::Operator, start, line, col, std::move(op));
      return;
    }

    if (c == '-' && std::isalpha(static_cast<unsigned char>(peek()))) {
      advance();
      std::string word = read_word([](char ch) {
        return is_ident_char(ch) || ch == '-' || ch == ':';
      });
      emit(TokenType::CommandParameter, start, line, col, "-" + word);
      return;
    }

    // Postfix member / static-member / index access on an argument operand
    // (`write-host $a.Length`, `& $cmds[0]`). Only when directly adjacent to
    // the preceding operand token, matching PowerShell's argument-mode rules.
    {
      const Token* prev = last_significant();
      const bool prev_operand =
          prev != nullptr && prev->end() == start &&
          (prev->type == TokenType::Variable || prev->type == TokenType::GroupEnd ||
           prev->type == TokenType::String || prev->type == TokenType::Member ||
           prev->type == TokenType::Type);
      if (prev_operand && c == '.' &&
          (is_ident_start(peek()) || peek() == '`')) {
        advance();
        emit(TokenType::Operator, start, line, col, ".");
        std::size_t mstart = pos_;
        int mline = line_, mcol = col_;
        std::string word = read_word([](char ch) { return is_ident_char(ch); });
        emit(TokenType::Member, mstart, mline, mcol, std::move(word));
        return;
      }
      if (prev_operand && c == ':' && peek() == ':') {
        advance();
        advance();
        emit(TokenType::Operator, start, line, col, "::");
        std::size_t mstart = pos_;
        int mline = line_, mcol = col_;
        std::string word = read_word([](char ch) { return is_ident_char(ch); });
        emit(TokenType::Member, mstart, mline, mcol, std::move(word));
        return;
      }
      if (prev_operand && c == '[') {
        advance();
        emit(TokenType::GroupStart, start, line, col, "[");
        push_group(']');
        return;
      }
      if (prev_operand && c == '(' && prev->type == TokenType::Member) {
        advance();
        emit(TokenType::GroupStart, start, line, col, "(");
        push_group(')');
        return;
      }
    }

    // Generic bareword argument (numbers included; the parser converts).
    std::string word = read_word([](char ch) { return !ends_command_word(ch); });
    if (word.empty()) {
      advance();
      emit(TokenType::Unknown, start, line, col, std::string(1, c));
      return;
    }
    if (first_command_element_) {
      first_command_element_ = false;
      emit(TokenType::Command, start, line, col, std::move(word));
      return;
    }
    emit(TokenType::CommandArgument, start, line, col, std::move(word));
  }

  void lex_expression(std::size_t start, int line, int col) {
    const char c = cur();

    if (lex_string_if_any(start, line, col)) {
      after_operand_ = true;
      expect_member_ = false;
      return;
    }

    if (c == '$') {
      if (peek() == '(') {
        advance();
        advance();
        emit(TokenType::GroupStart, start, line, col, "$(");
        push_group(')');
        return;
      }
      lex_variable(start, line, col);
      return;
    }

    if (c == '@' && peek() == '(') {
      advance();
      advance();
      emit(TokenType::GroupStart, start, line, col, "@(");
      push_group(')');
      return;
    }
    if (c == '@' && peek() == '{') {
      advance();
      advance();
      emit(TokenType::GroupStart, start, line, col, "@{");
      push_group('}');
      return;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek())) &&
         !after_operand_)) {
      lex_number(start, line, col);
      return;
    }

    if (c == '(') {
      advance();
      emit(TokenType::GroupStart, start, line, col, "(");
      push_group(')');
      return;
    }
    if (c == '{') {
      advance();
      emit(TokenType::GroupStart, start, line, col, "{");
      push_group('}');
      return;
    }
    if (c == ')' || c == '}') {
      advance();
      emit(TokenType::GroupEnd, start, line, col, std::string(1, c));
      pop_group();
      return;
    }

    if (c == '[') {
      // `[int][char]39` chains casts: a '[' directly after a Type token is
      // another type literal, not an index.
      const Token* prev = last_significant();
      const bool prev_is_type = prev != nullptr && prev->type == TokenType::Type;
      if (after_operand_ && start == last_token_end_ && !prev_is_type) {
        advance();
        emit(TokenType::GroupStart, start, line, col, "[");
        push_group(']');
        return;
      }
      lex_type_literal(start, line, col);
      return;
    }
    if (c == ']') {
      advance();
      emit(TokenType::GroupEnd, start, line, col, "]");
      pop_group();
      return;
    }

    if (c == ':' && peek() == ':') {
      advance();
      advance();
      emit(TokenType::Operator, start, line, col, "::");
      expect_member_ = true;
      after_operand_ = false;
      return;
    }

    if (c == '.') {
      if (peek() == '.') {
        advance();
        advance();
        emit(TokenType::Operator, start, line, col, "..");
        after_operand_ = false;
        return;
      }
      advance();
      emit(TokenType::Operator, start, line, col, ".");
      if (after_operand_) {
        expect_member_ = true;
      } else {
        // Dot-source / call operator in expression position.
        mode_ = Mode::Command;
        first_command_element_ = true;
      }
      after_operand_ = false;
      return;
    }

    if (c == '|') {
      advance();
      emit(TokenType::Operator, start, line, col, "|");
      reset_statement();
      return;
    }

    if (c == '&') {
      advance();
      emit(TokenType::Operator, start, line, col, "&");
      mode_ = Mode::Command;
      first_command_element_ = true;
      return;
    }

    if (c == '=' || ((c == '+' || c == '-' || c == '*' || c == '/' || c == '%') &&
                     peek() == '=')) {
      std::string op(1, c);
      advance();
      if (c != '=' ) {
        op.push_back('=');
        advance();
      }
      emit(TokenType::Operator, start, line, col, std::move(op));
      reset_statement();
      return;
    }

    if ((c == '+' && peek() == '+') || (c == '-' && peek() == '-')) {
      advance();
      advance();
      emit(TokenType::Operator, start, line, col, std::string(2, c));
      // Postfix `$i++` leaves an operand behind; prefix `++$i` expects one.
      return;
    }

    if (c == '+' || c == '*' || c == '/' || c == '%') {
      advance();
      emit(TokenType::Operator, start, line, col, std::string(1, c));
      after_operand_ = false;
      return;
    }

    if (c == '-') {
      if (std::isalpha(static_cast<unsigned char>(peek()))) {
        std::size_t save_pos = pos_;
        int save_line = line_, save_col = col_;
        advance();
        std::string word = read_word(is_word_char);
        if (const OperatorInfo* named = find_named_operator(word)) {
          emit(TokenType::Operator, start, line, col,
               std::string(named->spelling));
          after_operand_ = false;
          return;
        }
        pos_ = save_pos;
        line_ = save_line;
        col_ = save_col;
      }
      advance();
      emit(TokenType::Operator, start, line, col, "-");
      after_operand_ = false;
      return;
    }

    if (c == '!') {
      advance();
      emit(TokenType::Operator, start, line, col, "!");
      after_operand_ = false;
      return;
    }

    if (c == ',') {
      advance();
      emit(TokenType::Operator, start, line, col, ",");
      after_operand_ = false;
      return;
    }

    if (c == '>') {
      advance();
      if (!at_end() && cur() == '>') advance();
      emit(TokenType::Operator, start, line, col,
           std::string(src_.substr(start, pos_ - start)));
      after_operand_ = false;
      return;
    }

    // Bareword in expression position: member name, trailing keyword
    // (`while` of do/while), or a stray word we surface as a bareword string.
    if (is_ident_start(c)) {
      if (expect_member_) {
        // Member names are identifiers only — `-` after one is an operator.
        std::string word = read_word(is_ident_char);
        expect_member_ = false;
        emit(TokenType::Member, start, line, col, std::move(word));
        after_operand_ = true;
        return;
      }
      std::string word = read_word(is_word_char);
      if (is_keyword(word)) {
        Token& t = emit(TokenType::Keyword, start, line, col, to_lower(word));
        if (t.content == "function" || t.content == "filter") {
          after_function_kw_ = true;
        }
        reset_statement();
        return;
      }
      Token& t = emit(TokenType::String, start, line, col, std::move(word));
      t.quote = QuoteKind::None;
      after_operand_ = true;
      return;
    }

    if (lenient_) {
      advance();
      emit(TokenType::Unknown, start, line, col, std::string(1, c));
      return;
    }
    fail("unexpected character in expression");
  }
};

}  // namespace

TokenStream tokenize(std::string_view source) {
  bool ok = true;
  Lexer lexer(source, /*lenient=*/false);
  return lexer.run(ok);
}

TokenStream tokenize_lenient(std::string_view source, bool& ok) {
  Lexer lexer(source, /*lenient=*/true);
  return lexer.run(ok);
}

}  // namespace ps
