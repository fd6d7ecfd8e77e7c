#pragma once

/// \file ast.h
/// PowerShell abstract-syntax-tree node model, mirroring the node taxonomy
/// of System.Management.Automation.Language that the paper builds on. The
/// six *recoverable* node kinds (PipelineAst, UnaryExpressionAst,
/// BinaryExpressionAst, ConvertExpressionAst, InvokeMemberExpressionAst,
/// SubExpressionAst) and the six scope-changing kinds of Algorithm 1
/// (NamedBlockAst, IfStatementAst, WhileStatementAst, ForStatementAst,
/// ForEachStatementAst, StatementBlockAst) all exist as distinct kinds.
///
/// Every node records its exact source extent [start, end) so the
/// deobfuscator can replace obfuscated pieces strictly in place.

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pslang/alias_table.h"
#include "pslang/operators.h"
#include "pslang/token.h"
#include "psvalue/arena.h"
#include "psvalue/budget.h"
#include "psvalue/value.h"

namespace ps {

enum class NodeKind {
  ScriptBlock,
  ParamBlock,
  Parameter,
  NamedBlock,
  StatementBlock,
  Pipeline,
  Command,
  CommandExpression,
  CommandParameter,
  AssignmentStatement,
  IfStatement,
  WhileStatement,
  DoWhileStatement,
  ForStatement,
  ForEachStatement,
  SwitchStatement,
  FunctionDefinition,
  TryStatement,
  ReturnStatement,
  BreakStatement,
  ContinueStatement,
  ThrowStatement,
  BinaryExpression,
  UnaryExpression,
  ConvertExpression,
  TypeExpression,
  ConstantExpression,
  StringConstantExpression,
  ExpandableStringExpression,
  VariableExpression,
  MemberExpression,
  InvokeMemberExpression,
  IndexExpression,
  ArrayLiteral,
  ArrayExpression,
  HashtableExpression,
  ParenExpression,
  SubExpression,
  ScriptBlockExpression,
};

std::string_view to_string(NodeKind kind);

class Ast;

/// Non-owning handle to an arena-allocated node; the owning Arena is
/// carried alongside the root (see ParsedScript below).
using AstPtr = ArenaPtr<Ast>;

/// A node's direct children, in source order: the first four inline, the
/// rest on the heap, so walking a tree allocates only at nodes with many
/// children.
class ChildList {
 public:
  void push_back(const Ast* node) {
    if (size_ < kInline) {
      inline_[size_++] = node;
      return;
    }
    if (size_ == kInline) heap_.assign(inline_.begin(), inline_.end());
    heap_.push_back(node);
    ++size_;
  }
  [[nodiscard]] const Ast* const* begin() const {
    return size_ <= kInline ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const Ast* const* end() const { return begin() + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kInline = 4;
  std::array<const Ast*, kInline> inline_{};
  std::vector<const Ast*> heap_;
  std::size_t size_ = 0;
};

/// Base class of all AST nodes.
class Ast {
 public:
  Ast(NodeKind kind, std::size_t start, std::size_t end)
      : kind_(kind), start_(start), end_(end) {}
  virtual ~Ast() = default;

  Ast(const Ast&) = delete;
  Ast& operator=(const Ast&) = delete;

  [[nodiscard]] NodeKind kind() const { return kind_; }
  [[nodiscard]] std::size_t start() const { return start_; }
  [[nodiscard]] std::size_t end() const { return end_; }
  void set_extent(std::size_t start, std::size_t end) {
    start_ = start;
    end_ = end;
  }

  /// Parent node, set after parsing; null for the root.
  [[nodiscard]] const Ast* parent() const { return parent_; }
  void set_parent(const Ast* p) { parent_ = p; }

  /// The raw source slice this node covers.
  [[nodiscard]] std::string_view text_in(std::string_view source) const {
    return source.substr(start_, end_ - start_);
  }

  /// Direct children in source order (non-owning).
  [[nodiscard]] ChildList children() const {
    ChildList out;
    collect_children(out);
    return out;
  }

  /// Calls `fn` on every node of the subtree in post-order (children before
  /// parents, source order among siblings) — the traversal both the
  /// variable-tracing algorithm and script reconstruction use.
  void post_order(const std::function<void(const Ast&)>& fn) const;

 protected:
  virtual void collect_children(ChildList& out) const = 0;
  static void add(ChildList& out, const Ast* node) {
    if (node != nullptr) out.push_back(node);
  }

 private:
  NodeKind kind_;
  std::size_t start_;
  std::size_t end_;
  const Ast* parent_ = nullptr;
};

// --------------------------------------------------------------- structure

class ParameterAst final : public Ast {
 public:
  ParameterAst(std::size_t s, std::size_t e, std::string_view name,
               AstPtr def)
      : Ast(NodeKind::Parameter, s, e), name(name),
        default_value(std::move(def)) {}
  std::string name;      ///< without the `$`
  AstPtr default_value;  ///< may be null

 protected:
  void collect_children(ChildList& out) const override {
    add(out, default_value.get());
  }
};

class ParamBlockAst final : public Ast {
 public:
  ParamBlockAst(std::size_t s, std::size_t e,
                std::vector<ArenaPtr<ParameterAst>> params)
      : Ast(NodeKind::ParamBlock, s, e), parameters(std::move(params)) {}
  std::vector<ArenaPtr<ParameterAst>> parameters;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& p : parameters) add(out, p.get());
  }
};

/// begin/process/end block, or the implicit unnamed (end) block. Scripts
/// without explicit named blocks get a single NamedBlockAst wrapper, as in
/// real PowerShell.
class NamedBlockAst final : public Ast {
 public:
  enum class BlockName { Unnamed, Begin, Process, End };
  NamedBlockAst(std::size_t s, std::size_t e, BlockName name,
                std::vector<AstPtr> stmts)
      : Ast(NodeKind::NamedBlock, s, e), name(name),
        statements(std::move(stmts)) {}
  BlockName name;
  std::vector<AstPtr> statements;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& st : statements) add(out, st.get());
  }
};

class ScriptBlockAst final : public Ast {
 public:
  ScriptBlockAst(std::size_t s, std::size_t e,
                 ArenaPtr<ParamBlockAst> params,
                 std::vector<ArenaPtr<NamedBlockAst>> blocks)
      : Ast(NodeKind::ScriptBlock, s, e), param_block(std::move(params)),
        named_blocks(std::move(blocks)) {}
  ArenaPtr<ParamBlockAst> param_block;  ///< may be null
  std::vector<ArenaPtr<NamedBlockAst>> named_blocks;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, param_block.get());
    for (const auto& b : named_blocks) add(out, b.get());
  }
};

/// `{ statement* }` used as a statement body (if/while/function bodies).
class StatementBlockAst final : public Ast {
 public:
  StatementBlockAst(std::size_t s, std::size_t e, std::vector<AstPtr> stmts)
      : Ast(NodeKind::StatementBlock, s, e), statements(std::move(stmts)) {}
  std::vector<AstPtr> statements;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& st : statements) add(out, st.get());
  }
};

// --------------------------------------------------------------- statements

/// One pipeline: elements joined by `|`. A bare expression statement is a
/// pipeline with a single CommandExpression element. Pipelines are one of
/// the paper's recoverable node kinds.
class PipelineAst final : public Ast {
 public:
  PipelineAst(std::size_t s, std::size_t e, std::vector<AstPtr> elems)
      : Ast(NodeKind::Pipeline, s, e), elements(std::move(elems)) {}
  std::vector<AstPtr> elements;  ///< CommandAst or CommandExpressionAst

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& el : elements) add(out, el.get());
  }
};

/// A command invocation: name element followed by parameters/arguments.
class CommandAst final : public Ast {
 public:
  enum class Invocation { None, Ampersand, Dot };
  CommandAst(std::size_t s, std::size_t e, Invocation inv,
             std::vector<AstPtr> elems)
      : Ast(NodeKind::Command, s, e), invocation(inv),
        elements(std::move(elems)) {}
  Invocation invocation;
  std::vector<AstPtr> elements;  ///< first element is the command name node

  /// The command name if it is a constant (bareword or literal string).
  [[nodiscard]] std::string constant_name() const;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& el : elements) add(out, el.get());
  }
};

/// A pipeline element that is a plain expression.
class CommandExpressionAst final : public Ast {
 public:
  CommandExpressionAst(std::size_t s, std::size_t e, AstPtr expr)
      : Ast(NodeKind::CommandExpression, s, e), expression(std::move(expr)) {}
  AstPtr expression;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, expression.get());
  }
};

class CommandParameterAst final : public Ast {
 public:
  CommandParameterAst(std::size_t s, std::size_t e, std::string_view name,
                      AstPtr argument)
      : Ast(NodeKind::CommandParameter, s, e), name(name),
        argument(std::move(argument)) {}
  std::string name;  ///< with the leading dash, e.g. "-EncodedCommand"
  AstPtr argument;   ///< only for `-Name:value` forms; may be null

 protected:
  void collect_children(ChildList& out) const override {
    add(out, argument.get());
  }
};

class AssignmentStatementAst final : public Ast {
 public:
  AssignmentStatementAst(std::size_t s, std::size_t e, AstPtr lhs,
                         const OperatorInfo& op, AstPtr rhs)
      : Ast(NodeKind::AssignmentStatement, s, e), left(std::move(lhs)),
        op(op.spelling), id(op.op), right(std::move(rhs)) {}
  AstPtr left;     ///< VariableExpression / IndexExpression / MemberExpression
  std::string_view op;  ///< "=", "+=", ... (the operator table's spelling)
  Op id;           ///< None for `=`, else the binary operator (`+=`: Add)
  AstPtr right;    ///< statement (usually a PipelineAst)

 protected:
  void collect_children(ChildList& out) const override {
    add(out, left.get());
    add(out, right.get());
  }
};

class IfStatementAst final : public Ast {
 public:
  struct Clause {
    AstPtr condition;  ///< pipeline
    AstPtr body;       ///< StatementBlockAst
  };
  IfStatementAst(std::size_t s, std::size_t e, std::vector<Clause> clauses,
                 AstPtr else_body)
      : Ast(NodeKind::IfStatement, s, e), clauses(std::move(clauses)),
        else_body(std::move(else_body)) {}
  std::vector<Clause> clauses;
  AstPtr else_body;  ///< may be null

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& c : clauses) {
      add(out, c.condition.get());
      add(out, c.body.get());
    }
    add(out, else_body.get());
  }
};

class WhileStatementAst final : public Ast {
 public:
  WhileStatementAst(std::size_t s, std::size_t e, AstPtr cond, AstPtr body)
      : Ast(NodeKind::WhileStatement, s, e), condition(std::move(cond)),
        body(std::move(body)) {}
  AstPtr condition;
  AstPtr body;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, condition.get());
    add(out, body.get());
  }
};

class DoWhileStatementAst final : public Ast {
 public:
  DoWhileStatementAst(std::size_t s, std::size_t e, AstPtr body, AstPtr cond,
                      bool until)
      : Ast(NodeKind::DoWhileStatement, s, e), body(std::move(body)),
        condition(std::move(cond)), is_until(until) {}
  AstPtr body;
  AstPtr condition;
  bool is_until;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, body.get());
    add(out, condition.get());
  }
};

class ForStatementAst final : public Ast {
 public:
  ForStatementAst(std::size_t s, std::size_t e, AstPtr init, AstPtr cond,
                  AstPtr iter, AstPtr body)
      : Ast(NodeKind::ForStatement, s, e), initializer(std::move(init)),
        condition(std::move(cond)), iterator(std::move(iter)),
        body(std::move(body)) {}
  AstPtr initializer;  ///< may be null
  AstPtr condition;    ///< may be null
  AstPtr iterator;     ///< may be null
  AstPtr body;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, initializer.get());
    add(out, condition.get());
    add(out, iterator.get());
    add(out, body.get());
  }
};

class ForEachStatementAst final : public Ast {
 public:
  ForEachStatementAst(std::size_t s, std::size_t e, AstPtr var, AstPtr expr,
                      AstPtr body)
      : Ast(NodeKind::ForEachStatement, s, e), variable(std::move(var)),
        enumerable(std::move(expr)), body(std::move(body)) {}
  AstPtr variable;    ///< VariableExpressionAst
  AstPtr enumerable;  ///< pipeline
  AstPtr body;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, variable.get());
    add(out, enumerable.get());
    add(out, body.get());
  }
};

class SwitchStatementAst final : public Ast {
 public:
  struct Clause {
    AstPtr pattern;  ///< expression, or null for `default`
    AstPtr body;     ///< StatementBlockAst
  };
  SwitchStatementAst(std::size_t s, std::size_t e, AstPtr cond,
                     std::vector<Clause> clauses)
      : Ast(NodeKind::SwitchStatement, s, e), condition(std::move(cond)),
        clauses(std::move(clauses)) {}
  AstPtr condition;
  std::vector<Clause> clauses;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, condition.get());
    for (const auto& c : clauses) {
      add(out, c.pattern.get());
      add(out, c.body.get());
    }
  }
};

class FunctionDefinitionAst final : public Ast {
 public:
  FunctionDefinitionAst(std::size_t s, std::size_t e, std::string_view name,
                        std::vector<ArenaPtr<ParameterAst>> params,
                        AstPtr body, bool filter)
      : Ast(NodeKind::FunctionDefinition, s, e), name(name),
        parameters(std::move(params)), body(std::move(body)),
        is_filter(filter) {}
  std::string name;
  std::vector<ArenaPtr<ParameterAst>> parameters;
  AstPtr body;  ///< ScriptBlockAst
  bool is_filter;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& p : parameters) add(out, p.get());
    add(out, body.get());
  }
};

class TryStatementAst final : public Ast {
 public:
  TryStatementAst(std::size_t s, std::size_t e, AstPtr body,
                  std::vector<AstPtr> catch_bodies, AstPtr finally_body)
      : Ast(NodeKind::TryStatement, s, e), body(std::move(body)),
        catch_bodies(std::move(catch_bodies)),
        finally_body(std::move(finally_body)) {}
  AstPtr body;
  std::vector<AstPtr> catch_bodies;  ///< one StatementBlock per catch clause
  AstPtr finally_body;               ///< may be null

 protected:
  void collect_children(ChildList& out) const override {
    add(out, body.get());
    for (const auto& c : catch_bodies) add(out, c.get());
    add(out, finally_body.get());
  }
};

/// return / break / continue / throw, with an optional pipeline operand.
class FlowStatementAst final : public Ast {
 public:
  FlowStatementAst(NodeKind kind, std::size_t s, std::size_t e, AstPtr operand)
      : Ast(kind, s, e), operand(std::move(operand)) {}
  AstPtr operand;  ///< may be null

 protected:
  void collect_children(ChildList& out) const override {
    add(out, operand.get());
  }
};

// -------------------------------------------------------------- expressions

class BinaryExpressionAst final : public Ast {
 public:
  BinaryExpressionAst(std::size_t s, std::size_t e, AstPtr lhs,
                      const OperatorInfo& op, AstPtr rhs)
      : Ast(NodeKind::BinaryExpression, s, e), left(std::move(lhs)),
        op(op.spelling), id(op.op), case_sensitive(op.case_sensitive),
        right(std::move(rhs)) {}
  AstPtr left;
  /// Canonical lowercase spelling: "+", "-f", "-join", "-bxor", "-ceq", ...
  std::string_view op;
  Op id;
  bool case_sensitive;  ///< a `-c…` variant
  AstPtr right;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, left.get());
    add(out, right.get());
  }
};

class UnaryExpressionAst final : public Ast {
 public:
  UnaryExpressionAst(std::size_t s, std::size_t e, const OperatorInfo& op,
                     AstPtr child)
      : Ast(NodeKind::UnaryExpression, s, e), op(op.spelling), id(op.op),
        child(std::move(child)) {}
  /// "-", "!", "-not", "-join", "-split", "-bnot", ",", "++", "++_post", ...
  std::string_view op;
  Op id;
  AstPtr child;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, child.get());
  }
};

/// `[type] expr` cast.
class ConvertExpressionAst final : public Ast {
 public:
  ConvertExpressionAst(std::size_t s, std::size_t e,
                       std::string_view type_name, AstPtr child)
      : Ast(NodeKind::ConvertExpression, s, e), type_name(type_name),
        type_key(normalize_type_name(type_name)), child(std::move(child)) {}
  std::string type_name;  ///< inner text of the brackets, whitespace-stripped
  std::string type_key;   ///< type_name normalized once (normalize_type_name)
  AstPtr child;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, child.get());
  }
};

/// `[type]` used as a value (usually before `::`).
class TypeExpressionAst final : public Ast {
 public:
  TypeExpressionAst(std::size_t s, std::size_t e, std::string_view type_name)
      : Ast(NodeKind::TypeExpression, s, e), type_name(type_name) {}
  std::string type_name;

 protected:
  void collect_children(ChildList&) const override {}
};

class ConstantExpressionAst final : public Ast {
 public:
  ConstantExpressionAst(std::size_t s, std::size_t e, Value value)
      : Ast(NodeKind::ConstantExpression, s, e), value(std::move(value)) {}
  Value value;

 protected:
  void collect_children(ChildList&) const override {}
};

class StringConstantExpressionAst final : public Ast {
 public:
  StringConstantExpressionAst(std::size_t s, std::size_t e,
                              std::string_view value, QuoteKind quote)
      : Ast(NodeKind::StringConstantExpression, s, e), value(value),
        quote(quote) {}
  std::string value;  ///< cooked content
  QuoteKind quote;

 protected:
  void collect_children(ChildList&) const override {}
};

/// Double-quoted string containing `$` interpolation; `raw` is the inner
/// text with escapes unprocessed (processed together with interpolation at
/// evaluation time).
class ExpandableStringExpressionAst final : public Ast {
 public:
  ExpandableStringExpressionAst(std::size_t s, std::size_t e,
                                std::string_view raw, QuoteKind quote)
      : Ast(NodeKind::ExpandableStringExpression, s, e), raw(raw),
        quote(quote) {}
  std::string raw;
  QuoteKind quote;

 protected:
  void collect_children(ChildList&) const override {}
};

class VariableExpressionAst final : public Ast {
 public:
  VariableExpressionAst(std::size_t s, std::size_t e, std::string_view name)
      : Ast(NodeKind::VariableExpression, s, e), name(name) {}
  std::string name;  ///< as written, possibly with scope qualifier ("env:X")

  /// Name without any scope qualifier, lowercased.
  [[nodiscard]] std::string bare_name() const;
  /// Scope qualifier lowercased ("env", "global", ...) or "".
  [[nodiscard]] std::string scope_qualifier() const;

 protected:
  void collect_children(ChildList&) const override {}
};

class MemberExpressionAst : public Ast {
 public:
  MemberExpressionAst(std::size_t s, std::size_t e, AstPtr target, AstPtr member,
                      bool is_static)
      : Ast(NodeKind::MemberExpression, s, e), target(std::move(target)),
        member(std::move(member)), is_static(is_static) {}
  MemberExpressionAst(NodeKind kind, std::size_t s, std::size_t e, AstPtr target,
                      AstPtr member, bool is_static)
      : Ast(kind, s, e), target(std::move(target)), member(std::move(member)),
        is_static(is_static) {}
  AstPtr target;
  AstPtr member;  ///< usually a StringConstantExpression
  bool is_static;

  /// Member name if constant, lowercased; "" otherwise.
  [[nodiscard]] std::string constant_member() const;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, target.get());
    add(out, member.get());
  }
};

/// `target.Member(args...)` — one of the paper's recoverable node kinds.
class InvokeMemberExpressionAst final : public MemberExpressionAst {
 public:
  InvokeMemberExpressionAst(std::size_t s, std::size_t e, AstPtr target,
                            AstPtr member, bool is_static,
                            std::vector<AstPtr> args)
      : MemberExpressionAst(NodeKind::InvokeMemberExpression, s, e,
                            std::move(target), std::move(member), is_static),
        arguments(std::move(args)) {}
  std::vector<AstPtr> arguments;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, target.get());
    add(out, member.get());
    for (const auto& a : arguments) add(out, a.get());
  }
};

class IndexExpressionAst final : public Ast {
 public:
  IndexExpressionAst(std::size_t s, std::size_t e, AstPtr target, AstPtr index)
      : Ast(NodeKind::IndexExpression, s, e), target(std::move(target)),
        index(std::move(index)) {}
  AstPtr target;
  AstPtr index;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, target.get());
    add(out, index.get());
  }
};

/// `a, b, c` comma list.
class ArrayLiteralAst final : public Ast {
 public:
  ArrayLiteralAst(std::size_t s, std::size_t e, std::vector<AstPtr> elems)
      : Ast(NodeKind::ArrayLiteral, s, e), elements(std::move(elems)) {}
  std::vector<AstPtr> elements;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& el : elements) add(out, el.get());
  }
};

/// `@( statements )`.
class ArrayExpressionAst final : public Ast {
 public:
  ArrayExpressionAst(std::size_t s, std::size_t e, std::vector<AstPtr> stmts)
      : Ast(NodeKind::ArrayExpression, s, e), statements(std::move(stmts)) {}
  std::vector<AstPtr> statements;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& st : statements) add(out, st.get());
  }
};

class HashtableExpressionAst final : public Ast {
 public:
  struct Entry {
    AstPtr key;
    AstPtr value;
  };
  HashtableExpressionAst(std::size_t s, std::size_t e, std::vector<Entry> entries)
      : Ast(NodeKind::HashtableExpression, s, e), entries(std::move(entries)) {}
  std::vector<Entry> entries;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& en : entries) {
      add(out, en.key.get());
      add(out, en.value.get());
    }
  }
};

/// `( pipeline )`.
class ParenExpressionAst final : public Ast {
 public:
  ParenExpressionAst(std::size_t s, std::size_t e, AstPtr pipeline)
      : Ast(NodeKind::ParenExpression, s, e), pipeline(std::move(pipeline)) {}
  AstPtr pipeline;

 protected:
  void collect_children(ChildList& out) const override {
    add(out, pipeline.get());
  }
};

/// `$( statements )` — one of the paper's recoverable node kinds.
class SubExpressionAst final : public Ast {
 public:
  SubExpressionAst(std::size_t s, std::size_t e, std::vector<AstPtr> stmts)
      : Ast(NodeKind::SubExpression, s, e), statements(std::move(stmts)) {}
  std::vector<AstPtr> statements;

 protected:
  void collect_children(ChildList& out) const override {
    for (const auto& st : statements) add(out, st.get());
  }
};

/// `{ statements }` used as a value.
class ScriptBlockExpressionAst final : public Ast {
 public:
  ScriptBlockExpressionAst(std::size_t s, std::size_t e, AstPtr script_block,
                           std::string_view body_text)
      : Ast(NodeKind::ScriptBlockExpression, s, e),
        script_block(std::move(script_block)), body_text(body_text) {}
  AstPtr script_block;    ///< ScriptBlockAst
  std::string body_text;  ///< inner text without the braces

 protected:
  void collect_children(ChildList& out) const override {
    add(out, script_block.get());
  }
};

/// True for the six node kinds the paper identifies as recoverable.
bool is_recoverable_kind(NodeKind kind);

/// True for the six node kinds that change variable scope in Algorithm 1.
bool is_scope_kind(NodeKind kind);

/// Links parent pointers across the whole subtree rooted at `root`.
void link_parents(Ast& root);

/// A node's recorded outcome, with what evaluating the node would have
/// cost: the evaluation steps past the one that reaches the node, and the
/// budget bytes it charges (up to the throw, for a failure). A literal's
/// binding costs nothing.
struct BoundValue {
  BoundValue(Value value, std::size_t steps = 0, std::size_t bytes = 0)
      : value(std::move(value)), steps(steps), bytes(bytes) {}
  Value value;
  std::size_t steps;
  std::size_t bytes;
  /// Not None: the evaluation failed with this kind, and `value` is unset.
  /// Only Interpreter::refusal reads a failure; an evaluation walks the
  /// node again.
  FailureKind failure = FailureKind::None;
  /// The outcome was read from interpreter state (traced variables,
  /// functions, `$env:`), so it holds only for an evaluation that has
  /// written none since it was seeded (Interpreter::replay).
  bool impure = false;
};

/// Values bound to nodes of one tree, keyed by node address: what an
/// evaluation of that tree reads instead of evaluating the node (see
/// Interpreter::evaluate).
using NodeOverrides = std::unordered_map<const Ast*, BoundValue>;

/// Owning handle for one parse: the Arena holding every node plus the root.
/// Behaves like a (const) smart pointer to the root. Copies share the arena
/// — a cached parse is handed out with a single refcount bump — and the
/// whole tree is torn down when the last handle drops, even if the cache
/// entry that produced it has long been evicted.
class ParsedScript {
 public:
  ParsedScript() = default;
  ParsedScript(std::shared_ptr<Arena> arena, const ScriptBlockAst* root)
      : arena_(std::move(arena)), root_(root) {}

  [[nodiscard]] const ScriptBlockAst* get() const { return root_; }
  const ScriptBlockAst& operator*() const { return *root_; }
  const ScriptBlockAst* operator->() const { return root_; }
  explicit operator bool() const { return root_ != nullptr; }
  friend bool operator==(const ParsedScript& p, std::nullptr_t) {
    return p.root_ == nullptr;
  }

  [[nodiscard]] const std::shared_ptr<Arena>& arena() const { return arena_; }
  void reset() {
    root_ = nullptr;
    arena_.reset();
  }

 private:
  std::shared_ptr<Arena> arena_;
  const ScriptBlockAst* root_ = nullptr;
};

}  // namespace ps
