// Refusal: how an evaluation is already known to fail, decided on the
// tree. Each function mirrors one evaluator entry point (exec_statement,
// eval_pipeline, exec_command, eval_expr, eval_variable) down to the first
// operation that can fail, charging the same steps on the way, so a
// refusal's FailureKind is the one the evaluation would raise. A member
// call is the exception: the path steps past operands that cannot fail to
// the call's blocklist check, charging an upper bound of their steps.

#include "psinterp/interpreter.h"
#include "psinterp/objects.h"
#include "pslang/alias_table.h"

namespace ps {

namespace {

/// Charges one evaluation step on the path; false once the step limit is
/// past, where the evaluation would fail with StepLimit instead.
bool charge(std::size_t& steps, std::size_t max_steps) {
  return ++steps <= max_steps;
}

const BoundValue* bound(const NodeOverrides* overrides, const Ast& node) {
  if (overrides == nullptr) return nullptr;
  const auto it = overrides->find(&node);
  return it != overrides->end() ? &it->second : nullptr;
}

/// More steps than `New-Object T` takes inside its pipeline element: the
/// command, its argument and the construction.
constexpr std::size_t kNewObjectSteps = 6;

}  // namespace

std::optional<FailureKind> Interpreter::refusal(
    const Ast& node, const NodeOverrides* overrides, std::size_t* bytes) const {
  if (depth_ >= opts_.max_depth) return std::nullopt;
  RefusalPath path{overrides, steps_};
  const std::optional<FailureKind> kind = refuse_statement(node, path);
  if (!kind || path.steps > opts_.max_steps) return std::nullopt;
  // The walk charges the bound nodes' bytes before it fails.
  if (path.bytes != 0 && opts_.budget != nullptr &&
      !opts_.budget->fits_bytes(path.bytes)) {
    return std::nullopt;
  }
  if (bytes != nullptr) *bytes = path.bytes;
  return kind;
}

std::optional<FailureKind> Interpreter::refuse_bound(const BoundValue& bound,
                                                     RefusalPath& path) const {
  // A value replays (or its node evaluates): no failure here. A recorded
  // failure is what the walk raises again, from the seeded state.
  if (bound.failure == FailureKind::None || (bound.impure && wrote())) {
    return std::nullopt;
  }
  path.steps += bound.steps;
  path.bytes += bound.bytes;
  if (path.steps > opts_.max_steps) return std::nullopt;
  return bound.failure;
}

std::optional<FailureKind> Interpreter::refuse_statement(
    const Ast& node, RefusalPath& path) const {
  if (!charge(path.steps, opts_.max_steps)) return std::nullopt;
  if (const BoundValue* b = bound(path.overrides, node)) {
    // Any other node reaches its record through eval_expr, as below.
    if (node.kind() == NodeKind::Pipeline || b->failure == FailureKind::None) {
      return refuse_bound(*b, path);
    }
  }
  switch (node.kind()) {
    case NodeKind::Pipeline:
      return refuse_pipeline(static_cast<const PipelineAst&>(node), path);
    case NodeKind::AssignmentStatement:
      // The right-hand side evaluates first.
      return refuse_statement(
          *static_cast<const AssignmentStatementAst&>(node).right, path);
    case NodeKind::IfStatement:
    case NodeKind::WhileStatement:
    case NodeKind::DoWhileStatement:
    case NodeKind::ForStatement:
    case NodeKind::ForEachStatement:
    case NodeKind::SwitchStatement:
    case NodeKind::TryStatement:
    case NodeKind::FunctionDefinition:
    case NodeKind::ReturnStatement:
    case NodeKind::BreakStatement:
    case NodeKind::ContinueStatement:
    case NodeKind::ThrowStatement:
    case NodeKind::ParamBlock:
      return std::nullopt;
    default:
      return refuse_expr(node, path);
  }
}

std::optional<FailureKind> Interpreter::refuse_pipeline(
    const PipelineAst& pipe, RefusalPath& path) const {
  if (pipe.elements.empty() || !charge(path.steps, opts_.max_steps)) {
    return std::nullopt;
  }
  const Ast& first = *pipe.elements.front();
  if (first.kind() == NodeKind::CommandExpression) {
    return refuse_expr(*static_cast<const CommandExpressionAst&>(first).expression,
                       path);
  }
  if (first.kind() == NodeKind::Command) {
    return refuse_command(static_cast<const CommandAst&>(first), path);
  }
  return std::nullopt;
}

std::optional<FailureKind> Interpreter::refuse_command(
    const CommandAst& cmd, RefusalPath& path) const {
  if (!charge(path.steps, opts_.max_steps) || cmd.elements.empty()) {
    return std::nullopt;
  }
  const Ast& first = *cmd.elements.front();
  // A computed name: only its own evaluation can be judged.
  if (first.kind() != NodeKind::StringConstantExpression) {
    return refuse_expr(first, path);
  }
  const std::string lower = resolve_command_name(
      static_cast<const StringConstantExpressionAst&>(first).value);
  if (blocked(lower)) return FailureKind::BlockedCommand;
  // The first argument evaluated: a user function binds only positional
  // arguments; a cmdlet binds in order, a non-switch parameter taking the
  // element after it.
  const bool function = functions_.count(lower) != 0;
  if (lower == "get-content" && !function) {
    if (const auto kind = refuse_file_read(cmd, path)) return kind;
  }
  for (std::size_t i = 1; i < cmd.elements.size(); ++i) {
    const Ast& el = *cmd.elements[i];
    if (el.kind() != NodeKind::CommandParameter) return refuse_expr(el, path);
    if (function) continue;
    const auto& p = static_cast<const CommandParameterAst&>(el);
    if (p.argument != nullptr) return refuse_expr(*p.argument, path);
    std::string pname = to_lower(p.name);
    if (!pname.empty() && pname.front() == '-') pname.erase(0, 1);
    if (!is_switch_parameter(pname) && i + 1 < cmd.elements.size() &&
        cmd.elements[i + 1]->kind() != NodeKind::CommandParameter) {
      return refuse_expr(*cmd.elements[i + 1], path);
    }
  }
  return std::nullopt;
}

std::optional<FailureKind> Interpreter::refuse_expr(const Ast& node,
                                                    RefusalPath& path) const {
  if (!charge(path.steps, opts_.max_steps)) return std::nullopt;
  if (const BoundValue* b = bound(path.overrides, node)) {
    return refuse_bound(*b, path);
  }
  switch (node.kind()) {
    case NodeKind::VariableExpression:
      return refuse_variable(static_cast<const VariableExpressionAst&>(node));
    case NodeKind::BinaryExpression:
      return refuse_expr(*static_cast<const BinaryExpressionAst&>(node).left,
                         path);
    case NodeKind::UnaryExpression: {
      const auto& un = static_cast<const UnaryExpressionAst&>(node);
      if (is_increment(un.id)) {
        // The variable is read directly, without a step of its own.
        return un.child->kind() == NodeKind::VariableExpression
                   ? refuse_variable(
                         static_cast<const VariableExpressionAst&>(*un.child))
                   : std::nullopt;
      }
      return refuse_expr(*un.child, path);
    }
    case NodeKind::ConvertExpression:
      return refuse_expr(*static_cast<const ConvertExpressionAst&>(node).child,
                         path);
    case NodeKind::IndexExpression:
      return refuse_expr(*static_cast<const IndexExpressionAst&>(node).target,
                         path);
    case NodeKind::MemberExpression: {
      const auto& mem = static_cast<const MemberExpressionAst&>(node);
      if (mem.member->kind() != NodeKind::StringConstantExpression) {
        return refuse_expr(*mem.member, path);
      }
      if (mem.is_static || mem.target->kind() == NodeKind::TypeExpression) {
        return std::nullopt;
      }
      return refuse_expr(*mem.target, path);
    }
    case NodeKind::InvokeMemberExpression:
      return refuse_member_call(
          static_cast<const InvokeMemberExpressionAst&>(node), path);
    case NodeKind::ArrayLiteral: {
      const auto& elements = static_cast<const ArrayLiteralAst&>(node).elements;
      if (elements.empty()) return std::nullopt;
      return refuse_expr(*elements.front(), path);
    }
    case NodeKind::ArrayExpression:
    case NodeKind::SubExpression: {
      const auto& statements =
          node.kind() == NodeKind::ArrayExpression
              ? static_cast<const ArrayExpressionAst&>(node).statements
              : static_cast<const SubExpressionAst&>(node).statements;
      if (statements.empty()) return std::nullopt;
      return refuse_statement(*statements.front(), path);
    }
    case NodeKind::ParenExpression:
      return refuse_statement(
          *static_cast<const ParenExpressionAst&>(node).pipeline, path);
    case NodeKind::Pipeline:
      return refuse_pipeline(static_cast<const PipelineAst&>(node), path);
    default:
      return std::nullopt;
  }
}

std::optional<FailureKind> Interpreter::refuse_member_call(
    const InvokeMemberExpressionAst& inv, RefusalPath& path) const {
  // The member name, the arguments, the target, then the call itself.
  RefusalPath past = path;
  const Operand member = operand(*inv.member, past);
  if (!member.infallible) return refuse_expr(*inv.member, path);
  // A constant member name is read, not evaluated.
  if (inv.member->kind() != NodeKind::StringConstantExpression) path = past;
  Operand first_arg;
  if (!inv.arguments.empty()) {
    // Past the first argument only when none can fail.
    past = path;
    for (const auto& arg : inv.arguments) {
      const Operand op = operand(*arg, past);
      if (!op.infallible) return refuse_expr(*inv.arguments.front(), path);
      if (arg == inv.arguments.front()) first_arg = op;
    }
    path = past;
  }
  if (!member.known()) return std::nullopt;
  const std::string name = to_lower(member.display());
  std::string key;
  if (inv.is_static && inv.target->kind() == NodeKind::TypeExpression) {
    key = static_block_key(
        normalize_type_name(
            static_cast<const TypeExpressionAst&>(*inv.target).type_name),
        name);
    ++path.steps;  // the call's own
    if (blocked(key)) return FailureKind::BlockedCommand;
    // [IO.File]::ReadAllText / ReadAllBytes of a file never written.
    if (!key.empty() && (name == "readalltext" || name == "readallbytes") &&
        first_arg.known() && missing_file(first_arg.display())) {
      return FailureKind::EvalError;
    }
    return std::nullopt;
  }
  past = path;
  const Operand target = operand(*inv.target, past);
  if (!target.infallible) return refuse_expr(*inv.target, path);
  path = past;
  if (target.value != nullptr && target.value->is_object()) {
    key = instance_block_key(*target.value->get_object(), name);
  }
  ++path.steps;  // the call's own
  if (blocked(key)) return FailureKind::BlockedCommand;
  return std::nullopt;
}

bool Interpreter::blocked(const std::string& key) const {
  return !key.empty() && opts_.refuse_blocklisted && opts_.command_filter &&
         !opts_.command_filter(key);
}

bool Interpreter::missing_file(const std::string& path) const {
  return opts_.strict_variables && virtual_fs_.count(to_lower(path)) == 0;
}

std::optional<FailureKind> Interpreter::refuse_file_read(
    const CommandAst& cmd, RefusalPath& path) const {
  // Binds as exec_command does: a parameter takes its attached argument,
  // or the next element unless it is a switch.
  RefusalPath past = path;
  Operand named, literal, positional;
  bool any_positional = false;
  for (std::size_t i = 1; i < cmd.elements.size(); ++i) {
    const Ast* el = cmd.elements[i].get();
    std::string pname;
    if (el->kind() == NodeKind::CommandParameter) {
      const auto& p = static_cast<const CommandParameterAst&>(*el);
      pname = to_lower(p.name);
      if (!pname.empty() && pname.front() == '-') pname.erase(0, 1);
      if (p.argument != nullptr) {
        el = p.argument.get();
      } else if (!is_switch_parameter(pname) && i + 1 < cmd.elements.size() &&
                 cmd.elements[i + 1]->kind() != NodeKind::CommandParameter) {
        el = cmd.elements[++i].get();
      } else {
        continue;
      }
    }
    const Operand op = operand(*el, past);
    if (!op.infallible) return std::nullopt;
    if (pname == "path") named = op;
    else if (pname == "literalpath") literal = op;
    else if (pname.empty() && !any_positional) positional = op;
    any_positional = any_positional || pname.empty();
  }
  // Get-Content's own `arg_or_param({"path", "literalpath"})`.
  const Operand& file = named.infallible     ? named
                        : literal.infallible ? literal
                                             : positional;
  if (!file.known() || !missing_file(file.display())) return std::nullopt;
  path = past;
  return FailureKind::EvalError;
}

Interpreter::Operand Interpreter::operand(const Ast& node,
                                          RefusalPath& path) const {
  ++path.steps;  // eval_expr's
  if (const BoundValue* b = bound(path.overrides, node)) return bound_operand(*b, path);
  switch (node.kind()) {
    case NodeKind::ConstantExpression:
      return {true, &static_cast<const ConstantExpressionAst&>(node).value};
    case NodeKind::StringConstantExpression:
      return {true, nullptr,
              &static_cast<const StringConstantExpressionAst&>(node).value};
    case NodeKind::VariableExpression: {
      const auto& var = static_cast<const VariableExpressionAst&>(node);
      if (refuse_variable(var)) return {};
      const std::string bare = var.bare_name();
      return {true, var.scope_qualifier().empty() &&
                            automatic_variable(bare) == AutomaticVariable::None
                        ? find_variable(bare)
                        : nullptr};
    }
    case NodeKind::ParenExpression:
      return paren_operand(
          *static_cast<const ParenExpressionAst&>(node).pipeline, path);
    default:
      return {};
  }
}

Interpreter::Operand Interpreter::bound_operand(const BoundValue& bound,
                                                RefusalPath& path) const {
  if (bound.failure != FailureKind::None || (bound.impure && wrote())) return {};
  path.steps += bound.steps;
  path.bytes += bound.bytes;
  return {true, &bound.value};
}

Interpreter::Operand Interpreter::paren_operand(const Ast& stmt,
                                                RefusalPath& path) const {
  ++path.steps;  // exec_statement's
  if (const BoundValue* b = bound(path.overrides, stmt)) {
    Operand bound = bound_operand(*b, path);
    if (bound.value != nullptr && bound.value->is_array()) bound.value = nullptr;
    return bound;
  }
  if (stmt.kind() != NodeKind::Pipeline) return {};
  const auto& pipe = static_cast<const PipelineAst&>(stmt);
  if (pipe.elements.size() != 1) return {};
  ++path.steps;  // the pipeline element's
  const Ast& el = *pipe.elements[0];
  if (el.kind() == NodeKind::CommandExpression) {
    // A lone expression's value, unless the stream reshapes it.
    Operand inner = operand(
        *static_cast<const CommandExpressionAst&>(el).expression, path);
    if (inner.value != nullptr &&
        (inner.value->is_array() || inner.value->is_null())) {
      inner.value = nullptr;
    }
    return inner;
  }
  if (el.kind() != NodeKind::Command) return {};
  // `New-Object Net.WebClient`: constructing a WebClient cannot fail.
  const auto& cmd = static_cast<const CommandAst&>(el);
  if (cmd.elements.size() != 2 ||
      cmd.elements[0]->kind() != NodeKind::StringConstantExpression ||
      cmd.elements[1]->kind() != NodeKind::StringConstantExpression ||
      bound(path.overrides, *cmd.elements[1]) != nullptr) {
    return {};
  }
  const std::string name = resolve_command_name(
      static_cast<const StringConstantExpressionAst&>(*cmd.elements[0]).value);
  if (name != "new-object" || functions_.count(name) != 0 ||
      (opts_.command_filter && !opts_.command_filter(name)) ||
      normalize_type_name(static_cast<const StringConstantExpressionAst&>(
                              *cmd.elements[1])
                              .value) != "net.webclient") {
    return {};
  }
  path.steps += kNewObjectSteps;
  static const Value kWebClient(
      std::shared_ptr<PsObject>(std::make_shared<WebClientObject>()));
  return {true, &kWebClient};
}

std::optional<FailureKind> Interpreter::refuse_variable(
    const VariableExpressionAst& var) const {
  if (!opts_.strict_variables) return std::nullopt;
  const std::string scope = var.scope_qualifier();
  const std::string bare = var.bare_name();
  if (scope == "env") {
    if (find_env(bare) != nullptr) return std::nullopt;
    return FailureKind::EvalError;
  }
  if ((scope == "global" || scope == "script") && globals_.count(bare) != 0) {
    return std::nullopt;
  }
  if (automatic_variable(bare) != AutomaticVariable::None ||
      find_variable(bare) != nullptr) {
    return std::nullopt;
  }
  return FailureKind::EvalError;
}

}  // namespace ps
