// Refusal: how an evaluation is already known to fail, decided on the
// tree. Each function mirrors one evaluator entry point (exec_statement,
// eval_pipeline, exec_command, eval_expr, eval_variable) down to the first
// operation that can fail, charging the same steps on the way, so a
// refusal's FailureKind is the one the evaluation would raise.

#include "psinterp/interpreter.h"
#include "pslang/alias_table.h"

namespace ps {

namespace {

/// Charges one evaluation step on the path; false once the step limit is
/// past, where the evaluation would fail with StepLimit instead.
bool charge(std::size_t& steps, std::size_t max_steps) {
  return ++steps <= max_steps;
}

bool bound(const NodeOverrides* overrides, const Ast& node) {
  return overrides != nullptr && overrides->count(&node) != 0;
}

}  // namespace

std::optional<FailureKind> Interpreter::refusal(
    const Ast& node, const NodeOverrides* overrides) const {
  if (depth_ >= opts_.max_depth) return std::nullopt;
  RefusalPath path{overrides, steps_};
  return refuse_statement(node, path);
}

std::optional<FailureKind> Interpreter::refuse_statement(
    const Ast& node, RefusalPath& path) const {
  if (!charge(path.steps, opts_.max_steps) || bound(path.overrides, node)) {
    return std::nullopt;
  }
  switch (node.kind()) {
    case NodeKind::Pipeline:
      return refuse_pipeline(static_cast<const PipelineAst&>(node), path);
    case NodeKind::AssignmentStatement:
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
  if (opts_.refuse_blocklisted && opts_.command_filter &&
      !opts_.command_filter(lower)) {
    return FailureKind::BlockedCommand;
  }
  // The first argument evaluated: a user function binds only positional
  // arguments; a cmdlet binds in order, a non-switch parameter taking the
  // element after it.
  const bool function = functions_.count(lower) != 0;
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
  if (!charge(path.steps, opts_.max_steps) || bound(path.overrides, node)) {
    return std::nullopt;
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
    case NodeKind::MemberExpression:
    case NodeKind::InvokeMemberExpression: {
      const auto& mem = static_cast<const MemberExpressionAst&>(node);
      if (mem.member->kind() != NodeKind::StringConstantExpression) {
        return refuse_expr(*mem.member, path);
      }
      const bool type_target =
          mem.target->kind() == NodeKind::TypeExpression;
      if (node.kind() == NodeKind::InvokeMemberExpression) {
        const auto& args =
            static_cast<const InvokeMemberExpressionAst&>(node).arguments;
        if (!args.empty()) return refuse_expr(*args.front(), path);
        if (mem.is_static && type_target) return std::nullopt;
      } else if (mem.is_static || type_target) {
        return std::nullopt;
      }
      return refuse_expr(*mem.target, path);
    }
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
