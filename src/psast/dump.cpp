#include "psast/dump.h"

#include <sstream>

#include "psast/parser.h"

namespace ps {

namespace {

std::string escape_payload(std::string_view s, std::size_t max_len) {
  std::string out;
  for (char c : s) {
    if (out.size() >= max_len) {
      out += "...";
      break;
    }
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c); break;
    }
  }
  return out;
}

std::string payload_of(const Ast& node, const DumpOptions& opts) {
  switch (node.kind()) {
    case NodeKind::StringConstantExpression:
      return "'" +
             escape_payload(
                 static_cast<const StringConstantExpressionAst&>(node).value,
                 opts.max_payload) +
             "'";
    case NodeKind::ExpandableStringExpression:
      return "\"" +
             escape_payload(
                 static_cast<const ExpandableStringExpressionAst&>(node).raw,
                 opts.max_payload) +
             "\"";
    case NodeKind::ConstantExpression:
      return static_cast<const ConstantExpressionAst&>(node)
          .value.to_display_string();
    case NodeKind::VariableExpression:
      return "$" + static_cast<const VariableExpressionAst&>(node).name;
    case NodeKind::BinaryExpression:
      return std::string(static_cast<const BinaryExpressionAst&>(node).op);
    case NodeKind::UnaryExpression:
      return std::string(static_cast<const UnaryExpressionAst&>(node).op);
    case NodeKind::ConvertExpression:
      return "[" + static_cast<const ConvertExpressionAst&>(node).type_name + "]";
    case NodeKind::TypeExpression:
      return "[" + static_cast<const TypeExpressionAst&>(node).type_name + "]";
    case NodeKind::Command: {
      const std::string name =
          static_cast<const CommandAst&>(node).constant_name();
      return name.empty() ? "<dynamic>" : name;
    }
    case NodeKind::CommandParameter:
      return static_cast<const CommandParameterAst&>(node).name;
    case NodeKind::FunctionDefinition:
      return static_cast<const FunctionDefinitionAst&>(node).name;
    case NodeKind::AssignmentStatement:
      return std::string(static_cast<const AssignmentStatementAst&>(node).op);
    case NodeKind::MemberExpression:
    case NodeKind::InvokeMemberExpression: {
      const auto& mem = static_cast<const MemberExpressionAst&>(node);
      const std::string m = mem.constant_member();
      return (mem.is_static ? "::" : ".") + (m.empty() ? "<dynamic>" : m);
    }
    default:
      return "";
  }
}

void dump_node(const Ast& node, std::string_view source, const DumpOptions& opts,
               int depth, std::ostringstream& out) {
  for (int i = 0; i < depth; ++i) out << "  ";
  out << to_string(node.kind());
  if (opts.mark_recoverable && is_recoverable_kind(node.kind())) out << "*";
  if (opts.show_extents) {
    out << " [" << node.start() << "," << node.end() << ")";
  }
  const std::string payload = payload_of(node, opts);
  if (!payload.empty()) out << "  " << payload;
  out << "\n";
  for (const Ast* child : node.children()) {
    dump_node(*child, source, opts, depth + 1, out);
  }
}

}  // namespace

std::string dump_ast(const Ast& node, std::string_view source,
                     DumpOptions options) {
  std::ostringstream out;
  dump_node(node, source, options, 0, out);
  return out.str();
}

std::string dump_script(std::string_view source, DumpOptions options) {
  std::string error;
  auto root = try_parse(source, &error);
  if (root == nullptr) return "parse error: " + error + "\n";
  return dump_ast(*root, source, options);
}

}  // namespace ps
