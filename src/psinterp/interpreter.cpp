#include "psinterp/interpreter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pslang/alias_table.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "psinterp/objects.h"
#include "psinterp/pattern.h"

namespace ps {

namespace {

/// PowerShell values for the automatic variables obfuscators abuse
/// ($PSHome[4]+$PSHome[30]+'x' and friends).
constexpr std::string_view kPsHome = "C:\\Windows\\System32\\WindowsPowerShell\\v1.0";
constexpr std::string_view kShellId = "Microsoft.PowerShell";

std::vector<Value> flatten_stream(const Value& v) {
  std::vector<Value> out;
  if (v.is_array()) {
    for (const Value& item : v.get_array()) out.push_back(item);
  } else if (!v.is_null()) {
    out.push_back(v);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ construction

Interpreter::Interpreter(InterpreterOptions opts) : opts_(std::move(opts)) {
  scopes_.emplace_back();
}

Interpreter::~Interpreter() = default;

const std::string* Interpreter::find_env(const std::string& lower_name) const {
  auto it = env_.find(lower_name);
  if (it != env_.end()) return &it->second;
  // The simulated host's environment: built once, shared read-only by every
  // interpreter; env_ holds only what a script wrote.
  static const std::map<std::string, std::string> kDefaults = {
      {"comspec", "C:\\Windows\\system32\\cmd.exe"},
      {"windir", "C:\\Windows"},
      {"temp", "C:\\Users\\user\\AppData\\Local\\Temp"},
      {"tmp", "C:\\Users\\user\\AppData\\Local\\Temp"},
      {"username", "user"},
      {"computername", "DESKTOP-SIM"},
      {"public", "C:\\Users\\Public"},
      {"appdata", "C:\\Users\\user\\AppData\\Roaming"},
      {"localappdata", "C:\\Users\\user\\AppData\\Local"},
      {"programdata", "C:\\ProgramData"},
      {"userprofile", "C:\\Users\\user"},
      {"homepath", "\\Users\\user"},
      {"systemroot", "C:\\Windows"},
      {"processor_architecture", "AMD64"},
      {"psmodulepath", "C:\\Users\\user\\Documents\\WindowsPowerShell\\Modules"},
  };
  auto d = kDefaults.find(lower_name);
  return d != kDefaults.end() ? &d->second : nullptr;
}

// --------------------------------------------------------------- variables

void Interpreter::set_variable(std::string_view name, Value value) {
  assign_variable(to_lower(name), std::move(value));
}

std::optional<Value> Interpreter::get_variable(std::string_view name) const {
  const std::string lower = to_lower(name);
  if (const Value* v = find_variable(lower)) return *v;
  return std::nullopt;
}

Value* Interpreter::find_variable(const std::string& lower_name) {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->vars.find(lower_name);
    if (found != it->vars.end()) return &found->second;
  }
  auto g = globals_.find(lower_name);
  if (g != globals_.end()) return &g->second;
  return nullptr;
}

const Value* Interpreter::find_variable(const std::string& lower_name) const {
  return const_cast<Interpreter*>(this)->find_variable(lower_name);
}

void Interpreter::assign_variable(const std::string& name, Value v) {
  std::string lower = to_lower(name);
  if (lower.rfind("global:", 0) == 0 || lower.rfind("script:", 0) == 0) {
    globals_[lower.substr(lower.find(':') + 1)] = std::move(v);
    return;
  }
  if (lower.rfind("env:", 0) == 0) {
    env_[lower.substr(4)] = v.to_display_string();
    return;
  }
  if (lower.rfind("local:", 0) == 0 || lower.rfind("private:", 0) == 0 ||
      lower.rfind("variable:", 0) == 0) {
    lower = lower.substr(lower.find(':') + 1);
  }
  // PowerShell writes create or update the variable in the *current* scope
  // (reads walk outward); a function assigning $x shadows the caller's $x.
  scopes_.back().vars[lower] = std::move(v);
}

Value Interpreter::eval_variable(const VariableExpressionAst& var) {
  const std::string scope = var.scope_qualifier();
  const std::string bare = var.bare_name();
  if (scope == "env") {
    if (const std::string* value = find_env(bare)) return Value(*value);
    if (opts_.strict_variables) throw EvalError("unknown env variable: " + bare);
    return Value(std::string());
  }
  if (scope == "global" || scope == "script") {
    auto it = globals_.find(bare);
    if (it != globals_.end()) return it->second;
    // fall through to normal lookup
  }
  if (bare == "true") return Value(true);
  if (bare == "false") return Value(false);
  if (bare == "null") return Value();
  if (bare == "pshome" || bare == "psscriptroot") return Value(std::string(kPsHome));
  if (bare == "shellid") return Value(std::string(kShellId));
  if (bare == "home") return Value(std::string("C:\\Users\\user"));
  if (bare == "pwd") return Value(std::string("C:\\Users\\user"));
  if (bare == "verbosepreference" || bare == "warningpreference" ||
      bare == "debugpreference") {
    if (find_variable(bare) == nullptr) return Value(std::string("SilentlyContinue"));
  }
  if (bare == "erroractionpreference") {
    if (find_variable(bare) == nullptr) return Value(std::string("Continue"));
  }
  if (bare == "executioncontext") {
    return Value(std::shared_ptr<PsObject>(std::make_shared<ExecutionContextObject>()));
  }
  if (bare == "psversiontable") {
    Hashtable ht;
    ht.entries.emplace_back(Value("PSVersion"), Value("5.1.19041"));
    return Value(std::move(ht));
  }
  if (const Value* v = find_variable(bare)) return *v;
  if (opts_.strict_variables) throw EvalError("unknown variable: $" + bare);
  return Value();
}

// ------------------------------------------------------------------ limits

void Interpreter::charge_step() {
  if (++steps_ > opts_.max_steps) {
    throw LimitError("step limit exceeded", FailureKind::StepLimit);
  }
  if (opts_.budget != nullptr) opts_.budget->checkpoint();
}

void Interpreter::charge_bytes(std::size_t bytes, bool enforce_max_string) {
  if (enforce_max_string && bytes > opts_.max_string) {
    throw LimitError("string too large", FailureKind::MemoryBudget);
  }
  if (opts_.budget != nullptr) opts_.budget->charge_bytes(bytes);
}

void Interpreter::check_blocked(const std::string& command_lower) {
  if (opts_.command_filter && !opts_.command_filter(command_lower)) {
    if (opts_.refuse_blocklisted) throw BlockedCommandError(command_lower);
  }
}

std::int64_t Interpreter::need_int(const Value& v, std::string_view what) {
  std::int64_t out = 0;
  if (!v.try_to_int(out)) {
    throw EvalError("cannot convert " + v.type_name() + " to int for " +
                    std::string(what));
  }
  return out;
}

std::string Interpreter::need_string(const Value& v) { return v.to_display_string(); }

// ------------------------------------------------------------- entry points

ps::ParsedScript Interpreter::parse_shared(std::string_view text) const {
  if (opts_.parse_cache != nullptr) {
    ps::ParseCache::Result r = opts_.parse_cache->get(text);
    if (r.ast != nullptr) return std::move(r.ast);
    // Negative-cached text falls through so the genuine ParseError (with
    // its real message) is raised, exactly as without a cache.
  }
  return parse(text);
}

Value Interpreter::evaluate_script(std::string_view script) {
  if (depth_ >= opts_.max_depth) throw LimitError("invoke depth exceeded", FailureKind::DepthLimit);
  // The step budget applies per top-level evaluation; a reused interpreter
  // must not accumulate steps across independent scripts.
  if (depth_ == 0) steps_ = 0;
  if (opts_.recorder != nullptr) opts_.recorder->on_engine_script(script);
  const ParsedScript root = parse_shared(script);
  ++depth_;
  std::vector<Value> out;
  try {
    for (const auto& block : root->named_blocks) {
      exec_statement_list(block->statements, script, out);
    }
  } catch (const ReturnSignal& r) {
    if (!r.value.is_null()) out.push_back(r.value);
  } catch (...) {
    --depth_;
    throw;
  }
  --depth_;
  return Value::from_stream(std::move(out));
}

Value Interpreter::evaluate(const Ast& node, std::string_view source,
                            const NodeOverrides* overrides) {
  // Run as one script level, like evaluate_script: a nested
  // Invoke-Expression must not reset the step count, and `return` ends
  // the evaluation with its value.
  if (depth_ >= opts_.max_depth) throw LimitError("invoke depth exceeded", FailureKind::DepthLimit);
  const NodeOverrides* const saved = std::exchange(overrides_, overrides);
  ++depth_;
  std::vector<Value> out;
  try {
    exec_statement(node, source, out);
  } catch (const ReturnSignal& r) {
    if (!r.value.is_null()) out.push_back(r.value);
  } catch (...) {
    --depth_;
    overrides_ = saved;
    throw;
  }
  --depth_;
  overrides_ = saved;
  return Value::from_stream(std::move(out));
}

// -------------------------------------------------------------- statements

void Interpreter::exec_statement_list(const std::vector<AstPtr>& stmts,
                                      std::string_view src,
                                      std::vector<Value>& out) {
  for (const auto& st : stmts) exec_statement(*st, src, out);
}

void Interpreter::exec_statement(const Ast& node, std::string_view src,
                                 std::vector<Value>& out) {
  charge_step();
  // A recovered pipeline stands for its literal, which as a statement
  // emits its one value.
  if (const Value* bound = override_of(node)) {
    out.push_back(*bound);
    return;
  }
  switch (node.kind()) {
    case NodeKind::Pipeline:
      eval_pipeline(static_cast<const PipelineAst&>(node), src, out);
      return;
    case NodeKind::AssignmentStatement:
      exec_assignment(static_cast<const AssignmentStatementAst&>(node), src, out);
      return;
    case NodeKind::IfStatement:
      exec_if(static_cast<const IfStatementAst&>(node), src, out);
      return;
    case NodeKind::WhileStatement:
      exec_while(static_cast<const WhileStatementAst&>(node), src, out);
      return;
    case NodeKind::DoWhileStatement:
      exec_do(static_cast<const DoWhileStatementAst&>(node), src, out);
      return;
    case NodeKind::ForStatement:
      exec_for(static_cast<const ForStatementAst&>(node), src, out);
      return;
    case NodeKind::ForEachStatement:
      exec_foreach(static_cast<const ForEachStatementAst&>(node), src, out);
      return;
    case NodeKind::SwitchStatement:
      exec_switch(static_cast<const SwitchStatementAst&>(node), src, out);
      return;
    case NodeKind::TryStatement:
      exec_try(static_cast<const TryStatementAst&>(node), src, out);
      return;
    case NodeKind::FunctionDefinition: {
      const auto& fn = static_cast<const FunctionDefinitionAst&>(node);
      FunctionInfo info;
      for (const auto& p : fn.parameters) info.parameter_names.push_back(to_lower(p->name));
      const auto* body = static_cast<const ScriptBlockAst*>(fn.body.get());
      // Body text without surrounding braces.
      std::string text(src.substr(body->start(), body->end() - body->start()));
      if (!text.empty() && text.front() == '{') text = text.substr(1);
      if (!text.empty() && text.back() == '}') text.pop_back();
      // Pick up a param(...) block as parameters too.
      info.body_text = std::move(text);
      if (fn.parameters.empty() && body->param_block != nullptr) {
        for (const auto& p : body->param_block->parameters) {
          info.parameter_names.push_back(to_lower(p->name));
        }
      }
      functions_[to_lower(fn.name)] = std::move(info);
      return;
    }
    case NodeKind::ReturnStatement: {
      const auto& flow = static_cast<const FlowStatementAst&>(node);
      Value v;
      if (flow.operand != nullptr) {
        std::vector<Value> tmp;
        exec_statement(*flow.operand, src, tmp);
        v = Value::from_stream(std::move(tmp));
      }
      throw ReturnSignal{std::move(v)};
    }
    case NodeKind::BreakStatement:
      throw BreakSignal{};
    case NodeKind::ContinueStatement:
      throw ContinueSignal{};
    case NodeKind::ThrowStatement: {
      const auto& flow = static_cast<const FlowStatementAst&>(node);
      std::string msg = "ScriptHalted";
      if (flow.operand != nullptr) {
        std::vector<Value> tmp;
        exec_statement(*flow.operand, src, tmp);
        msg = Value::from_stream(std::move(tmp)).to_display_string();
      }
      throw EvalError(msg);
    }
    case NodeKind::ParamBlock:
      return;  // handled at function-call binding time
    default:
      // Bare expression used as a statement.
      out.push_back(eval_expr(node, src));
      return;
  }
}

void Interpreter::exec_assignment(const AssignmentStatementAst& st,
                                  std::string_view src, std::vector<Value>&) {
  std::vector<Value> tmp;
  exec_statement(*st.right, src, tmp);
  Value rhs = Value::from_stream(std::move(tmp));

  if (st.left->kind() == NodeKind::VariableExpression) {
    const auto& var = static_cast<const VariableExpressionAst&>(*st.left);
    const std::string name = to_lower(var.name);
    if (st.op == "=") {
      assign_variable(name, std::move(rhs));
      return;
    }
    Value current = eval_variable(var);
    // Compound assignment reuses the binary-operator core on values.
    Value result = [&]() -> Value {
      if (st.op == "+=") return eval_binary_values(current, "+", rhs);
      if (st.op == "-=") return eval_binary_values(current, "-", rhs);
      if (st.op == "*=") return eval_binary_values(current, "*", rhs);
      if (st.op == "/=") return eval_binary_values(current, "/", rhs);
      if (st.op == "%=") return eval_binary_values(current, "%", rhs);
      throw EvalError("unsupported assignment operator " + st.op);
    }();
    assign_variable(name, std::move(result));
    return;
  }
  if (st.left->kind() == NodeKind::IndexExpression) {
    const auto& idx = static_cast<const IndexExpressionAst&>(*st.left);
    Value target = eval_expr(*idx.target, src);
    const Value index = eval_expr(*idx.index, src);
    if (target.is_array()) {
      std::int64_t i = need_int(index, "index");
      auto& arr = target.get_array();
      if (i < 0) i += static_cast<std::int64_t>(arr.size());
      if (i >= 0 && i < static_cast<std::int64_t>(arr.size())) {
        arr[static_cast<std::size_t>(i)] = rhs;
      }
      return;
    }
    if (target.is_hashtable()) {
      auto& ht = target.get_hashtable();
      const std::string key = index.to_display_string();
      for (auto& [k, v] : ht.entries) {
        if (iequals(k.to_display_string(), key)) {
          v = rhs;
          return;
        }
      }
      ht.entries.emplace_back(index, rhs);
      return;
    }
    throw EvalError("cannot index-assign into " + target.type_name());
  }
  if (st.left->kind() == NodeKind::MemberExpression) {
    // Property stores ([Net.ServicePointManager]::SecurityProtocol = ...,
    // $wc.Encoding = ...) have no effect on the simulated runtime: evaluate
    // the target for side effects and drop the value.
    const auto& mem = static_cast<const MemberExpressionAst&>(*st.left);
    if (!mem.is_static) eval_expr(*mem.target, src);
    return;
  }
  throw EvalError("unsupported assignment target");
}

void Interpreter::exec_if(const IfStatementAst& st, std::string_view src,
                          std::vector<Value>& out) {
  for (const auto& clause : st.clauses) {
    std::vector<Value> cond_out;
    exec_statement(*clause.condition, src, cond_out);
    if (Value::from_stream(std::move(cond_out)).to_bool()) {
      const auto& body = static_cast<const StatementBlockAst&>(*clause.body);
      exec_statement_list(body.statements, src, out);
      return;
    }
  }
  if (st.else_body != nullptr) {
    const auto& body = static_cast<const StatementBlockAst&>(*st.else_body);
    exec_statement_list(body.statements, src, out);
  }
}

void Interpreter::exec_while(const WhileStatementAst& st, std::string_view src,
                             std::vector<Value>& out) {
  const auto& body = static_cast<const StatementBlockAst&>(*st.body);
  while (true) {
    charge_step();
    std::vector<Value> cond_out;
    exec_statement(*st.condition, src, cond_out);
    if (!Value::from_stream(std::move(cond_out)).to_bool()) break;
    try {
      exec_statement_list(body.statements, src, out);
    } catch (const BreakSignal&) {
      break;
    } catch (const ContinueSignal&) {
    }
  }
}

void Interpreter::exec_do(const DoWhileStatementAst& st, std::string_view src,
                          std::vector<Value>& out) {
  const auto& body = static_cast<const StatementBlockAst&>(*st.body);
  while (true) {
    charge_step();
    try {
      exec_statement_list(body.statements, src, out);
    } catch (const BreakSignal&) {
      break;
    } catch (const ContinueSignal&) {
    }
    std::vector<Value> cond_out;
    exec_statement(*st.condition, src, cond_out);
    const bool cond = Value::from_stream(std::move(cond_out)).to_bool();
    if (st.is_until ? cond : !cond) break;
  }
}

void Interpreter::exec_for(const ForStatementAst& st, std::string_view src,
                           std::vector<Value>& out) {
  if (st.initializer != nullptr) {
    std::vector<Value> tmp;
    exec_statement(*st.initializer, src, tmp);
  }
  const auto& body = static_cast<const StatementBlockAst&>(*st.body);
  while (true) {
    charge_step();
    if (st.condition != nullptr) {
      std::vector<Value> cond_out;
      exec_statement(*st.condition, src, cond_out);
      if (!Value::from_stream(std::move(cond_out)).to_bool()) break;
    }
    try {
      exec_statement_list(body.statements, src, out);
    } catch (const BreakSignal&) {
      break;
    } catch (const ContinueSignal&) {
    }
    if (st.iterator != nullptr) {
      std::vector<Value> tmp;
      exec_statement(*st.iterator, src, tmp);
    }
  }
}

void Interpreter::exec_foreach(const ForEachStatementAst& st, std::string_view src,
                               std::vector<Value>& out) {
  std::vector<Value> items_out;
  exec_statement(*st.enumerable, src, items_out);
  const Value items = Value::from_stream(std::move(items_out));
  const auto& var = static_cast<const VariableExpressionAst&>(*st.variable);
  const auto& body = static_cast<const StatementBlockAst&>(*st.body);
  std::vector<Value> list = flatten_stream(items);
  if (list.empty() && !items.is_null() && !items.is_array()) list.push_back(items);
  for (const Value& item : list) {
    charge_step();
    assign_variable(to_lower(var.name), item);
    try {
      exec_statement_list(body.statements, src, out);
    } catch (const BreakSignal&) {
      break;
    } catch (const ContinueSignal&) {
    }
  }
}

void Interpreter::exec_switch(const SwitchStatementAst& st, std::string_view src,
                              std::vector<Value>& out) {
  std::vector<Value> cond_out;
  exec_statement(*st.condition, src, cond_out);
  const Value subject = Value::from_stream(std::move(cond_out));
  bool matched = false;
  for (const auto& clause : st.clauses) {
    if (clause.pattern == nullptr) continue;  // default handled after
    const Value pattern = eval_expr(*clause.pattern, src);
    const bool hit =
        iequals(pattern.to_display_string(), subject.to_display_string());
    if (hit) {
      matched = true;
      const auto& body = static_cast<const StatementBlockAst&>(*clause.body);
      try {
        exec_statement_list(body.statements, src, out);
      } catch (const BreakSignal&) {
        return;
      }
    }
  }
  if (!matched) {
    for (const auto& clause : st.clauses) {
      if (clause.pattern != nullptr) continue;
      const auto& body = static_cast<const StatementBlockAst&>(*clause.body);
      try {
        exec_statement_list(body.statements, src, out);
      } catch (const BreakSignal&) {
        return;
      }
    }
  }
}

void Interpreter::exec_try(const TryStatementAst& st, std::string_view src,
                           std::vector<Value>& out) {
  try {
    const auto& body = static_cast<const StatementBlockAst&>(*st.body);
    exec_statement_list(body.statements, src, out);
  } catch (const EvalError&) {
    if (!st.catch_bodies.empty()) {
      const auto& body =
          static_cast<const StatementBlockAst&>(*st.catch_bodies.front());
      exec_statement_list(body.statements, src, out);
    }
  }
  if (st.finally_body != nullptr) {
    const auto& body = static_cast<const StatementBlockAst&>(*st.finally_body);
    exec_statement_list(body.statements, src, out);
  }
}

// --------------------------------------------------------------- pipelines

Value Interpreter::eval_pipeline(const PipelineAst& pipe, std::string_view src,
                                 std::vector<Value>& out) {
  std::vector<Value> stream;
  for (std::size_t i = 0; i < pipe.elements.size(); ++i) {
    const Ast& el = *pipe.elements[i];
    charge_step();
    if (el.kind() == NodeKind::CommandExpression) {
      const auto& ce = static_cast<const CommandExpressionAst&>(el);
      // `$i++` / `$i--` in statement position is void in PowerShell —
      // but `$j = $i++` (the pipeline is an assignment's RHS) is not.
      bool void_incdec = false;
      const Ast* pparent = pipe.parent();
      const bool statement_position =
          pparent == nullptr || pparent->kind() == NodeKind::NamedBlock ||
          pparent->kind() == NodeKind::StatementBlock;
      if (statement_position && pipe.elements.size() == 1 &&
          ce.expression->kind() == NodeKind::UnaryExpression) {
        const auto& un = static_cast<const UnaryExpressionAst&>(*ce.expression);
        void_incdec = un.op.rfind("++", 0) == 0 || un.op.rfind("--", 0) == 0;
      }
      Value v = eval_expr(*ce.expression, src);
      if (void_incdec) {
        stream.clear();
      } else if (pipe.elements.size() == 1) {
        // A lone expression keeps its value shape (`(,(1,2))` stays a
        // one-element array); empty arrays emit nothing, as in PowerShell.
        stream.clear();
        if (v.is_array() && v.get_array().empty()) {
          // nothing
        } else if (!v.is_null()) {
          stream.push_back(std::move(v));
        }
      } else {
        // A pipeline stage enumerates arrays into the stream.
        stream = flatten_stream(v);
      }
    } else if (el.kind() == NodeKind::Command) {
      std::vector<Value> next;
      exec_command(static_cast<const CommandAst&>(el), src, std::move(stream), next);
      stream = std::move(next);
    } else {
      throw EvalError("unexpected pipeline element");
    }
  }
  for (Value& v : stream) out.push_back(std::move(v));
  return Value();
}

// ------------------------------------------------------------- expressions

Value Interpreter::eval_expr(const Ast& node, std::string_view src) {
  charge_step();
  if (const Value* bound = override_of(node)) return *bound;
  switch (node.kind()) {
    case NodeKind::ConstantExpression:
      return static_cast<const ConstantExpressionAst&>(node).value;
    case NodeKind::StringConstantExpression:
      return Value(static_cast<const StringConstantExpressionAst&>(node).value);
    case NodeKind::ExpandableStringExpression:
      return expand_string(
          static_cast<const ExpandableStringExpressionAst&>(node).raw, src);
    case NodeKind::VariableExpression:
      return eval_variable(static_cast<const VariableExpressionAst&>(node));
    case NodeKind::BinaryExpression:
      return eval_binary(static_cast<const BinaryExpressionAst&>(node), src);
    case NodeKind::UnaryExpression:
      return eval_unary(static_cast<const UnaryExpressionAst&>(node), src);
    case NodeKind::ConvertExpression:
      return eval_convert(static_cast<const ConvertExpressionAst&>(node), src);
    case NodeKind::TypeExpression:
      return Value(std::string("[") +
                   static_cast<const TypeExpressionAst&>(node).type_name + "]");
    case NodeKind::IndexExpression:
      return eval_index(static_cast<const IndexExpressionAst&>(node), src);
    case NodeKind::MemberExpression:
      return eval_member(static_cast<const MemberExpressionAst&>(node), src);
    case NodeKind::InvokeMemberExpression:
      return eval_invoke_member(static_cast<const InvokeMemberExpressionAst&>(node),
                                src);
    case NodeKind::ArrayLiteral: {
      const auto& arr = static_cast<const ArrayLiteralAst&>(node);
      Array out;
      out.reserve(arr.elements.size());
      for (const auto& el : arr.elements) out.push_back(eval_expr(*el, src));
      return Value(std::move(out));
    }
    case NodeKind::ArrayExpression: {
      const auto& ae = static_cast<const ArrayExpressionAst&>(node);
      std::vector<Value> items;
      exec_statement_list(ae.statements, src, items);
      Array out;
      for (Value& v : items) {
        for (Value& f : flatten_stream(v)) out.push_back(std::move(f));
        if (!v.is_array() && v.is_null()) continue;
      }
      return Value(std::move(out));
    }
    case NodeKind::HashtableExpression: {
      const auto& he = static_cast<const HashtableExpressionAst&>(node);
      Hashtable ht;
      for (const auto& entry : he.entries) {
        Value key = eval_expr(*entry.key, src);
        std::vector<Value> tmp;
        exec_statement(*entry.value, src, tmp);
        ht.entries.emplace_back(std::move(key), Value::from_stream(std::move(tmp)));
      }
      return Value(std::move(ht));
    }
    case NodeKind::ParenExpression: {
      const auto& pe = static_cast<const ParenExpressionAst&>(node);
      std::vector<Value> tmp;
      exec_statement(*pe.pipeline, src, tmp);
      return Value::from_stream(std::move(tmp));
    }
    case NodeKind::SubExpression: {
      const auto& se = static_cast<const SubExpressionAst&>(node);
      std::vector<Value> tmp;
      exec_statement_list(se.statements, src, tmp);
      return Value::from_stream(std::move(tmp));
    }
    case NodeKind::ScriptBlockExpression: {
      const auto& sbe = static_cast<const ScriptBlockExpressionAst&>(node);
      const Ast& body = *sbe.script_block;
      std::string text(src.substr(body.start(), body.end() - body.start()));
      return Value(ScriptBlock{std::move(text)});
    }
    case NodeKind::Pipeline: {
      std::vector<Value> tmp;
      eval_pipeline(static_cast<const PipelineAst&>(node), src, tmp);
      return Value::from_stream(std::move(tmp));
    }
    case NodeKind::AssignmentStatement: {
      std::vector<Value> tmp;
      exec_assignment(static_cast<const AssignmentStatementAst&>(node), src, tmp);
      return Value();
    }
    default:
      throw EvalError(std::string("cannot evaluate node ") +
                      std::string(to_string(node.kind())));
  }
}

// The binary operator core works on values so compound assignment reuses it.
Value Interpreter::eval_binary_values(const Value& lhs, const std::string& op,
                                      const Value& rhs) {
  charge_step();
  // --- arithmetic ---
  if (op == "+") {
    if (lhs.is_string()) {
      std::string out = lhs.get_string() + rhs.to_display_string();
      charge_bytes(out.size(), /*enforce_max_string=*/true);
      return Value(std::move(out));
    }
    if (lhs.is_char()) {
      if (rhs.is_string() || rhs.is_char()) {
        return Value(utf8_encode(lhs.get_char().code) + rhs.to_display_string());
      }
      return Value(static_cast<std::int64_t>(lhs.get_char().code) +
                   need_int(rhs, "+"));
    }
    if (lhs.is_array()) {
      Array out = lhs.get_array();
      if (rhs.is_array()) {
        for (const Value& v : rhs.get_array()) out.push_back(v);
      } else {
        out.push_back(rhs);
      }
      return Value(std::move(out));
    }
    if (lhs.is_bytes()) {
      Bytes out = lhs.get_bytes();
      if (rhs.is_bytes()) {
        const Bytes& r = rhs.get_bytes();
        out.insert(out.end(), r.begin(), r.end());
      } else {
        out.push_back(static_cast<std::uint8_t>(need_int(rhs, "+")));
      }
      return Value(std::move(out));
    }
    if (lhs.is_hashtable() && rhs.is_hashtable()) {
      Hashtable out = lhs.get_hashtable();
      for (const auto& [k, v] : rhs.get_hashtable().entries) {
        out.entries.emplace_back(k, v);
      }
      return Value(std::move(out));
    }
    if (lhs.is_int() || lhs.is_bool() || lhs.is_null()) {
      if (rhs.is_double()) {
        double l = 0;
        lhs.try_to_double(l);
        return Value(l + rhs.get_double());
      }
      return Value(need_int(lhs, "+") + need_int(rhs, "+"));
    }
    if (lhs.is_double()) {
      double r = 0;
      if (!rhs.try_to_double(r)) throw EvalError("cannot add");
      return Value(lhs.get_double() + r);
    }
    throw EvalError("cannot apply + to " + lhs.type_name());
  }
  if (op == "*") {
    if (lhs.is_string()) {
      const std::int64_t n = need_int(rhs, "*");
      if (n < 0) throw EvalError("negative string repeat");
      std::string out;
      charge_bytes(lhs.get_string().size() * static_cast<std::size_t>(n),
                   /*enforce_max_string=*/true);
      for (std::int64_t i = 0; i < n; ++i) out += lhs.get_string();
      return Value(std::move(out));
    }
    if (lhs.is_array()) {
      const std::int64_t n = need_int(rhs, "*");
      Array out;
      for (std::int64_t i = 0; i < n; ++i) {
        for (const Value& v : lhs.get_array()) out.push_back(v);
      }
      return Value(std::move(out));
    }
    if (lhs.is_double() || rhs.is_double()) {
      double l = 0, r = 0;
      if (!lhs.try_to_double(l) || !rhs.try_to_double(r)) throw EvalError("cannot multiply");
      return Value(l * r);
    }
    return Value(need_int(lhs, "*") * need_int(rhs, "*"));
  }
  if (op == "-") {
    if (lhs.is_double() || rhs.is_double()) {
      double l = 0, r = 0;
      if (!lhs.try_to_double(l) || !rhs.try_to_double(r)) throw EvalError("cannot subtract");
      return Value(l - r);
    }
    return Value(need_int(lhs, "-") - need_int(rhs, "-"));
  }
  if (op == "/") {
    double l = 0, r = 0;
    if (!lhs.try_to_double(l) || !rhs.try_to_double(r)) throw EvalError("cannot divide");
    if (r == 0) throw EvalError("division by zero");
    const double q = l / r;
    if (lhs.is_int() && rhs.is_int() && q == std::floor(q)) {
      return Value(static_cast<std::int64_t>(q));
    }
    return Value(q);
  }
  if (op == "%") {
    const std::int64_t r = need_int(rhs, "%");
    if (r == 0) throw EvalError("modulo by zero");
    return Value(need_int(lhs, "%") % r);
  }

  // --- range ---
  if (op == "..") {
    const std::int64_t lo = need_int(lhs, "range");
    const std::int64_t hi = need_int(rhs, "range");
    // The span in unsigned arithmetic: `hi - lo` overflows for bounds
    // far apart.
    const auto ulo = static_cast<std::uint64_t>(lo);
    const auto uhi = static_cast<std::uint64_t>(hi);
    const std::uint64_t span = lo <= hi ? uhi - ulo : ulo - uhi;
    if (span >= 1000000) {
      throw LimitError("range too large", FailureKind::MemoryBudget);
    }
    const auto n = static_cast<std::int64_t>(span) + 1;
    charge_bytes(static_cast<std::size_t>(n) * sizeof(Value));
    Array out;
    out.reserve(static_cast<std::size_t>(n));
    if (lo <= hi) {
      for (std::int64_t i = lo; i <= hi; ++i) out.push_back(Value(i));
    } else {
      for (std::int64_t i = lo; i >= hi; --i) out.push_back(Value(i));
    }
    return Value(std::move(out));
  }

  // --- format ---
  if (op == "-f") {
    std::vector<Value> args;
    if (rhs.is_array()) {
      args = rhs.get_array();
    } else {
      args.push_back(rhs);
    }
    return Value(format_operator(lhs.to_display_string(), args));
  }

  // --- join / split / replace / match / like ---
  if (op == "-join" || op == "-cjoin" || op == "-ijoin") {
    const std::string sep = rhs.to_display_string();
    std::string out;
    const std::vector<Value> items = lhs.is_array()
                                         ? lhs.get_array()
                                         : std::vector<Value>{lhs};
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out += sep;
      out += items[i].to_display_string();
    }
    return Value(std::move(out));
  }
  if (op == "-split" || op == "-csplit" || op == "-isplit") {
    const std::string pattern = rhs.to_display_string();
    Array out;
    try {
      const Pattern re(pattern, op != "-csplit");
      // An array left operand splits each element and flattens the results.
      for (const Value& item : lhs.is_array() ? lhs.get_array() : Array{lhs}) {
        for (std::string& field : re.split(item.to_display_string())) {
          out.push_back(Value(std::move(field)));
        }
      }
    } catch (const PatternError&) {
      throw EvalError("bad split pattern: " + pattern);
    }
    return Value(std::move(out));
  }
  if (op == "-replace" || op == "-creplace" || op == "-ireplace") {
    std::string pattern;
    std::string replacement;
    if (rhs.is_array() && rhs.get_array().size() >= 2) {
      pattern = rhs.get_array()[0].to_display_string();
      replacement = rhs.get_array()[1].to_display_string();
    } else if (rhs.is_array() && rhs.get_array().size() == 1) {
      pattern = rhs.get_array()[0].to_display_string();
    } else {
      pattern = rhs.to_display_string();
    }
    auto apply = [&](const std::string& text) -> std::string {
      try {
        return Pattern(pattern, op != "-creplace").replace(text, replacement);
      } catch (const PatternError&) {
        throw EvalError("bad replace pattern: " + pattern);
      }
    };
    if (lhs.is_array()) {
      Array out;
      for (const Value& v : lhs.get_array()) out.push_back(Value(apply(v.to_display_string())));
      return Value(std::move(out));
    }
    return Value(apply(lhs.to_display_string()));
  }
  if (op == "-match" || op == "-notmatch" || op == "-cmatch" || op == "-imatch") {
    const bool negate = op == "-notmatch";
    const std::string pattern = rhs.to_display_string();
    auto match_one = [&](const std::string& text, std::vector<std::string>* groups) {
      try {
        const Pattern re(pattern, op != "-cmatch");
        if (groups != nullptr) return re.search(text, *groups);
        return re.search(text);
      } catch (const PatternError&) {
        throw EvalError("bad match pattern: " + pattern);
      }
    };
    if (lhs.is_array()) {
      Array out;
      for (const Value& v : lhs.get_array()) {
        if (match_one(v.to_display_string(), nullptr) != negate) out.push_back(v);
      }
      return Value(std::move(out));
    }
    const std::string text = lhs.to_display_string();
    std::vector<std::string> groups;
    const bool hit = match_one(text, &groups);
    if (hit && !negate) {
      // A successful scalar -match populates $matches with the groups.
      Hashtable ht;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        ht.entries.emplace_back(Value(static_cast<std::int64_t>(g)),
                                Value(std::move(groups[g])));
      }
      assign_variable("matches", Value(std::move(ht)));
    }
    return Value(hit != negate);
  }
  if (op == "-like" || op == "-notlike" || op == "-clike" || op == "-ilike") {
    const bool negate = op == "-notlike";
    const std::string pattern = rhs.to_display_string();
    if (lhs.is_array()) {
      Array out;
      for (const Value& v : lhs.get_array()) {
        if (wildcard_match(pattern, v.to_display_string()) != negate) out.push_back(v);
      }
      return Value(std::move(out));
    }
    return Value(wildcard_match(pattern, lhs.to_display_string()) != negate);
  }

  // --- comparison ---
  auto scalar_compare = [&](const Value& l, const Value& r) -> int {
    if (l.is_number() || l.is_char() || l.is_bool()) {
      double ld = 0, rd = 0;
      if (l.try_to_double(ld) && r.try_to_double(rd)) {
        if (ld < rd) return -1;
        if (ld > rd) return 1;
        return 0;
      }
    }
    const std::string ls = to_lower(l.to_display_string());
    const std::string rs = to_lower(r.to_display_string());
    if (ls < rs) return -1;
    if (ls > rs) return 1;
    return 0;
  };
  auto case_compare = [&](const Value& l, const Value& r) -> int {
    const std::string ls = l.to_display_string();
    const std::string rs = r.to_display_string();
    if (ls < rs) return -1;
    if (ls > rs) return 1;
    return 0;
  };

  const bool is_eq = op == "-eq" || op == "-ieq";
  const bool is_ceq = op == "-ceq";
  const bool is_ne = op == "-ne" || op == "-ine";
  const bool is_cne = op == "-cne";
  if (is_eq || is_ne || is_ceq || is_cne) {
    auto test = [&](const Value& l) {
      const int c = (is_ceq || is_cne) ? case_compare(l, rhs) : scalar_compare(l, rhs);
      const bool eq = c == 0;
      return (is_eq || is_ceq) ? eq : !eq;
    };
    if (lhs.is_array()) {
      Array out;
      for (const Value& v : lhs.get_array()) {
        if (test(v)) out.push_back(v);
      }
      return Value(std::move(out));
    }
    return Value(test(lhs));
  }
  if (op == "-gt" || op == "-lt" || op == "-ge" || op == "-le") {
    const int c = scalar_compare(lhs, rhs);
    if (op == "-gt") return Value(c > 0);
    if (op == "-lt") return Value(c < 0);
    if (op == "-ge") return Value(c >= 0);
    return Value(c <= 0);
  }
  if (op == "-contains" || op == "-notcontains") {
    const bool negate = op == "-notcontains";
    bool found = false;
    for (const Value& v : lhs.is_array() ? lhs.get_array() : Array{lhs}) {
      if (scalar_compare(v, rhs) == 0) {
        found = true;
        break;
      }
    }
    return Value(found != negate);
  }
  if (op == "-in" || op == "-notin") {
    const bool negate = op == "-notin";
    bool found = false;
    for (const Value& v : rhs.is_array() ? rhs.get_array() : Array{rhs}) {
      if (scalar_compare(lhs, v) == 0) {
        found = true;
        break;
      }
    }
    return Value(found != negate);
  }

  // --- bitwise ---
  if (op == "-band") return Value(need_int(lhs, op) & need_int(rhs, op));
  if (op == "-bor") return Value(need_int(lhs, op) | need_int(rhs, op));
  if (op == "-bxor") return Value(need_int(lhs, op) ^ need_int(rhs, op));
  if (op == "-shl") return Value(need_int(lhs, op) << (need_int(rhs, op) & 63));
  if (op == "-shr") return Value(need_int(lhs, op) >> (need_int(rhs, op) & 63));

  // --- logical ---
  if (op == "-and") return Value(lhs.to_bool() && rhs.to_bool());
  if (op == "-or") return Value(lhs.to_bool() || rhs.to_bool());
  if (op == "-xor") return Value(lhs.to_bool() != rhs.to_bool());

  // --- type tests ---
  if (op == "-is" || op == "-isnot") {
    std::string want = to_lower(rhs.to_display_string());
    if (!want.empty() && want.front() == '[') want = want.substr(1, want.size() - 2);
    if (want.rfind("system.", 0) == 0) want = want.substr(7);
    const std::string tn = to_lower(lhs.type_name());
    bool is = false;
    if (want == "string") is = lhs.is_string();
    else if (want == "int" || want == "int32" || want == "int64" || want == "long")
      is = lhs.is_int();
    else if (want == "double" || want == "float") is = lhs.is_double();
    else if (want == "char") is = lhs.is_char();
    else if (want == "bool" || want == "boolean") is = lhs.is_bool();
    else if (want == "array" || want == "object[]") is = lhs.is_array();
    else if (want == "hashtable") is = lhs.is_hashtable();
    else if (want == "scriptblock") is = lhs.is_scriptblock();
    else is = to_lower(tn) == want;
    return Value(op == "-is" ? is : !is);
  }
  if (op == "-as") {
    std::string want = to_lower(rhs.to_display_string());
    if (!want.empty() && want.front() == '[') want = want.substr(1, want.size() - 2);
    try {
      return cast_value(want, lhs);
    } catch (const EvalError&) {
      return Value();
    }
  }

  throw EvalError("unsupported binary operator " + op);
}

Value Interpreter::eval_binary(const BinaryExpressionAst& bin, std::string_view src) {
  // Short-circuit logical operators.
  if (bin.op == "-and") {
    const Value l = eval_expr(*bin.left, src);
    if (!l.to_bool()) return Value(false);
    return Value(eval_expr(*bin.right, src).to_bool());
  }
  if (bin.op == "-or") {
    const Value l = eval_expr(*bin.left, src);
    if (l.to_bool()) return Value(true);
    return Value(eval_expr(*bin.right, src).to_bool());
  }
  const Value lhs = eval_expr(*bin.left, src);
  const Value rhs = eval_expr(*bin.right, src);
  return eval_binary_values(lhs, bin.op, rhs);
}

Value Interpreter::eval_unary(const UnaryExpressionAst& un, std::string_view src) {
  const std::string& op = un.op;
  if (op == "++" || op == "--" || op == "++_post" || op == "--_post") {
    if (un.child->kind() != NodeKind::VariableExpression) {
      throw EvalError("++/-- needs a variable");
    }
    const auto& var = static_cast<const VariableExpressionAst&>(*un.child);
    Value current = eval_variable(var);
    const std::int64_t old = current.is_null() ? 0 : need_int(current, op);
    const std::int64_t next = op[0] == '+' ? old + 1 : old - 1;
    assign_variable(to_lower(var.name), Value(next));
    const bool post = op.size() > 2;
    return Value(post ? old : next);
  }
  const Value v = eval_expr(*un.child, src);
  return eval_unary_value(op, v);
}

Value Interpreter::eval_unary_value(const std::string& op, const Value& v) {
  if (op == "-") {
    if (v.is_double()) return Value(-v.get_double());
    return Value(-need_int(v, "-"));
  }
  if (op == "+") {
    if (v.is_double()) return v;
    return Value(need_int(v, "+"));
  }
  if (op == "!" || op == "-not") return Value(!v.to_bool());
  if (op == "-bnot") return Value(~need_int(v, op));
  if (op == "-join") {
    std::string out;
    for (const Value& item : v.is_array() ? v.get_array() : Array{v}) {
      out += item.to_display_string();
    }
    return Value(std::move(out));
  }
  if (op == "-split") {
    const std::string text = v.to_display_string();
    Array out;
    std::string word;
    for (char c : text) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        if (!word.empty()) {
          out.push_back(Value(word));
          word.clear();
        }
      } else {
        word.push_back(c);
      }
    }
    if (!word.empty()) out.push_back(Value(word));
    return Value(std::move(out));
  }
  if (op == ",") {
    Array out;
    out.push_back(v);
    return Value(std::move(out));
  }
  throw EvalError("unsupported unary operator " + op);
}

Value Interpreter::eval_convert(const ConvertExpressionAst& conv,
                                std::string_view src) {
  const Value v = eval_expr(*conv.child, src);
  return cast_value(to_lower(conv.type_name), v);
}

Value Interpreter::eval_index(const IndexExpressionAst& idx, std::string_view src) {
  const Value target = eval_expr(*idx.target, src);
  const Value index = eval_expr(*idx.index, src);
  return eval_index_values(target, index);
}

Value Interpreter::eval_index_values(const Value& target, const Value& index) {
  auto pick_one = [&](const Value& container, std::int64_t i) -> Value {
    if (container.is_string()) {
      const auto cps = utf8_codepoints(container.get_string());
      if (i < 0) i += static_cast<std::int64_t>(cps.size());
      if (i < 0 || i >= static_cast<std::int64_t>(cps.size())) return Value();
      return Value(PsChar{cps[static_cast<std::size_t>(i)]});
    }
    if (container.is_array()) {
      const auto& arr = container.get_array();
      if (i < 0) i += static_cast<std::int64_t>(arr.size());
      if (i < 0 || i >= static_cast<std::int64_t>(arr.size())) return Value();
      return arr[static_cast<std::size_t>(i)];
    }
    if (container.is_bytes()) {
      const auto& b = container.get_bytes();
      if (i < 0) i += static_cast<std::int64_t>(b.size());
      if (i < 0 || i >= static_cast<std::int64_t>(b.size())) return Value();
      return Value(static_cast<std::int64_t>(b[static_cast<std::size_t>(i)]));
    }
    if (i == 0 || i == -1) return container;  // scalar[0] is the scalar
    return Value();
  };

  if (target.is_hashtable()) {
    const Value* found = target.get_hashtable().find(index.to_display_string());
    return found != nullptr ? *found : Value();
  }
  if (index.is_array()) {
    Array out;
    for (const Value& iv : index.get_array()) {
      std::int64_t i = need_int(iv, "index");
      out.push_back(pick_one(target, i));
    }
    return Value(std::move(out));
  }
  return pick_one(target, need_int(index, "index"));
}

// --------------------------------------------------------- interpolation

Value Interpreter::expand_string(const std::string& raw, std::string_view src) {
  (void)src;
  std::string out;
  std::size_t i = 0;
  while (i < raw.size()) {
    const char c = raw[i];
    if (c == '`' && i + 1 < raw.size()) {
      const char n = raw[i + 1];
      switch (n) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case '0': out.push_back('\0'); break;
        case 'a': out.push_back('\a'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'v': out.push_back('\v'); break;
        case 'e': out.push_back('\x1b'); break;
        default: out.push_back(n); break;
      }
      i += 2;
      continue;
    }
    if (c == '$' && i + 1 < raw.size()) {
      const char n = raw[i + 1];
      if (n == '(') {
        // Find the matching close paren, respecting nesting and quotes.
        int depth = 0;
        std::size_t j = i + 1;
        char quote = 0;
        for (; j < raw.size(); ++j) {
          const char ch = raw[j];
          if (quote != 0) {
            if (ch == quote) quote = 0;
            continue;
          }
          if (ch == '\'' || ch == '"') quote = ch;
          else if (ch == '(') depth++;
          else if (ch == ')') {
            depth--;
            if (depth == 0) break;
          }
        }
        if (j >= raw.size()) {
          out.push_back(c);
          ++i;
          continue;
        }
        const std::string inner = raw.substr(i + 2, j - (i + 2));
        out += evaluate_script(inner).to_display_string();
        i = j + 1;
        continue;
      }
      if (n == '{') {
        const std::size_t close = raw.find('}', i + 2);
        if (close != std::string::npos) {
          const std::string name = raw.substr(i + 2, close - (i + 2));
          VariableExpressionAst fake(0, 0, name);
          out += eval_variable(fake).to_display_string();
          i = close + 1;
          continue;
        }
      }
      if (std::isalpha(static_cast<unsigned char>(n)) || n == '_') {
        std::size_t j = i + 1;
        std::string name;
        while (j < raw.size() &&
               (std::isalnum(static_cast<unsigned char>(raw[j])) || raw[j] == '_')) {
          name.push_back(raw[j]);
          ++j;
        }
        // Scope/env qualifier.
        if (j < raw.size() && raw[j] == ':' && j + 1 < raw.size() &&
            (std::isalnum(static_cast<unsigned char>(raw[j + 1])) || raw[j + 1] == '_')) {
          const std::string lower = to_lower(name);
          if (lower == "env" || lower == "global" || lower == "script" ||
              lower == "local" || lower == "variable") {
            name.push_back(':');
            ++j;
            while (j < raw.size() && (std::isalnum(static_cast<unsigned char>(raw[j])) ||
                                      raw[j] == '_')) {
              name.push_back(raw[j]);
              ++j;
            }
          }
        }
        VariableExpressionAst fake(0, 0, name);
        out += eval_variable(fake).to_display_string();
        i = j;
        continue;
      }
      if (n == '_') { /* handled above */ }
    }
    out.push_back(c);
    ++i;
  }
  return Value(std::move(out));
}

// ------------------------------------------------------------------- casts

Value Interpreter::cast_value(const std::string& type_name, const Value& v) {
  std::string t = to_lower(type_name);
  if (t.rfind("system.", 0) == 0) t = t.substr(7);

  if (t == "char") {
    if (v.is_char()) return v;
    if (v.is_string()) {
      const auto cps = utf8_codepoints(v.get_string());
      if (cps.size() == 1) return Value(PsChar{cps[0]});
      // A numeric string like '0x4B' converts through int.
      std::int64_t i = 0;
      if (v.try_to_int(i)) return Value(PsChar{static_cast<std::uint32_t>(i)});
      throw EvalError("cannot cast string to char");
    }
    return Value(PsChar{static_cast<std::uint32_t>(need_int(v, "char cast"))});
  }
  if (t == "char[]") {
    Array out;
    for (std::uint32_t cp : utf8_codepoints(v.to_display_string())) {
      out.push_back(Value(PsChar{cp}));
    }
    return Value(std::move(out));
  }
  if (t == "int" || t == "int32" || t == "int64" || t == "long" || t == "int16" ||
      t == "uint32" || t == "uint64" || t == "short") {
    if (v.is_double()) return Value(static_cast<std::int64_t>(std::llround(v.get_double())));
    return Value(need_int(v, "int cast"));
  }
  if (t == "byte") {
    const std::int64_t i = need_int(v, "byte cast");
    if (i < 0 || i > 255) throw EvalError("byte out of range");
    return Value(i);
  }
  if (t == "double" || t == "float" || t == "single" || t == "decimal") {
    double d = 0;
    if (!v.try_to_double(d)) throw EvalError("cannot cast to double");
    return Value(d);
  }
  if (t == "string") return Value(v.to_display_string());
  if (t == "string[]") {
    Array out;
    for (const Value& item : v.is_array() ? v.get_array() : Array{v}) {
      out.push_back(Value(item.to_display_string()));
    }
    return Value(std::move(out));
  }
  if (t == "bool" || t == "boolean") return Value(v.to_bool());
  if (t == "byte[]") {
    if (v.is_bytes()) return v;
    Bytes out;
    for (const Value& item : v.is_array() ? v.get_array() : Array{v}) {
      const std::int64_t b = need_int(item, "byte[] cast");
      out.push_back(static_cast<std::uint8_t>(b & 0xFF));
    }
    return Value(std::move(out));
  }
  if (t == "array" || t == "object[]") {
    if (v.is_array()) return v;
    Array out;
    if (!v.is_null()) out.push_back(v);
    return Value(std::move(out));
  }
  if (t == "void") return Value();
  if (t == "regex" || t == "text.regularexpressions.regex") {
    return Value(v.to_display_string());
  }
  if (t == "scriptblock") return Value(ScriptBlock{v.to_display_string()});
  if (t == "io.memorystream") {
    if (v.is_bytes()) {
      return Value(std::shared_ptr<PsObject>(
          std::make_shared<MemoryStreamObject>(v.get_bytes())));
    }
    if (v.is_object()) return v;
    throw EvalError("cannot cast to MemoryStream");
  }
  if (t == "object" || t == "psobject") return v;
  if (t == "type") return Value("[" + type_name + "]");
  if (t == "securestring") {
    if (v.is_object()) return v;
    throw EvalError("cannot cast to SecureString");
  }
  throw EvalError("unsupported cast to [" + type_name + "]");
}

// ------------------------------------------------------------ scriptblocks

void Interpreter::invoke_scriptblock(const ScriptBlock& sb,
                                     const std::vector<Value>& input, bool per_item,
                                     std::vector<Value>& out) {
  if (depth_ >= opts_.max_depth) throw LimitError("invoke depth exceeded", FailureKind::DepthLimit);
  const ParsedScript root = parse_shared(sb.text);
  ++depth_;
  scopes_.emplace_back();
  struct Pop {
    Interpreter* self;
    ~Pop() {
      self->scopes_.pop_back();
      --self->depth_;
    }
  } pop{this};

  auto run_once = [&]() {
    try {
      for (const auto& block : root->named_blocks) {
        exec_statement_list(block->statements, sb.text, out);
      }
    } catch (const ReturnSignal& r) {
      if (!r.value.is_null()) out.push_back(r.value);
    }
  };

  if (per_item) {
    for (const Value& item : input) {
      charge_step();
      scopes_.back().vars["_"] = item;
      run_once();
    }
  } else {
    if (!input.empty()) {
      scopes_.back().vars["_"] = input.back();
      scopes_.back().vars["input"] = Value(Array(input.begin(), input.end()));
    }
    run_once();
  }
}

Value Interpreter::invoke_scriptblock_value(const ScriptBlock& sb) {
  std::vector<Value> out;
  invoke_scriptblock(sb, {}, /*per_item=*/false, out);
  return Value::from_stream(std::move(out));
}

Value Interpreter::call_function(const FunctionInfo& fn,
                                 const std::vector<Value>& args) {
  if (depth_ >= opts_.max_depth) throw LimitError("invoke depth exceeded", FailureKind::DepthLimit);
  const ParsedScript root = parse_shared(fn.body_text);
  ++depth_;
  scopes_.emplace_back();
  struct Pop {
    Interpreter* self;
    ~Pop() {
      self->scopes_.pop_back();
      --self->depth_;
    }
  } pop{this};

  for (std::size_t i = 0; i < fn.parameter_names.size(); ++i) {
    scopes_.back().vars[fn.parameter_names[i]] =
        i < args.size() ? args[i] : Value();
  }
  scopes_.back().vars["args"] = Value(Array(args.begin(), args.end()));

  std::vector<Value> out;
  try {
    for (const auto& block : root->named_blocks) {
      exec_statement_list(block->statements, fn.body_text, out);
    }
  } catch (const ReturnSignal& r) {
    if (!r.value.is_null()) out.push_back(r.value);
  }
  return Value::from_stream(std::move(out));
}

// --------------------------------------------------------------- utilities

bool wildcard_match(std::string_view pattern, std::string_view text) {
  // Iterative glob with '*' backtracking; case-insensitive; supports ?,
  // * and [a-z] classes.
  std::size_t p = 0, t = 0;
  std::size_t star_p = std::string_view::npos, star_t = 0;
  auto lower = [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  };
  while (t < text.size()) {
    bool matched = false;
    if (p < pattern.size()) {
      const char pc = pattern[p];
      if (pc == '*') {
        star_p = p++;
        star_t = t;
        continue;
      }
      if (pc == '?') {
        ++p;
        ++t;
        continue;
      }
      if (pc == '[') {
        const std::size_t close = pattern.find(']', p + 1);
        if (close != std::string_view::npos) {
          bool in_class = false;
          std::size_t k = p + 1;
          while (k < close) {
            if (k + 2 < close + 1 && pattern[k + 1] == '-' && k + 2 < close) {
              if (lower(text[t]) >= lower(pattern[k]) &&
                  lower(text[t]) <= lower(pattern[k + 2])) {
                in_class = true;
              }
              k += 3;
            } else {
              if (lower(pattern[k]) == lower(text[t])) in_class = true;
              ++k;
            }
          }
          if (in_class) {
            p = close + 1;
            ++t;
            continue;
          }
        } else if (lower(pc) == lower(text[t])) {
          ++p;
          ++t;
          continue;
        }
      } else if (lower(pc) == lower(text[t])) {
        ++p;
        ++t;
        continue;
      }
      matched = false;
    }
    if (!matched) {
      if (star_p != std::string_view::npos) {
        p = star_p + 1;
        t = ++star_t;
        continue;
      }
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string format_operator(const std::string& fmt, const std::vector<Value>& args) {
  std::string out;
  std::size_t i = 0;
  while (i < fmt.size()) {
    const char c = fmt[i];
    if (c == '{' && i + 1 < fmt.size() && fmt[i + 1] == '{') {
      out.push_back('{');
      i += 2;
      continue;
    }
    if (c == '}' && i + 1 < fmt.size() && fmt[i + 1] == '}') {
      out.push_back('}');
      i += 2;
      continue;
    }
    if (c == '{') {
      const std::size_t close = fmt.find('}', i);
      if (close == std::string::npos) throw EvalError("bad format string");
      const std::string spec = fmt.substr(i + 1, close - i - 1);
      // {index[,alignment][:format]}
      std::size_t comma = spec.find(',');
      std::size_t colon = spec.find(':');
      const std::size_t index_end = std::min(
          comma == std::string::npos ? spec.size() : comma,
          colon == std::string::npos ? spec.size() : colon);
      const std::string index_str = spec.substr(0, index_end);
      char* endp = nullptr;
      const long index = std::strtol(index_str.c_str(), &endp, 10);
      if (endp == index_str.c_str() || index < 0 ||
          static_cast<std::size_t>(index) >= args.size()) {
        throw EvalError("format index out of range: {" + spec + "}");
      }
      const Value& arg = args[static_cast<std::size_t>(index)];
      std::string text;
      std::string format_spec;
      if (colon != std::string::npos) format_spec = spec.substr(colon + 1);
      if (!format_spec.empty()) {
        const char f = static_cast<char>(std::toupper(
            static_cast<unsigned char>(format_spec[0])));
        const int width = format_spec.size() > 1
                              ? std::atoi(format_spec.c_str() + 1)
                              : 0;
        std::int64_t n = 0;
        if ((f == 'X' || f == 'D' || f == 'N') && arg.try_to_int(n)) {
          if (f == 'X') {
            text = convert_to_string_base(n, 16);
            if (format_spec[0] == 'X') {
              for (char& ch : text) ch = static_cast<char>(std::toupper(
                  static_cast<unsigned char>(ch)));
            }
          } else {
            text = std::to_string(n);
          }
          while (static_cast<int>(text.size()) < width) text.insert(0, "0");
        } else {
          text = arg.to_display_string();
        }
      } else {
        text = arg.to_display_string();
      }
      int alignment = 0;
      if (comma != std::string::npos &&
          (colon == std::string::npos || comma < colon)) {
        alignment = std::atoi(spec.c_str() + comma + 1);
      }
      if (alignment > 0) {
        while (static_cast<int>(text.size()) < alignment) text.insert(0, " ");
      } else if (alignment < 0) {
        while (static_cast<int>(text.size()) < -alignment) text.push_back(' ');
      }
      out += text;
      i = close + 1;
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

}  // namespace ps
