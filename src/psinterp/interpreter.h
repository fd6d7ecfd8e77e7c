#pragma once

/// \file interpreter.h
/// A sandboxed mini PowerShell interpreter: the substitute for
/// `ScriptBlock.Invoke()` that the paper's recovery phase executes
/// recoverable script pieces with, and — in permissive mode — the engine
/// behind the behavior-recording sandbox (Table IV).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "psast/ast.h"
#include "psinterp/encodings.h"
#include "psvalue/budget.h"
#include "psvalue/value.h"

namespace ps {

class ParseCache;

/// Raised for any runtime evaluation failure (unknown variable in strict
/// mode, bad member, conversion failure, thrown script errors, ...).
class EvalError : public std::runtime_error {
 public:
  explicit EvalError(std::string message) : std::runtime_error(std::move(message)) {}
};

/// Raised when execution exceeds the configured step/recursion/size limits.
/// Deliberately not an EvalError so script-level try/catch cannot swallow it.
/// Carries the limit's FailureKind (StepLimit, DepthLimit, or MemoryBudget)
/// for the governor's failure taxonomy.
class LimitError : public std::runtime_error {
 public:
  explicit LimitError(std::string message,
                      FailureKind kind = FailureKind::StepLimit)
      : std::runtime_error(std::move(message)), kind(kind) {}
  FailureKind kind;
};

/// Raised when a command on the execution blocklist is invoked and
/// `refuse_blocklisted` is set — the deobfuscator then keeps the piece.
class BlockedCommandError : public std::runtime_error {
 public:
  explicit BlockedCommandError(std::string command)
      : std::runtime_error("blocked command: " + command),
        command(std::move(command)) {}
  std::string command;
};

/// Receives the simulated side effects of script execution. The sandbox
/// module derives from this to implement the TianQiong-sandbox substitute.
class EffectRecorder {
 public:
  virtual ~EffectRecorder() = default;
  /// kind: "dns" | "tcp" | "http"; detail: hostname / host:port / URL.
  virtual void on_network(std::string_view kind, std::string_view detail) = 0;
  virtual void on_process(std::string_view command_line) = 0;
  virtual void on_file(std::string_view op, std::string_view path) = 0;
  virtual void on_sleep(double seconds) = 0;
  virtual void on_host_output(std::string_view text) = 0;
  /// Content returned by simulated downloads (empty = benign default).
  virtual std::string download_content(std::string_view url) = 0;
  /// Called with every script buffer supplied to the scripting engine
  /// (top-level scripts, Invoke-Expression payloads, -EncodedCommand
  /// bodies) — the AMSI observation point (paper section V-B).
  virtual void on_engine_script(std::string_view script) { (void)script; }
};

struct InterpreterOptions {
  /// Hard cap on AST evaluation steps (loops included).
  std::size_t max_steps = 500000;
  /// Maximum nested invoke depth (Invoke-Expression layers, function calls).
  std::size_t max_depth = 64;
  /// Maximum size of any single produced string.
  std::size_t max_string = 16u << 20;
  /// Strict mode throws EvalError on unknown variables, and on reads of
  /// files the evaluation never wrote (a missing path, as in PowerShell) —
  /// the recovery engine uses this so pieces with untraced variables or
  /// files are kept, per Algorithm 1. Without it they read as empty.
  bool strict_variables = false;
  /// When the command filter rejects a command, throw BlockedCommandError
  /// instead of recording-and-continuing.
  bool refuse_blocklisted = false;
  /// Returns false for commands that must not execute (the blocklist).
  std::function<bool(const std::string&)> command_filter;
  /// Side-effect sink; may be null (effects silently dropped).
  EffectRecorder* recorder = nullptr;
  /// Optional parse table of the current run (parse-once pipeline):
  /// `evaluate_script` and internal script-block / function-body
  /// invocations reuse stored parses of identical text instead of
  /// re-parsing. Purely a performance knob — results and thrown errors are
  /// unchanged. Non-owning, single-threaded; the table must outlive the
  /// interpreter. May be null.
  ParseCache* parse_cache = nullptr;
  /// Optional execution budget (wall-clock deadline, cumulative allocation
  /// accounting, cancellation). Checkpointed from `charge_step()` and
  /// charged at the string/array materialization sites, so a hostile script
  /// cannot stall or bloat past its envelope by more than one stride.
  /// Non-owning; must outlive the interpreter. May be null.
  Budget* budget = nullptr;
};

/// A parsed function definition (body is reparsed per call for lifetime
/// independence from the defining script's AST).
struct FunctionInfo {
  std::vector<std::string> parameter_names;
  std::string body_text;
};

class Interpreter {
 public:
  explicit Interpreter(InterpreterOptions opts = {});
  ~Interpreter();

  /// Parses and runs `script`, returning the aggregated pipeline output.
  /// Throws ParseError / EvalError / LimitError / BlockedCommandError.
  Value evaluate_script(std::string_view script);

  /// Evaluates a single already-parsed node against `source`. Nodes in
  /// `overrides` (non-owning, may be null) are not evaluated: their bound
  /// value stands in for them, as if the node's text had been replaced by
  /// a literal of that value.
  Value evaluate(const Ast& node, std::string_view source,
                 const NodeOverrides* overrides = nullptr);

  /// Pre-seeds a variable (used by the deobfuscator's variable tracing).
  void set_variable(std::string_view name, Value value);

  /// Reads a variable (environment and automatic variables included).
  std::optional<Value> get_variable(std::string_view name) const;

  const InterpreterOptions& options() const { return opts_; }

  // ---- implementation surface shared with the cmdlet/member tables ----

  struct CommandCall {
    std::string name;                      ///< resolved lowercase cmdlet name
    std::vector<Value> args;               ///< positional arguments
    std::map<std::string, Value> params;   ///< named parameters (lowercased, no dash)
    std::vector<std::string> param_order;  ///< parameter names in call order
    std::vector<Value> input;              ///< pipeline input
    std::vector<const Ast*> raw_args;      ///< arg ASTs (for scriptblock args)
    std::string_view source;
    std::string raw_text;                  ///< full command text
  };

  /// Runs one command invocation, appending outputs to `out`.
  void run_command(CommandCall& call, std::vector<Value>& out);

  /// Invokes a ScriptBlock value with the given pipeline input ($_ bound per
  /// item when `per_item`), appending outputs.
  void invoke_scriptblock(const ScriptBlock& sb, const std::vector<Value>& input,
                          bool per_item, std::vector<Value>& out);

  /// Invokes a ScriptBlock once with explicit arguments bound to $args.
  Value invoke_scriptblock_value(const ScriptBlock& sb);

  void charge_step();
  /// Budget accounting for value materialization: charges `bytes` against
  /// the attached allocation budget (no-op without one) and enforces the
  /// single-value `max_string` cap when `enforce_max_string` is set.
  void charge_bytes(std::size_t bytes, bool enforce_max_string = false);
  EffectRecorder* recorder() const { return opts_.recorder; }
  void check_blocked(const std::string& command_lower);

  /// Converts a value to the numeric int it must be, or throws EvalError.
  static std::int64_t need_int(const Value& v, std::string_view what);
  static std::string need_string(const Value& v);

  /// Resets the step counter, as `evaluate_script` does at depth 0 — lets a
  /// pooled interpreter give each evaluated piece a fresh step allowance.
  void reset_steps() { steps_ = 0; }
  /// Steps charged since the last reset.
  std::size_t steps() const { return steps_; }

  /// Marks the state as seeded: from here on, an impure recorded outcome
  /// (BoundValue::impure) replays only while nothing has been written.
  void mark_seeded() { seeded_writes_ = writes_; }
  /// Whether anything was written since mark_seeded(): a variable (`$_`,
  /// parameters and `$matches` included), `$env:`, a virtual file, a
  /// function, an alias, the RNG, an element of an array or hashtable, or
  /// the state of an object a member call mutates.
  bool wrote() const { return writes_ != seeded_writes_; }

  /// How `evaluate(node, source, overrides)` is already known to fail,
  /// decided without evaluating anything: follows the evaluation order down
  /// to the first operation that can fail and returns EvalError for a
  /// strict-mode read of a variable this interpreter does not bind,
  /// BlockedCommand for a constant command name the filter refuses or for a
  /// filtered member call on a target the tree or a binding fixes, or the
  /// kind of a recorded failure (BoundValue::failure) on the path. Nullopt
  /// when that operation can succeed, depends on a value, or lies past the
  /// step limit or the budget. `bytes`, when given, receives the budget
  /// bytes the evaluation would charge before failing.
  std::optional<FailureKind> refusal(const Ast& node,
                                     const NodeOverrides* overrides,
                                     std::size_t* bytes = nullptr) const;

 private:
  friend class Evaluator;

  /// Parses through the run's parse table when configured; raises the
  /// genuine ParseError for invalid text either way. The returned handle
  /// shares the table's arena on a hit (one refcount bump) and keeps the
  /// AST alive for the duration of the evaluation.
  ps::ParsedScript parse_shared(std::string_view text) const;

  /// The binding of `node` in the current evaluate() call's overrides, or
  /// null.
  const BoundValue* override_of(const Ast& node) const {
    if (overrides_ == nullptr) return nullptr;
    const auto it = overrides_->find(&node);
    return it != overrides_->end() ? &it->second : nullptr;
  }
  /// Charges a binding's recorded steps and bytes, as evaluating its node
  /// would. False, charging nothing, when either would exceed its limit:
  /// then the node is evaluated, so the limit trips where it would have.
  bool replay(const BoundValue& bound);

  /// A command name as dispatch sees it: user and standard aliases
  /// resolved, lowercased, path and `.exe` decorations of the shells
  /// stripped.
  std::string resolve_command_name(const std::string& name) const;

  /// The evaluation path refusal() follows: the overrides, the step count
  /// so far (an upper bound past a member call's operands), and the budget
  /// bytes the bound nodes on it charge.
  struct RefusalPath {
    const NodeOverrides* overrides;
    std::size_t steps;
    std::size_t bytes = 0;
  };
  std::optional<FailureKind> refuse_statement(const Ast& node,
                                              RefusalPath& path) const;
  std::optional<FailureKind> refuse_pipeline(const PipelineAst& pipe,
                                             RefusalPath& path) const;
  std::optional<FailureKind> refuse_command(const CommandAst& cmd,
                                            RefusalPath& path) const;
  std::optional<FailureKind> refuse_expr(const Ast& node,
                                         RefusalPath& path) const;
  std::optional<FailureKind> refuse_variable(
      const VariableExpressionAst& var) const;
  /// A bound node on the path: its recorded failure, when the walk would
  /// reach it within the limits; nullopt for a value.
  std::optional<FailureKind> refuse_bound(const BoundValue& bound,
                                          RefusalPath& path) const;
  /// A member call: past its member name, and past its arguments when
  /// none can fail, to the first operation that can; past its target when
  /// that cannot fail either, to the call's blocklist check.
  std::optional<FailureKind> refuse_member_call(
      const InvokeMemberExpressionAst& inv, RefusalPath& path) const;
  /// An operand whose evaluation cannot fail and writes nothing, with its
  /// value when the tree or a binding fixes it: `value`, or a string
  /// constant's `text`. Both point into the tree, the overrides or this
  /// interpreter's variables, which outlive the refusal.
  struct Operand {
    bool infallible = false;
    const Value* value = nullptr;
    const std::string* text = nullptr;
    bool known() const { return value != nullptr || text != nullptr; }
    std::string display() const {
      return text != nullptr ? *text : value->to_display_string();
    }
  };
  /// A constant, a bound value, a bound variable, `New-Object
  /// Net.WebClient`, or one of these in parentheses; anything else is not
  /// infallible. Charges an upper bound of its steps, and the bytes of the
  /// bindings it replays, to the path.
  Operand operand(const Ast& node, RefusalPath& path) const;
  /// Whether the filter refuses a (non-empty) blocklist key.
  bool blocked(const std::string& key) const;
  /// Whether reading `path` fails: strict mode, and no such virtual file.
  bool missing_file(const std::string& path) const;
  /// Get-Content whose arguments cannot fail and whose path is fixed and
  /// missing: EvalError, past them.
  std::optional<FailureKind> refuse_file_read(const CommandAst& cmd,
                                              RefusalPath& path) const;
  Operand bound_operand(const BoundValue& bound, RefusalPath& path) const;
  Operand paren_operand(const Ast& stmt, RefusalPath& path) const;

  InterpreterOptions opts_;
  const NodeOverrides* overrides_ = nullptr;
  std::size_t steps_ = 0;
  std::size_t depth_ = 0;
  /// State writes so far (see wrote()), and their count at mark_seeded().
  std::uint64_t writes_ = 0;
  std::uint64_t seeded_writes_ = 0;
  void note_write() { ++writes_; }
  /// The impure records replayed so far (replay()).
  std::vector<const BoundValue*> replayed_;

  /// The evaluations on the stack, innermost last, by id: evaluate(),
  /// evaluate_script(), and the script blocks and functions they run. A
  /// frame pins its tree and its source text until it returns.
  std::vector<std::uint64_t> frames_;
  std::uint64_t next_frame_ = 0;
  /// Pushes a frame for its lifetime; the outermost one, returning, drops
  /// every block origin, since no frame they name is live any more.
  class Frame {
   public:
    explicit Frame(Interpreter& interp) : interp_(interp) {
      interp_.frames_.push_back(++interp_.next_frame_);
    }
    ~Frame() {
      interp_.frames_.pop_back();
      if (interp_.frames_.empty()) interp_.block_origins_.clear();
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Interpreter& interp_;
  };
  /// Where a script block's text was last evaluated from: its node, the
  /// source that node's extents index into, and the frame that pins both.
  struct BlockOrigin {
    const ScriptBlockAst* node = nullptr;
    std::string_view source;
    std::uint64_t frame = 0;
  };
  /// Script-block text -> origin. Invoking a block whose origin's frame is
  /// still on the stack runs that node instead of parsing the text again.
  std::unordered_map<std::string, BlockOrigin> block_origins_;
  /// The origin of `text` when its frame is live, else null.
  const BlockOrigin* live_origin(const std::string& text) const;

  struct Scope {
    std::map<std::string, Value> vars;
  };
  std::vector<Scope> scopes_;
  std::map<std::string, Value> globals_;
  std::map<std::string, std::string> env_;  ///< script writes: lowercase name -> value
  std::map<std::string, std::string> virtual_fs_;  ///< lowercase path -> content
  /// A virtual file's content (Get-Content, [IO.File]::ReadAll*): a file
  /// this interpreter never wrote is EvalError in strict mode, empty
  /// otherwise.
  std::string read_virtual_file(const std::string& path) const;
  std::map<std::string, FunctionInfo> functions_;
  std::map<std::string, std::string> user_aliases_;
  /// Get-Random's generator: each interpreter draws from its own, seeded
  /// alike, so a draw depends on the evaluation alone.
  std::uint64_t rng_;

  /// A `$env:` read: the script's own writes first, then the shared
  /// defaults. Null when neither has the (lowercase) name.
  const std::string* find_env(const std::string& lower_name) const;

  Value* find_variable(const std::string& lower_name);
  const Value* find_variable(const std::string& lower_name) const;
  void assign_variable(const std::string& name, Value v);

  // Statement / expression evaluation (definitions in interpreter.cpp).
  void exec_statement(const Ast& node, std::string_view src,
                      std::vector<Value>& out);
  void exec_statement_list(const std::vector<AstPtr>& stmts, std::string_view src,
                           std::vector<Value>& out);
  Value eval_expr(const Ast& node, std::string_view src);
  Value eval_pipeline(const PipelineAst& pipe, std::string_view src,
                      std::vector<Value>& out);
  void exec_command(const CommandAst& cmd, std::string_view src,
                    std::vector<Value> input, std::vector<Value>& out);
  Value eval_binary(const BinaryExpressionAst& bin, std::string_view src);
  Value eval_binary_values(const Value& lhs, Op op, bool case_sensitive,
                           const Value& rhs);
  Value eval_unary(const UnaryExpressionAst& un, std::string_view src);
  Value eval_unary_value(Op op, const Value& v);
  Value eval_index_values(const Value& target, const Value& index);
  Value eval_convert(const ConvertExpressionAst& conv, std::string_view src);
  Value eval_index(const IndexExpressionAst& idx, std::string_view src);
  Value eval_member(const MemberExpressionAst& mem, std::string_view src);
  Value eval_invoke_member(const InvokeMemberExpressionAst& inv,
                           std::string_view src);
  Value eval_variable(const VariableExpressionAst& var);
  Value expand_string(const std::string& raw, std::string_view src);
  /// Casts `v` to the type whose normalize_type_name() form is `type_key`;
  /// `type_name` is the type as written, for `[type]` and diagnostics.
  Value cast_value(const std::string& type_key, const Value& v,
                   std::string_view type_name);

  // Control flow.
  struct BreakSignal {};
  struct ContinueSignal {};
  struct ReturnSignal {
    Value value;
  };

  void exec_if(const IfStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_while(const WhileStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_do(const DoWhileStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_for(const ForStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_foreach(const ForEachStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_switch(const SwitchStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_try(const TryStatementAst& st, std::string_view src, std::vector<Value>& out);
  void exec_assignment(const AssignmentStatementAst& st, std::string_view src,
                       std::vector<Value>& out);

  Value call_function(const FunctionInfo& fn, const std::vector<Value>& args);

  // Member dispatch (definitions in members.cpp).
  Value instance_member(const Value& target, const std::string& member_lower);
  Value instance_invoke(const Value& target, const std::string& member_lower,
                        const std::vector<Value>& args);
  Value static_member(const std::string& type_lower, const std::string& member_lower);
  Value static_invoke(const std::string& type_lower, const std::string& member_lower,
                      const std::vector<Value>& args);
  Value construct_object(const std::string& type_lower,
                         const std::vector<Value>& args);

  std::string simulated_download(const std::string& url);
  void record_network_for_url(const std::string& url);
};

/// How the interpreter answers an automatic variable: a constant shadows
/// any binding of the name, a preference default stands in until the
/// script assigns the name, and other names are looked up.
enum class AutomaticVariable { None, Constant, PreferenceDefault };
AutomaticVariable automatic_variable(std::string_view bare_lower);
/// The value of an automatic variable (automatic_variable() != None).
Value automatic_variable_value(std::string_view bare_lower);

/// The blocklist key a member call is checked under: `webclient.<member>`
/// on a WebClient; empty for a call the filter never sees. `member_lower`
/// is lowercase. The member dispatch checks it, and refusal() reads it.
std::string instance_block_key(const PsObject& target,
                               std::string_view member_lower);
/// The same for a static call on the type whose normalize_type_name() form
/// is `type_key`: `io.file.<member>` on [IO.File].
std::string static_block_key(std::string_view type_key,
                             std::string_view member_lower);

/// Command parameters that never consume a following argument.
bool is_switch_parameter(const std::string& lower);

/// The composite-format engine behind the `-f` operator ({0}, {1,8}, {0:X2}).
std::string format_operator(const std::string& fmt, const std::vector<Value>& args);

/// PowerShell `-like` wildcard matching (`*`, `?`, `[a-z]`), ASCII case
/// folded unless `case_sensitive` (`-clike`).
bool wildcard_match(std::string_view pattern, std::string_view text,
                    bool case_sensitive = false);

}  // namespace ps
