// Command invocation and the built-in cmdlet table: the PowerShell host
// surface (Invoke-Expression, ForEach-Object, powershell -EncodedCommand,
// New-Object, ConvertTo-SecureString, ...) that obfuscated scripts drive.

#include <algorithm>

#include "pslang/alias_table.h"
#include "psinterp/aes.h"
#include "psinterp/interpreter.h"
#include "psinterp/objects.h"
#include "psinterp/pattern.h"

namespace ps {

bool is_switch_parameter(const std::string& lower) {
  static const char* kSwitches[] = {
      "force",   "asplaintext", "passthru",  "unique",   "descending",
      "valueonly", "wait",      "noexit",    "nop",      "noprofile",
      "noninteractive", "noni", "nologo",    "sta",      "mta",
      "recurse", "useb",        "usebasicparsing",       "hidden",
      "confirm", "whatif",      "allmatches", "quiet",   "raw",
      "casesensitive", "asbytestream"};
  for (const char* s : kSwitches) {
    if (lower == s) return true;
  }
  return false;
}

namespace {

std::string join_display(const std::vector<Value>& vals, const char* sep = " ") {
  std::string out;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (i) out += sep;
    out += vals[i].to_display_string();
  }
  return out;
}

ByteVec securestring_key(const Value& v) {
  ByteVec key;
  for (const Value& item : v.is_array() ? v.get_array() : Array{v}) {
    std::int64_t b = 0;
    item.try_to_int(b);
    key.push_back(static_cast<std::uint8_t>(b & 0xFF));
  }
  if (key.size() <= 16) key.resize(16, 0);
  else if (key.size() <= 24) key.resize(24, 0);
  else key.resize(32, 0);
  return key;
}

}  // namespace

void Interpreter::exec_command(const CommandAst& cmd, std::string_view src,
                               std::vector<Value> input, std::vector<Value>& out) {
  charge_step();
  if (cmd.elements.empty()) return;

  // Resolve the command name element.
  std::string name;
  Value name_value;
  const Ast& first = *cmd.elements.front();
  if (first.kind() == NodeKind::StringConstantExpression) {
    name = static_cast<const StringConstantExpressionAst&>(first).value;
  } else {
    name_value = eval_expr(first, src);
    if (name_value.is_scriptblock()) {
      // `& { ... } args` / `& $sb`.
      std::vector<Value> args;
      for (std::size_t i = 1; i < cmd.elements.size(); ++i) {
        args.push_back(eval_expr(*cmd.elements[i], src));
      }
      scopes_.emplace_back();
      scopes_.back().vars["args"] = Value(Array(args.begin(), args.end()));
      note_write();
      try {
        invoke_scriptblock(name_value.get_scriptblock(), input, false, out);
      } catch (...) {
        scopes_.pop_back();
        throw;
      }
      scopes_.pop_back();
      return;
    }
    name = name_value.to_display_string();
  }

  const std::string lower = resolve_command_name(name);
  check_blocked(lower);

  // User-defined function?
  if (auto fit = functions_.find(lower); fit != functions_.end()) {
    std::vector<Value> args;
    for (std::size_t i = 1; i < cmd.elements.size(); ++i) {
      if (cmd.elements[i]->kind() == NodeKind::CommandParameter) continue;
      args.push_back(eval_expr(*cmd.elements[i], src));
    }
    Value result = call_function(fit->second, args);
    for (Value& v : result.is_array() ? result.get_array() : Array{result}) {
      if (!v.is_null()) out.push_back(std::move(v));
    }
    return;
  }

  // Bind arguments / parameters.
  CommandCall call;
  call.name = lower;
  call.input = std::move(input);
  call.source = src;
  call.raw_text = std::string(cmd.text_in(src));
  for (std::size_t i = 1; i < cmd.elements.size(); ++i) {
    const Ast& el = *cmd.elements[i];
    if (el.kind() == NodeKind::CommandParameter) {
      const auto& p = static_cast<const CommandParameterAst&>(el);
      std::string pname = to_lower(p.name);
      if (!pname.empty() && pname.front() == '-') pname = pname.substr(1);
      Value pval(true);
      if (p.argument != nullptr) {
        pval = eval_expr(*p.argument, src);
      } else if (!is_switch_parameter(pname) && i + 1 < cmd.elements.size() &&
                 cmd.elements[i + 1]->kind() != NodeKind::CommandParameter) {
        pval = eval_expr(*cmd.elements[i + 1], src);
        ++i;
      }
      call.params[pname] = std::move(pval);
      call.param_order.push_back(pname);
      continue;
    }
    call.raw_args.push_back(&el);
    call.args.push_back(eval_expr(el, src));
  }
  run_command(call, out);
}

std::string Interpreter::resolve_command_name(const std::string& name) const {
  std::string lower = to_lower(name);
  if (auto it = user_aliases_.find(lower); it != user_aliases_.end()) {
    lower = to_lower(it->second);
  }
  if (auto full = AliasTable::standard().resolve(lower)) {
    lower = to_lower(*full);
  }
  // Strip path/extension decorations: ".\x.ps1", "C:\...\powershell.exe".
  if (const auto slash = lower.find_last_of("/\\"); slash != std::string::npos) {
    const std::string base = lower.substr(slash + 1);
    if (base == "powershell.exe" || base == "powershell" || base == "pwsh" ||
        base == "cmd.exe" || base == "cmd") {
      lower = base;
    }
  }
  if (lower == "powershell.exe") lower = "powershell";
  if (lower == "cmd.exe") lower = "cmd";
  return lower;
}

void Interpreter::run_command(CommandCall& call, std::vector<Value>& out) {
  const std::string& name = call.name;
  auto* rec = opts_.recorder;

  auto param = [&](std::initializer_list<const char*> names) -> const Value* {
    for (const char* n : names) {
      auto it = call.params.find(n);
      if (it != call.params.end()) return &it->second;
    }
    return nullptr;
  };
  auto arg_or_param = [&](std::initializer_list<const char*> names,
                          std::size_t pos = 0) -> Value {
    if (const Value* p = param(names)) return *p;
    if (pos < call.args.size()) return call.args[pos];
    return Value();
  };

  // ------------------------------------------------------------- output
  if (name == "write-host" || name == "out-host" || name == "out-default" ||
      name == "write-error" || name == "write-warning" ||
      name == "write-verbose" || name == "write-debug" ||
      name == "write-information") {
    std::string text = join_display(call.args);
    if (call.args.empty() && !call.input.empty()) text = join_display(call.input);
    if (const Value* obj = param({"object", "message"})) text = obj->to_display_string();
    if (rec != nullptr) rec->on_host_output(text);
    return;
  }
  if (name == "write-output") {
    for (const Value& v : call.args) out.push_back(v);
    for (const Value& v : call.input) out.push_back(v);
    return;
  }
  if (name == "out-null") return;
  if (name == "out-string") {
    std::string text = join_display(call.input, "\r\n");
    out.push_back(Value(std::move(text)));
    return;
  }
  if (name == "out-file" || name == "set-content" || name == "add-content") {
    Value path = arg_or_param({"path", "filepath", "literalpath"});
    Value content = arg_or_param({"value", "inputobject"}, 1);
    if (path.is_null() && !call.args.empty()) path = call.args[0];
    if (content.is_null() && !call.input.empty()) {
      std::string joined;
      for (std::size_t i = 0; i < call.input.size(); ++i) {
        if (i) joined += "\n";
        joined += call.input[i].to_display_string();
      }
      content = Value(std::move(joined));
    }
    const std::string key = to_lower(path.to_display_string());
    note_write();
    if (name == "add-content") {
      virtual_fs_[key] += content.to_display_string();
    } else {
      virtual_fs_[key] = content.to_display_string();
    }
    if (rec != nullptr) rec->on_file("write", path.to_display_string());
    return;
  }
  if (name == "get-content") {
    const Value path = arg_or_param({"path", "literalpath"});
    if (rec != nullptr) rec->on_file("read", path.to_display_string());
    out.push_back(Value(read_virtual_file(path.to_display_string())));
    return;
  }

  // ---------------------------------------------------------- pipeline
  // `call.name` is resolved, so `%` / `foreach` arrive as foreach-object
  // and `?` / `where` as where-object.
  if (name == "foreach-object") {
    Value sb = arg_or_param({"process"});
    if (sb.is_scriptblock()) {
      invoke_scriptblock(sb.get_scriptblock(), call.input, /*per_item=*/true, out);
      return;
    }
    // `| % membername` member-invocation form.
    const std::string member = sb.to_display_string();
    for (const Value& item : call.input) {
      try {
        out.push_back(instance_invoke(item, member, {}));
      } catch (const EvalError&) {
        out.push_back(instance_member(item, member));
      }
    }
    return;
  }
  if (name == "where-object") {
    Value sb = arg_or_param({"filterscript"});
    if (!sb.is_scriptblock()) {
      for (const Value& v : call.input) out.push_back(v);
      return;
    }
    for (const Value& item : call.input) {
      std::vector<Value> result;
      invoke_scriptblock(sb.get_scriptblock(), {item}, /*per_item=*/true, result);
      if (Value::from_stream(std::move(result)).to_bool()) out.push_back(item);
    }
    return;
  }
  if (name == "select-object") {
    std::size_t first = call.input.size();
    if (const Value* f = param({"first"})) {
      first = static_cast<std::size_t>(need_int(*f, "-First"));
    }
    std::size_t count = 0;
    for (const Value& v : call.input) {
      if (count++ >= first) break;
      out.push_back(v);
    }
    return;
  }
  if (name == "sort-object") {
    std::vector<Value> items = call.input;
    std::stable_sort(items.begin(), items.end(), [](const Value& a, const Value& b) {
      double x = 0, y = 0;
      if (a.try_to_double(x) && b.try_to_double(y) && a.is_number() && b.is_number()) {
        return x < y;
      }
      return to_lower(a.to_display_string()) < to_lower(b.to_display_string());
    });
    if (param({"descending"}) != nullptr) std::reverse(items.begin(), items.end());
    if (param({"unique"}) != nullptr) {
      std::vector<Value> dedup;
      for (const Value& v : items) {
        bool seen = false;
        for (const Value& u : dedup) {
          if (iequals(u.to_display_string(), v.to_display_string())) {
            seen = true;
            break;
          }
        }
        if (!seen) dedup.push_back(v);
      }
      items = std::move(dedup);
    }
    for (Value& v : items) out.push_back(std::move(v));
    return;
  }
  if (name == "measure-object") {
    Hashtable ht;
    ht.entries.emplace_back(Value("Count"),
                            Value(static_cast<std::int64_t>(call.input.size())));
    out.push_back(Value(std::move(ht)));
    return;
  }
  if (name == "select-string") {
    const std::string pattern = arg_or_param({"pattern"}).to_display_string();
    try {
      const Pattern re(pattern, true);
      for (const Value& v : call.input) {
        if (re.search(v.to_display_string())) out.push_back(v);
      }
    } catch (const PatternError&) {
      throw EvalError("bad pattern for Select-String");
    }
    return;
  }
  if (name == "tee-object" || name == "group-object" || name == "compare-object") {
    for (const Value& v : call.input) out.push_back(v);
    return;
  }

  // --------------------------------------------------------- execution
  if (name == "invoke-expression") {
    std::vector<Value> scripts = call.args;
    if (const Value* c = param({"command"})) scripts.push_back(*c);
    for (const Value& v : call.input) scripts.push_back(v);
    for (const Value& s : scripts) {
      const std::string text = s.to_display_string();
      Value result = evaluate_script(text);
      for (Value& v : result.is_array() ? result.get_array() : Array{result}) {
        if (!v.is_null()) out.push_back(std::move(v));
      }
    }
    return;
  }
  if (name == "invoke-command") {
    Value sb = arg_or_param({"scriptblock"});
    if (sb.is_scriptblock()) {
      invoke_scriptblock(sb.get_scriptblock(), call.input, false, out);
    } else {
      Value result = evaluate_script(sb.to_display_string());
      if (!result.is_null()) out.push_back(std::move(result));
    }
    return;
  }
  if (name == "powershell" || name == "pwsh") {
    if (rec != nullptr) rec->on_process("powershell " + join_display(call.args));
    // Resolve abbreviated parameters the way powershell.exe does:
    // '-encodedcommand'.StartsWith($param).
    std::string encoded, command, file;
    for (const std::string& pname : call.param_order) {
      const Value& pv = call.params[pname];
      const std::string full_enc = "encodedcommand";
      const std::string full_cmd = "command";
      const std::string full_file = "file";
      if (full_enc.rfind(pname, 0) == 0 && !pname.empty()) {
        encoded = pv.to_display_string();
      } else if (full_cmd.rfind(pname, 0) == 0 && pname.size() >= 1 &&
                 pname[0] == 'c') {
        command = pv.to_display_string();
      } else if (full_file.rfind(pname, 0) == 0 && pname[0] == 'f') {
        file = pv.to_display_string();
      }
    }
    if (!encoded.empty()) {
      const auto bytes = base64_decode(encoded);
      if (!bytes) throw EvalError("bad -EncodedCommand payload");
      const std::string script = encoding_get_string(TextEncoding::Unicode, *bytes);
      Value result = evaluate_script(script);
      for (Value& v : result.is_array() ? result.get_array() : Array{result}) {
        if (!v.is_null()) out.push_back(std::move(v));
      }
      return;
    }
    if (!command.empty()) {
      Value result = evaluate_script(command);
      if (!result.is_null()) out.push_back(std::move(result));
      return;
    }
    if (!file.empty() && rec != nullptr) rec->on_file("read", file);
    // Bare positional argument: treated as -Command.
    if (!call.args.empty()) {
      Value result = evaluate_script(join_display(call.args));
      if (!result.is_null()) out.push_back(std::move(result));
    }
    return;
  }
  if (name == "cmd") {
    if (rec != nullptr) rec->on_process("cmd " + join_display(call.args));
    // `cmd /c <command>`: when the tail is a PowerShell invocation, run it.
    std::vector<std::string> words;
    for (const Value& a : call.args) words.push_back(a.to_display_string());
    for (std::size_t i = 0; i < words.size(); ++i) {
      const std::string w = to_lower(words[i]);
      if (w == "powershell" || w == "powershell.exe") {
        std::string rest;
        for (std::size_t j = i + 1; j < words.size(); ++j) {
          if (!rest.empty()) rest += " ";
          rest += words[j];
        }
        if (!rest.empty()) {
          Value result = evaluate_script(rest);
          if (!result.is_null()) out.push_back(std::move(result));
        }
        return;
      }
    }
    return;
  }
  if (name == "start-process") {
    const Value path = arg_or_param({"filepath"});
    const Value args = arg_or_param({"argumentlist"}, 1);
    std::string line = path.to_display_string();
    if (!args.is_null()) line += " " + args.to_display_string();
    if (rec != nullptr) rec->on_process(line);
    if (param({"passthru"}) != nullptr) {
      out.push_back(Value(std::shared_ptr<PsObject>(
          std::make_shared<ProcessObject>(line))));
    }
    return;
  }
  if (name == "invoke-item") {
    if (rec != nullptr) rec->on_process(arg_or_param({"path"}).to_display_string());
    return;
  }
  if (name == "stop-process" || name == "stop-computer" ||
      name == "restart-computer" || name == "restart-service" ||
      name == "start-service" || name == "stop-service") {
    if (rec != nullptr) rec->on_process(name + " " + join_display(call.args));
    return;
  }
  if (name == "start-sleep") {
    double seconds = 0;
    if (const Value* s = param({"seconds", "s"})) {
      s->try_to_double(seconds);
    } else if (const Value* ms = param({"milliseconds", "m"})) {
      ms->try_to_double(seconds);
      seconds /= 1000.0;
    } else if (!call.args.empty()) {
      call.args[0].try_to_double(seconds);
    }
    if (rec != nullptr) rec->on_sleep(seconds);
    return;
  }

  // ------------------------------------------------------------ network
  if (name == "invoke-webrequest" || name == "invoke-restmethod") {
    const Value uri = arg_or_param({"uri", "url"});
    const std::string content = simulated_download(uri.to_display_string());
    if (const Value* outfile = param({"outfile"})) {
      if (rec != nullptr) rec->on_file("write", outfile->to_display_string());
      return;
    }
    out.push_back(Value(content));
    return;
  }
  if (name == "test-connection") {
    const Value host = arg_or_param({"computername"});
    if (rec != nullptr) rec->on_network("dns", host.to_display_string());
    out.push_back(Value(true));
    return;
  }

  // ------------------------------------------------------------ objects
  if (name == "new-object") {
    const Value type = arg_or_param({"typename"});
    std::vector<Value> ctor_args;
    if (const Value* al = param({"argumentlist"})) {
      if (al->is_array()) ctor_args = al->get_array();
      else ctor_args.push_back(*al);
    } else if (call.args.size() > 1) {
      if (call.args.size() == 2 && call.args[1].is_array()) {
        ctor_args = call.args[1].get_array();
      } else {
        ctor_args.assign(call.args.begin() + 1, call.args.end());
      }
    }
    // Constructor arguments arrive with one level of array nesting per
    // grouping construct (`(a, b)`, `(,$bytes)`, `(inner), $enc`); flatten
    // them so positional binding sees the leaf values.
    std::vector<Value> flat;
    std::function<void(const Value&)> add = [&](const Value& v) {
      if (v.is_array()) {
        for (const Value& item : v.get_array()) add(item);
      } else if (!v.is_null()) {
        flat.push_back(v);
      }
    };
    for (const Value& v : ctor_args) add(v);
    out.push_back(construct_object(type.to_display_string(), flat));
    return;
  }
  if (name == "convertto-securestring") {
    const Value text = arg_or_param({"string"});
    if (param({"asplaintext"}) != nullptr) {
      out.push_back(Value(std::shared_ptr<PsObject>(
          std::make_shared<SecureStringObject>(text.to_display_string()))));
      return;
    }
    if (const Value* key = param({"key", "securekey"})) {
      const auto plain =
          securestring::unprotect(text.to_display_string(), securestring_key(*key));
      if (!plain) throw EvalError("ConvertTo-SecureString: bad blob or key");
      out.push_back(Value(std::shared_ptr<PsObject>(
          std::make_shared<SecureStringObject>(*plain))));
      return;
    }
    throw EvalError("ConvertTo-SecureString needs -Key or -AsPlainText");
  }
  if (name == "convertfrom-securestring") {
    Value ss = arg_or_param({"securestring"});
    if (ss.is_null() && !call.input.empty()) ss = call.input.front();
    if (!ss.is_object()) throw EvalError("ConvertFrom-SecureString needs a SecureString");
    auto* sso = dynamic_cast<SecureStringObject*>(ss.get_object().get());
    if (sso == nullptr) throw EvalError("ConvertFrom-SecureString needs a SecureString");
    ByteVec key(16, 0);
    if (const Value* k = param({"key"})) key = securestring_key(*k);
    ByteVec iv(16, 0);
    for (std::size_t i = 0; i < 16; ++i) iv[i] = static_cast<std::uint8_t>(key[i] ^ 0xA5);
    out.push_back(Value(securestring::protect(sso->plain, key, iv)));
    return;
  }

  // ---------------------------------------------------------- variables
  if (name == "get-variable") {
    const Value vn = arg_or_param({"name"});
    const std::string lower = to_lower(vn.to_display_string());
    if (auto v = get_variable(lower)) {
      out.push_back(*v);
      return;
    }
    // Automatic variables resolve through the expression path.
    VariableExpressionAst fake(0, 0, lower);
    out.push_back(eval_variable(fake));
    return;
  }
  if (name == "set-variable" || name == "new-variable") {
    const Value vn = arg_or_param({"name"});
    const Value vv = arg_or_param({"value"}, 1);
    assign_variable(to_lower(vn.to_display_string()), vv);
    return;
  }
  if (name == "remove-variable" || name == "clear-variable") return;
  if (name == "set-alias" || name == "new-alias") {
    const Value an = arg_or_param({"name"});
    const Value av = arg_or_param({"value"}, 1);
    user_aliases_[to_lower(an.to_display_string())] = av.to_display_string();
    note_write();
    return;
  }
  if (name == "get-alias") {
    const Value an = arg_or_param({"name"});
    if (auto full = AliasTable::standard().resolve(an.to_display_string())) {
      out.push_back(Value(*full));
    }
    return;
  }

  // -------------------------------------------------------------- misc
  if (name == "get-random") {
    std::int64_t lo = 0, hi = 2147483647;
    if (const Value* mn = param({"minimum"})) lo = need_int(*mn, "-Minimum");
    if (const Value* mx = param({"maximum"})) hi = need_int(*mx, "-Maximum");
    note_write();  // a draw advances this interpreter's RNG
    if (!call.input.empty()) {
      out.push_back(call.input[static_cast<std::size_t>(random_next(
          rng_, 0, static_cast<std::int64_t>(call.input.size())))]);
      return;
    }
    out.push_back(Value(random_next(rng_, lo, hi)));
    return;
  }
  if (name == "get-date") {
    out.push_back(Value(std::string("05/29/2021 12:00:00")));
    return;
  }
  if (name == "join-path") {
    const Value a = arg_or_param({"path"});
    const Value b = arg_or_param({"childpath"}, 1);
    std::string p = a.to_display_string();
    if (!p.empty() && p.back() != '\\') p += "\\";
    out.push_back(Value(p + b.to_display_string()));
    return;
  }
  if (name == "split-path") {
    const std::string p = arg_or_param({"path"}).to_display_string();
    const auto slash = p.find_last_of("/\\");
    if (param({"leaf"}) != nullptr) {
      out.push_back(Value(slash == std::string::npos ? p : p.substr(slash + 1)));
    } else {
      out.push_back(Value(slash == std::string::npos ? std::string() : p.substr(0, slash)));
    }
    return;
  }
  if (name == "test-path") {
    const Value path = arg_or_param({"path", "literalpath"});
    out.push_back(Value(virtual_fs_.count(to_lower(path.to_display_string())) > 0));
    return;
  }
  if (name == "get-location") {
    out.push_back(Value(std::string("C:\\Users\\user")));
    return;
  }
  if (name == "set-location" || name == "push-location" || name == "pop-location") return;
  if (name == "get-process") {
    out.push_back(Value(std::string("powershell")));
    return;
  }
  if (name == "get-executionpolicy") {
    out.push_back(Value(std::string("Unrestricted")));
    return;
  }
  if (name == "set-executionpolicy" || name == "add-type" ||
      name == "import-module" || name == "remove-module" ||
      name == "clear-host" || name == "out-gridview" ||
      name == "add-pssnapin" || name == "clear-content") {
    return;
  }
  if (name == "read-host") {
    out.push_back(Value(std::string()));
    return;
  }
  if (name == "get-host") {
    out.push_back(construct_object("management.automation.host", {}));
    return;
  }
  if (name == "get-command") {
    out.push_back(arg_or_param({"name"}));
    return;
  }
  if (name == "get-wmiobject" || name == "get-ciminstance") {
    out.push_back(construct_object("management.managementobject", {}));
    return;
  }
  if (name == "new-itemproperty" || name == "set-itemproperty") {
    if (rec != nullptr) {
      rec->on_file("registry", arg_or_param({"path"}).to_display_string());
    }
    return;
  }
  if (name == "get-itemproperty") {
    out.push_back(Value(std::string()));
    return;
  }
  if (name == "new-item" || name == "mkdir") {
    if (rec != nullptr) rec->on_file("create", arg_or_param({"path"}).to_display_string());
    return;
  }
  if (name == "remove-item") {
    if (rec != nullptr) rec->on_file("delete", arg_or_param({"path"}).to_display_string());
    return;
  }
  if (name == "copy-item" || name == "move-item") {
    if (rec != nullptr) {
      rec->on_file("write", arg_or_param({"destination"}, 1).to_display_string());
    }
    return;
  }
  if (name == "get-item" || name == "get-childitem") {
    return;  // empty result set in the sandbox's virtual filesystem
  }
  if (name == "get-member") {
    out.push_back(Value(std::string()));
    return;
  }
  if (name == "start-job" || name == "wait-job" || name == "receive-job" ||
      name == "remove-job" || name == "get-job") {
    if (name == "start-job") {
      Value sb = arg_or_param({"scriptblock"});
      if (sb.is_scriptblock()) invoke_scriptblock(sb.get_scriptblock(), {}, false, out);
    }
    return;
  }

  // Unknown command: in sandbox mode record it and continue (wild scripts
  // invoke all sorts of binaries); in recovery mode fail so the piece is kept.
  if (rec != nullptr) {
    rec->on_process(name + " " + join_display(call.args));
    return;
  }
  throw EvalError("unknown command: " + name);
}

}  // namespace ps
