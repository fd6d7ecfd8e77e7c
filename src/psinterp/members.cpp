// Instance/static member resolution and object construction: the .NET
// surface that wild obfuscated recovery code touches ([Convert]::,
// [Text.Encoding]::, WebClient.DownloadString, StreamReader.ReadToEnd, ...).

#include <algorithm>
#include <cmath>

#include "pslang/alias_table.h"
#include "psinterp/aes.h"
#include "psinterp/deflate.h"
#include "psinterp/interpreter.h"
#include "psinterp/objects.h"
#include "psinterp/pattern.h"

namespace ps {

namespace {

std::optional<TextEncoding> encoding_by_name(std::string_view name) {
  const std::string n = to_lower(name);
  if (n == "ascii") return TextEncoding::Ascii;
  if (n == "utf8" || n == "utf-8") return TextEncoding::Utf8;
  if (n == "unicode" || n == "utf-16" || n == "utf-16le") return TextEncoding::Unicode;
  if (n == "bigendianunicode" || n == "utf-16be") return TextEncoding::BigEndianUnicode;
  if (n == "default") return TextEncoding::Utf8;
  return std::nullopt;
}

Bytes need_bytes(const Value& v) {
  if (v.is_bytes()) return v.get_bytes();
  if (v.is_array()) {
    Bytes out;
    for (const Value& item : v.get_array()) {
      out.push_back(static_cast<std::uint8_t>(
          Interpreter::need_int(item, "byte") & 0xFF));
    }
    return out;
  }
  if (v.is_string()) {
    const std::string& s = v.get_string();
    return Bytes(s.begin(), s.end());
  }
  throw EvalError("expected a byte array, got " + v.type_name());
}

ByteVec key_from_value(const Value& v) {
  Bytes b = need_bytes(v);
  // PowerShell accepts 16/24/32-byte keys; pad/truncate like scripts that
  // pass (1..16) do not need it, but be forgiving for (1..20)-style keys.
  if (b.size() <= 16) b.resize(16, 0);
  else if (b.size() <= 24) b.resize(24, 0);
  else b.resize(32, 0);
  return b;
}

std::string extract_host(const std::string& url) {
  std::string rest = url;
  const auto scheme = rest.find("://");
  if (scheme != std::string::npos) rest = rest.substr(scheme + 3);
  const auto slash = rest.find_first_of("/?#");
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  const auto at = rest.find('@');
  if (at != std::string::npos) rest = rest.substr(at + 1);
  const auto colon = rest.find(':');
  if (colon != std::string::npos) rest = rest.substr(0, colon);
  return rest;
}

}  // namespace

std::string instance_block_key(const PsObject& target,
                               std::string_view member_lower) {
  if (dynamic_cast<const WebClientObject*>(&target) == nullptr) return {};
  return "webclient." + std::string(member_lower);
}

std::string static_block_key(std::string_view type_key,
                             std::string_view member_lower) {
  if (type_key != "io.file" && type_key != "file") return {};
  return "io.file." + std::string(member_lower);
}

void Interpreter::record_network_for_url(const std::string& url) {
  if (opts_.recorder == nullptr) return;
  const std::string host = extract_host(url);
  opts_.recorder->on_network("dns", host);
  const bool https = to_lower(url).rfind("https", 0) == 0;
  opts_.recorder->on_network("tcp", host + ":" + (https ? "443" : "80"));
  opts_.recorder->on_network("http", url);
}

std::string Interpreter::simulated_download(const std::string& url) {
  record_network_for_url(url);
  if (opts_.recorder != nullptr) {
    std::string content = opts_.recorder->download_content(url);
    if (!content.empty()) return content;
  }
  return "Write-Output 'payload:" + url + "'";
}

// ------------------------------------------------------- instance members

Value Interpreter::instance_member(const Value& target, const std::string& member) {
  charge_step();
  const std::string m = to_lower(member);
  if (target.is_null() && (m == "count" || m == "length")) {
    return Value(0);  // $null.Count: PowerShell counts nothing
  }
  if (target.is_string()) {
    const std::string& s = target.get_string();
    if (m == "length") return Value(static_cast<std::int64_t>(utf8_length(s)));
    if (m == "value") return target;  // regex-match object duck-typing
  }
  if (target.is_array()) {
    if (m == "length" || m == "count") {
      return Value(static_cast<std::int64_t>(target.get_array().size()));
    }
    if (m == "rank") return Value(1);
  }
  if (target.is_bytes()) {
    if (m == "length" || m == "count") {
      return Value(static_cast<std::int64_t>(target.get_bytes().size()));
    }
  }
  if (target.is_hashtable()) {
    const auto& ht = target.get_hashtable();
    if (const Value* found = ht.find(member)) return *found;  // keys win
    if (m == "count") return Value(static_cast<std::int64_t>(ht.entries.size()));
    if (m == "keys") {
      Array out;
      for (const auto& [k, v] : ht.entries) out.push_back(k);
      return Value(std::move(out));
    }
    if (m == "values") {
      Array out;
      for (const auto& [k, v] : ht.entries) out.push_back(v);
      return Value(std::move(out));
    }
    return Value();
  }
  if (target.is_char()) {
    if (m == "length") return Value(1);
  }
  if (target.is_scriptblock()) {
    if (m == "ast" || m == "tostring") return Value(target.get_scriptblock().text);
  }
  if (target.is_object()) {
    const auto& obj = target.get_object();
    if (m == "length" || m == "count") return Value(1);
    if (auto* ms = dynamic_cast<MemoryStreamObject*>(obj.get())) {
      if (m == "position") return Value(static_cast<std::int64_t>(ms->position));
      if (m == "capacity") return Value(static_cast<std::int64_t>(ms->data.size()));
    }
    if (auto* enc = dynamic_cast<EncodingObject*>(obj.get())) {
      (void)enc;
      if (m == "bodyname" || m == "encodingname") return Value(obj->type_name());
    }
    if (dynamic_cast<WebClientObject*>(obj.get()) != nullptr) {
      if (m == "headers") return Value(Hashtable{});
      if (m == "encoding") return Value(std::string("System.Text.UTF8Encoding"));
    }
    if (dynamic_cast<ExecutionContextObject*>(obj.get()) != nullptr) {
      if (m == "invokecommand") {
        return Value(std::shared_ptr<PsObject>(std::make_shared<InvokeCommandObject>()));
      }
    }
  }
  if (m == "length" || m == "count") return Value(1);  // PS scalar .Length
  if (m == "name" || m == "fullname") return Value(target.type_name());
  if (opts_.strict_variables) {
    throw EvalError("unknown member ." + member + " on " + target.type_name());
  }
  return Value();
}

Value Interpreter::instance_invoke(const Value& target, const std::string& member,
                                   const std::vector<Value>& args) {
  charge_step();
  const std::string m = to_lower(member);

  // --- string methods ---
  if (target.is_string() || target.is_char()) {
    const std::string s = target.to_display_string();
    if (m == "replace") {
      if (args.size() < 2) throw EvalError("Replace needs 2 args");
      const std::string from = args[0].to_display_string();
      const std::string to = args[1].to_display_string();
      if (from.empty()) return Value(s);
      std::string out;
      std::size_t pos = 0;
      while (true) {
        const std::size_t hit = s.find(from, pos);
        if (hit == std::string::npos) {
          out += s.substr(pos);
          break;
        }
        out += s.substr(pos, hit - pos);
        out += to;
        pos = hit + from.size();
      }
      charge_bytes(out.size(), /*enforce_max_string=*/true);
      return Value(std::move(out));
    }
    if (m == "split") {
      // .NET String.Split: splits on any of the given characters.
      std::string separators;
      for (const Value& a : args) separators += a.to_display_string();
      if (separators.empty()) separators = " \t\n\r";
      Array out;
      std::string word;
      for (char c : s) {
        if (separators.find(c) != std::string::npos) {
          out.push_back(Value(word));
          word.clear();
        } else {
          word.push_back(c);
        }
      }
      out.push_back(Value(word));
      return Value(std::move(out));
    }
    if (m == "substring") {
      const std::int64_t start = args.empty() ? 0 : need_int(args[0], "Substring");
      const auto cps = utf8_codepoints(s);
      if (start < 0 || start > static_cast<std::int64_t>(cps.size())) {
        throw EvalError("Substring start out of range");
      }
      std::int64_t len = static_cast<std::int64_t>(cps.size()) - start;
      if (args.size() >= 2) len = need_int(args[1], "Substring");
      if (start + len > static_cast<std::int64_t>(cps.size())) {
        throw EvalError("Substring length out of range");
      }
      std::string out;
      for (std::int64_t i = start; i < start + len; ++i) {
        out += utf8_encode(cps[static_cast<std::size_t>(i)]);
      }
      return Value(std::move(out));
    }
    if (m == "tolower" || m == "tolowerinvariant") return Value(to_lower(s));
    if (m == "toupper" || m == "toupperinvariant") {
      std::string out = s;
      std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
      });
      return Value(std::move(out));
    }
    if (m == "tochararray") {
      Array out;
      for (std::uint32_t cp : utf8_codepoints(s)) out.push_back(Value(PsChar{cp}));
      return Value(std::move(out));
    }
    if (m == "trim" || m == "trimstart" || m == "trimend") {
      std::string chars = " \t\n\r";
      if (!args.empty()) {
        chars.clear();
        for (const Value& a : args) chars += a.to_display_string();
      }
      std::size_t b = 0, e = s.size();
      if (m != "trimend") {
        while (b < e && chars.find(s[b]) != std::string::npos) ++b;
      }
      if (m != "trimstart") {
        while (e > b && chars.find(s[e - 1]) != std::string::npos) --e;
      }
      return Value(s.substr(b, e - b));
    }
    if (m == "startswith") {
      if (args.empty()) throw EvalError("StartsWith needs an arg");
      const std::string p = args[0].to_display_string();
      return Value(s.rfind(p, 0) == 0);
    }
    if (m == "endswith") {
      if (args.empty()) throw EvalError("EndsWith needs an arg");
      const std::string p = args[0].to_display_string();
      return Value(s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0);
    }
    if (m == "contains") {
      return Value(!args.empty() &&
                   s.find(args[0].to_display_string()) != std::string::npos);
    }
    if (m == "indexof") {
      if (args.empty()) return Value(-1);
      const auto pos = s.find(args[0].to_display_string());
      return Value(pos == std::string::npos ? -1 : static_cast<std::int64_t>(pos));
    }
    if (m == "lastindexof") {
      if (args.empty()) return Value(-1);
      const auto pos = s.rfind(args[0].to_display_string());
      return Value(pos == std::string::npos ? -1 : static_cast<std::int64_t>(pos));
    }
    if (m == "insert") {
      if (args.size() < 2) throw EvalError("Insert needs 2 args");
      std::string out = s;
      const std::int64_t at = need_int(args[0], "Insert");
      if (at < 0 || at > static_cast<std::int64_t>(out.size())) {
        throw EvalError("Insert index out of range");
      }
      out.insert(static_cast<std::size_t>(at), args[1].to_display_string());
      return Value(std::move(out));
    }
    if (m == "remove") {
      if (args.empty()) throw EvalError("Remove needs args");
      std::string out = s;
      const std::int64_t at = need_int(args[0], "Remove");
      const std::int64_t len = args.size() >= 2
                                   ? need_int(args[1], "Remove")
                                   : static_cast<std::int64_t>(out.size()) - at;
      if (at < 0 || len < 0 || at + len > static_cast<std::int64_t>(out.size())) {
        throw EvalError("Remove out of range");
      }
      out.erase(static_cast<std::size_t>(at), static_cast<std::size_t>(len));
      return Value(std::move(out));
    }
    if (m == "padleft" || m == "padright") {
      const std::int64_t width = args.empty() ? 0 : need_int(args[0], "Pad");
      const char fill = args.size() >= 2 && !args[1].to_display_string().empty()
                            ? args[1].to_display_string()[0]
                            : ' ';
      std::string out = s;
      while (static_cast<std::int64_t>(out.size()) < width) {
        if (m == "padleft") out.insert(out.begin(), fill);
        else out.push_back(fill);
      }
      return Value(std::move(out));
    }
    if (m == "tostring") return Value(s);
    if (m == "normalize") return Value(s);
    if (m == "equals") {
      return Value(!args.empty() && s == args[0].to_display_string());
    }
    if (m == "compareto") {
      const std::string o = args.empty() ? "" : args[0].to_display_string();
      return Value(static_cast<std::int64_t>(s.compare(o) < 0 ? -1 : (s == o ? 0 : 1)));
    }
    if (m == "gettype") return Value(std::string("System.String"));
  }

  // --- scriptblock ---
  if (target.is_scriptblock()) {
    if (m == "invoke" || m == "invokereturnasis") {
      // Arguments become $args inside the block.
      std::vector<Value> out;
      scopes_.emplace_back();
      scopes_.back().vars["args"] = Value(Array(args.begin(), args.end()));
      note_write();
      try {
        invoke_scriptblock(target.get_scriptblock(), {}, false, out);
      } catch (...) {
        scopes_.pop_back();
        throw;
      }
      scopes_.pop_back();
      return Value::from_stream(std::move(out));
    }
    if (m == "tostring") return Value(target.get_scriptblock().text);
    if (m == "getnewclosure") return target;
  }

  // --- arrays ---
  if (target.is_array()) {
    const auto& arr = target.get_array();
    if (m == "contains") {
      for (const Value& v : arr) {
        if (!args.empty() && iequals(v.to_display_string(),
                                     args[0].to_display_string())) {
          return Value(true);
        }
      }
      return Value(false);
    }
    if (m == "indexof") {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (!args.empty() && iequals(arr[i].to_display_string(),
                                     args[0].to_display_string())) {
          return Value(static_cast<std::int64_t>(i));
        }
      }
      return Value(-1);
    }
    if (m == "getvalue") {
      const std::int64_t i = args.empty() ? 0 : need_int(args[0], "GetValue");
      if (i < 0 || i >= static_cast<std::int64_t>(arr.size())) return Value();
      return arr[static_cast<std::size_t>(i)];
    }
    if (m == "gettype") return Value(std::string("System.Object[]"));
    if (m == "tostring") return Value(std::string("System.Object[]"));
  }

  // --- numbers ---
  if (target.is_int() || target.is_double()) {
    if (m == "tostring") {
      if (!args.empty()) {
        const std::string f = args[0].to_display_string();
        if (!f.empty() && (f[0] == 'X' || f[0] == 'x')) {
          std::int64_t n = 0;
          target.try_to_int(n);
          std::string hex = convert_to_string_base(n, 16);
          if (f[0] == 'X') {
            std::transform(hex.begin(), hex.end(), hex.begin(), [](unsigned char c) {
              return static_cast<char>(std::toupper(c));
            });
          }
          const int width = f.size() > 1 ? std::atoi(f.c_str() + 1) : 0;
          while (static_cast<int>(hex.size()) < width) hex.insert(0, "0");
          return Value(std::move(hex));
        }
      }
      return Value(target.to_display_string());
    }
    if (m == "equals") {
      double a = 0, b = 0;
      target.try_to_double(a);
      if (!args.empty()) args[0].try_to_double(b);
      return Value(!args.empty() && a == b);
    }
    if (m == "gettype") {
      return Value(std::string(target.is_int() ? "System.Int64" : "System.Double"));
    }
  }

  // --- objects ---
  if (target.is_object()) {
    const auto& obj = target.get_object();
    if (dynamic_cast<WebClientObject*>(obj.get()) != nullptr) {
      check_blocked(instance_block_key(*obj, m));
      if (m == "downloadstring") {
        const std::string url = args.empty() ? "" : args[0].to_display_string();
        return Value(simulated_download(url));
      }
      if (m == "downloaddata" || m == "openread") {
        const std::string url = args.empty() ? "" : args[0].to_display_string();
        const std::string content = simulated_download(url);
        Bytes bytes(content.begin(), content.end());
        if (m == "openread") {
          return Value(std::shared_ptr<PsObject>(
              std::make_shared<MemoryStreamObject>(std::move(bytes))));
        }
        return Value(std::move(bytes));
      }
      if (m == "downloadfile") {
        const std::string url = args.empty() ? "" : args[0].to_display_string();
        const std::string path = args.size() > 1 ? args[1].to_display_string() : "";
        record_network_for_url(url);
        if (opts_.recorder != nullptr) opts_.recorder->on_file("write", path);
        return Value();
      }
      if (m == "uploadstring" || m == "uploaddata" || m == "uploadfile") {
        const std::string url = args.empty() ? "" : args[0].to_display_string();
        record_network_for_url(url);
        return Value(std::string());
      }
      if (m == "dispose" || m == "close") return Value();
    }
    if (auto* ms = dynamic_cast<MemoryStreamObject*>(obj.get())) {
      if (m == "toarray") return Value(Bytes(ms->data));
      if (m == "seek") {
        note_write();
        ms->position = static_cast<std::size_t>(
            args.empty() ? 0 : need_int(args[0], "Seek"));
        return Value(static_cast<std::int64_t>(ms->position));
      }
      if (m == "close" || m == "dispose" || m == "flush") return Value();
      if (m == "write") {
        note_write();
        if (!args.empty()) {
          const Bytes b = need_bytes(args[0]);
          ms->data.insert(ms->data.end(), b.begin(), b.end());
        }
        return Value();
      }
    }
    if (auto* ds = dynamic_cast<DeflateStreamObject*>(obj.get())) {
      if (m == "copyto") {
        if (args.empty() || !args[0].is_object()) throw EvalError("CopyTo needs a stream");
        auto* dest = dynamic_cast<MemoryStreamObject*>(args[0].get_object().get());
        if (dest == nullptr) throw EvalError("CopyTo target must be a MemoryStream");
        const auto plain = inflate(ds->inner->data);
        if (!plain) throw EvalError("invalid deflate stream");
        note_write();
        dest->data.insert(dest->data.end(), plain->begin(), plain->end());
        return Value();
      }
      if (m == "close" || m == "dispose") return Value();
    }
    if (auto* sr = dynamic_cast<StreamReaderObject*>(obj.get())) {
      if (m == "readtoend" || m == "readline") {
        Bytes raw;
        if (auto* ds = dynamic_cast<DeflateStreamObject*>(sr->stream.get())) {
          const auto plain = inflate(ds->inner->data);
          if (!plain) throw EvalError("invalid deflate stream");
          raw = *plain;
        } else if (auto* ms = dynamic_cast<MemoryStreamObject*>(sr->stream.get())) {
          raw = ms->data;
        } else {
          throw EvalError("unsupported stream for StreamReader");
        }
        std::string text = encoding_get_string(sr->encoding, raw);
        if (m == "readline") {
          const auto nl = text.find('\n');
          if (nl != std::string::npos) text = text.substr(0, nl);
        }
        return Value(std::move(text));
      }
      if (m == "close" || m == "dispose") return Value();
    }
    if (auto* rnd = dynamic_cast<RandomObject*>(obj.get())) {
      if (m == "next") {
        std::int64_t lo = 0, hi = 2147483647;
        if (args.size() == 1) hi = need_int(args[0], "Next");
        if (args.size() >= 2) {
          lo = need_int(args[0], "Next");
          hi = need_int(args[1], "Next");
        }
        note_write();
        return Value(rnd->next(lo, hi));
      }
    }
    if (auto* tc = dynamic_cast<TcpClientObject*>(obj.get())) {
      if (m == "getstream") {
        return Value(std::shared_ptr<PsObject>(
            std::make_shared<MemoryStreamObject>(Bytes{})));
      }
      if (m == "close" || m == "dispose") {
        (void)tc;
        return Value();
      }
      if (m == "connect") {
        const std::string host = args.empty() ? tc->host : args[0].to_display_string();
        const std::string port = args.size() > 1 ? args[1].to_display_string()
                                                 : std::to_string(tc->port);
        if (opts_.recorder != nullptr) {
          opts_.recorder->on_network("tcp", host + ":" + port);
        }
        return Value();
      }
    }
    if (auto* enc = dynamic_cast<EncodingObject*>(obj.get())) {
      if (m == "getstring") {
        if (args.empty()) throw EvalError("GetString needs bytes");
        return Value(encoding_get_string(enc->enc, need_bytes(args[0])));
      }
      if (m == "getbytes") {
        if (args.empty()) throw EvalError("GetBytes needs a string");
        return Value(encoding_get_bytes(enc->enc, args[0].to_display_string()));
      }
    }
    if (dynamic_cast<InvokeCommandObject*>(obj.get()) != nullptr) {
      if (m == "invokescript" || m == "invokeexpression") {
        // The engine-intrinsics Invoke-Expression disguise.
        if (args.empty()) return Value();
        return evaluate_script(args[0].to_display_string());
      }
      if (m == "newscriptblock") {
        return Value(ScriptBlock{args.empty() ? std::string()
                                              : args[0].to_display_string()});
      }
      if (m == "expandstring") {
        if (args.empty()) return Value(std::string());
        return expand_string(args[0].to_display_string(), {});
      }
    }
    if (m == "tostring") return Value(obj->to_display());
    if (m == "gettype") return Value(obj->type_name());
    if (m == "dispose" || m == "close") return Value();
  }

  if (m == "tostring") return Value(target.to_display_string());
  if (m == "gettype") return Value(target.type_name());
  throw EvalError("unknown method ." + member + " on " + target.type_name());
}

// --------------------------------------------------------- static members

Value Interpreter::static_member(const std::string& type_name,
                                 const std::string& member) {
  charge_step();
  const std::string t = normalize_type_name(type_name);
  const std::string m = to_lower(member);

  if (t == "text.encoding" || t == "encoding") {
    if (auto enc = encoding_by_name(m)) {
      return Value(std::shared_ptr<PsObject>(std::make_shared<EncodingObject>(*enc)));
    }
  }
  if (t == "io.compression.compressionmode" || t == "compressionmode") {
    if (m == "decompress") return Value(std::string("Decompress"));
    if (m == "compress") return Value(std::string("Compress"));
  }
  if (t == "environment") {
    if (m == "newline") return Value(std::string("\r\n"));
    if (m == "machinename") return Value(std::string("DESKTOP-SIM"));
    if (m == "username") return Value(std::string("user"));
    if (m == "osversion") return Value(std::string("Microsoft Windows NT 10.0.19041.0"));
    if (m == "currentdirectory") return Value(std::string("C:\\Users\\user"));
  }
  if (t == "math") {
    if (m == "pi") return Value(3.14159265358979323846);
    if (m == "e") return Value(2.71828182845904523536);
  }
  if (t == "int" || t == "int32") {
    if (m == "maxvalue") return Value(2147483647);
    if (m == "minvalue") return Value(static_cast<std::int64_t>(-2147483648LL));
  }
  if (t == "char") {
    if (m == "maxvalue") return Value(PsChar{0xFFFF});
  }
  if (t == "string") {
    if (m == "empty") return Value(std::string());
  }
  if (t == "io.compression.compressionlevel") {
    return Value(std::string(member));
  }
  if (t == "net.servicepointmanager" || t == "servicepointmanager") {
    if (m == "securityprotocol") return Value(std::string("Tls12"));
  }
  if (t == "net.securityprotocoltype" || t == "securityprotocoltype") {
    return Value(std::string(member));  // Tls12, Tls11, ... enum names
  }
  if (opts_.strict_variables) {
    throw EvalError("unknown static member [" + type_name + "]::" + member);
  }
  return Value();
}

Value Interpreter::static_invoke(const std::string& type_name,
                                 const std::string& member,
                                 const std::vector<Value>& args) {
  charge_step();
  const std::string t = normalize_type_name(type_name);
  const std::string m = to_lower(member);

  if (t == "convert") {
    if (m == "frombase64string") {
      if (args.empty()) throw EvalError("FromBase64String needs an arg");
      const auto bytes = base64_decode(args[0].to_display_string());
      if (!bytes) throw EvalError("invalid base64");
      return Value(*bytes);
    }
    if (m == "tobase64string") {
      if (args.empty()) throw EvalError("ToBase64String needs an arg");
      return Value(base64_encode(need_bytes(args[0])));
    }
    if (m == "toint32" || m == "toint16" || m == "toint64" || m == "tobyte") {
      if (args.empty()) throw EvalError("ToInt needs args");
      if (args.size() >= 2) {
        const int base = static_cast<int>(need_int(args[1], "base"));
        const auto v = convert_to_int(args[0].to_display_string(), base);
        if (!v) throw EvalError("bad digits for base " + std::to_string(base));
        return Value(*v);
      }
      return Value(need_int(args[0], "ToInt"));
    }
    if (m == "tochar") {
      if (args.empty()) throw EvalError("ToChar needs an arg");
      return Value(PsChar{static_cast<std::uint32_t>(need_int(args[0], "ToChar"))});
    }
    if (m == "tostring") {
      if (args.size() >= 2) {
        const int base = static_cast<int>(need_int(args[1], "base"));
        return Value(convert_to_string_base(need_int(args[0], "ToString"), base));
      }
      if (!args.empty()) return Value(args[0].to_display_string());
    }
  }

  if (t == "text.encoding" || t == "encoding") {
    if (m == "getencoding" && !args.empty()) {
      if (auto enc = encoding_by_name(args[0].to_display_string())) {
        return Value(std::shared_ptr<PsObject>(std::make_shared<EncodingObject>(*enc)));
      }
      throw EvalError("unknown encoding " + args[0].to_display_string());
    }
  }

  if (t == "string") {
    if (m == "join") {
      if (args.size() < 2) throw EvalError("Join needs 2 args");
      const std::string sep = args[0].to_display_string();
      std::string out;
      const std::vector<Value> items =
          args[1].is_array() ? args[1].get_array() : std::vector<Value>(args.begin() + 1, args.end());
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += sep;
        out += items[i].to_display_string();
      }
      return Value(std::move(out));
    }
    if (m == "concat") {
      std::string out;
      for (const Value& a : args) {
        for (const Value& item : a.is_array() ? a.get_array() : Array{a}) {
          out += item.to_display_string();
        }
      }
      return Value(std::move(out));
    }
    if (m == "format") {
      if (args.empty()) return Value(std::string());
      std::vector<Value> rest;
      if (args.size() == 2 && args[1].is_array()) {
        rest = args[1].get_array();
      } else {
        rest.assign(args.begin() + 1, args.end());
      }
      return Value(format_operator(args[0].to_display_string(), rest));
    }
    if (m == "isnullorempty") {
      return Value(args.empty() || args[0].to_display_string().empty());
    }
    if (m == "new") {
      // [string]::new(char[], ...) — join the chars.
      std::string out;
      if (!args.empty()) {
        for (const Value& item :
             args[0].is_array() ? args[0].get_array() : Array{args[0]}) {
          out += item.to_display_string();
        }
      }
      return Value(std::move(out));
    }
  }

  if (t == "array") {
    if (m == "reverse") {
      if (args.empty() || !args[0].is_array()) throw EvalError("Array.Reverse needs an array");
      Value copy = args[0];
      note_write();
      std::reverse(copy.get_array().begin(), copy.get_array().end());
      // .NET reverses in place; shared_ptr semantics make this visible to
      // the caller's variable as well.
      return Value();
    }
    if (m == "indexof") {
      if (args.size() < 2 || !args[0].is_array()) return Value(-1);
      const auto& arr = args[0].get_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (iequals(arr[i].to_display_string(), args[1].to_display_string())) {
          return Value(static_cast<std::int64_t>(i));
        }
      }
      return Value(-1);
    }
  }

  if (t == "char") {
    if (m == "convertfromutf32" && !args.empty()) {
      return Value(utf8_encode(static_cast<std::uint32_t>(need_int(args[0], m))));
    }
    if (m == "toupper" && !args.empty()) {
      std::string s = args[0].to_display_string();
      std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::toupper(c));
      });
      if (utf8_length(s) == 1) return Value(PsChar{utf8_codepoints(s)[0]});
      return Value(std::move(s));
    }
    if (m == "tolower" && !args.empty()) {
      const std::string s = to_lower(args[0].to_display_string());
      if (utf8_length(s) == 1) return Value(PsChar{utf8_codepoints(s)[0]});
      return Value(s);
    }
  }

  if (t == "math") {
    auto arg0 = [&]() {
      double d = 0;
      if (args.empty() || !args[0].try_to_double(d)) throw EvalError("Math needs a number");
      return d;
    };
    if (m == "abs") return Value(std::abs(arg0()));
    if (m == "floor") return Value(std::floor(arg0()));
    if (m == "ceiling") return Value(std::ceil(arg0()));
    if (m == "round") return Value(std::round(arg0()));
    if (m == "sqrt") return Value(std::sqrt(arg0()));
    if (m == "pow") {
      double b = 0;
      if (args.size() < 2 || !args[1].try_to_double(b)) throw EvalError("Pow needs 2 args");
      return Value(std::pow(arg0(), b));
    }
    if (m == "min") {
      double b = 0;
      if (args.size() < 2 || !args[1].try_to_double(b)) throw EvalError("Min needs 2 args");
      return Value(std::min(arg0(), b));
    }
    if (m == "max") {
      double b = 0;
      if (args.size() < 2 || !args[1].try_to_double(b)) throw EvalError("Max needs 2 args");
      return Value(std::max(arg0(), b));
    }
  }

  if (t == "environment") {
    if (m == "getenvironmentvariable" && !args.empty()) {
      const std::string* value = find_env(to_lower(args[0].to_display_string()));
      return Value(value != nullptr ? *value : std::string());
    }
    if (m == "getfolderpath" && !args.empty()) {
      return Value(std::string("C:\\Users\\user\\") + args[0].to_display_string());
    }
  }

  if (t == "runtime.interopservices.marshal" || t == "marshal") {
    if (m == "securestringtobstr" || m == "securestringtoglobalallocunicode") {
      if (args.empty() || !args[0].is_object()) throw EvalError("needs a SecureString");
      auto* ss = dynamic_cast<SecureStringObject*>(args[0].get_object().get());
      if (ss == nullptr) throw EvalError("needs a SecureString");
      return Value(std::shared_ptr<PsObject>(std::make_shared<BstrObject>(ss->plain)));
    }
    if (m == "ptrtostringauto" || m == "ptrtostringuni" || m == "ptrtostringbstr") {
      if (args.empty() || !args[0].is_object()) throw EvalError("needs a BSTR");
      auto* bstr = dynamic_cast<BstrObject*>(args[0].get_object().get());
      if (bstr == nullptr) throw EvalError("needs a BSTR");
      return Value(bstr->plain);
    }
    if (m == "zerofreebstr" || m == "zerofreeglobalallocunicode" || m == "freebstr") {
      return Value();
    }
    if (m == "copy") return Value();
  }

  if (t == "regex" || t == "text.regularexpressions.regex") {
    if (m == "matches") {
      if (args.size() < 2) throw EvalError("Regex.Matches needs 2 args");
      const std::string input = args[0].to_display_string();
      const std::string pattern = args[1].to_display_string();
      bool right_to_left = false;
      if (args.size() >= 3) {
        right_to_left =
            to_lower(args[2].to_display_string()).find("righttoleft") != std::string::npos;
      }
      Array out;
      try {
        for (std::string& match : Pattern(pattern, false).matches(input)) {
          out.push_back(Value(std::move(match)));
        }
      } catch (const PatternError&) {
        throw EvalError("bad regex " + pattern);
      }
      if (right_to_left) std::reverse(out.begin(), out.end());
      return Value(std::move(out));
    }
    if (m == "replace") {
      if (args.size() < 3) throw EvalError("Regex.Replace needs 3 args");
      try {
        const Pattern re(args[1].to_display_string(), false);
        return Value(re.replace(args[0].to_display_string(), args[2].to_display_string()));
      } catch (const PatternError&) {
        throw EvalError("bad regex");
      }
    }
    if (m == "split") {
      if (args.size() < 2) throw EvalError("Regex.Split needs 2 args");
      const std::string input = args[0].to_display_string();
      try {
        Array out;
        for (std::string& field : Pattern(args[1].to_display_string(), false).split(input)) {
          out.push_back(Value(std::move(field)));
        }
        return Value(std::move(out));
      } catch (const PatternError&) {
        throw EvalError("bad regex");
      }
    }
    if (m == "escape" && !args.empty()) {
      std::string out;
      for (char c : args[0].to_display_string()) {
        if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos) out.push_back('\\');
        out.push_back(c);
      }
      return Value(std::move(out));
    }
  }

  if (t == "guid") {
    if (m == "newguid") {
      return Value(std::string("00000000-dead-beef-0000-000000000000"));
    }
  }

  if (t == "io.file" || t == "file") {
    check_blocked(static_block_key(t, m));
    if (m == "readalltext" || m == "readallbytes") {
      if (opts_.recorder != nullptr && !args.empty()) {
        opts_.recorder->on_file("read", args[0].to_display_string());
      }
      std::string content =
          read_virtual_file(args.empty() ? "" : args[0].to_display_string());
      if (m == "readallbytes") {
        return Value(Bytes(content.begin(), content.end()));
      }
      return Value(std::move(content));
    }
    if (m == "writealltext" || m == "writeallbytes") {
      if (!args.empty()) {
        std::string content;
        if (args.size() > 1) {
          if (args[1].is_bytes()) {
            const Bytes& b = args[1].get_bytes();
            content.assign(b.begin(), b.end());
          } else {
            content = args[1].to_display_string();
          }
        }
        virtual_fs_[to_lower(args[0].to_display_string())] = std::move(content);
        note_write();
        if (opts_.recorder != nullptr) {
          opts_.recorder->on_file("write", args[0].to_display_string());
        }
      }
      return Value();
    }
    if (m == "exists") {
      return Value(!args.empty() &&
                   virtual_fs_.count(to_lower(args[0].to_display_string())) > 0);
    }
  }

  if ((t == "int" || t == "int32" || t == "int64") && m == "parse" && !args.empty()) {
    return Value(need_int(args[0], "Parse"));
  }

  if (m == "new") {
    return construct_object(t, args);
  }

  throw EvalError("unknown static method [" + type_name + "]::" + member);
}

// ----------------------------------------------------------- construction

Value Interpreter::construct_object(const std::string& type_name,
                                    const std::vector<Value>& args) {
  charge_step();
  const std::string t = normalize_type_name(type_name);

  if (t == "net.webclient") {
    return Value(std::shared_ptr<PsObject>(std::make_shared<WebClientObject>()));
  }
  if (t == "io.memorystream") {
    Bytes data;
    if (!args.empty()) data = need_bytes(args[0]);
    return Value(std::shared_ptr<PsObject>(
        std::make_shared<MemoryStreamObject>(std::move(data))));
  }
  if (t == "io.compression.deflatestream" || t == "io.compression.gzipstream") {
    if (args.empty() || !args[0].is_object()) {
      throw EvalError("DeflateStream needs a stream");
    }
    auto inner = std::dynamic_pointer_cast<MemoryStreamObject>(args[0].get_object());
    if (inner == nullptr) throw EvalError("DeflateStream needs a MemoryStream");
    bool decompress = true;
    if (args.size() >= 2) {
      decompress = iequals(args[1].to_display_string(), "decompress");
    }
    if (t == "io.compression.gzipstream" && inner->data.size() > 10 &&
        inner->data[0] == 0x1F && inner->data[1] == 0x8B) {
      // Strip the gzip header so the deflate body inflates directly.
      Bytes body(inner->data.begin() + 10, inner->data.end());
      if (body.size() > 8) body.resize(body.size() - 8);  // drop CRC32+ISIZE
      inner = std::make_shared<MemoryStreamObject>(std::move(body));
    }
    return Value(std::shared_ptr<PsObject>(
        std::make_shared<DeflateStreamObject>(std::move(inner), decompress)));
  }
  if (t == "io.streamreader") {
    if (args.empty() || !args[0].is_object()) throw EvalError("StreamReader needs a stream");
    TextEncoding enc = TextEncoding::Utf8;
    if (args.size() >= 2) {
      if (args[1].is_object()) {
        if (auto* eo = dynamic_cast<EncodingObject*>(args[1].get_object().get())) {
          enc = eo->enc;
        }
      } else if (auto maybe = encoding_by_name(args[1].to_display_string())) {
        enc = *maybe;
      }
    }
    return Value(std::shared_ptr<PsObject>(
        std::make_shared<StreamReaderObject>(args[0].get_object(), enc)));
  }
  if (t == "random" || t == "system.random") {
    std::uint64_t seed = 0x9E3779B97F4A7C15ull;
    if (!args.empty()) seed = static_cast<std::uint64_t>(need_int(args[0], "seed"));
    return Value(std::shared_ptr<PsObject>(std::make_shared<RandomObject>(seed)));
  }
  if (t == "net.sockets.tcpclient") {
    std::string host = args.empty() ? "" : args[0].to_display_string();
    const int port = args.size() > 1 ? static_cast<int>(need_int(args[1], "port")) : 0;
    check_blocked("new-object net.sockets.tcpclient");
    if (opts_.recorder != nullptr && !host.empty()) {
      opts_.recorder->on_network("dns", host);
      opts_.recorder->on_network("tcp", host + ":" + std::to_string(port));
    }
    return Value(std::shared_ptr<PsObject>(
        std::make_shared<TcpClientObject>(std::move(host), port)));
  }
  if (t == "uri" || t == "system.uri") {
    return Value(args.empty() ? std::string() : args[0].to_display_string());
  }
  if (t == "security.securestring" || t == "securestring") {
    return Value(std::shared_ptr<PsObject>(std::make_shared<SecureStringObject>("")));
  }
  if (t == "object") {
    class GenericObject final : public PsObject {
     public:
      std::string type_name() const override { return "System.Object"; }
    };
    return Value(std::shared_ptr<PsObject>(std::make_shared<GenericObject>()));
  }

  // Unknown types become opaque objects: the recovery layer then keeps the
  // original piece (paper: Object results are not writable back as strings).
  class NamedObject final : public PsObject {
   public:
    explicit NamedObject(std::string name) : name_(std::move(name)) {}
    std::string type_name() const override { return name_; }

   private:
    std::string name_;
  };
  std::string full = type_name;
  if (normalize_type_name(full) == to_lower(full)) {
    full = "System." + full;  // cosmetic: .NET-style display name
  }
  return Value(std::shared_ptr<PsObject>(std::make_shared<NamedObject>(full)));
}

// ----------------------------------------------------- member eval glue

Value Interpreter::eval_member(const MemberExpressionAst& mem, std::string_view src) {
  std::string member_name;
  if (mem.member->kind() == NodeKind::StringConstantExpression) {
    member_name = static_cast<const StringConstantExpressionAst*>(mem.member.get())->value;
  } else {
    member_name = eval_expr(*mem.member, src).to_display_string();
  }
  if (mem.is_static || mem.target->kind() == NodeKind::TypeExpression) {
    const auto& ty = static_cast<const TypeExpressionAst&>(*mem.target);
    return static_member(ty.type_name, member_name);
  }
  const Value target = eval_expr(*mem.target, src);
  return instance_member(target, member_name);
}

Value Interpreter::eval_invoke_member(const InvokeMemberExpressionAst& inv,
                                      std::string_view src) {
  std::string member_name;
  if (inv.member->kind() == NodeKind::StringConstantExpression) {
    member_name = static_cast<const StringConstantExpressionAst*>(inv.member.get())->value;
  } else {
    member_name = eval_expr(*inv.member, src).to_display_string();
  }
  std::vector<Value> args;
  args.reserve(inv.arguments.size());
  for (const auto& a : inv.arguments) args.push_back(eval_expr(*a, src));

  if (inv.is_static && inv.target->kind() == NodeKind::TypeExpression) {
    const auto& ty = static_cast<const TypeExpressionAst&>(*inv.target);
    return static_invoke(ty.type_name, member_name, args);
  }
  const Value target = eval_expr(*inv.target, src);
  return instance_invoke(target, member_name, args);
}

}  // namespace ps
