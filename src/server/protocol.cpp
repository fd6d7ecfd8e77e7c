#include "server/protocol.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "analysis/json_writer.h"
#include "frontends/registry.h"
#include "server/json.h"

namespace ideobf::server {

namespace {

bool type_error(std::string& error, std::string_view key, const char* want) {
  error = "field '";
  error += key;
  error += "' must be ";
  error += want;
  return false;
}

bool read_bool(const JsonValue& obj, std::string_view key, bool& out,
               std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_bool()) return type_error(error, key, "a boolean");
  out = v->as_bool();
  return true;
}

bool read_double(const JsonValue& obj, std::string_view key, double& out,
                 std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_number()) return type_error(error, key, "a number");
  out = v->as_double();
  return true;
}

template <typename T>
bool read_uint(const JsonValue& obj, std::string_view key, T& out,
               std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  // ldexp(1.0, digits) is 2^bits(T), exactly representable as a double;
  // casting a value at or beyond it (wire input like 1e300, or any NaN /
  // infinity) would be undefined behavior, so those are schema errors.
  const double d = v->is_number() ? v->as_double() : -1.0;
  if (!v->is_number() || d < 0.0 || std::floor(d) != d ||
      !(d < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    return type_error(error, key, "a non-negative integer in range");
  }
  out = static_cast<T>(d);
  return true;
}

bool read_int(const JsonValue& obj, std::string_view key, int& out,
              std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  const double limit = std::ldexp(1.0, std::numeric_limits<int>::digits);
  const double d = v->is_number() ? v->as_double() : 0.5;
  if (!v->is_number() || std::floor(d) != d ||
      !(d < limit && d >= -limit)) {
    return type_error(error, key, "an integer in range");
  }
  out = static_cast<int>(d);
  return true;
}

bool read_string(const JsonValue& obj, std::string_view key, std::string& out,
                 std::string& error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) return type_error(error, key, "a string");
  out = v->as_string();
  return true;
}

/// Rejects keys outside `allowed` (strict schema: a typoed knob must fail
/// loudly, not silently run with defaults).
bool check_keys(const JsonValue& obj, std::initializer_list<std::string_view> allowed,
                std::string_view where, std::string& error) {
  const JsonValue::Object* o = obj.as_object();
  if (o == nullptr) return true;
  for (const auto& [key, value] : *o) {
    bool ok = false;
    for (std::string_view a : allowed) {
      if (key == a) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      error = "unknown key '";
      error += key;
      error += "' in ";
      error += where;
      return false;
    }
  }
  return true;
}

bool parse_options_object(const JsonValue& v, Options& out, std::string& error) {
  if (!v.is_object()) return type_error(error, "options", "an object");
  if (!check_keys(v,
                  {"token_pass", "ast_recovery", "multilayer", "rename",
                   "reformat", "parse_cache", "threads", "limits", "telemetry",
                   "recovery"},
                  "options", error)) {
    return false;
  }
  if (!read_bool(v, "token_pass", out.token_pass, error)) return false;
  if (!read_bool(v, "ast_recovery", out.ast_recovery, error)) return false;
  if (!read_bool(v, "multilayer", out.multilayer, error)) return false;
  if (!read_bool(v, "rename", out.rename, error)) return false;
  if (!read_bool(v, "reformat", out.reformat, error)) return false;
  if (!read_bool(v, "parse_cache", out.parse_cache, error)) return false;
  if (!read_uint(v, "threads", out.threads, error)) return false;

  if (const JsonValue* limits = v.find("limits"); limits != nullptr) {
    if (!limits->is_object()) return type_error(error, "limits", "an object");
    if (!check_keys(*limits,
                    {"deadline_seconds", "memory_budget_bytes", "degrade",
                     "max_layers", "max_steps_per_piece", "max_piece_size",
                     "watchdog_factor"},
                    "options.limits", error)) {
      return false;
    }
    if (!read_double(*limits, "deadline_seconds", out.limits.deadline_seconds,
                     error)) {
      return false;
    }
    if (!read_uint(*limits, "memory_budget_bytes",
                   out.limits.memory_budget_bytes, error)) {
      return false;
    }
    if (!read_bool(*limits, "degrade", out.limits.degrade, error)) return false;
    if (!read_int(*limits, "max_layers", out.limits.max_layers, error)) {
      return false;
    }
    if (!read_uint(*limits, "max_steps_per_piece",
                   out.limits.max_steps_per_piece, error)) {
      return false;
    }
    if (!read_uint(*limits, "max_piece_size", out.limits.max_piece_size,
                   error)) {
      return false;
    }
    if (!read_double(*limits, "watchdog_factor", out.limits.watchdog_factor,
                     error)) {
      return false;
    }
  }

  if (const JsonValue* tele = v.find("telemetry"); tele != nullptr) {
    if (!tele->is_object()) return type_error(error, "telemetry", "an object");
    if (!check_keys(*tele, {"collect_trace", "max_trace_events"},
                    "options.telemetry", error)) {
      return false;
    }
    if (!read_bool(*tele, "collect_trace", out.telemetry.collect_trace,
                   error)) {
      return false;
    }
    if (!read_uint(*tele, "max_trace_events", out.telemetry.max_trace_events,
                   error)) {
      return false;
    }
  }

  if (const JsonValue* rec = v.find("recovery"); rec != nullptr) {
    if (!rec->is_object()) return type_error(error, "recovery", "an object");
    if (!check_keys(*rec,
                    {"trace_functions", "memo", "extra_blocklist"},
                    "options.recovery", error)) {
      return false;
    }
    if (!read_bool(*rec, "trace_functions", out.recovery.trace_functions,
                   error)) {
      return false;
    }
    if (!read_bool(*rec, "memo", out.recovery.memo, error)) return false;
    if (const JsonValue* bl = rec->find("extra_blocklist"); bl != nullptr) {
      const JsonValue::Array* arr = bl->as_array();
      if (arr == nullptr) {
        return type_error(error, "extra_blocklist", "an array of strings");
      }
      for (const JsonValue& item : *arr) {
        if (!item.is_string()) {
          return type_error(error, "extra_blocklist", "an array of strings");
        }
        out.recovery.extra_blocklist.push_back(item.as_string());
      }
    }
  }
  return true;
}

TraceEvent::Kind trace_kind_from_string(std::string_view name) {
  if (name == "token") return TraceEvent::Kind::TokenNormalized;
  if (name == "recovered") return TraceEvent::Kind::PieceRecovered;
  if (name == "traced") return TraceEvent::Kind::VariableTraced;
  if (name == "substituted") return TraceEvent::Kind::VariableSubstituted;
  if (name == "unwrapped") return TraceEvent::Kind::LayerUnwrapped;
  return TraceEvent::Kind::Renamed;
}

}  // namespace

bool parse_request_line(std::string_view line, WireRequest& out,
                        std::string& error) {
  std::optional<JsonValue> doc = parse_json(line, &error);
  if (!doc.has_value()) return false;
  if (!doc->is_object()) {
    error = "request line must be a JSON object";
    return false;
  }
  if (!check_keys(*doc,
                  {"op", "id", "source", "language", "deadline_ms", "trace",
                   "server_trace", "options", "scope"},
                  "request", error)) {
    return false;
  }

  std::string op = "deobfuscate";
  if (!read_string(*doc, "op", op, error)) return false;
  if (op == "ping") {
    out.op = WireRequest::Op::Ping;
    return true;
  }
  if (op == "metrics") {
    out.op = WireRequest::Op::Metrics;
    std::string scope;
    if (!read_string(*doc, "scope", scope, error)) return false;
    if (scope == "fleet") {
      out.fleet_scope = true;
    } else if (!scope.empty() && scope != "process") {
      error = "unknown metrics scope '" + scope + "'";
      return false;
    }
    return true;
  }
  if (op == "shutdown") {
    out.op = WireRequest::Op::Shutdown;
    return true;
  }
  if (op == "ready") {
    out.op = WireRequest::Op::Ready;
    return true;
  }
  if (op == "live") {
    out.op = WireRequest::Op::Live;
    return true;
  }
  if (op == "trace") {
    out.op = WireRequest::Op::Trace;
    return true;
  }
  if (op == "debug") {
    out.op = WireRequest::Op::Debug;
    return true;
  }
  if (op != "deobfuscate") {
    error = "unknown op '" + op + "'";
    return false;
  }

  out.op = WireRequest::Op::Deobfuscate;
  out.request = Request{};
  if (!read_string(*doc, "id", out.request.id, error)) return false;
  JsonValue* source = doc->find("source");
  if (source == nullptr || !source->is_string()) {
    error = "deobfuscate request needs a string 'source'";
    return false;
  }
  // The document dies with this call: move the script out, do not copy it.
  out.request.source = source->take_string();
  if (!read_string(*doc, "language", out.request.language, error)) {
    return false;
  }
  // Strict like the rest of the schema: a typoed or unregistered language
  // must fail loudly here, not fall through to an engine passthrough.
  if (!valid_request_language(out.request.language)) {
    error = "unknown language '" + out.request.language + "'";
    return false;
  }
  if (!read_uint(*doc, "deadline_ms", out.request.deadline_ms, error)) {
    return false;
  }
  if (!read_bool(*doc, "trace", out.request.trace, error)) return false;
  if (!read_bool(*doc, "server_trace", out.request.server_trace, error)) {
    return false;
  }
  if (const JsonValue* options = doc->find("options"); options != nullptr) {
    Options parsed;
    if (!parse_options_object(*options, parsed, error)) return false;
    out.request.options = std::move(parsed);
  }
  return true;
}

std::string_view status_of(const Response& response) {
  if (!response.ok) return kStatusFailed;
  if (response.report.degradation_rung > 0) return kStatusDegraded;
  return kStatusOk;
}

std::string render_response_line(const Response& response) {
  return render_response_line(response, ResponseExtras{});
}

std::string render_response_line(const Response& response,
                                 const ResponseExtras& extras) {
  JsonWriter w;
  w.begin_object();
  w.field("id", response.id);
  if (!extras.request_id.empty()) w.field("request_id", extras.request_id);
  w.field("status", status_of(response));
  if (!response.language.empty()) w.field("language", response.language);
  w.field("result", response.result);
  w.field("failure", to_string(response.failure));
  w.field("failure_detail", response.failure_detail);
  w.field("rung", response.report.degradation_rung);
  w.field("attempts", response.report.attempts);
  w.field("passes", response.report.passes);
  w.field("seconds", response.seconds);
  w.key("report");
  w.begin_object();
  w.key("token");
  w.begin_object();
  w.field("ticks_removed", response.report.token.ticks_removed);
  w.field("aliases_expanded", response.report.token.aliases_expanded);
  w.field("case_normalized", response.report.token.case_normalized);
  w.end_object();
  w.key("recovery");
  w.begin_object();
  w.field("pieces_recovered", response.report.recovery.pieces_recovered);
  w.field("variables_traced", response.report.recovery.variables_traced);
  w.field("variables_substituted",
          response.report.recovery.variables_substituted);
  w.field("pieces_failed", response.report.recovery.pieces_failed);
  w.field("memo_hits", response.report.recovery.memo_hits);
  w.field("memo_misses", response.report.recovery.memo_misses);
  w.field("worst_failure",
          to_string(response.report.recovery.worst_failure));
  w.end_object();
  w.key("multilayer");
  w.begin_object();
  w.field("layers_unwrapped", response.report.multilayer.layers_unwrapped);
  w.end_object();
  w.key("rename");
  w.begin_object();
  w.field("renamed", response.report.rename.renamed);
  w.field("variables_renamed", response.report.rename.variables_renamed);
  w.field("functions_renamed", response.report.rename.functions_renamed);
  w.end_object();
  w.end_object();
  if (!response.report.trace.empty()) {
    w.begin_array("trace");
    for (const TraceEvent& e : response.report.trace) {
      w.begin_object();
      w.field("kind", to_string(e.kind));
      w.field("offset", static_cast<std::int64_t>(e.offset));
      w.field("before", e.before);
      w.field("after", e.after);
      w.field("pass", e.pass);
      w.end_object();
    }
    w.end_array();
  }
  if (response.report.trace_truncated) {
    w.field("trace_truncated", true);
    w.field("trace_dropped",
            static_cast<std::int64_t>(response.report.trace_dropped));
  }
  if (extras.server_trace) {
    const telemetry::PipelineProfile& profile = response.report.profile;
    w.key("server_trace");
    w.begin_object();
    w.field("worker", extras.worker);
    w.field("queue_seconds", extras.queue_seconds);
    w.field("cache_seconds", extras.cache_seconds);
    w.field("engine_seconds",
            profile.total_seconds(telemetry::Phase::Pipeline));
    w.field("accounted_seconds", profile.accounted_seconds());
    w.begin_array("phases");
    for (std::size_t i = 0; i < telemetry::kPhaseCount; ++i) {
      const auto phase = static_cast<telemetry::Phase>(i);
      const telemetry::PhaseStat& stat = profile.stat(phase);
      if (stat.count == 0) continue;
      w.begin_object();
      w.field("phase", telemetry::phase_name(phase));
      w.field("count", static_cast<std::int64_t>(stat.count));
      w.field("self_seconds", profile.self_seconds(phase));
      w.field("total_seconds", profile.total_seconds(phase));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string render_error_line(std::string_view id, std::string_view status,
                              std::string_view message,
                              std::string_view request_id) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  if (!request_id.empty()) w.field("request_id", request_id);
  w.field("status", status);
  w.field("error", message);
  w.end_object();
  return w.str();
}

std::string render_overloaded_line(std::string_view id,
                                   std::string_view message,
                                   std::uint64_t retry_after_ms,
                                   std::string_view request_id) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  if (!request_id.empty()) w.field("request_id", request_id);
  w.field("status", kStatusOverloaded);
  w.field("error", message);
  w.field("retry_after_ms", static_cast<std::int64_t>(retry_after_ms));
  w.end_object();
  return w.str();
}

std::string render_ready_line(bool ready) {
  JsonWriter w;
  w.begin_object();
  w.field("status", kStatusOk);
  w.field("ready", ready);
  w.end_object();
  return w.str();
}

std::string render_live_line() {
  JsonWriter w;
  w.begin_object();
  w.field("status", kStatusOk);
  w.field("live", true);
  w.end_object();
  return w.str();
}

std::string render_metrics_line(std::string_view exposition, int worker,
                                int fleet_workers) {
  JsonWriter w;
  w.begin_object();
  w.field("status", kStatusOk);
  if (worker >= 0) w.field("worker", static_cast<std::int64_t>(worker));
  if (fleet_workers >= 0) {
    w.field("fleet_workers", static_cast<std::int64_t>(fleet_workers));
  }
  w.field("metrics", exposition);
  w.end_object();
  return w.str();
}

std::string render_pong_line() {
  JsonWriter w;
  w.begin_object();
  w.field("status", kStatusOk);
  w.field("pong", true);
  w.end_object();
  return w.str();
}

std::string render_shutdown_line() {
  JsonWriter w;
  w.begin_object();
  w.field("status", kStatusOk);
  w.field("shutdown", true);
  w.end_object();
  return w.str();
}

std::string render_request_line(const Request& request) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "deobfuscate");
  if (!request.id.empty()) w.field("id", request.id);
  w.field("source", request.source);
  if (!request.language.empty()) w.field("language", request.language);
  if (request.deadline_ms != 0) {
    w.field("deadline_ms", static_cast<std::int64_t>(request.deadline_ms));
  }
  if (request.trace) w.field("trace", true);
  if (request.server_trace) w.field("server_trace", true);
  if (request.options.has_value()) {
    const Options& o = *request.options;
    w.key("options");
    w.begin_object();
    w.field("token_pass", o.token_pass);
    w.field("ast_recovery", o.ast_recovery);
    w.field("multilayer", o.multilayer);
    w.field("rename", o.rename);
    w.field("reformat", o.reformat);
    w.field("parse_cache", o.parse_cache);
    if (o.threads != 0) {
      w.field("threads", static_cast<std::int64_t>(o.threads));
    }
    w.key("limits");
    w.begin_object();
    w.field("deadline_seconds", o.limits.deadline_seconds);
    w.field("memory_budget_bytes",
            static_cast<std::int64_t>(o.limits.memory_budget_bytes));
    w.field("degrade", o.limits.degrade);
    w.field("max_layers", o.limits.max_layers);
    w.field("max_steps_per_piece",
            static_cast<std::int64_t>(o.limits.max_steps_per_piece));
    w.field("max_piece_size",
            static_cast<std::int64_t>(o.limits.max_piece_size));
    w.field("watchdog_factor", o.limits.watchdog_factor);
    w.end_object();
    w.key("telemetry");
    w.begin_object();
    w.field("collect_trace", o.telemetry.collect_trace);
    w.field("max_trace_events",
            static_cast<std::int64_t>(o.telemetry.max_trace_events));
    w.end_object();
    w.key("recovery");
    w.begin_object();
    w.field("trace_functions", o.recovery.trace_functions);
    w.field("memo", o.recovery.memo);
    if (!o.recovery.extra_blocklist.empty()) {
      w.begin_array("extra_blocklist");
      for (const std::string& name : o.recovery.extra_blocklist) {
        w.value(name);
      }
      w.end_array();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::string render_op_line(std::string_view op, std::string_view scope) {
  JsonWriter w;
  w.begin_object();
  w.field("op", op);
  if (!scope.empty()) w.field("scope", scope);
  w.end_object();
  return w.str();
}

bool parse_reply_line(std::string_view line, ServeReply& out,
                      std::string& error) {
  std::optional<JsonValue> doc = parse_json(line, &error);
  if (!doc.has_value()) return false;
  if (!doc->is_object()) {
    error = "reply line must be a JSON object";
    return false;
  }
  const JsonValue* status = doc->find("status");
  if (status == nullptr || !status->is_string()) {
    error = "reply has no 'status'";
    return false;
  }
  out = ServeReply{};
  out.status = status->as_string();

  Response& r = out.response;
  if (const JsonValue* v = doc->find("id"); v != nullptr) r.id = v->as_string();
  if (const JsonValue* v = doc->find("result"); v != nullptr) {
    r.result = v->as_string();
  }
  if (const JsonValue* v = doc->find("language"); v != nullptr) {
    r.language = v->as_string();
  }
  if (const JsonValue* v = doc->find("failure"); v != nullptr) {
    r.failure = ideobf::failure_from_string(v->as_string());
    r.report.failure = r.failure;
  }
  if (const JsonValue* v = doc->find("failure_detail"); v != nullptr) {
    r.failure_detail = v->as_string();
    r.report.failure_detail = r.failure_detail;
  }
  if (const JsonValue* v = doc->find("error"); v != nullptr) {
    r.failure_detail = v->as_string();
  }
  if (const JsonValue* v = doc->find("cached"); v != nullptr) {
    out.cached = v->as_bool();
  }
  if (const JsonValue* v = doc->find("retry_after_ms"); v != nullptr) {
    out.retry_after_ms = static_cast<std::uint64_t>(v->as_double());
  }
  if (const JsonValue* v = doc->find("rung"); v != nullptr) {
    r.report.degradation_rung = static_cast<int>(v->as_double());
  }
  if (const JsonValue* v = doc->find("attempts"); v != nullptr) {
    r.report.attempts = static_cast<int>(v->as_double());
  }
  if (const JsonValue* v = doc->find("passes"); v != nullptr) {
    r.report.passes = static_cast<int>(v->as_double());
  }
  if (const JsonValue* v = doc->find("seconds"); v != nullptr) {
    r.seconds = v->as_double();
  }
  if (const JsonValue* report = doc->find("report"); report != nullptr) {
    if (const JsonValue* t = report->find("token"); t != nullptr) {
      r.report.token.ticks_removed =
          static_cast<int>(t->find("ticks_removed") != nullptr
                               ? t->find("ticks_removed")->as_double()
                               : 0.0);
      r.report.token.aliases_expanded =
          static_cast<int>(t->find("aliases_expanded") != nullptr
                               ? t->find("aliases_expanded")->as_double()
                               : 0.0);
      r.report.token.case_normalized =
          static_cast<int>(t->find("case_normalized") != nullptr
                               ? t->find("case_normalized")->as_double()
                               : 0.0);
    }
    if (const JsonValue* rec = report->find("recovery"); rec != nullptr) {
      auto geti = [&](const char* key) {
        const JsonValue* v = rec->find(key);
        return v != nullptr ? static_cast<int>(v->as_double()) : 0;
      };
      r.report.recovery.pieces_recovered = geti("pieces_recovered");
      r.report.recovery.variables_traced = geti("variables_traced");
      r.report.recovery.variables_substituted = geti("variables_substituted");
      r.report.recovery.pieces_failed = geti("pieces_failed");
      r.report.recovery.memo_hits = geti("memo_hits");
      r.report.recovery.memo_misses = geti("memo_misses");
      if (const JsonValue* wf = rec->find("worst_failure"); wf != nullptr) {
        r.report.recovery.worst_failure =
            ideobf::failure_from_string(wf->as_string());
      }
    }
    if (const JsonValue* ml = report->find("multilayer"); ml != nullptr) {
      if (const JsonValue* v = ml->find("layers_unwrapped"); v != nullptr) {
        r.report.multilayer.layers_unwrapped = static_cast<int>(v->as_double());
      }
    }
    if (const JsonValue* rn = report->find("rename"); rn != nullptr) {
      if (const JsonValue* v = rn->find("renamed"); v != nullptr) {
        r.report.rename.renamed = v->as_bool();
      }
      if (const JsonValue* v = rn->find("variables_renamed"); v != nullptr) {
        r.report.rename.variables_renamed = static_cast<int>(v->as_double());
      }
      if (const JsonValue* v = rn->find("functions_renamed"); v != nullptr) {
        r.report.rename.functions_renamed = static_cast<int>(v->as_double());
      }
    }
  }
  if (const JsonValue* trace = doc->find("trace"); trace != nullptr) {
    if (const JsonValue::Array* arr = trace->as_array(); arr != nullptr) {
      for (const JsonValue& ev : *arr) {
        TraceEvent e;
        if (const JsonValue* v = ev.find("kind"); v != nullptr) {
          e.kind = trace_kind_from_string(v->as_string());
        }
        if (const JsonValue* v = ev.find("offset"); v != nullptr) {
          e.offset = static_cast<std::size_t>(v->as_double());
        }
        if (const JsonValue* v = ev.find("before"); v != nullptr) {
          e.before = v->as_string();
        }
        if (const JsonValue* v = ev.find("after"); v != nullptr) {
          e.after = v->as_string();
        }
        if (const JsonValue* v = ev.find("pass"); v != nullptr) {
          e.pass = static_cast<int>(v->as_double());
        }
        r.report.trace.push_back(std::move(e));
      }
    }
  }
  if (const JsonValue* v = doc->find("trace_truncated"); v != nullptr) {
    r.report.trace_truncated = v->as_bool();
  }
  if (const JsonValue* v = doc->find("trace_dropped"); v != nullptr) {
    r.report.trace_dropped = static_cast<std::size_t>(v->as_double());
  }
  if (const JsonValue* v = doc->find("request_id"); v != nullptr) {
    out.request_id = v->as_string();
  }
  if (const JsonValue* st = doc->find("server_trace"); st != nullptr) {
    ServerTrace& t = out.server_trace;
    t.present = true;
    auto getd = [&](const char* key) {
      const JsonValue* v = st->find(key);
      return v != nullptr ? v->as_double() : 0.0;
    };
    if (const JsonValue* v = st->find("worker"); v != nullptr) {
      t.worker = static_cast<int>(v->as_double());
    }
    t.queue_seconds = getd("queue_seconds");
    t.cache_seconds = getd("cache_seconds");
    t.engine_seconds = getd("engine_seconds");
    t.accounted_seconds = getd("accounted_seconds");
    if (const JsonValue* phases = st->find("phases"); phases != nullptr) {
      if (const JsonValue::Array* arr = phases->as_array(); arr != nullptr) {
        for (const JsonValue& p : *arr) {
          ServerTrace::PhaseBreakdown b;
          if (const JsonValue* v = p.find("phase"); v != nullptr) {
            b.phase = v->as_string();
          }
          if (const JsonValue* v = p.find("count"); v != nullptr) {
            b.count = static_cast<std::uint64_t>(v->as_double());
          }
          if (const JsonValue* v = p.find("self_seconds"); v != nullptr) {
            b.self_seconds = v->as_double();
          }
          if (const JsonValue* v = p.find("total_seconds"); v != nullptr) {
            b.total_seconds = v->as_double();
          }
          t.phases.push_back(std::move(b));
        }
      }
    }
  }
  r.ok = out.status == kStatusOk || out.status == kStatusDegraded;
  return true;
}

}  // namespace ideobf::server
