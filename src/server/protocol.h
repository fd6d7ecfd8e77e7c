#pragma once

/// \file protocol.h
/// The `ideobf serve` wire protocol: newline-delimited JSON, one request
/// object per line in, one response object per line out. Replies echo the
/// request's `id` and must be matched by it: pipelined requests on one
/// connection may be answered out of order (a shared-cache hit is answered
/// at admission, ahead of earlier requests still in the engine). The schema is a 1:1 rendering of the public
/// `ideobf::Request` / `ideobf::Response` pair (include/ideobf/api.h) plus
/// three service ops — the server is the first consumer of the unified API,
/// not a second code path. Full worked examples: docs/SERVER.md.
///
/// Protocol statuses are a superset of the pipeline taxonomy: "overloaded"
/// (bounded-queue backpressure), "invalid" (malformed request) and
/// "shutting-down" never reach the pipeline, so they are protocol-level
/// verdicts, not FailureKinds.

#include <cstdint>
#include <string>
#include <string_view>

#include "ideobf/api.h"
#include "ideobf/client.h"

namespace ideobf::server {

// Protocol status strings (the `status` field of every response line).
inline constexpr std::string_view kStatusOk = "ok";
inline constexpr std::string_view kStatusDegraded = "degraded";
inline constexpr std::string_view kStatusFailed = "failed";
inline constexpr std::string_view kStatusOverloaded = "overloaded";
inline constexpr std::string_view kStatusInvalid = "invalid";
inline constexpr std::string_view kStatusShuttingDown = "shutting-down";

/// One parsed request line.
struct WireRequest {
  enum class Op {
    Deobfuscate,  ///< run the pipeline on `request`
    Ping,         ///< liveness round trip
    Metrics,      ///< Prometheus exposition of the process registry
    Shutdown,     ///< graceful drain: stop accepting, serve in-flight, exit
    Ready,        ///< readiness probe: accepting and not draining
    Live,         ///< liveness probe: the process answers at all
    Trace,        ///< Chrome trace JSON of the armed --trace-out recorder
    Debug,        ///< flight-recorder dump: recent request summaries
  };
  Op op = Op::Deobfuscate;
  Request request;  ///< meaningful for Op::Deobfuscate only
  /// For Op::Metrics: `"scope":"fleet"` asked for every worker's snapshot
  /// merged, not just this process's registry.
  bool fleet_scope = false;
};

/// Parses one request line. Strict: unknown top-level keys, wrong types, a
/// missing `source` on a deobfuscate op, or malformed JSON all fail with a
/// human-readable reason in `error` (the server answers those with an
/// "invalid" response rather than guessing).
bool parse_request_line(std::string_view line, WireRequest& out,
                        std::string& error);

/// The pipeline verdict of a served response: "ok" (full-strength output),
/// "degraded" (a lower ladder rung served real output), "failed"
/// (passthrough or sealed exception — Response::ok is false).
std::string_view status_of(const Response& response);

/// Server-side context spliced into a deobfuscate response line.
struct ResponseExtras {
  /// Echoed as `"request_id"` right after `id` when non-empty.
  std::string_view request_id;
  /// Fleet worker index; part of the server_trace object.
  int worker = -1;
  /// Render the `server_trace` object (queue/cache/engine breakdown from
  /// response.report.profile) — set for `"trace": true` requests.
  bool server_trace = false;
  double queue_seconds = 0.0;  ///< admission -> worker-slot dispatch
  double cache_seconds = 0.0;  ///< shared-cache lookup at admission
};

/// Renders a deobfuscate response line (no trailing newline).
std::string render_response_line(const Response& response);
std::string render_response_line(const Response& response,
                                 const ResponseExtras& extras);

/// Renders a service-level refusal/ack line: {"id":..,"status":..,"error":..}.
std::string render_error_line(std::string_view id, std::string_view status,
                              std::string_view message,
                              std::string_view request_id = {});

/// Renders an admission-control refusal: an "overloaded" error line carrying
/// `retry_after_ms`, the client's earliest useful retry time.
std::string render_overloaded_line(std::string_view id,
                                   std::string_view message,
                                   std::uint64_t retry_after_ms,
                                   std::string_view request_id = {});

/// Renders the ready/live probe replies:
/// {"status":"ok","ready":true|false} / {"status":"ok","live":true}.
std::string render_ready_line(bool ready);
std::string render_live_line();

/// Renders the metrics reply: {"status":"ok","worker":N,"metrics":"..."},
/// plus `"fleet_workers":M` when `fleet_workers >= 0` (the fleet-scope
/// merge). `worker < 0` omits the attribution (no fleet identity).
std::string render_metrics_line(std::string_view exposition, int worker = -1,
                                int fleet_workers = -1);

/// Renders the ping reply: {"status":"ok","pong":true}.
std::string render_pong_line();

/// Renders the shutdown ack: {"status":"ok","shutdown":true}.
std::string render_shutdown_line();

// --- Client side -----------------------------------------------------------

/// Renders a deobfuscate request line from the public Request (no trailing
/// newline). Request::options, when present, is rendered as the nested
/// `options` object.
std::string render_request_line(const Request& request);

/// Renders a service-op line: {"op":"ping"} / {"op":"metrics"} /
/// {"op":"shutdown"} / {"op":"trace"} / {"op":"debug"}. A non-empty `scope`
/// adds `"scope":"..."` (the fleet-wide metrics scrape).
std::string render_op_line(std::string_view op, std::string_view scope = {});

/// Parses one response line back into a ServeReply (the client's inverse of
/// render_response_line / render_error_line). Transport-level garbage —
/// non-JSON, missing status — returns false with a reason in `error`.
bool parse_reply_line(std::string_view line, ServeReply& out,
                      std::string& error);

}  // namespace ideobf::server
