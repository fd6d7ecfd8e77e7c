#pragma once

/// \file ideobf/api.h
/// The unified request/response API of Invoke-Deobfuscation. One
/// `Request -> Response` pair describes a deobfuscation everywhere: the
/// one-shot CLI, the batch command, the `ideobf serve` daemon (whose NDJSON
/// wire schema is a 1:1 rendering of these structs — docs/SERVER.md), and
/// the bench harness. The server is not a second code path; it is the first
/// consumer of this API.
///
/// Part of the stable `include/ideobf/` facade: includes only other facade
/// headers and the standard library. Engine internals (parser, arenas,
/// interpreter) never leak through it.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ideobf/options.h"
#include "ideobf/report.h"

namespace ideobf {

/// One deobfuscation to perform.
struct Request {
  /// The source text to deobfuscate.
  std::string source;
  /// Which language front-end runs this request: a registered front-end
  /// name ("powershell", "javascript"), "" (the default language,
  /// PowerShell), or "auto" (sniffed per source; deterministic for given
  /// source bytes). Unknown names are refused at the serve wire and served
  /// as classified passthrough by the embedded engine.
  std::string language;
  /// Pipeline options for this request. Absent means "the engine's
  /// configured options" (for the server: the options `ideobf serve` was
  /// started with).
  std::optional<Options> options;
  /// Convenience deadline override in milliseconds; when nonzero it
  /// replaces the effective options' limits.deadline_seconds.
  std::uint64_t deadline_ms = 0;
  /// Convenience trace switch; when true it sets telemetry.collect_trace on
  /// the effective options (and, over the serve wire, additionally returns
  /// the `server_trace` span breakdown).
  bool trace = false;
  /// Serve-wire-only lightweight opt-in: the reply carries the
  /// `server_trace` object (queue/cache/engine span breakdown) without the
  /// per-pass change-trace events `trace` implies. Ignored outside serve.
  bool server_trace = false;
  /// Opaque client correlation id, echoed verbatim on the Response (and on
  /// the server's NDJSON response line).
  std::string id;
};

/// What a deobfuscation produced.
struct Response {
  /// The deobfuscated text. Deobfuscation is total by contract: on failure
  /// or passthrough this is the input unchanged, never empty.
  std::string result;
  /// Full per-call report: phase stats, trace, profile, failure taxonomy.
  DeobfuscationReport report;
  /// Mirrors report.failure / report.failure_detail for callers that do not
  /// want to walk the report.
  FailureKind failure = FailureKind::None;
  std::string failure_detail;
  /// False when no real pipeline output was served: the call degraded to
  /// passthrough (rung 3) or an unexpected exception was sealed. Degraded-
  /// but-served rungs (1, 2) keep ok == true with a non-None failure.
  bool ok = true;
  /// Wall-clock seconds this request spent in the engine.
  double seconds = 0.0;
  /// The concrete front-end language that served this request: the
  /// request's language with "" defaulted and "auto" resolved by sniffing.
  /// Unknown requested names echo verbatim (alongside the Internal
  /// failure).
  std::string language;
  /// Echo of Request::id.
  std::string id;
};

/// The engine behind every entry point: owns the configured options and
/// serves Requests. Every request's pipeline run owns its piece memo and
/// parse table, so one request leaves no state for the next.
/// Const-callable from any number of threads; `handle` seals exceptions (a
/// hostile input degrades its own response, it never throws).
class Engine {
 public:
  explicit Engine(Options options = {});
  ~Engine();
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One-shot: deobfuscate one request (thread-safe). `cancel` is the
  /// caller's own cancellation token for this call (the server passes the
  /// client connection's); a valid token makes the call governed. A governed
  /// call with a deadline is watched by the engine's one watchdog, which
  /// hard-cancels it past deadline x max(1, watchdog_factor) and passes on
  /// the engine-wide token (options().limits.cancel), the request's own and
  /// `cancel`.
  [[nodiscard]] Response handle(const Request& request,
                                CancellationToken cancel = {}) const;

  /// Batch: deobfuscate every request on the process-lifetime worker pool,
  /// preserving order. Each item runs as handle(item) would; concurrency
  /// comes from options().threads.
  [[nodiscard]] std::vector<Response> handle_batch(
      const std::vector<Request>& requests) const;

  [[nodiscard]] const Options& options() const;

 private:
  struct Impl;
  std::unique_ptr<const Impl> impl_;
};

}  // namespace ideobf
