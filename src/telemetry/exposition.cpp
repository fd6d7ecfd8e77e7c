#include "telemetry/exposition.h"

#include <cstdio>
#include <string_view>

namespace ideobf::telemetry {

namespace {

/// HELP text per cataloged base name. Only metrics this repo actually
/// registers appear here (the metrics-catalog lint keeps the docs in sync);
/// unknown bases — private test registries — render without a HELP line.
struct HelpEntry {
  std::string_view base;
  std::string_view help;
};

constexpr HelpEntry kHelpCatalog[] = {
    {"ideobf_batch_degraded_total", "Batch items served from a rung > 0."},
    {"ideobf_batch_failed_total", "Batch items that failed."},
    {"ideobf_batch_item_total", "Batch items processed."},
    {"ideobf_build_info",
     "Constant 1; the version and git_sha labels identify the build."},
    {"ideobf_fault_injected_total", "Injected faults fired, by site."},
    {"ideobf_fleet_admission_rejected_total",
     "Requests refused by the per-client token bucket."},
    {"ideobf_fleet_cache_corrupt_total",
     "Shared-cache entries whose checksum failed verification."},
    {"ideobf_fleet_cache_hit_seconds",
     "Shared response-cache hit round-trip latency."},
    {"ideobf_fleet_cache_requests_total",
     "Shared response-cache lookups by outcome."},
    {"ideobf_fleet_cache_stores_total",
     "Responses published into the shared cache."},
    {"ideobf_fleet_quarantined_total",
     "Requests refused because their script hash is quarantined."},
    {"ideobf_fleet_reloads_total",
     "SIGHUP config/quarantine reloads applied by this worker."},
    {"ideobf_governor_attempt_total", "Ladder attempts, first try included."},
    {"ideobf_governor_degraded_total", "Items served from rung > 0."},
    {"ideobf_governor_failure_total", "Aborted attempts by FailureKind."},
    {"ideobf_governor_ladder_step_total", "Retries at rung > 0."},
    {"ideobf_governor_passthrough_total", "Rung-3 passthroughs."},
    {"ideobf_multilayer_unwrap_total", "Layers unwrapped, by disguise form."},
    {"ideobf_parse_cache_bypass_total",
     "Parse-table lookups past the per-run bound, parsed uncached."},
    {"ideobf_parse_cache_hit_total", "Parse-cache hits."},
    {"ideobf_parse_cache_lookup_total", "ParseCache::get calls."},
    {"ideobf_parse_cache_miss_total", "Parse-cache misses."},
    {"ideobf_phase_seconds", "Pipeline phase latency, by phase."},
    {"ideobf_recovery_memo_hit_total", "Recovery-memo hits."},
    {"ideobf_recovery_memo_lookup_total", "Recovery-memo lookups."},
    {"ideobf_recovery_memo_miss_total", "Recovery-memo misses."},
    {"ideobf_recovery_piece_total", "Pieces executed, by AST node kind."},
    {"ideobf_sandbox_failure_total", "Whole-script sandbox failures."},
    {"ideobf_sandbox_run_total", "Whole-script sandbox executions."},
    {"ideobf_server_connections_total",
     "Client connections accepted by the daemon."},
    {"ideobf_server_disconnect_cancel_total",
     "In-flight or queued requests cancelled by their client hanging up."},
    {"ideobf_server_epoll_wakeups_total",
     "Event-loop wakeups with at least one ready fd."},
    {"ideobf_server_idle_reaped_total",
     "Connections reaped by the idle timeout."},
    {"ideobf_server_outbuf_bytes",
     "Bytes currently buffered toward clients across all connections."},
    {"ideobf_server_queue_depth",
     "Requests currently queued in the daemon."},
    {"ideobf_server_queue_wait_seconds",
     "Time an admitted request waited in the queue before a worker slot."},
    {"ideobf_server_reaped_total", "Connections reaped, by reason."},
    {"ideobf_server_request_seconds", "Engine time per served request."},
    {"ideobf_server_requests_total", "Serve requests, by final status."},
    {"ideobf_server_uptime_seconds",
     "Seconds since this server process started."},
    {"ideobf_telemetry_deep_spans_total",
     "Spans past the per-thread child-accounting depth."},
    {"ideobf_telemetry_log_dropped_total",
     "Structured log records dropped by the rate limiter."},
    {"ideobf_telemetry_log_emitted_total",
     "Structured log records written, by level."},
    {"ideobf_telemetry_spans_closed_total", "PhaseSpans closed."},
    {"ideobf_telemetry_spans_opened_total", "PhaseSpans opened."},
    {"ideobf_watchdog_cancel_total",
     "Calls hard-cancelled, by source (deadline watchdog or drain grace)."},
    {"ideobf_worker_id",
     "Constant 1; the worker label names this process's fleet slot."},
};

void append_type_line(std::string& out, std::string_view base,
                      std::string_view type, std::string& last_base) {
  if (last_base == base) return;
  last_base.assign(base);
  const std::string_view help = metric_help(base);
  if (!help.empty()) {
    out += "# HELP ";
    out += base;
    out += ' ';
    out += help;
    out += '\n';
  }
  out += "# TYPE ";
  out += base;
  out += ' ';
  out += type;
  out += '\n';
}

void append_name(std::string& out, std::string_view base,
                 std::string_view labels) {
  out += base;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
}

/// Label body with `le="<seconds>"` appended (histogram bucket lines).
void append_bucket_name(std::string& out, std::string_view base,
                        std::string_view labels, std::string_view le) {
  out += base;
  out += "_bucket{";
  if (!labels.empty()) {
    out += labels;
    out += ',';
  }
  out += "le=\"";
  out += le;
  out += "\"}";
}

std::string seconds_text(std::uint64_t bound_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g",
                static_cast<double>(bound_ns) / 1e9);
  return buf;
}

std::string double_text(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string prom_label(std::string_view name, std::string_view value) {
  std::string out(name);
  out += "=\"";
  out += escape_label_value(value);
  out += '"';
  return out;
}

std::string_view metric_help(std::string_view base) {
  for (const HelpEntry& e : kHelpCatalog) {
    if (e.base == base) return e.help;
  }
  return {};
}

std::string render_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  std::string last_base;

  for (const auto& c : snapshot.counters) {
    append_type_line(out, c.base, "counter", last_base);
    append_name(out, c.base, c.labels);
    out += ' ';
    out += std::to_string(c.value);
    out += '\n';
  }

  last_base.clear();
  for (const auto& g : snapshot.gauges) {
    append_type_line(out, g.base, "gauge", last_base);
    append_name(out, g.base, g.labels);
    out += ' ';
    out += std::to_string(g.value);
    out += '\n';
  }

  last_base.clear();
  const auto& bounds = Histogram::bounds_ns();
  for (const auto& h : snapshot.histograms) {
    append_type_line(out, h.base, "histogram", last_base);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      cumulative += h.buckets[i];
      append_bucket_name(out, h.base, h.labels,
                         i + 1 < Histogram::kBucketCount
                             ? seconds_text(bounds[i])
                             : std::string_view("+Inf"));
      out += ' ';
      out += std::to_string(cumulative);
      out += '\n';
    }
    append_name(out, std::string(h.base) + "_sum", h.labels);
    out += ' ';
    out += double_text(static_cast<double>(h.sum_ns) / 1e9);
    out += '\n';
    append_name(out, std::string(h.base) + "_count", h.labels);
    out += ' ';
    out += std::to_string(h.count);
    out += '\n';
  }
  return out;
}

std::string render_prometheus(const MetricsRegistry& registry) {
  return render_prometheus(registry.snapshot());
}

}  // namespace ideobf::telemetry
