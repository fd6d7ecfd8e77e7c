#include "core/deobfuscator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <utility>

#include "core/failure.h"
#include "core/fault.h"
#include "frontends/registry.h"
#include "psast/parse_cache.h"

namespace ideobf {

namespace {

void merge(TokenPassStats& into, const TokenPassStats& from) {
  into.ticks_removed += from.ticks_removed;
  into.aliases_expanded += from.aliases_expanded;
  into.case_normalized += from.case_normalized;
}

void merge(RecoveryStats& into, const RecoveryStats& from) {
  into.pieces_recovered += from.pieces_recovered;
  into.variables_traced += from.variables_traced;
  into.variables_substituted += from.variables_substituted;
  into.pieces_failed += from.pieces_failed;
  into.memo_hits += from.memo_hits;
  into.memo_misses += from.memo_misses;
  into.pieces_folded += from.pieces_folded;
  into.treewalk_fallbacks += from.treewalk_fallbacks;
  into.pieces_reparsed += from.pieces_reparsed;
  into.pieces_refused += from.pieces_refused;
  into.pieces_bound += from.pieces_bound;
  into.pieces_thrown += from.pieces_thrown;
  into.worst_failure = ps::worse_failure(into.worst_failure, from.worst_failure);
}

telemetry::Counter& governor_attempt_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_governor_attempt_total");
  return c;
}
telemetry::Counter& governor_ladder_step_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_governor_ladder_step_total");
  return c;
}
telemetry::Counter& governor_degraded_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_governor_degraded_total");
  return c;
}
telemetry::Counter& governor_passthrough_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_governor_passthrough_total");
  return c;
}

/// Per-FailureKind abort counter; label values are ps::to_string's
/// stable kebab names ("timeout", "memory-budget", ...).
telemetry::Counter& governor_failure_counter(ps::FailureKind kind) {
  static std::array<std::atomic<telemetry::Counter*>, 16> slots{};
  auto& slot = slots[static_cast<std::size_t>(kind) % slots.size()];
  telemetry::Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    std::string labels = "kind=\"";
    labels += ps::to_string(kind);
    labels += '"';
    c = &telemetry::registry().counter("ideobf_governor_failure_total", labels);
    slot.store(c, std::memory_order_release);
  }
  return *c;
}

/// Per-language dispatch counters. Label values are registered front-end
/// names (bounded cardinality; an unregistered request is labeled
/// "unknown"). Interned handles cached behind one small locked list — the
/// language set is tiny and these fire once per request, not per piece.
telemetry::Counter& frontend_counter(const char* base,
                                     std::string_view language) {
  struct Cache {
    std::mutex mu;
    std::vector<std::pair<std::string, telemetry::Counter*>> entries;
  };
  static std::array<Cache, 2> caches;
  Cache& cache = caches[std::string_view(base) ==
                                "ideobf_frontend_requests_total"
                            ? 0
                            : 1];
  const std::lock_guard<std::mutex> lock(cache.mu);
  for (const auto& [lang, counter] : cache.entries) {
    if (lang == language) return *counter;
  }
  std::string labels = "language=\"";
  labels += language;
  labels += '"';
  telemetry::Counter* c = &telemetry::registry().counter(base, labels);
  cache.entries.emplace_back(std::string(language), c);
  return *c;
}
telemetry::Counter& frontend_request_counter(std::string_view language) {
  return frontend_counter("ideobf_frontend_requests_total", language);
}
telemetry::Counter& frontend_failure_counter(std::string_view language) {
  return frontend_counter("ideobf_frontend_failures_total", language);
}

/// Applies one phase with the paper's per-step syntax check: if the result
/// no longer parses under the front-end's grammar, the step is skipped.
/// With the run's parse table the validity parse is the same parse the next
/// phase (and the next check) will reuse.
template <typename Fn>
std::string checked(std::string_view input, const LanguageFrontend& fe,
                    const FrontendPhaseContext& ctx, Fn&& phase) {
  std::string out = phase(input);
  if (out == input) return std::string(input);
  if (!fe.syntax_ok(out, ctx)) return std::string(input);
  return out;
}

}  // namespace

InvokeDeobfuscator::InvokeDeobfuscator(Options options)
    : options_(std::move(options)),
      frontends_(FrontendRegistry::instance().create_all(options_)) {}

const LanguageFrontend* InvokeDeobfuscator::frontend(
    std::string_view language) const {
  if (language.empty()) language = kDefaultLanguage;
  for (const auto& fe : frontends_) {
    if (fe->name() == language) return fe.get();
  }
  return nullptr;
}

std::string_view InvokeDeobfuscator::resolve_language(
    std::string_view language, std::string_view source) const {
  return ideobf::resolve_language(language, source);
}

std::string InvokeDeobfuscator::deobfuscate(std::string_view script) const {
  DeobfuscationReport report;
  return deobfuscate(script, report);
}

std::string InvokeDeobfuscator::deobfuscate(std::string_view script,
                                            DeobfuscationReport& report) const {
  return deobfuscate(script, report, options_.limits);
}

Options InvokeDeobfuscator::rung_options(int rung) const {
  Options opts = options_;
  if (rung >= 1) {
    // Tightened recovery: same phases, but a hostile piece can burn far
    // less before its per-piece limits fire.
    opts.limits.max_layers = std::min(opts.limits.max_layers, 2);
    opts.limits.max_steps_per_piece =
        std::min<std::size_t>(opts.limits.max_steps_per_piece, 20000);
    opts.limits.max_piece_size =
        std::min<std::size_t>(opts.limits.max_piece_size, 64u << 10);
  }
  if (rung >= 2) {
    // Static passes only: nothing attacker-controlled is executed.
    opts.ast_recovery = false;
    opts.multilayer = false;
  }
  return opts;
}

std::string InvokeDeobfuscator::deobfuscate(
    std::string_view script, DeobfuscationReport& report,
    const Options::Limits& limits, std::string_view language) const {
  const std::string_view resolved = ideobf::resolve_language(language, script);
  const LanguageFrontend* fe = frontend(resolved);
  frontend_request_counter(fe != nullptr ? fe->name() : "unknown").add();
  if (fe == nullptr) {
    // Misrouted request: classified passthrough, same totality contract as
    // the governor's rung 3.
    report = DeobfuscationReport{};
    report.failure = ps::FailureKind::Internal;
    report.failure_detail = "unknown language '";
    report.failure_detail += resolved;
    report.failure_detail += '\'';
    report.degradation_rung = 3;
    frontend_failure_counter("unknown").add();
    return std::string(script);
  }

  // Telemetry envelope: every span closed while this call runs on this
  // thread accumulates into `profile` (the multilayer recursion calls
  // deobfuscate_layers, not this wrapper, so the Pipeline span is per item).
  // The span must close before the profile is read — hence the inner scope —
  // and the impl resets `report`, so the profile is attached afterwards.
  telemetry::PipelineProfile profile;
  std::string out;
  {
    telemetry::ProfileScope profile_scope(&profile);
    telemetry::PhaseSpan pipeline_span(telemetry::Phase::Pipeline);
    out = deobfuscate_impl(script, report, limits, *fe);
  }
  report.profile = profile;
  if (report.degradation_rung >= 3) frontend_failure_counter(fe->name()).add();
  return out;
}

std::string InvokeDeobfuscator::deobfuscate_impl(
    std::string_view script, DeobfuscationReport& report,
    const Options::Limits& limits, const LanguageFrontend& fe) const {
  if (!limits.active()) {
    // Ungoverned: the exact pre-governor code path, no budget checkpoints.
    report = DeobfuscationReport{};
    std::string out = run_pipeline(script, report, options_, nullptr, fe);
    if (report.failure == ps::FailureKind::None) {
      report.failure = report.recovery.worst_failure;
    }
    return out;
  }

  // Deadline ladder: 1x, 0.5x, 0.25x of the configured deadline — worst
  // case ~1.75x before passthrough, keeping the "no item exceeds ~2x its
  // deadline" contract.
  static constexpr double kDeadlineFraction[] = {1.0, 0.5, 0.25};
  ps::FailureKind first_failure = ps::FailureKind::None;
  std::string first_detail;
  int attempts = 0;

  for (int rung = 0; rung <= 2; ++rung) {
    if (rung > 0 && !limits.degrade) break;
    if (limits.cancel.cancelled()) {  // don't retry cancelled work
      if (first_failure == ps::FailureKind::None) {
        first_failure = ps::FailureKind::Cancelled;
        first_detail = std::string(kCancelledDetail);
      }
      break;
    }
    ps::Budget budget(ps::Budget::Limits{
        limits.deadline_seconds * kDeadlineFraction[rung],
        limits.memory_budget_bytes, limits.cancel});
    DeobfuscationReport attempt;
    ++attempts;
    governor_attempt_counter().add();
    if (rung > 0) governor_ladder_step_counter().add();
    try {
      std::string out =
          run_pipeline(script, attempt, rung_options(rung), &budget, fe);
      report = std::move(attempt);
      report.degradation_rung = rung;
      report.attempts = attempts;
      if (rung > 0) governor_degraded_counter().add();
      if (first_failure != ps::FailureKind::None) {
        report.failure = first_failure;
        report.failure_detail = first_detail;
      } else if (report.failure == ps::FailureKind::None) {
        report.failure = report.recovery.worst_failure;
      }
      return out;
    } catch (...) {
      auto [kind, detail] = classify_current_exception();
      if (telemetry::enabled()) governor_failure_counter(kind).add();
      if (first_failure == ps::FailureKind::None) {
        first_failure = kind;
        first_detail = std::move(detail);
      }
      if (kind == ps::FailureKind::Cancelled) break;
    }
  }

  // Rung 3: passthrough. Deobfuscation is total by contract — the hostile
  // input is served back unchanged, classified.
  governor_passthrough_counter().add();
  governor_degraded_counter().add();
  report = DeobfuscationReport{};
  report.degradation_rung = 3;
  report.attempts = attempts;
  report.failure = first_failure;
  report.failure_detail = std::move(first_detail);
  return std::string(script);
}

std::string InvokeDeobfuscator::run_pipeline(std::string_view script,
                                             DeobfuscationReport& report,
                                             const Options& opts,
                                             ps::Budget* budget,
                                             const LanguageFrontend& fe) const {
  TraceSink sink(opts.telemetry.max_trace_events);
  TraceSink* trace = opts.telemetry.collect_trace ? &sink : nullptr;
  if (opts.fault_injector != nullptr) {
    opts.fault_injector->inject(FaultSite::Parse);
  }
  // The piece memo and the parse table live for this run only: shared by
  // its layers, fixed-point passes and syntax checks, never by another
  // attempt, call or request. `shared_parse_cache` only collects the
  // table's counts, also when the run aborts.
  RecoveryMemo memo;
  ps::ParseCache parses;
  struct CountSink {
    const ps::ParseCache& table;
    ps::ParseCache* sink;
    ~CountSink() {
      if (sink != nullptr) sink->add_counts(table.stats());
    }
  } count_sink{parses, opts.parse_cache ? opts.shared_parse_cache.get()
                                        : nullptr};
  FrontendPhaseContext ctx;
  ctx.opts = &opts;
  ctx.budget = budget;
  ctx.memo = opts.recovery.memo ? &memo : nullptr;
  ctx.fault = opts.fault_injector;
  ctx.parse_cache = opts.parse_cache ? &parses : nullptr;

  // Classify invalid input up front (the phases would all no-op on it
  // anyway); the output contract — returned unchanged — is preserved by the
  // per-phase syntax checks exactly as before.
  if (!fe.syntax_ok(script, ctx)) {
    report.failure = ps::FailureKind::ParseError;
    report.failure_detail = "input does not parse";
  }
  std::string out = deobfuscate_layers(script, report, 0, trace, ctx, fe);

  if (opts.rename) {
    if (budget != nullptr) budget->force_checkpoint();
    telemetry::PhaseSpan span(telemetry::Phase::Rename);
    out = checked(out, fe, ctx, [&](std::string_view s) {
      RenameStats rs;
      std::string r = fe.rename_pass(s, rs, trace);
      if (rs.renamed) report.rename = rs;
      return r;
    });
  }
  if (opts.reformat) {
    if (budget != nullptr) budget->force_checkpoint();
    telemetry::PhaseSpan span(telemetry::Phase::Reformat);
    out = checked(out, fe, ctx,
                  [&](std::string_view s) { return fe.reformat_pass(s); });
  }
  if (trace != nullptr) {
    report.trace = sink.take();
    report.trace_truncated = sink.truncated();
    report.trace_dropped = sink.dropped();
  }
  return out;
}

std::string InvokeDeobfuscator::deobfuscate_layers(
    std::string_view script, DeobfuscationReport& report, int depth,
    TraceSink* trace, const FrontendPhaseContext& ctx,
    const LanguageFrontend& fe) const {
  const Options& opts = *ctx.opts;
  ps::Budget* const budget = ctx.budget;
  if (depth > opts.limits.max_layers) return std::string(script);

  std::string cur(script);
  for (int pass = 0; pass < opts.limits.max_layers; ++pass) {
    report.passes++;
    std::string next = cur;

    if (opts.token_pass) {
      if (budget != nullptr) budget->force_checkpoint();
      telemetry::PhaseSpan span(telemetry::Phase::TokenPass);
      next = checked(next, fe, ctx, [&](std::string_view s) {
        TokenPassStats ts;
        std::string r = fe.token_pass(s, ts, trace);
        merge(report.token, ts);
        return r;
      });
    }

    if (opts.ast_recovery) {
      if (budget != nullptr) budget->force_checkpoint();
      next = checked(next, fe, ctx, [&](std::string_view s) {
        RecoveryStats rs;
        std::string r = fe.recovery_pass(s, ctx, rs, trace);
        merge(report.recovery, rs);
        return r;
      });
    }

    if (opts.multilayer) {
      if (budget != nullptr) budget->force_checkpoint();
      // The scan span; each extracted payload opens a nested decode span
      // (with the disguise form as detail) inside unwrap_layers.
      telemetry::PhaseSpan span(telemetry::Phase::MultilayerDecode, "scan");
      next = checked(next, fe, ctx, [&](std::string_view s) {
        const auto inner = [&](std::string_view payload) {
          return deobfuscate_layers(payload, report, depth + 1, trace, ctx,
                                    fe);
        };
        return fe.unwrap_layers(s, ctx, report.multilayer, trace, inner);
      });
    }

    if (next == cur) break;  // fixed point (paper section III-B4)
    cur = std::move(next);
    if (trace != nullptr) trace->set_pass(trace->pass() + 1);
  }
  return cur;
}

}  // namespace ideobf
