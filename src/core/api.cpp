#include "ideobf/api.h"

#include <chrono>
#include <optional>
#include <utility>

#include "core/batch.h"
#include "core/deobfuscator.h"
#include "core/failure.h"

namespace ideobf {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// Whether this request needs its own pipeline configuration (a temporary
/// deobfuscator), as opposed to just a per-call envelope override. Deadline
/// overrides ride the envelope; a trace switch or a full options object do
/// not.
bool needs_pipeline_override(const Request& request, const Options& base) {
  if (request.options.has_value()) return true;
  return request.trace && !base.telemetry.collect_trace;
}

/// The options this request effectively runs under.
Options resolve_options(const Request& request, const Options& base) {
  Options options = request.options.has_value() ? *request.options : base;
  if (request.trace) options.telemetry.collect_trace = true;
  if (request.deadline_ms != 0) {
    options.limits.deadline_seconds =
        static_cast<double>(request.deadline_ms) / 1000.0;
  }
  return options;
}

}  // namespace

struct Engine::Impl {
  explicit Impl(Options opts)
      : options(std::move(opts)), deobf(options) {}
  Options options;
  InvokeDeobfuscator deobf;
};

namespace {

/// The one code path every entry point funnels through: resolves the
/// request's effective options/envelope, runs the pipeline (through a
/// temporary deobfuscator when the request overrides pipeline options),
/// and seals exceptions — a hostile input
/// degrades its own response, it never throws.
Response handle_one(const Options& base, const InvokeDeobfuscator& deobf,
                    const Request& request,
                    const Options::Limits* envelope = nullptr) {
  Response response;
  response.id = request.id;
  const auto start = clock_t_::now();

  const InvokeDeobfuscator* engine = &deobf;
  std::optional<InvokeDeobfuscator> custom;
  Options::Limits limits = base.limits;
  if (needs_pipeline_override(request, base)) {
    Options options = resolve_options(request, base);
    limits = options.limits;
    custom.emplace(std::move(options));
    engine = &*custom;
  } else if (request.deadline_ms != 0) {
    limits.deadline_seconds =
        static_cast<double>(request.deadline_ms) / 1000.0;
  }
  // An explicit envelope (the server's per-request deadline + disconnect
  // cancellation token) wholesale replaces whatever was computed above.
  if (envelope != nullptr) limits = *envelope;

  response.language =
      std::string(engine->resolve_language(request.language, request.source));
  bool sealed = false;
  try {
    response.result = engine->deobfuscate(request.source, response.report,
                                          limits, request.language);
  } catch (...) {
    // Ungoverned calls (no active envelope) can propagate pipeline
    // exceptions; the API contract is total, so seal them here exactly like
    // a batch worker does.
    auto [kind, detail] = classify_current_exception();
    sealed = true;
    response.result = request.source;
    response.report = DeobfuscationReport{};
    response.report.failure = kind;
    response.report.failure_detail = std::move(detail);
    response.report.degradation_rung = limits.active() ? 3 : 0;
  }
  response.failure = response.report.failure;
  response.failure_detail = response.report.failure_detail;
  response.ok = !sealed && response.report.degradation_rung < 3;
  response.seconds =
      std::chrono::duration<double>(clock_t_::now() - start).count();
  return response;
}

}  // namespace

Engine::Engine(Options options)
    : impl_(std::make_unique<const Impl>(std::move(options))) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

const Options& Engine::options() const { return impl_->options; }

Response Engine::handle(const Request& request) const {
  return handle_one(impl_->options, impl_->deobf, request);
}

Response Engine::handle(const Request& request,
                        const Options::Limits& limits) const {
  return handle_one(impl_->options, impl_->deobf, request, &limits);
}

std::vector<Response> Engine::handle_batch(
    const std::vector<Request>& requests) const {
  // Per-request resolved options need stable storage for the batch's
  // lifetime; only requests that actually override pipeline options use
  // their slot.
  std::vector<Options> overrides(requests.size());
  std::vector<BatchItemSpec> specs(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    specs[i].source = request.source;
    specs[i].language = request.language;
    if (needs_pipeline_override(request, impl_->options)) {
      overrides[i] = resolve_options(request, impl_->options);
      specs[i].options_override = &overrides[i];
      specs[i].limits = overrides[i].limits;
    } else {
      specs[i].limits = impl_->options.limits;
      if (request.deadline_ms != 0) {
        specs[i].limits.deadline_seconds =
            static_cast<double>(request.deadline_ms) / 1000.0;
      }
    }
  }

  BatchReport batch_report;
  std::vector<DeobfuscationReport> reports;
  std::vector<std::string> outputs = deobfuscate_batch_items(
      impl_->deobf, specs, batch_report, impl_->options, &reports);

  std::vector<Response> responses(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Response& response = responses[i];
    const BatchItem& item = batch_report.items[i];
    response.id = requests[i].id;
    response.language = std::string(impl_->deobf.resolve_language(
        requests[i].language, requests[i].source));
    response.result = std::move(outputs[i]);
    response.report = std::move(reports[i]);
    response.failure = response.report.failure;
    response.failure_detail = response.report.failure_detail;
    response.ok = item.ok;
    response.seconds = item.seconds;
  }
  return responses;
}

}  // namespace ideobf
