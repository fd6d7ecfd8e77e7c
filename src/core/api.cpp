#include "ideobf/api.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/deobfuscator.h"
#include "core/failure.h"
#include "psvalue/worker_pool.h"

namespace ideobf {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// How one request runs: the pipeline configuration it needs of its own,
/// if any, and the execution envelope it runs under.
struct Resolved {
  /// Set when the request overrides the engine's pipeline (a full options
  /// object, or a trace switch the engine lacks); the call then runs on a
  /// temporary deobfuscator built from it. Deadline overrides ride the
  /// envelope alone.
  std::optional<Options> pipeline;
  Options::Limits limits;
};

/// The one resolution of a request's effective options and envelope, shared
/// by every entry point.
Resolved resolve(const Request& request, const Options& base) {
  Resolved resolved;
  if (request.options.has_value() ||
      (request.trace && !base.telemetry.collect_trace)) {
    resolved.pipeline = request.options.value_or(base);
    if (request.trace) resolved.pipeline->telemetry.collect_trace = true;
  }
  resolved.limits = resolved.pipeline ? resolved.pipeline->limits : base.limits;
  if (request.deadline_ms != 0) {
    resolved.limits.deadline_seconds =
        static_cast<double>(request.deadline_ms) / 1000.0;
  }
  return resolved;
}

/// The one sealed call every entry point funnels through: runs the pipeline
/// (through a temporary deobfuscator when `pipeline` is set) under
/// `limits`, and seals exceptions, non-std throws included — a hostile
/// input degrades its own response, it never throws. A call whose
/// cancellation token is already cancelled serves classified passthrough
/// without running (the deobfuscator checks the token before each rung).
Response handle_one(const InvokeDeobfuscator& deobf, const Request& request,
                    std::optional<Options> pipeline,
                    const Options::Limits& limits) {
  Response response;
  response.id = request.id;
  const auto start = clock_t_::now();
  bool sealed = false;
  try {
    std::optional<InvokeDeobfuscator> custom;
    if (pipeline) custom.emplace(std::move(*pipeline));
    const InvokeDeobfuscator& engine = custom ? *custom : deobf;
    response.language =
        std::string(engine.resolve_language(request.language, request.source));
    response.result = engine.deobfuscate(request.source, response.report,
                                         limits, request.language);
  } catch (...) {
    // Ungoverned calls (no active envelope) can propagate pipeline
    // exceptions; the API contract is total, so seal them here.
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

/// Watchdog view of one in-flight batch item. `start` is written before the
/// release-store to `running`, so the watchdog's acquire-load sees a
/// coherent start time.
struct ItemState {
  std::atomic<bool> running{false};
  clock_t_::time_point start{};
};

telemetry::Counter& batch_item_counter() {
  static auto& c = telemetry::registry().counter("ideobf_batch_item_total");
  return c;
}
telemetry::Counter& batch_item_failed_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_batch_item_failed_total");
  return c;
}
telemetry::Counter& batch_item_degraded_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_batch_item_degraded_total");
  return c;
}
telemetry::Counter& watchdog_cancel_counter() {
  static auto& c =
      telemetry::registry().counter("ideobf_watchdog_cancel_total");
  return c;
}

}  // namespace

struct Engine::Impl {
  explicit Impl(Options opts)
      : options(std::move(opts)), deobf(options) {}
  Options options;
  InvokeDeobfuscator deobf;
};

Engine::Engine(Options options)
    : impl_(std::make_unique<const Impl>(std::move(options))) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

const Options& Engine::options() const { return impl_->options; }

Response Engine::handle(const Request& request) const {
  Resolved resolved = resolve(request, impl_->options);
  return handle_one(impl_->deobf, request, std::move(resolved.pipeline),
                    resolved.limits);
}

Response Engine::handle(const Request& request,
                        const Options::Limits& limits) const {
  return handle_one(impl_->deobf, request,
                    resolve(request, impl_->options).pipeline, limits);
}

// Items run on the process-lifetime work-stealing ps::WorkerPool, each
// through handle_one. A governed item (active envelope) runs under a private
// cancellation token, and a watchdog thread cancels it once it runs past
// watchdog_factor x its deadline, so one sample wedged between budget
// checkpoints stalls neither its worker nor the batch. The watchdog also
// propagates the batch-wide token (options().limits.cancel) and each
// request's own token onto the private ones; an item whose token is
// cancelled before it starts is served as classified passthrough.
std::vector<Response> Engine::handle_batch(
    const std::vector<Request>& requests) const {
  const std::size_t n = requests.size();
  unsigned threads = impl_->options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, n == 0 ? 1u : n);

  std::vector<Resolved> resolved;
  resolved.reserve(n);
  bool governed = false;
  for (const Request& request : requests) {
    resolved.push_back(resolve(request, impl_->options));
    governed = governed || resolved.back().limits.active();
  }
  const ps::CancellationToken& batch_cancel = impl_->options.limits.cancel;

  // Private tokens, created before any executor starts so the watchdog
  // reads them without synchronization; inert for ungoverned items.
  std::vector<ps::CancellationToken> tokens(governed ? n : 0);
  std::vector<ItemState> states(governed ? n : 0);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (resolved[i].limits.active()) tokens[i] = ps::CancellationToken::make();
  }

  std::vector<Response> responses(n);
  auto body = [&](std::size_t i, unsigned slot) {
    // Bind this executor to its slot's metric shard (and trace lane): slots
    // are staffed by one thread per job, so shard cells stay uncontended.
    telemetry::set_current_shard(slot);
    const Resolved& item = resolved[i];
    const bool item_governed = !tokens.empty() && tokens[i].valid();
    Options::Limits limits = item.limits;
    if (item_governed) limits.cancel = tokens[i];
    if (batch_cancel.cancelled() || item.limits.cancel.cancelled()) {
      if (!limits.cancel.valid()) limits.cancel = ps::CancellationToken::make();
      limits.cancel.request_cancel();
    } else if (item_governed) {
      states[i].start = clock_t_::now();
      states[i].running.store(true, std::memory_order_release);
    }
    responses[i] = handle_one(impl_->deobf, requests[i], item.pipeline, limits);
    if (item_governed) states[i].running.store(false, std::memory_order_release);
    batch_item_counter().add();
    if (!responses[i].ok) batch_item_failed_counter().add();
    if (responses[i].report.degradation_rung > 0) {
      batch_item_degraded_counter().add();
    }
  };

  // jthread joins on destruction, so the watchdog cannot be leaked running
  // even if this scope unwinds early.
  std::jthread watchdog;
  if (governed) {
    watchdog = std::jthread([&](std::stop_token stop) {
      // Poll fast enough for the tightest per-item deadline in the batch.
      double min_deadline = 0.0;
      for (const Resolved& item : resolved) {
        const double d = item.limits.deadline_seconds;
        if (d > 0.0 && (min_deadline == 0.0 || d < min_deadline)) {
          min_deadline = d;
        }
      }
      const auto period = std::min<std::chrono::milliseconds>(
          std::chrono::milliseconds(
              min_deadline > 0.0
                  ? std::max<long>(1, static_cast<long>(min_deadline * 1000 / 8))
                  : 10),
          std::chrono::milliseconds(50));
      // An interruptible wait: the batch returns as soon as its items are
      // done, not at the end of the watchdog's current period.
      std::mutex mu;
      std::condition_variable_any wake;
      std::unique_lock lock(mu);
      while (!wake.wait_for(lock, stop, period,
                            [&] { return stop.stop_requested(); })) {
        const bool all_cancelled = batch_cancel.cancelled();
        const auto now = clock_t_::now();
        for (std::size_t i = 0; i < n; ++i) {
          if (!states[i].running.load(std::memory_order_acquire)) continue;
          const Options::Limits& limits = resolved[i].limits;
          if (all_cancelled || limits.cancel.cancelled()) {
            tokens[i].request_cancel();
            continue;
          }
          if (limits.deadline_seconds <= 0.0) continue;
          const double limit =
              limits.deadline_seconds * std::max(1.0, limits.watchdog_factor);
          const double elapsed =
              std::chrono::duration<double>(now - states[i].start).count();
          if (elapsed > limit && !tokens[i].cancelled()) {
            tokens[i].request_cancel();
            watchdog_cancel_counter().add();
          }
        }
      }
    });
  }
  // The calling thread participates; threads == 1 runs entirely on it.
  ps::WorkerPool::instance().parallel(n, threads, body);
  return responses;
}

}  // namespace ideobf
