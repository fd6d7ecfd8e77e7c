#include "ideobf/api.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <list>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <utility>

#include "core/deobfuscator.h"
#include "core/failure.h"
#include "frontends/registry.h"
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
        std::string(resolve_language(request.language, request.source));
    response.result = engine.deobfuscate(request.source, response.report,
                                         limits, response.language);
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
telemetry::Counter& deadline_cancel_counter() {
  static auto& c = telemetry::registry().counter(
      "ideobf_watchdog_cancel_total", "source=\"deadline\"");
  return c;
}

/// The engine's one watchdog. A governed call that has a deadline, or more
/// than one token to inherit, runs under a private token and is registered
/// here while it runs. The watchdog cancels that token once the call runs
/// past deadline x max(1, watchdog_factor), so a call wedged between budget
/// checkpoints stalls neither its thread nor its batch, and passes the
/// call's inherited tokens on to it. It cancels no other token. Its thread
/// starts at the first registration and sleeps while nothing is watched.
class Watchdog {
 public:
  Watchdog() = default;
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// One watched call.
  struct Call {
    /// The call's private token: the only token the watchdog cancels.
    CancellationToken own;
    /// Tokens whose cancellation passes on to `own` (inert slots unused).
    std::array<CancellationToken, 3> inherited;
    /// When `own` is cancelled; time_point::max() without a deadline.
    clock_t_::time_point kill_at;
    /// How often the call needs a look.
    clock_t_::duration period;
  };

  /// Unregisters its call when it goes out of scope.
  class Scope {
   public:
    Scope(Watchdog& watchdog, std::list<Call>::iterator call)
        : watchdog_(watchdog), call_(call) {}
    ~Scope() {
      std::lock_guard lock(watchdog_.mu_);
      watchdog_.calls_.erase(call_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Watchdog& watchdog_;
    std::list<Call>::iterator call_;
  };

  [[nodiscard]] Scope watch(Call call) {
    std::lock_guard lock(mu_);
    const auto it = calls_.insert(calls_.end(), std::move(call));
    if (!thread_.joinable()) {
      thread_ = std::jthread([this](std::stop_token stop) { loop(stop); });
    }
    // Wake the loop, so a tighter period than the current one applies now.
    woken_ = true;
    wake_.notify_one();
    return Scope(*this, it);
  }

 private:
  void loop(const std::stop_token& stop) {
    std::unique_lock lock(mu_);
    while (!stop.stop_requested()) {
      if (calls_.empty()) {
        wake_.wait(lock, stop, [&] { return !calls_.empty(); });
        continue;
      }
      clock_t_::duration period = std::chrono::milliseconds(50);
      for (const Call& call : calls_) period = std::min(period, call.period);
      wake_.wait_for(lock, stop, period,
                     [&] { return std::exchange(woken_, false); });
      const auto now = clock_t_::now();
      for (Call& call : calls_) {
        if (call.own.cancelled()) continue;
        if (std::any_of(call.inherited.begin(), call.inherited.end(),
                        [](const CancellationToken& t) {
                          return t.cancelled();
                        })) {
          call.own.request_cancel();
        } else if (now >= call.kill_at) {
          call.own.request_cancel();
          deadline_cancel_counter().add();
        }
      }
    }
  }

  std::mutex mu_;
  std::condition_variable_any wake_;
  std::list<Call> calls_;
  bool woken_ = false;
  std::jthread thread_;  // last: stopped and joined before the rest goes
};

}  // namespace

struct Engine::Impl {
  explicit Impl(Options opts)
      : options(std::move(opts)), deobf(options) {}

  /// Every entry point's call: resolves the request, picks the token it
  /// runs under, and watches it while it runs when it needs watching. A
  /// governed call inherits the engine-wide token, the request's own and
  /// the caller's; when one is already cancelled the call runs on it, so
  /// handle_one serves passthrough at once.
  Response run(const Request& request, const CancellationToken& cancel) const {
    Resolved resolved = resolve(request, options);
    Options::Limits& limits = resolved.limits;
    if (!limits.active() && !cancel.valid()) {
      return handle_one(deobf, request, std::move(resolved.pipeline), limits);
    }
    std::array<CancellationToken, 3> inherited;
    std::size_t count = 0;
    for (const CancellationToken& token :
         {options.limits.cancel, limits.cancel, cancel}) {
      if (!token.valid() || std::find(inherited.begin(),
                                      inherited.begin() + count,
                                      token) != inherited.begin() + count) {
        continue;
      }
      if (token.cancelled()) {
        limits.cancel = token;
        return handle_one(deobf, request, std::move(resolved.pipeline),
                          limits);
      }
      inherited[count++] = token;
    }
    const double deadline = limits.deadline_seconds;
    if (deadline <= 0.0 && count <= 1) {
      // Nothing to watch: the call runs on the one token it inherits.
      limits.cancel = inherited[0];
      return handle_one(deobf, request, std::move(resolved.pipeline), limits);
    }
    limits.cancel = CancellationToken::make();
    Watchdog::Call call{limits.cancel, inherited, clock_t_::time_point::max(),
                        std::chrono::milliseconds(10)};
    if (deadline > 0.0) {
      const double limit = deadline * std::max(1.0, limits.watchdog_factor);
      call.kill_at = clock_t_::now() +
                     std::chrono::duration_cast<clock_t_::duration>(
                         std::chrono::duration<double>(limit));
      // Look often enough for the call's deadline: an eighth of it.
      call.period = std::chrono::duration_cast<clock_t_::duration>(
          std::chrono::duration<double>(deadline / 8));
      call.period = std::clamp<clock_t_::duration>(
          call.period, std::chrono::milliseconds(1),
          std::chrono::milliseconds(50));
    }
    const Watchdog::Scope scope = watchdog.watch(std::move(call));
    return handle_one(deobf, request, std::move(resolved.pipeline), limits);
  }

  Options options;
  InvokeDeobfuscator deobf;
  mutable Watchdog watchdog;
};

Engine::Engine(Options options)
    : impl_(std::make_unique<const Impl>(std::move(options))) {}
Engine::~Engine() = default;
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

const Options& Engine::options() const { return impl_->options; }

Response Engine::handle(const Request& request,
                        CancellationToken cancel) const {
  return impl_->run(request, cancel);
}

// Items run on the process-lifetime work-stealing ps::WorkerPool, each
// through the same call as handle(item).
std::vector<Response> Engine::handle_batch(
    const std::vector<Request>& requests) const {
  const std::size_t n = requests.size();
  unsigned threads = impl_->options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, n == 0 ? 1u : n);

  std::vector<Response> responses(n);
  auto body = [&](std::size_t i, unsigned slot) {
    // Bind this executor to its slot's metric shard (and trace lane): slots
    // are staffed by one thread per job, so shard cells stay uncontended.
    telemetry::set_current_shard(slot);
    responses[i] = impl_->run(requests[i], {});
    batch_item_counter().add();
    if (!responses[i].ok) batch_item_failed_counter().add();
    if (responses[i].report.degradation_rung > 0) {
      batch_item_degraded_counter().add();
    }
  };
  // The calling thread participates; threads == 1 runs entirely on it.
  ps::WorkerPool::instance().parallel(n, threads, body);
  return responses;
}

}  // namespace ideobf
