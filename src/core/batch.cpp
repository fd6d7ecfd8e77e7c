#include "core/batch.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "psvalue/worker_pool.h"

namespace ideobf {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// Watchdog view of one in-flight item. `start` is written before the
/// release-store to `running`, so the watchdog's acquire-load sees a
/// coherent start time; the token itself is created up front (before any
/// worker starts) and never reassigned, so it needs no synchronization.
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

int BatchReport::failed() const {
  int n = 0;
  for (const BatchItem& it : items) {
    if (!it.ok) ++n;
  }
  return n;
}

int BatchReport::changed() const {
  int n = 0;
  for (const BatchItem& it : items) {
    if (it.changed) ++n;
  }
  return n;
}

int BatchReport::failures() const {
  int n = 0;
  for (const BatchItem& it : items) {
    if (it.failure != ps::FailureKind::None) ++n;
  }
  return n;
}

int BatchReport::degraded() const {
  int n = 0;
  for (const BatchItem& it : items) {
    if (it.degradation_rung > 0) ++n;
  }
  return n;
}

std::vector<std::string> deobfuscate_batch_items(
    const InvokeDeobfuscator& deobf, const std::vector<BatchItemSpec>& items,
    BatchReport& report, const Options& batch_options,
    std::vector<DeobfuscationReport>* item_reports) {
  unsigned threads = batch_options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, items.empty() ? 1u : items.size());

  std::vector<std::string> results(items.size());
  report.items.assign(items.size(), BatchItem{});
  if (item_reports != nullptr) {
    item_reports->assign(items.size(), DeobfuscationReport{});
  }
  const auto batch_start = clock_t_::now();

  const ps::CancellationToken& batch_cancel = batch_options.limits.cancel;
  // Whether any item needs watchdog/token machinery at all.
  bool governed = false;
  for (const BatchItemSpec& spec : items) {
    if (spec.limits.active()) {
      governed = true;
      break;
    }
  }

  // Per-item cancellation tokens, created before any executor starts so the
  // watchdog can read them without synchronization. Every governed item gets
  // its own token; the item's external token (if any) and the batch-wide
  // token are *propagated* onto it by the watchdog, so the running pipeline
  // only ever watches one flag.
  std::vector<ps::CancellationToken> tokens;
  std::vector<ItemState> states(governed ? items.size() : 0);
  if (governed) {
    tokens.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      tokens.push_back(items[i].limits.active() ? ps::CancellationToken::make()
                                                : ps::CancellationToken{});
    }
  }

  // Per-slot phase-profile partials, merged into report.profile after the
  // pool drains (slot-exclusive during the job, so no locking).
  std::vector<telemetry::PipelineProfile> profiles(threads);

  // Sealed body: nothing an item does — including non-std throws from
  // injected faults — may escape into the pool (whose contract is that
  // bodies do not throw) or take down the process.
  auto body = [&](std::size_t i, unsigned slot) {
    // Bind this executor to its slot's metric shard (and trace lane): slots
    // are staffed by one thread per job, so shard cells stay uncontended.
    telemetry::set_current_shard(slot);
    const BatchItemSpec& spec = items[i];
    const bool item_governed = spec.limits.active();
    BatchItem& item = report.items[i];
    DeobfuscationReport local_rep;
    DeobfuscationReport& rep =
        item_reports != nullptr ? (*item_reports)[i] : local_rep;
    const auto start = clock_t_::now();
    // External cancellation drains the queue fast: remaining items are
    // served as classified passthrough, not silently dropped.
    if (batch_cancel.cancelled() || spec.limits.cancel.cancelled()) {
      results[i] = std::string(spec.source);
      item.failure = ps::FailureKind::Cancelled;
      item.degradation_rung = 3;
      item.error = std::string(kCancelledDetail);
      rep.failure = ps::FailureKind::Cancelled;
      rep.failure_detail = std::string(kCancelledDetail);
      rep.degradation_rung = 3;
      return;
    }
    if (item_governed) {
      states[i].start = start;
      states[i].running.store(true, std::memory_order_release);
    }
    try {
      // Effective envelope: the item's own, with the internal token swapped
      // in (the watchdog propagates external cancellation onto it). An
      // inactive envelope falls back to the deobfuscator's configured one —
      // the pre-governor behavior.
      Options::Limits lim =
          item_governed ? spec.limits : deobf.options().limits;
      if (item_governed) lim.cancel = tokens[i];
      // Per-item pipeline override: a temporary deobfuscator.
      std::optional<InvokeDeobfuscator> custom;
      const InvokeDeobfuscator* engine = &deobf;
      if (spec.options_override != nullptr) {
        custom.emplace(*spec.options_override);
        engine = &*custom;
      }
      results[i] =
          engine->deobfuscate(spec.source, rep, lim, spec.language);
      profiles[slot].merge(rep.profile);
      item.degradation_rung = rep.degradation_rung;
      // Passthrough (rung 3) means no pipeline output was served; count
      // it with the hard failures. Lower rungs served real output.
      item.ok = rep.degradation_rung < 3;
      // A full-strength success is a clean item: per-piece recovery hiccups
      // promoted into rep.failure stay out of the batch's failure counts so
      // failures() agrees with failed() + degraded().
      item.failure = (rep.degradation_rung > 0 || !item.ok)
                         ? rep.failure
                         : ps::FailureKind::None;
      item.worst_piece_failure = rep.recovery.worst_failure;
      if (!item.ok) item.error = rep.failure_detail;
    } catch (const std::exception& e) {
      results[i] = std::string(spec.source);
      item.error = e.what();
      item.failure = ps::FailureKind::Internal;
      item.degradation_rung = item_governed ? 3 : 0;
      rep.failure = ps::FailureKind::Internal;
      rep.failure_detail = item.error;
      rep.degradation_rung = item.degradation_rung;
    } catch (...) {
      results[i] = std::string(spec.source);
      item.error = "non-standard exception";
      item.failure = ps::FailureKind::Internal;
      item.degradation_rung = item_governed ? 3 : 0;
      rep.failure = ps::FailureKind::Internal;
      rep.failure_detail = item.error;
      rep.degradation_rung = item.degradation_rung;
    }
    if (item_governed) states[i].running.store(false, std::memory_order_release);
    item.seconds =
        std::chrono::duration<double>(clock_t_::now() - start).count();
    item.changed = results[i] != spec.source;
    batch_item_counter().add();
    if (!item.ok) batch_item_failed_counter().add();
    if (item.degradation_rung > 0) batch_item_degraded_counter().add();
  };

  {
    // jthread joins on destruction, so the watchdog cannot be leaked
    // running even if this scope unwinds early.
    std::jthread watchdog;
    if (governed) {
      // The deadline x watchdog_factor backstop for items wedged between
      // budget checkpoints, plus propagation of external cancellation
      // (batch-wide and per-item) onto the internal tokens.
      watchdog = std::jthread([&](std::stop_token stop) {
        // Poll fast enough for the tightest per-item deadline in the batch.
        double min_deadline = 0.0;
        for (const BatchItemSpec& spec : items) {
          if (spec.limits.deadline_seconds > 0.0 &&
              (min_deadline == 0.0 ||
               spec.limits.deadline_seconds < min_deadline)) {
            min_deadline = spec.limits.deadline_seconds;
          }
        }
        const auto period = std::chrono::milliseconds(
            min_deadline > 0.0
                ? std::max<long>(1, static_cast<long>(min_deadline * 1000 / 8))
                : 10);
        while (!stop.stop_requested()) {
          std::this_thread::sleep_for(std::min<std::chrono::milliseconds>(
              period, std::chrono::milliseconds(50)));
          const bool all_cancelled = batch_cancel.cancelled();
          const auto now = clock_t_::now();
          for (std::size_t i = 0; i < states.size(); ++i) {
            if (!states[i].running.load(std::memory_order_acquire)) continue;
            if (all_cancelled || items[i].limits.cancel.cancelled()) {
              tokens[i].request_cancel();
              continue;
            }
            const double deadline = items[i].limits.deadline_seconds;
            if (deadline <= 0.0) continue;
            const double limit =
                deadline * std::max(1.0, items[i].limits.watchdog_factor);
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
    // Items run on the process-lifetime work-stealing pool; the calling
    // thread participates, and threads == 1 runs entirely on the caller.
    ps::WorkerPool::instance().parallel(items.size(), threads, body);
    if (watchdog.joinable()) watchdog.request_stop();
  }

  for (const telemetry::PipelineProfile& p : profiles) report.profile.merge(p);
  report.wall_seconds =
      std::chrono::duration<double>(clock_t_::now() - batch_start).count();
  return results;
}

std::vector<std::string> deobfuscate_batch(const InvokeDeobfuscator& deobf,
                                           const std::vector<std::string>& scripts,
                                           BatchReport& report,
                                           const Options& options) {
  std::vector<BatchItemSpec> specs(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    specs[i].source = scripts[i];
    specs[i].limits = options.limits;
  }
  return deobfuscate_batch_items(deobf, specs, report, options);
}

std::vector<std::string> deobfuscate_batch(const InvokeDeobfuscator& deobf,
                                           const std::vector<std::string>& scripts,
                                           BatchReport& report,
                                           unsigned threads) {
  Options options;
  options.threads = threads;
  return deobfuscate_batch(deobf, scripts, report, options);
}

std::vector<std::string> deobfuscate_batch(const InvokeDeobfuscator& deobf,
                                           const std::vector<std::string>& scripts,
                                           unsigned threads) {
  BatchReport report;
  return deobfuscate_batch(deobf, scripts, report, threads);
}

}  // namespace ideobf
