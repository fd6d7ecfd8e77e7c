#pragma once

/// \file metrics.h
/// Process-wide metrics registry: lock-free counters, gauges, and
/// fixed-bucket latency histograms, sharded so batch worker threads never
/// contend and merged on read.
///
/// Design constraints, in priority order:
///  1. Telemetry off must cost ~nothing. Every recording call starts with a
///     single relaxed atomic load of the global enabled flag and returns on
///     the cold branch; no clock is read, no cell is touched.
///  2. Enabled recording must never contend. Each metric owns one
///     cache-line-padded cell per shard; a thread writes only its own shard
///     (bound to its WorkerPool slot by Engine::handle_batch, or assigned
///     round-robin on first use) with relaxed atomics. Readers sum the
///     shards, so reads are racy-but-monotonic snapshots — exactly what an
///     exposition endpoint wants.
///  3. Handles are stable. Registration interns by name under a mutex (rare,
///     typically once per call site via a function-local static); the
///     returned reference stays valid for the process lifetime.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ideobf::telemetry {

/// Number of metric shards. Engine::handle_batch binds each pool slot to shard
/// `slot % kShardCount`; unbound threads are assigned round-robin.
inline constexpr unsigned kShardCount = 16;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Whether telemetry is recording. One relaxed load; the hot-path gate.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// The calling thread's metric shard (assigned round-robin on first use).
unsigned current_shard();
/// Binds the calling thread to shard `slot % kShardCount` (how batch workers
/// get one shard per pool slot, making per-slot cells uncontended).
void set_current_shard(unsigned slot);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    add_unguarded(n);
  }
  /// Records even when telemetry is disabled. Used only where a pair of
  /// counters must stay balanced across an enable/disable edge (a span
  /// opened while enabled must still count its close).
  void add_unguarded(std::uint64_t n = 1) {
    cells_[current_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const;  ///< merged across shards
  [[nodiscard]] std::uint64_t shard_value(unsigned shard) const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kShardCount];
};

/// Up/down counter (current in-flight items, resident bytes, ...). Each
/// shard accumulates signed deltas; the merged value is their sum.
class Gauge {
 public:
  void add(std::int64_t delta = 1) {
    if (!enabled()) return;
    cells_[current_shard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::int64_t delta = 1) { add(-delta); }
  /// Absolute set: zeroes every shard and stores `v` in shard 0. Single
  /// writer only (scrape-time series such as uptime or an info gauge's
  /// constant 1); deliberately not gated on enabled() so hygiene series
  /// exist even when the scrape itself enabled telemetry a moment ago.
  void set(std::int64_t v);
  [[nodiscard]] std::int64_t value() const;  ///< merged across shards
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  Cell cells_[kShardCount];
};

/// Fixed-bucket latency histogram. Bucket boundaries are a hard-coded
/// 1-2.5-5 log ladder from 1 µs to 10 s (phase latencies span ~7 decades:
/// a token pass on a one-liner is microseconds, a hostile recovery rung is
/// seconds); the last bucket is the +Inf overflow. Fixed buckets keep the
/// record path allocation-free and make cross-shard merge a plain sum.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 23;
  /// Upper bounds (inclusive) of buckets 0..kBucketCount-2, nanoseconds;
  /// bucket kBucketCount-1 is +Inf.
  static const std::array<std::uint64_t, kBucketCount - 1>& bounds_ns();
  static std::size_t bucket_index(std::uint64_t ns);

  void observe_ns(std::uint64_t ns) {
    if (!enabled()) return;
    Shard& s = shards_[current_shard()];
    s.buckets[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  void observe_seconds(double seconds) {
    if (!enabled()) return;
    observe_ns(seconds <= 0.0 ? 0
                              : static_cast<std::uint64_t>(seconds * 1e9));
  }

  /// Merged (non-cumulative) count of bucket `i`.
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum_ns() const;
  [[nodiscard]] double sum_seconds() const {
    return static_cast<double>(sum_ns()) / 1e9;
  }
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kBucketCount] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  Shard shards_[kShardCount];
};

/// Read-only snapshot of the registry for exporters and tests.
struct RegistrySnapshot {
  struct CounterSample {
    std::string base;    ///< metric name, e.g. "ideobf_parse_cache_hit_total"
    std::string labels;  ///< label body without braces, e.g. kind="timeout"
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string base;
    std::string labels;
    std::int64_t value = 0;
  };
  struct HistogramSample {
    std::string base;
    std::string labels;
    std::array<std::uint64_t, Histogram::kBucketCount> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Name-interning registry. `counter("x_total", "kind=\"timeout\"")` returns
/// the same handle for the same (base, labels) pair forever; call sites
/// cache the reference in a function-local static so the mutex is paid once.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view base, std::string_view labels = {});
  Gauge& gauge(std::string_view base, std::string_view labels = {});
  Histogram& histogram(std::string_view base, std::string_view labels = {});

  /// Zeroes every cell of every registered metric. Handles stay valid —
  /// this resets values, it does not unregister (benches and tests isolate
  /// measurement windows with it).
  void reset();

  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  template <typename M>
  M& intern(std::map<std::string, std::unique_ptr<M>, std::less<>>& map,
            std::string_view base, std::string_view labels);

  mutable std::mutex mu_;
  // Keyed by "base{labels}" (or bare base); std::map for deterministic
  // exposition order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry (never destroyed: worker threads may record
/// during static teardown).
MetricsRegistry& registry();

}  // namespace ideobf::telemetry
