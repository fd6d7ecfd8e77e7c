#pragma once

/// \file worker_pool.h
/// Process-lifetime work-stealing thread pool.
///
/// The batch path used to spawn a fresh set of jthreads per call; under
/// a server-style workload (many small batches) thread creation and the
/// cold per-thread allocator caches dominated. This pool keeps its threads
/// for the process lifetime, so per-thread state — the arena chunk
/// freelist, malloc caches — stays warm across batches.
///
/// Scheduling: each submitted job is split across up to `max_workers`
/// *slots*. Every slot owns a deque seeded round-robin with item indices;
/// an executor drains its own deque from the front and, when empty, steals
/// from the back of the other slots' deques. The calling thread competes
/// for a slot like any pool worker, so `max_workers == 1` runs entirely on
/// the caller with zero pool traffic, and a pool of N threads serves
/// callers asking for fewer slots without waking the rest.
///
/// The slot index is handed to the body callback so callers can keep
/// per-slot scratch state (e.g. a RecoveryMemo shard) without locking:
/// a slot is staffed by exactly one executor for the job's duration.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ps {

class WorkerPool {
 public:
  /// The shared process-wide pool. First use spawns the threads.
  static WorkerPool& instance();

  /// Runs `body(item, slot)` for every item in [0, item_count), using at
  /// most `max_workers` concurrent executors (the calling thread counts as
  /// one and always participates when it wins a slot). Blocks until every
  /// item has been executed. `body` must not throw — wrap fallible work in
  /// its own try/catch (Engine::handle_batch seals its items).
  void parallel(std::size_t item_count, unsigned max_workers,
                const std::function<void(std::size_t, unsigned)>& body);

  /// Number of resident pool threads (excluding callers).
  [[nodiscard]] unsigned worker_count() const;

  /// Cumulative cross-slot steals (diagnostics/tests).
  [[nodiscard]] std::uint64_t steal_count() const;
  /// Cumulative jobs completed (diagnostics/tests).
  [[nodiscard]] std::uint64_t job_count() const;

  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  struct Job;

  explicit WorkerPool(unsigned worker_threads);

  void worker_loop(const std::stop_token& stop);
  void run_slot(Job& job, unsigned slot);
  bool pop_or_steal(Job& job, unsigned slot, std::size_t& item);
  void retire(const std::shared_ptr<Job>& job);

  mutable std::mutex mu_;
  std::condition_variable_any cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> jobs_{0};
  std::vector<std::jthread> workers_;  // last member: joins before the rest dies
};

}  // namespace ps
