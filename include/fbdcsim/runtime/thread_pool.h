// Deterministic parallel execution: a fixed-size worker pool with a bounded
// task queue.
//
// The pool is the substrate of the runtime/ subsystem: ShardedFleetRunner
// schedules its shards through it, and concurrent rack captures run as one
// parallel_map batch (one Simulator per task). Nothing in the pool
// itself is stochastic — determinism of results is the responsibility of the
// callers, who must make each task's output independent of execution order
// (the fork-per-host RngStream contract) and merge results in a canonical
// order.
//
// Worker count comes from FBDCSIM_THREADS when set (clamped to >= 1),
// otherwise std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fbdcsim::runtime {

/// Effective worker count: FBDCSIM_THREADS if set to a valid positive
/// integer (malformed values are ignored, and each distinct one is
/// diagnosed on stderr once per process), otherwise the hardware
/// concurrency (at least 1). Thread-safe.
[[nodiscard]] int env_thread_count();

/// A fixed pool of worker threads draining a bounded FIFO task queue.
///
/// `post` enqueues one task and blocks while the queue is at capacity, so an
/// unbounded producer cannot accumulate unbounded backlog. Batch helpers
/// (`parallel_for_each`, `parallel_map`) block the calling thread until the
/// whole batch completes and rethrow the failed task's exception — the one
/// with the lowest index, so which error surfaces does not depend on thread
/// scheduling.
///
/// Tasks must not schedule nested batches on the same pool (a task blocking
/// on pool capacity while occupying a worker can deadlock).
class ThreadPool {
 public:
  explicit ThreadPool(int workers = env_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task; blocks while the queue is full. The task's
  /// exceptions must be handled by the task itself (use the batch helpers
  /// for automatic propagation).
  void post(std::function<void()> task);

  /// Runs fn(0) .. fn(count-1) across the pool and waits for completion.
  /// If any invocation throws, the exception from the lowest-index failure
  /// is rethrown here after every task of the batch has finished.
  void parallel_for_each(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Element-wise map preserving input order. `Out` must be
  /// default-constructible; `fn` must be safe to invoke concurrently.
  template <typename In, typename F>
  [[nodiscard]] auto parallel_map(const std::vector<In>& in, F fn)
      -> std::vector<decltype(fn(std::declval<const In&>()))> {
    std::vector<decltype(fn(std::declval<const In&>()))> out(in.size());
    parallel_for_each(in.size(), [&](std::size_t i) { out[i] = fn(in[i]); });
    return out;
  }

 private:
  /// A queued task plus its enqueue wall time (microseconds; 0 when the
  /// build compiles telemetry out) so workers can report queue-wait latency.
  struct QueuedTask {
    std::function<void()> fn;
    std::int64_t enqueue_us{0};
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable task_ready_;   // signaled when the queue gains a task
  std::condition_variable space_ready_;  // signaled when the queue frees a slot
  std::deque<QueuedTask> queue_;
  std::size_t max_queue_;
  bool stopping_{false};
};

}  // namespace fbdcsim::runtime
