// A small fixed-size thread pool with a blocking parallel_for.
//
// The simulation engine runs the per-node local allocators (IRT + IWA) in
// parallel across physical hosts — the same structure the paper deploys
// (one allocator per node in domain 0).  Benches also use parallel_for for
// parameter sweeps.
//
// The pool is observable: install a ThreadPoolObserver (the profiler does
// on set_profiling_enabled(true)) and every dequeued task reports queue
// wait, worker idle time, queue depth and execution time; parallel_for
// reports its chunk/helper fan-out.  With no observer installed the only
// extra cost per task is two pointer loads — no clock is read.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "common/instrumented_mutex.hpp"

namespace rrf {

/// Telemetry sink for pool activity.  Callbacks run on worker (or caller)
/// threads outside the queue lock; implementations must be thread-safe.
/// Uninstalling swaps the pointer: tasks dequeued afterwards are not
/// reported, but a task already running still reports its end, so an
/// observer must outlive every task that started while it was installed.
class ThreadPoolObserver {
 public:
  virtual ~ThreadPoolObserver() = default;
  /// First task a worker dequeues while observed (names the thread).
  virtual void on_worker_start(std::size_t worker_index) = 0;
  /// A task was dequeued: time spent queued, time this worker sat idle
  /// waiting for it, and queue depth after removal.
  virtual void on_task_start(std::chrono::nanoseconds queue_wait,
                             std::chrono::nanoseconds idle,
                             std::size_t queue_depth) = 0;
  virtual void on_task_done(std::chrono::nanoseconds exec) = 0;
  /// A parallel_for dispatched to the pool (serial fallbacks not counted).
  virtual void on_parallel_for(std::size_t n, std::size_t chunks,
                               std::size_t helpers) = 0;
};

namespace detail {
inline std::atomic<ThreadPoolObserver*> g_thread_pool_observer{nullptr};
}  // namespace detail

// Release/acquire: a worker that sees the pointer also sees the
// observer's construction.
inline void set_thread_pool_observer(ThreadPoolObserver* observer) {
  detail::g_thread_pool_observer.store(observer, std::memory_order_release);
}
inline ThreadPoolObserver* thread_pool_observer() {
  return detail::g_thread_pool_observer.load(std::memory_order_acquire);
}

class ThreadPool {
 public:
  /// `threads == 0` picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n), blocking until every iteration completes.
  /// Exceptions from iterations are rethrown (first one wins) on the caller.
  ///
  /// `grain` is the minimum number of iterations per stolen chunk: cheap
  /// per-iteration bodies should pass a larger grain so chunk-steal
  /// bookkeeping does not dominate.  When n <= grain the loop runs
  /// serially on the caller without touching the queue at all.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  /// A queued task; `enqueued` is stamped only while an observer is
  /// installed (keeps the unobserved enqueue path clock-free).
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued{};
    bool stamped{false};
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  InstrumentedMutex mu_{"thread_pool.queue"};
  std::queue<QueuedTask> tasks_ GUARDED_BY(mu_);
  std::condition_variable_any cv_;
  bool stopping_ GUARDED_BY(mu_){false};
};

/// Process-wide pool for library internals (lazily constructed).
ThreadPool& global_pool();

/// The calling thread's worker index in the pool that started it, or
/// nullopt on a thread no pool started.
std::optional<std::size_t> pool_worker_index();

}  // namespace rrf
