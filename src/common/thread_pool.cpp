#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace rrf {

namespace {
/// The pool whose work this thread is currently executing (a worker
/// running a task, or a parallel_for caller stealing its own chunks).
/// A re-entrant parallel_for on the same pool must not enqueue helper
/// tasks: every nested call would push thread_count() helpers that mostly
/// wake workers to find the chunk counter drained, and a deep enough
/// nest floods the queue while the outer chunks' callers sit blocked in
/// their completion waits.  Nested same-pool calls run inline instead —
/// the outer parallel_for already owns the pool's parallelism.
thread_local const ThreadPool* t_active_pool = nullptr;

/// Set once on each worker thread, before its first task.
thread_local std::optional<std::size_t> t_worker_index;

/// RAII marker so exceptions from task bodies restore the previous pool.
struct ActivePoolScope {
  const ThreadPool* previous;
  explicit ActivePoolScope(const ThreadPool* pool)
      : previous(t_active_pool) {
    t_active_pool = pool;
  }
  ~ActivePoolScope() { t_active_pool = previous; }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  t_worker_index = worker_index;
  bool announced = false;
  for (;;) {
    // Read before the wait only to stamp idle time.  The observer that
    // hears about the task is re-read after dequeuing, so one uninstalled
    // while this worker waited is never called.
    std::chrono::steady_clock::time_point idle_from{};
    if (thread_pool_observer() != nullptr) {
      idle_from = std::chrono::steady_clock::now();
    }

    QueuedTask task;
    std::size_t depth_after = 0;
    {
      MutexLock lock(mu_);
      // The wait predicate runs with mu_ held, but from a lambda the
      // thread-safety analysis cannot see through; assert_held() is the
      // documented boundary (docs/STATIC_ANALYSIS.md).
      cv_.wait(lock, [this] {
        mu_.assert_held();
        return stopping_ || !tasks_.empty();
      });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth_after = tasks_.size();
    }

    ThreadPoolObserver* const observer = thread_pool_observer();
    if (observer == nullptr) {
      ActivePoolScope in_pool(this);
      task.fn();
      continue;
    }
    if (!announced) {
      observer->on_worker_start(worker_index);
      announced = true;
    }
    const auto dequeued = std::chrono::steady_clock::now();
    const auto queue_wait =
        task.stamped
            ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                  dequeued - task.enqueued)
            : std::chrono::nanoseconds{0};
    // Zero when the observer was installed while this worker waited.
    const auto idle =
        idle_from != std::chrono::steady_clock::time_point{}
            ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                  dequeued - idle_from)
            : std::chrono::nanoseconds{0};
    observer->on_task_start(queue_wait, idle, depth_after);
    {
      ActivePoolScope in_pool(this);
      task.fn();
    }
    observer->on_task_done(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - dequeued));
  }
}

namespace {
/// Shared state for one parallel_for call.  Owned via shared_ptr by every
/// queued task so the last finisher can safely outlive the caller's frame.
struct ForContext {
  std::size_t n{};
  std::size_t chunks{};
  const std::function<void(std::size_t)>* fn{};
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::mutex done_mu;
  std::condition_variable done_cv;

  /// Steal and run chunks until exhausted.
  void run() {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= chunks) return;
      const std::size_t begin = c * n / chunks;
      const std::size_t end = (c + 1) * n / chunks;
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      if (done.fetch_add(1) + 1 == chunks) {
        std::lock_guard lock(done_mu);
        done_cv.notify_all();
      }
    }
  }
};
}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (n <= grain || thread_count() <= 1 || t_active_pool == this) {
    // Below the grain (or with nobody to share with) the queue and the
    // wakeups cost more than they buy: run serially on the caller.  The
    // same goes for a nested call from inside this pool's own work —
    // the outer parallel_for already holds the pool's parallelism, and
    // enqueuing helpers from here would only flood the queue (see
    // t_active_pool above).  Exceptions propagate directly, same
    // first-error semantics.  Like the other serial fallbacks, nested
    // calls are not reported to the pool observer.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto ctx = std::make_shared<ForContext>();
  ctx->n = n;
  ctx->chunks = std::min((n + grain - 1) / grain, thread_count() * 4);
  ctx->fn = &fn;  // valid: the caller blocks until all chunks are done

  // More helper tasks than chunks would only wake workers to find the
  // chunk counter exhausted; the caller participates too, so chunks
  // helpers is already one more stealer than strictly needed.
  const std::size_t helpers = std::min(thread_count(), ctx->chunks);
  ThreadPoolObserver* const observer = thread_pool_observer();
  {
    MutexLock lock(mu_);
    RRF_REQUIRE(!stopping_, "parallel_for on a stopped pool");
    // One helper task per worker is enough: each steals chunks in a loop.
    for (std::size_t t = 0; t < helpers; ++t) {
      QueuedTask task;
      task.fn = [ctx] { ctx->run(); };
      if (observer != nullptr) {
        task.enqueued = std::chrono::steady_clock::now();
        task.stamped = true;
      }
      tasks_.push(std::move(task));
    }
  }
  cv_.notify_all();
  if (observer != nullptr) {
    observer->on_parallel_for(n, ctx->chunks, helpers);
  }

  // The caller participates, then waits for stragglers.  `fn` must stay
  // alive until done == chunks, which this wait guarantees; the context
  // itself is kept alive by the queued shared_ptr copies.  The caller is
  // marked as running this pool's work while it steals so that `fn`
  // itself calling parallel_for on this pool takes the inline path.
  {
    ActivePoolScope in_pool(this);
    ctx->run();
  }
  {
    std::unique_lock lock(ctx->done_mu);
    ctx->done_cv.wait(lock,
                      [&] { return ctx->done.load() == ctx->chunks; });
  }

  if (ctx->first_error) std::rethrow_exception(ctx->first_error);
}

std::optional<std::size_t> pool_worker_index() { return t_worker_index; }

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rrf
