#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rrf {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyAndSingleIteration) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  constexpr std::size_t n = 100'000;
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  std::atomic<long long> sum{0};
  pool.parallel_for(n, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(xs[i]));
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n + 1) / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, GrainCoversEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{10'000}}) {
    constexpr std::size_t n = 1'000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    }
  }
}

TEST(ThreadPool, GrainAtOrAboveNRunsSeriallyOnCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(
      seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
      /*grain=*/seen.size());
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, GrainZeroBehavesLikeGrainOne) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(
      50, [&](std::size_t) { count.fetch_add(1); }, /*grain=*/0);
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> count{0};
  pool.parallel_for(25, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 25);
}

TEST(ThreadPool, PropagatesExceptionsFromSerialCutoff) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t i) {
                     if (i == 2) throw std::runtime_error("boom");
                   },
                   /*grain=*/8),
               std::runtime_error);
}

TEST(ThreadPool, UsableAfterAnIterationThrew) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t) {
                                   throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.parallel_for(4, [&](std::size_t) {
    inner.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, NestedOnSamePoolCompletes) {
  // Re-entrant use of one pool: the inner call's caller-participation
  // guarantees forward progress even when every worker is busy in the
  // outer loop.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) {
    pool.parallel_for(5, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 15);
}

TEST(ThreadPool, GlobalPoolIsAlive) {
  EXPECT_GE(global_pool().thread_count(), 1u);
  std::atomic<int> c{0};
  global_pool().parallel_for(10, [&](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(c.load(), 10);
}

namespace {
/// Runs one parallel_for on `pool` that every worker joins, so every
/// helper task queued on it before (the queue is FIFO) has been dequeued
/// when this returns.  Under host load a parallel_for's caller can finish
/// all chunks before its helpers are dequeued; such a stale helper would
/// otherwise start later, inside another test's observer window.  Each
/// participant waits at most 10 s for the others.
void drain(ThreadPool& pool) {
  if (pool.thread_count() <= 1) return;  // runs inline, never enqueues
  const std::size_t participants = pool.thread_count() + 1;  // + caller
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto all_joined = [&] {
    std::lock_guard lock(mu);
    return seen.size() >= participants;
  };
  pool.parallel_for(4 * participants, [&](std::size_t) {
    {
      std::lock_guard lock(mu);
      seen.insert(std::this_thread::get_id());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!all_joined() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
}

/// Counts observer callbacks; durations are only sanity-checked (>= 0).
class CountingObserver final : public ThreadPoolObserver {
 public:
  void on_worker_start(std::size_t) override {
    workers_started.fetch_add(1, std::memory_order_relaxed);
  }
  void on_task_start(std::chrono::nanoseconds queue_wait,
                     std::chrono::nanoseconds idle,
                     std::size_t queue_depth) override {
    tasks_started.fetch_add(1, std::memory_order_relaxed);
    if (queue_wait.count() < 0 || idle.count() < 0) {
      negative_durations.store(true, std::memory_order_relaxed);
    }
    (void)queue_depth;
  }
  void on_task_done(std::chrono::nanoseconds exec) override {
    tasks_done.fetch_add(1, std::memory_order_relaxed);
    if (exec.count() < 0) {
      negative_durations.store(true, std::memory_order_relaxed);
    }
  }
  void on_parallel_for(std::size_t n, std::size_t chunks,
                       std::size_t helpers) override {
    parallel_fors.fetch_add(1, std::memory_order_relaxed);
    last_n.store(n, std::memory_order_relaxed);
    last_chunks.store(chunks, std::memory_order_relaxed);
    last_helpers.store(helpers, std::memory_order_relaxed);
  }

  std::atomic<std::size_t> workers_started{0};
  std::atomic<std::size_t> tasks_started{0};
  std::atomic<std::size_t> tasks_done{0};
  std::atomic<std::size_t> parallel_fors{0};
  std::atomic<std::size_t> last_n{0};
  std::atomic<std::size_t> last_chunks{0};
  std::atomic<std::size_t> last_helpers{0};
  std::atomic<bool> negative_durations{false};
};
}  // namespace

TEST(ThreadPool, NestedOnSamePoolRunsInlineWithoutHelperTasks) {
  // Regression: a parallel_for issued from inside this pool's own work
  // (a worker task or a caller stealing chunks) used to enqueue a full
  // set of helper tasks per nested call, flooding the queue — the outer
  // call already owns the pool's parallelism, so the nested call must
  // take the inline serial path and skip the queue entirely.
  drain(global_pool());  // GlobalPoolIsAlive's helpers must not be counted
  CountingObserver observer;
  ThreadPoolObserver* const previous = thread_pool_observer();
  set_thread_pool_observer(&observer);
  {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 4 * 64);
    // Only the outer dispatch hit the queue: one observed parallel_for
    // (nested inline calls are serial fallbacks, not counted) and no
    // more helper tasks than the outer call enqueued.
    EXPECT_EQ(observer.parallel_fors.load(), 1u);
    EXPECT_LE(observer.tasks_started.load(), pool.thread_count());
  }
  set_thread_pool_observer(previous);

  // A *different* pool keeps dispatching normally from nested context.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.parallel_for(2, [&](std::size_t) {
    inner.parallel_for(32, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 2 * 32);
}

TEST(ThreadPool, ObserverSeesDispatchedWorkAndUninstallsCleanly) {
  drain(global_pool());  // GlobalPoolIsAlive's helpers must not be counted
  CountingObserver observer;
  ThreadPoolObserver* const previous = thread_pool_observer();
  set_thread_pool_observer(&observer);

  std::atomic<int> c{0};
  {
    ThreadPool pool(2);
    pool.parallel_for(64, [&](std::size_t) { c.fetch_add(1); });
    EXPECT_EQ(c.load(), 64);
    // on_parallel_for fires synchronously on the caller for pool
    // dispatches only.
    EXPECT_EQ(observer.parallel_fors.load(), 1u);
    EXPECT_EQ(observer.last_n.load(), 64u);
    EXPECT_GE(observer.last_chunks.load(), 1u);
    EXPECT_LE(observer.last_helpers.load(), pool.thread_count());
    // Serial fallback (n <= grain) bypasses the queue and is not counted.
    pool.parallel_for(3, [&](std::size_t) { c.fetch_add(1); }, /*grain=*/8);
    EXPECT_EQ(observer.parallel_fors.load(), 1u);
  }
  // The pool is joined: every helper task that started also finished.
  EXPECT_EQ(observer.tasks_started.load(), observer.tasks_done.load());
  EXPECT_FALSE(observer.negative_durations.load());

  // After uninstalling, a fresh pool's work goes unobserved.
  set_thread_pool_observer(previous);
  const std::size_t tasks_before = observer.tasks_started.load();
  ThreadPool quiet(2);
  quiet.parallel_for(64, [&](std::size_t) { c.fetch_add(1); });
  EXPECT_EQ(observer.tasks_started.load(), tasks_before);
}

TEST(ThreadPool, UninstalledObserverIsNeverCalledAgain) {
  // Regression: a worker read the observer before parking and called it
  // after waking, so an observer uninstalled (and destroyed) while the
  // worker slept was still called for the next task.
  auto observer = std::make_unique<CountingObserver>();
  ThreadPoolObserver* const previous = thread_pool_observer();
  set_thread_pool_observer(observer.get());
  std::atomic<int> c{0};
  {
    ThreadPool pool(2);
    pool.parallel_for(64, [&](std::size_t) { c.fetch_add(1); });
    // Both workers go back to waiting with the observer installed.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    set_thread_pool_observer(previous);
    const std::size_t tasks_before = observer->tasks_started.load();
    pool.parallel_for(64, [&](std::size_t) { c.fetch_add(1); });
    EXPECT_EQ(observer->tasks_started.load(), tasks_before);
  }
  EXPECT_EQ(c.load(), 128);
  observer.reset();
}

}  // namespace
}  // namespace rrf
