#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rrf::obs {
namespace {

/// Enables profiling for one test and restores the previous switch (and a
/// clean slate) on the way out, so tests compose in any order.
class ProfilingOn {
 public:
  ProfilingOn() : before_(profiling_enabled()) {
    set_profiling_enabled(true);
    profile_reset();
  }
  ~ProfilingOn() {
    profile_reset();
    set_profiling_enabled(before_);
  }

 private:
  bool before_;
};

const ProfileNode* find_site(const std::vector<ProfileNode>& nodes,
                             const std::string& site) {
  for (const ProfileNode& n : nodes) {
    if (n.site == site) return &n;
  }
  return nullptr;
}

TEST(ObsProfiler, DisabledScopesRecordNothing) {
  const bool before = profiling_enabled();
  set_profiling_enabled(false);
  profile_reset();
  {
    ProfileScope outer("off.outer");
    ProfileScope inner("off.inner");
    ProfileScope::add_bytes(128);
  }
  const ProfileSnapshot snapshot = profile_snapshot();
  EXPECT_EQ(find_site(snapshot.merged, "off.outer"), nullptr);
  EXPECT_EQ(find_site(snapshot.merged, "off.inner"), nullptr);
  set_profiling_enabled(before);
}

TEST(ObsProfiler, ScopesBuildAHierarchicalTreeWithCallCounts) {
  ProfilingOn guard;
  {
    ProfileScope outer("t.outer");
    for (int i = 0; i < 3; ++i) {
      ProfileScope inner("t.inner");
      for (int j = 0; j < 2; ++j) {
        ProfileScope leaf("t.leaf");
      }
    }
  }
  const ProfileSnapshot snapshot = profile_snapshot();
  const ProfileNode* outer = find_site(snapshot.merged, "t.outer");
  const ProfileNode* inner = find_site(snapshot.merged, "t.inner");
  const ProfileNode* leaf = find_site(snapshot.merged, "t.leaf");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(outer->calls, 1u);
  EXPECT_EQ(inner->calls, 3u);
  EXPECT_EQ(leaf->calls, 6u);
  EXPECT_EQ(outer->parent, -1);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(leaf->depth, 2);
  // Preorder parent links: inner's parent is outer, leaf's is inner.
  const auto index_of = [&](const ProfileNode* n) {
    return static_cast<std::int32_t>(n - snapshot.merged.data());
  };
  EXPECT_EQ(inner->parent, index_of(outer));
  EXPECT_EQ(leaf->parent, index_of(inner));
  // Time accounting: totals nest, self = total minus children, >= 0.
  EXPECT_GE(outer->total_seconds, inner->total_seconds);
  EXPECT_GE(inner->total_seconds, leaf->total_seconds);
  EXPECT_GE(outer->self_seconds, 0.0);
  EXPECT_LE(outer->self_seconds, outer->total_seconds);
}

TEST(ObsProfiler, RepeatedSitesAccumulateIntoOneNode) {
  ProfilingOn guard;
  for (int i = 0; i < 50; ++i) {
    ProfileScope scope("t.repeat");
  }
  const ProfileSnapshot snapshot = profile_snapshot();
  std::size_t occurrences = 0;
  for (const ProfileNode& n : snapshot.merged) {
    if (n.site == "t.repeat") ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
  EXPECT_EQ(find_site(snapshot.merged, "t.repeat")->calls, 50u);
}

TEST(ObsProfiler, AddBytesLandsInTheInnermostOpenFrame) {
  ProfilingOn guard;
  {
    ProfileScope outer("b.outer");
    {
      ProfileScope inner("b.inner");
      ProfileScope::add_bytes(1000);
    }
    ProfileScope::add_bytes(7);
  }
  const ProfileSnapshot snapshot = profile_snapshot();
  const ProfileNode* outer = find_site(snapshot.merged, "b.outer");
  const ProfileNode* inner = find_site(snapshot.merged, "b.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->bytes, 1000u);
  EXPECT_GE(outer->bytes, 7u);
  EXPECT_LT(outer->bytes, 1000u);  // child bytes are not double-counted
}

TEST(ObsProfiler, StopEndsTheFrameEarlyAndIsIdempotent) {
  ProfilingOn guard;
  ProfileScope scope("s.stopped");
  scope.stop();
  scope.stop();  // second stop is a no-op
  ProfileScope after("s.after");  // roots, not a child of the stopped frame
  after.stop();
  const ProfileSnapshot snapshot = profile_snapshot();
  const ProfileNode* stopped = find_site(snapshot.merged, "s.stopped");
  const ProfileNode* sibling = find_site(snapshot.merged, "s.after");
  ASSERT_NE(stopped, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(stopped->calls, 1u);
  EXPECT_EQ(sibling->parent, -1);
  EXPECT_EQ(sibling->depth, 0);
}

TEST(ObsProfiler, ResetZeroesCountersButKeepsThreadRegistration) {
  ProfilingOn guard;
  set_thread_name("profiler-test-main");
  { ProfileScope scope("r.scope"); }
  profile_reset();
  const ProfileSnapshot snapshot = profile_snapshot();
  EXPECT_EQ(find_site(snapshot.merged, "r.scope"), nullptr);
  bool named = false;
  for (const auto& [tid, name] : profiled_thread_names()) {
    if (tid == os_thread_id() && name == "profiler-test-main") named = true;
  }
  EXPECT_TRUE(named);
}

// The concurrency/TSan test: many pool tasks hammer the profiler and the
// metrics registry at once; the merged snapshot and the counter must both
// be exact (no torn or lost counts), and per-thread trees must merge into
// a single path-keyed tree.
TEST(ObsProfiler, ParallelForMergesArenasWithoutLosingCounts) {
  ProfilingOn guard;
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kStepsPerTask = 100;
  Counter& steps = metrics().counter("test.profiler.steps");
  steps.reset();
  global_pool().parallel_for(kTasks, [&](std::size_t) {
    ProfileScope task("par.task");
    for (std::size_t i = 0; i < kStepsPerTask; ++i) {
      ProfileScope step("par.step");
      ProfileScope::add_bytes(8);
      steps.add(1);
    }
  });
  EXPECT_EQ(steps.value(), kTasks * kStepsPerTask);

  const ProfileSnapshot snapshot = profile_snapshot();
  const ProfileNode* task = find_site(snapshot.merged, "par.task");
  const ProfileNode* step = find_site(snapshot.merged, "par.step");
  ASSERT_NE(task, nullptr);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(task->calls, kTasks);
  EXPECT_EQ(step->calls, kTasks * kStepsPerTask);
  EXPECT_GE(step->bytes, 8u * kTasks * kStepsPerTask);
  EXPECT_GE(task->total_seconds, 0.0);

  // Per-thread trees sum to the merged tree.
  std::uint64_t per_thread_steps = 0;
  for (const ThreadProfile& t : snapshot.threads) {
    if (const ProfileNode* n = find_site(t.nodes, "par.step")) {
      per_thread_steps += n->calls;
    }
  }
  EXPECT_EQ(per_thread_steps, kTasks * kStepsPerTask);
}

TEST(ObsProfiler, PoolObserverCountsTasksAndNamesWorkers) {
  ProfilingOn guard;
  if (global_pool().thread_count() <= 1) {
    GTEST_SKIP() << "parallel_for falls back to serial without workers";
  }
  // Enough chunky work to force pool dispatch past the serial cutoff.
  // Under host load the calling thread can drain every chunk before a
  // worker wakes, leaving the pool nothing to count; so each iteration
  // waits (bounded) until some iteration has run off the caller.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> ran_on_worker{false};
  std::atomic<std::uint64_t> sink{0};
  global_pool().parallel_for(256, [&](std::size_t i) {
    if (std::this_thread::get_id() != caller) ran_on_worker.store(true);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ran_on_worker.load() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::uint64_t h = i + 1;
    for (int r = 0; r < 2000; ++r) h = h * 6364136223846793005ULL + 1;
    sink.fetch_add(h | 1, std::memory_order_relaxed);
  });
  const ProfileSnapshot snapshot = profile_snapshot();
  EXPECT_GE(snapshot.pool.parallel_fors, 1u);
  EXPECT_GE(snapshot.pool.tasks, 1u);
  EXPECT_GE(snapshot.pool.exec_seconds, 0.0);
  bool worker_named = false;
  for (const auto& [tid, name] : profiled_thread_names()) {
    (void)tid;
    if (name.rfind("pool/worker-", 0) == 0) worker_named = true;
  }
  EXPECT_TRUE(worker_named);
}

TEST(ObsProfiler, InstrumentedMutexReportsContendedAcquisitions) {
  ProfilingOn guard;
  InstrumentedMutex mu("test.contended_lock");
  {
    std::unique_lock<InstrumentedMutex> held(mu);
    std::thread blocked([&] {
      std::unique_lock<InstrumentedMutex> other(mu);  // must block
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    held.unlock();
    blocked.join();
  }
  const ProfileSnapshot snapshot = profile_snapshot();
  const MutexContention* found = nullptr;
  for (const MutexContention& c : snapshot.contention) {
    if (c.site == "test.contended_lock") found = &c;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_GE(found->contended, 1u);
  EXPECT_GT(found->blocked_seconds, 0.0);
}

TEST(ObsProfiler, UncontendedInstrumentedMutexStaysOffTheLedger) {
  ProfilingOn guard;
  InstrumentedMutex mu("test.quiet_lock");
  for (int i = 0; i < 10; ++i) {
    std::lock_guard<InstrumentedMutex> lock(mu);
  }
  const ProfileSnapshot snapshot = profile_snapshot();
  for (const MutexContention& c : snapshot.contention) {
    EXPECT_NE(c.site, "test.quiet_lock");
  }
}

TEST(ObsProfiler, CollapsedStackOutputIsFlamegraphInput) {
  ProfilingOn guard;
  {
    ProfileScope outer("fg.outer");
    ProfileScope inner("fg.inner");
    // Make sure the leaf accrues measurable self time.
    volatile double x = 1.0;
    for (int i = 0; i < 200000; ++i) x = x * 1.0000001;
  }
  std::ostringstream os;
  write_collapsed(os, profile_snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("fg.outer;fg.inner "), std::string::npos);
  // Every line is "path <integer self_us>".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty());
    for (const char c : count) {
      EXPECT_TRUE(c >= '0' && c <= '9') << line;
    }
  }
}

TEST(ObsProfiler, ChromeProfileExportCarriesRealTidsAndThreadNames) {
  ProfilingOn guard;
  set_thread_name("chrome-test-main");
  { ProfileScope scope("ch.scope"); }
  std::ostringstream os;
  write_chrome_profile(os, profile_snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"chrome-test-main\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"ch.scope\""), std::string::npos);
  const std::string tid_member =
      "\"tid\":" + std::to_string(os_thread_id());
  EXPECT_NE(text.find(tid_member), std::string::npos);
}

TEST(ObsProfiler, BothChromeExportsParseWithThreadNamesAndRealTids) {
  // The tracer's and the profiler's Chrome exports share one writer: each
  // is one JSON document whose events sit on real OS-thread tracks, each
  // track named by a thread_name metadata event.
  ProfilingOn guard;
  set_thread_name("chrome-both");
  { ProfileScope scope("both.scope"); }
  EventTracer events(4);
  events.record(TraceEvent{});
  std::ostringstream profile;
  std::ostringstream trace;
  write_chrome_profile(profile, profile_snapshot());
  events.write_chrome_trace(trace);
  for (const std::string& text : {profile.str(), trace.str()}) {
    const json::Value doc = json::Value::parse(text);
    bool named = false;
    bool on_own_track = false;
    for (const json::Value& e : doc.find("traceEvents")->as_array()) {
      if (e.find("tid")->as_number() != os_thread_id()) continue;
      if (e.find("name")->as_string() != "thread_name") {
        on_own_track = true;
      } else if (e.find("args")->find("name")->as_string() == "chrome-both") {
        named = true;
      }
    }
    EXPECT_TRUE(named) << text;
    EXPECT_TRUE(on_own_track) << text;
  }
}

TEST(ObsProfiler, PublishProfileMetricsExportsGaugeFamilies) {
  ProfilingOn guard;
  { ProfileScope scope("pm.scope"); }
  MetricsRegistry registry;
  publish_profile_metrics(registry, profile_snapshot());
  const Gauge* calls =
      registry.find_gauge(labeled("profile.calls", {{"site", "pm.scope"}}));
  ASSERT_NE(calls, nullptr);
  EXPECT_DOUBLE_EQ(calls->value(), 1.0);
  const Gauge* self = registry.find_gauge(
      labeled("profile.self_seconds", {{"site", "pm.scope"}}));
  ASSERT_NE(self, nullptr);
  EXPECT_GE(self->value(), 0.0);
}

TEST(ObsProfiler, EnableDisableRoundTripsLikeTheOtherObsSwitches) {
  const bool before = profiling_enabled();
  set_profiling_enabled(true);
  EXPECT_TRUE(profiling_enabled());
  set_profiling_enabled(false);
  EXPECT_FALSE(profiling_enabled());
  set_profiling_enabled(before);
}

}  // namespace
}  // namespace rrf::obs
