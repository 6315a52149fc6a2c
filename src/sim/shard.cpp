#include "sim/shard.hpp"

#include <chrono>
#include <deque>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "common/instrumented_mutex.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace rrf::sim {

ShardPlan ShardPlan::build(std::size_t node_count, std::size_t shard_count) {
  RRF_REQUIRE(shard_count >= 1, "shard plan needs >= 1 shard");
  ShardPlan plan;
  plan.node_count_ = node_count;
  plan.ranges_.reserve(shard_count);
  const std::size_t base = node_count / shard_count;
  const std::size_t extra = node_count % shard_count;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t size = base + (s < extra ? 1 : 0);
    plan.ranges_.push_back(ShardRange{begin, begin + size});
    begin += size;
  }
  return plan;
}

std::size_t ShardPlan::shard_of(std::size_t node) const {
  RRF_REQUIRE(node < node_count_, "shard_of: node out of range");
  // Front-loaded balanced ranges invert in closed form; no search needed.
  const std::size_t shards = ranges_.size();
  const std::size_t base = node_count_ / shards;
  const std::size_t extra = node_count_ % shards;
  const std::size_t fat = extra * (base + 1);
  if (node < fat) return node / (base + 1);
  return extra + (node - fat) / base;
}

const char* shard_site(std::size_t index) {
  // ProfileScope stores the pointer forever, so entries live in a deque
  // (stable addresses) guarded by a mutex; the hot path hits this once
  // per shard per round, not per node.  Hook-free: this runs under the
  // profiler whose contention hook must not re-enter.
  static AnnotatedMutex mu;
  static std::deque<std::string> store GUARDED_BY(mu);
  static std::vector<const char*> cache GUARDED_BY(mu);
  MutexLock lock(mu);
  while (cache.size() <= index) {
    store.push_back("shard." + std::to_string(cache.size()));
    cache.push_back(store.back().c_str());
  }
  return cache[index];
}

ShardExecutor::ShardExecutor(ShardPlan plan) : plan_(std::move(plan)) {
  stats_.resize(plan_.shard_count());
  for (std::size_t s = 0; s < stats_.size(); ++s) {
    stats_[s].shard = s;
    stats_[s].nodes = plan_.range(s).size();
  }
}

void ShardExecutor::run_round(const RangeBody& body) {
  global_pool().parallel_for(
      plan_.shard_count(), [&](std::size_t s) {
        ShardStats& stats = stats_[s];  // one task per shard: no lock
        obs::ProfileScope shard_profile(shard_site(s));
        const auto start = std::chrono::steady_clock::now();
        body(s, plan_.range(s));
        stats.busy_seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        ++stats.rounds;
      });
}

void ShardExecutor::publish_metrics() const {
  if (!obs::metrics_enabled()) return;
  for (const ShardStats& stats : stats_) {
    const std::string label = std::to_string(stats.shard);
    obs::metrics()
        .gauge(obs::labeled("engine.shard_busy_seconds", {{"shard", label}}))
        .set(stats.busy_seconds);
    obs::metrics()
        .gauge(obs::labeled("engine.shard_slots", {{"shard", label}}))
        .set(static_cast<double>(stats.slots));
  }
}

std::string ShardExecutor::document() const {
  json::Array shards;
  for (const ShardStats& stats : stats_) {
    shards.push_back(json::Object{{"shard", stats.shard},
                                  {"nodes", plan_.range(stats.shard).size()},
                                  {"rounds", stats.rounds},
                                  {"busy_seconds", stats.busy_seconds}});
  }
  return json::Value(json::Object{{"schema", "rrf-shards"},
                                  {"version", 1},
                                  {"shards", std::move(shards)}})
      .dump();
}

}  // namespace rrf::sim
