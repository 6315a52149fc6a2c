#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace rrf::sim {
namespace {

TEST(ShardPlan, PartitionsContiguouslyInAscendingOrder) {
  const ShardPlan plan = ShardPlan::build(13, 5);
  ASSERT_EQ(plan.shard_count(), 5u);
  EXPECT_EQ(plan.node_count(), 13u);
  // Front-loaded balance: 13 = 3+3+3+2+2.
  const std::size_t expected_sizes[] = {3, 3, 3, 2, 2};
  std::size_t next = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const ShardRange& range = plan.range(s);
    EXPECT_EQ(range.begin, next) << "shard " << s;
    EXPECT_EQ(range.size(), expected_sizes[s]) << "shard " << s;
    next = range.end;
  }
  EXPECT_EQ(next, plan.node_count());
}

TEST(ShardPlan, ShardOfInvertsTheRanges) {
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {13, 5}, {16, 16}, {7, 3}, {100, 7}, {1, 1}, {5, 16}};
  for (const auto& [nodes, shards] : cases) {
    const ShardPlan plan = ShardPlan::build(nodes, shards);
    for (std::size_t node = 0; node < nodes; ++node) {
      const std::size_t s = plan.shard_of(node);
      EXPECT_GE(node, plan.range(s).begin);
      EXPECT_LT(node, plan.range(s).end)
          << nodes << " nodes, " << shards << " shards, node " << node;
    }
  }
}

TEST(ShardPlan, MoreShardsThanNodesLeavesEmptyTails) {
  const ShardPlan plan = ShardPlan::build(3, 16);
  ASSERT_EQ(plan.shard_count(), 16u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.range(s).size(), 1u) << "shard " << s;
  }
  for (std::size_t s = 3; s < 16; ++s) {
    EXPECT_TRUE(plan.range(s).empty()) << "shard " << s;
  }
}

TEST(ShardPlan, ZeroNodesYieldsAllEmptyShards) {
  const ShardPlan plan = ShardPlan::build(0, 4);
  ASSERT_EQ(plan.shard_count(), 4u);
  for (const ShardRange& range : plan.ranges()) {
    EXPECT_TRUE(range.empty());
  }
}

TEST(ShardPlan, ZeroShardsIsRejected) {
  EXPECT_THROW(ShardPlan::build(8, 0), PreconditionError);
}

TEST(ShardSite, ReturnsStableDistinctNames) {
  const char* first = shard_site(0);
  const char* third = shard_site(2);
  EXPECT_STREQ(first, "shard.0");
  EXPECT_STREQ(third, "shard.2");
  // Pointer-stable: ProfileScope stores the pointer for the arena's
  // lifetime, so repeated lookups must hand out the same address.
  EXPECT_EQ(shard_site(0), first);
  EXPECT_EQ(shard_site(2), third);
}

TEST(ShardExecutor, RunsEveryNodeExactlyOncePerRound) {
  ShardExecutor executor(ShardPlan::build(13, 5));
  std::vector<std::atomic<int>> hits(13);
  std::vector<ShardRange> seen(executor.plan().shard_count());
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    executor.run_round([&](std::size_t shard, const ShardRange& range) {
      seen[shard] = range;  // one task per shard: no race
      for (std::size_t h = range.begin; h < range.end; ++h) {
        hits[h].fetch_add(1);
      }
    });
  }
  for (std::size_t h = 0; h < hits.size(); ++h) {
    EXPECT_EQ(hits[h].load(), kRounds) << "node " << h;
  }
  // Each shard is handed its own range: disjoint, ascending and covering
  // every node, so walking the shards in order walks the nodes in order.
  std::size_t next = 0;
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_EQ(seen[s].begin, next) << "shard " << s;
    EXPECT_EQ(seen[s].end, executor.plan().range(s).end) << "shard " << s;
    next = seen[s].end;
  }
  EXPECT_EQ(next, hits.size());
  for (const ShardStats& stats : executor.stats()) {
    EXPECT_EQ(stats.rounds, static_cast<std::size_t>(kRounds));
    EXPECT_EQ(stats.nodes, executor.plan().range(stats.shard).size());
    EXPECT_GE(stats.busy_seconds, 0.0);
  }
}

TEST(ShardExecutor, EmptyShardsDispatchAndFinish) {
  ShardExecutor executor(ShardPlan::build(2, 8));
  std::atomic<int> count{0};
  std::atomic<int> calls{0};
  executor.run_round([&](std::size_t, const ShardRange& range) {
    calls.fetch_add(1);
    count.fetch_add(static_cast<int>(range.size()));
  });
  EXPECT_EQ(calls.load(), 8);
  EXPECT_EQ(count.load(), 2);
  for (std::size_t s = 2; s < 8; ++s) {
    EXPECT_EQ(executor.stats()[s].nodes, 0u);
    EXPECT_EQ(executor.stats()[s].rounds, 1u);
  }
}

}  // namespace
}  // namespace rrf::sim
