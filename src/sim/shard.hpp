// Node sharding for the simulation engine (ROADMAP item 1).
//
// A ShardPlan partitions the node index space [0, N) into contiguous,
// balanced, *ascending* ranges — one per shard.  Contiguity is the
// load-bearing property: walking shards 0..S-1 and each range front to
// back visits nodes in exactly the global ascending order, so the
// engine's canonical exchange merge (sim/engine.cpp) accumulates tenant
// ledgers in an order independent of shard count and thread count.  Any
// shard count therefore produces bit-identical allocations and ledger
// flows, including the historical serial path.
//
// The ShardExecutor dispatches one pool task per shard, each running the
// engine's body over its own node range (touching only that range's
// NodeState caches and scratch), times each shard's busy wall for
// imbalance attribution, and opens a per-shard profiler frame so
// flamegraphs name the shard a round's time went to.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace rrf::sim {

/// One contiguous range of node indices owned by a shard ([begin, end)).
struct ShardRange {
  std::size_t begin{0};
  std::size_t end{0};
  std::size_t size() const { return end - begin; }
  bool empty() const { return begin == end; }
};

/// Contiguous balanced partition of [0, node_count) into shard_count
/// ascending ranges.  The first node_count % shard_count shards get one
/// extra node; when shard_count > node_count the tail shards are empty
/// (they dispatch and immediately finish — a legal, tested edge).
class ShardPlan {
 public:
  ShardPlan() = default;

  /// Requires shard_count >= 1; node_count may be 0.
  static ShardPlan build(std::size_t node_count, std::size_t shard_count);

  std::size_t shard_count() const { return ranges_.size(); }
  std::size_t node_count() const { return node_count_; }
  const ShardRange& range(std::size_t shard) const { return ranges_[shard]; }
  const std::vector<ShardRange>& ranges() const { return ranges_; }

  /// The shard owning `node` (node < node_count).
  std::size_t shard_of(std::size_t node) const;

 private:
  std::size_t node_count_{0};
  std::vector<ShardRange> ranges_;
};

/// Per-shard execution telemetry over one engine run.
struct ShardStats {
  std::size_t shard{0};
  std::size_t nodes{0};  ///< nodes in the shard's range at run end
  std::size_t slots{0};  ///< VM slots hosted by those nodes at run end
  std::size_t rounds{0};  ///< windows this shard executed
  /// Wall time inside the shard's node loop, summed over rounds — the
  /// imbalance signal (max/mean across shards bounds the speedup).
  double busy_seconds{0.0};
};

/// Stable static-storage site string for shard `index` ("shard.0", ...).
/// ProfileScope keeps the pointer, so the store never frees or moves an
/// entry once handed out.
const char* shard_site(std::size_t index);

/// Runs the engine's per-range round body shard by shard on the global
/// thread pool: one task per shard, each handed its shard index and node
/// range (the body walks the range in ascending order).  Accumulates
/// per-shard busy seconds and round counts; the engine folds node/slot
/// counts in after the run.
class ShardExecutor {
 public:
  /// The body of one shard's round: its index and node range.
  using RangeBody = std::function<void(std::size_t, const ShardRange&)>;

  explicit ShardExecutor(ShardPlan plan);

  /// One window: dispatches every shard and blocks until all complete.
  /// `body` must be safe to call concurrently for different shards (it
  /// is: each node's state is touched by exactly one shard task).
  void run_round(const RangeBody& body);

  const ShardPlan& plan() const { return plan_; }
  const std::vector<ShardStats>& stats() const { return stats_; }
  std::vector<ShardStats>& stats() { return stats_; }

  /// Publishes engine.shard_busy_seconds / engine.shard_slots gauges
  /// (labeled by shard index) into the metrics registry; a no-op while
  /// metric collection is off.
  void publish_metrics() const;

  /// The `rrf-shards` v1 document an incident bundle stores as
  /// shards.json: per shard its node count, rounds and busy seconds.
  std::string document() const;

 private:
  ShardPlan plan_;
  /// Partitioned, not mutex-guarded: stats_[s] is written only by shard
  /// s's single pool task during run_round() (which barriers before
  /// returning) and read only between rounds on the caller thread, so
  /// there is no concurrent access to annotate — the same discipline
  /// NodeState's per-round scratch follows in sim/engine.cpp.
  std::vector<ShardStats> stats_;
};

}  // namespace rrf::sim
