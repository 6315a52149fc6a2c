// Shard determinism: the sharded parallel round must be invisible in
// results.  For every shard count — including counts that do not divide
// the node count and counts larger than it (empty tail shards) — the
// engine must produce bit-identical allocations (flight-recorded rounds)
// and bit-identical tenant ledger flows (OpsHub round summaries) to the
// serial run.  The suite is parameterized over every policy because the
// policies stress different reduction paths: rrf-lt's cross-window
// contribution bank is the historically nondeterministic one.
//
// RRF_STRESS_ITERS (environment) scales the stress test's repeat count;
// CI dials it up on the tsan leg, local runs default low.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/ops.hpp"
#include "sim/engine.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"

namespace rrf::sim {
namespace {

// 13 is prime: none of these divide it, and 16 > 13 is capped at the
// host count.
constexpr std::size_t kShardCounts[] = {1, 2, 3, 7, 16};

std::size_t stress_iters() {
  const char* env = std::getenv("RRF_STRESS_ITERS");
  if (env == nullptr || *env == '\0') return 2;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : 2;
}

Scenario test_scenario() {
  SyntheticConfig syn;
  syn.nodes = 13;
  syn.vms_per_node = 4;
  syn.tenants = 3;
  syn.seed = 7;
  return make_synthetic_scenario(syn);
}

EngineConfig base_config(const std::string& policy) {
  EngineConfig config;
  config.policy = policy_from_string(policy);
  config.duration = 60.0;
  return config;
}

/// Flight-records a run and returns the round lines only: the JSONL
/// header embeds the execution mode (parallel_nodes, shards) and the
/// trailer's byte tally includes the header's length, so both
/// legitimately differ across modes while the rounds must not.
std::string record_rounds(const Scenario& scenario, EngineConfig config) {
  std::ostringstream bytes;
  obs::FlightRecorder recorder(bytes);
  recorder.write_header(make_flight_header(scenario, config));
  config.flight = &recorder;
  run_simulation(scenario, config);
  recorder.finish();
  std::string text = bytes.str();
  const std::size_t header_end = text.find('\n');
  if (header_end != std::string::npos) text.erase(0, header_end + 1);
  if (text.size() >= 2) {
    const std::size_t trailer = text.rfind('\n', text.size() - 2);
    if (trailer != std::string::npos) text.resize(trailer + 1);
  }
  return text;
}

/// Runs with an OpsHub attached and returns every published round
/// summary (the tenant ledger flows the detector bank consumes).
std::vector<obs::RoundSummary> collect_rounds(const Scenario& scenario,
                                              EngineConfig config) {
  obs::OpsHub hub;
  config.ops = &hub;
  run_simulation(scenario, config);
  std::uint64_t cursor = 0;
  std::vector<std::string> lines;
  hub.wait_lines(&cursor, &lines, std::chrono::milliseconds(0));
  std::vector<obs::RoundSummary> rounds;
  rounds.reserve(lines.size());
  for (const std::string& line : lines) {
    rounds.push_back(obs::round_summary_from_json(json::Value::parse(line)));
  }
  return rounds;
}

class ShardDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardDeterminism, RecordedRoundsMatchSerialForEveryShardCount) {
  const Scenario scenario = test_scenario();
  EngineConfig config = base_config(GetParam());
  config.parallel_nodes = false;
  const std::string serial = record_rounds(scenario, config);
  ASSERT_FALSE(serial.empty());
  config.parallel_nodes = true;
  for (const std::size_t shards : kShardCounts) {
    config.shards = shards;
    EXPECT_EQ(record_rounds(scenario, config), serial)
        << "shards=" << shards << " diverges from the serial run";
  }
}

TEST_P(ShardDeterminism, LedgerFlowsMatchSerialForEveryShardCount) {
  const Scenario scenario = test_scenario();
  EngineConfig config = base_config(GetParam());
  config.parallel_nodes = false;
  const std::vector<obs::RoundSummary> serial =
      collect_rounds(scenario, config);
  ASSERT_FALSE(serial.empty());
  config.parallel_nodes = true;
  for (const std::size_t shards : kShardCounts) {
    config.shards = shards;
    const std::vector<obs::RoundSummary> sharded =
        collect_rounds(scenario, config);
    ASSERT_EQ(sharded.size(), serial.size()) << "shards=" << shards;
    for (std::size_t r = 0; r < serial.size(); ++r) {
      const obs::RoundSummary& a = serial[r];
      const obs::RoundSummary& b = sharded[r];
      SCOPED_TRACE("shards=" + std::to_string(shards) + " round=" +
                   std::to_string(r));
      EXPECT_EQ(b.window, a.window);
      EXPECT_EQ(b.slots, a.slots);
      // Exact double equality is the point: the summaries round-trip
      // through shortest-form serialization, so bit-identical engine
      // state compares equal and anything else does not.
      EXPECT_EQ(b.jain, a.jain);
      ASSERT_EQ(b.tenants.size(), a.tenants.size());
      for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        EXPECT_EQ(b.tenants[t].name, a.tenants[t].name);
        EXPECT_EQ(b.tenants[t].share, a.tenants[t].share);
        EXPECT_EQ(b.tenants[t].demand, a.tenants[t].demand);
        EXPECT_EQ(b.tenants[t].contributed, a.tenants[t].contributed);
        EXPECT_EQ(b.tenants[t].gained, a.tenants[t].gained);
      }
      // phase_seconds is wall clock and legitimately differs.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ShardDeterminism,
                         ::testing::ValuesIn(alloc::policy_names()));

TEST(ShardDeterminismEdge, NodeWithoutSlotsIsMergedAsANoop) {
  // Empty a node by moving its VMs to a neighbour: the merge must skip
  // it (as the serial settle path always did) for every shard split.
  Scenario scenario = test_scenario();
  for (auto& hosts : scenario.host_of) {
    for (std::size_t& host : hosts) {
      if (host == 5) host = 6;
    }
  }
  EngineConfig config = base_config("rrf");
  config.parallel_nodes = false;
  const std::string serial = record_rounds(scenario, config);
  ASSERT_FALSE(serial.empty());
  config.parallel_nodes = true;
  for (const std::size_t shards : kShardCounts) {
    config.shards = shards;
    EXPECT_EQ(record_rounds(scenario, config), serial)
        << "shards=" << shards;
  }
}

TEST(ShardDeterminismEdge, ShardCountIsCappedAtTheHostCount) {
  // A million shards on 13 nodes runs 13: one per node, same rounds.
  const Scenario scenario = test_scenario();
  EngineConfig config = base_config("rrf");
  config.parallel_nodes = false;
  const std::string serial = record_rounds(scenario, config);
  config.parallel_nodes = true;
  config.shards = 1'000'000;
  EXPECT_EQ(record_rounds(scenario, config), serial);
  const SimResult result = run_simulation(scenario, config);
  ASSERT_EQ(result.shards.size(), 13u);
  for (const ShardStats& stats : result.shards) EXPECT_EQ(stats.nodes, 1u);
}

TEST(ShardDeterminismStress, RepeatedShardedRunsStayByteIdentical) {
  const Scenario scenario = test_scenario();
  EngineConfig config = base_config("rrf-lt");  // the bank-feedback policy
  config.parallel_nodes = false;
  const std::string serial = record_rounds(scenario, config);
  config.parallel_nodes = true;
  const std::size_t iters = stress_iters();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    for (const std::size_t shards : {std::size_t{3}, std::size_t{16}}) {
      config.shards = shards;
      ASSERT_EQ(record_rounds(scenario, config), serial)
          << "iteration " << iter << ", shards " << shards;
    }
  }
}

}  // namespace
}  // namespace rrf::sim
