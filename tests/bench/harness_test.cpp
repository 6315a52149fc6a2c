// Schema and sanity tests for the macro-benchmark harness (bench/harness):
// the BENCH_rrf.json document it emits must satisfy validate_report_json,
// parse as strict JSON, and carry self-consistent statistics.
#include "harness.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace rrf;

bench::HarnessConfig tiny_config() {
  bench::HarnessConfig config;
  config.policies = {sim::PolicyKind::kTshirt, sim::PolicyKind::kRrf};
  config.sweep = {{2, 3, 2}};
  config.warmup = 0;
  config.trials = 1;
  config.windows = 3;
  config.label = "tiny";
  return config;
}

TEST(BenchHarness, ProducesOneCellPerPolicyPoint) {
  const bench::Report report = bench::run_harness(tiny_config());
  ASSERT_EQ(report.cells.size(), 2u);
  for (const bench::CellResult& cell : report.cells) {
    EXPECT_EQ(cell.point.nodes, 2u);
    EXPECT_EQ(cell.point.vms_per_node, 3u);
    EXPECT_EQ(cell.windows, 3u);
    EXPECT_GT(cell.median_round_seconds, 0.0);
    EXPECT_GE(cell.p95_round_seconds, cell.median_round_seconds);
    EXPECT_GT(cell.total_wall_seconds, 0.0);
    EXPECT_GT(cell.allocs_per_second, 0.0);
    // 2 nodes x 3 windows x 1 trial => allocs/sec consistent with wall.
    EXPECT_NEAR(cell.allocs_per_second * cell.total_wall_seconds, 6.0, 1e-6);
  }
}

TEST(BenchHarness, ShardSweepMeasuresOneCellPerShardCount) {
  bench::HarnessConfig config = tiny_config();
  config.policies = {sim::PolicyKind::kRrf};
  config.sweep = {{5, 3, 2}};  // 5 nodes: 2 does not divide, 7 exceeds
  config.parallel_nodes = true;
  config.shard_counts = {0, 2, 7};
  const bench::Report report = bench::run_harness(config);
  ASSERT_EQ(report.cells.size(), 3u);
  // Entry 0 = serial baseline; >0 = sharded with that count.
  EXPECT_EQ(report.cells[0].shards, 0u);
  EXPECT_EQ(report.cells[1].shards, 2u);
  EXPECT_EQ(report.cells[2].shards, 7u);
  for (const bench::CellResult& cell : report.cells) {
    EXPECT_GT(cell.allocs_per_second, 0.0);
  }

  // The shard axis survives the JSON round trip: per-cell "shards" and
  // the config's "shard_counts" (what bench_compare keys cells by).
  const json::Value doc = bench::report_to_json(report);
  EXPECT_NO_THROW(bench::validate_report_json(doc));
  const json::Value reparsed = json::Value::parse(doc.dump(2));
  const auto& cells = reparsed.find("results")->as_array();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].find("shards")->as_number(), 0.0);
  EXPECT_EQ(cells[1].find("shards")->as_number(), 2.0);
  EXPECT_EQ(cells[2].find("shards")->as_number(), 7.0);
  const json::Value* counts =
      reparsed.find("config")->find("shard_counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->as_array().size(), 3u);
}

TEST(BenchHarness, ScaleConfigMeetsTheTierContract) {
  const bench::HarnessConfig config = bench::scale_config();
  ASSERT_FALSE(config.sweep.empty());
  // The tier's advertised minimums: >= 1024 nodes, >= 100k VM slots.
  EXPECT_GE(config.sweep[0].nodes, 1024u);
  EXPECT_GE(config.sweep[0].nodes * config.sweep[0].vms_per_node, 100'000u);
  EXPECT_TRUE(config.parallel_nodes);
  // One untimed warm-up trial, so the timed trial starts warm, and enough
  // timed windows per cell for its median to resolve a 10% change.
  EXPECT_EQ(config.warmup, 1u);
  EXPECT_GE(config.trials * config.windows, 24u);
  // A serial baseline plus at least one sharded measurement, so the
  // serial-vs-sharded ratio reads off one report.
  ASSERT_GE(config.shard_counts.size(), 2u);
  EXPECT_EQ(config.shard_counts[0], 0u);
  EXPECT_GT(config.shard_counts[1], 0u);
  EXPECT_EQ(config.label, "scale");
}

TEST(BenchHarness, EmittedJsonPassesSchemaAndParses) {
  const bench::Report report = bench::run_harness(tiny_config());
  const json::Value doc = bench::report_to_json(report);
  EXPECT_NO_THROW(bench::validate_report_json(doc));

  // The serialized form must round-trip through the strict parser and
  // still satisfy the schema (this is what CI tooling consumes).
  const json::Value reparsed = json::Value::parse(doc.dump(2));
  EXPECT_NO_THROW(bench::validate_report_json(reparsed));
  EXPECT_EQ(reparsed.find("schema_version")->as_number(),
            bench::kBenchSchemaVersion);
  EXPECT_EQ(reparsed.find("results")->as_array().size(), 2u);
  const json::Value& cell = reparsed.find("results")->as_array()[0];
  EXPECT_EQ(cell.find("policy")->as_string(), "tshirt");
  EXPECT_EQ(cell.find("nodes")->as_number(), 2.0);
  ASSERT_NE(cell.find("phase_seconds"), nullptr);
  EXPECT_NE(cell.find("phase_seconds")->find("allocate"), nullptr);
}

TEST(BenchHarness, SchemaRejectsBrokenDocuments) {
  const bench::Report report = bench::run_harness(tiny_config());
  const std::string good = bench::report_to_json(report).dump();

  // Missing results.
  EXPECT_THROW(bench::validate_report_json(json::Value::parse(
                   R"({"schema_version": 1, "generated_by": "x",
                       "config": {"policies": [], "trials": 1,
                                  "windows": 1}})")),
               DomainError);
  // Unknown policy name inside a cell.
  std::string bad = good;
  std::size_t at = 0;
  std::size_t replaced = 0;
  while ((at = bad.find("\"rrf\"", at)) != std::string::npos) {
    bad.replace(at, 5, "\"nope\"");
    ++replaced;
  }
  ASSERT_GT(replaced, 0u);
  EXPECT_THROW(bench::validate_report_json(json::Value::parse(bad)),
               DomainError);
  // Wrong schema version.
  std::string versioned = good;
  const std::size_t v = versioned.find("\"schema_version\":2");
  ASSERT_NE(v, std::string::npos);
  versioned.replace(v, 18, "\"schema_version\":99");
  EXPECT_THROW(bench::validate_report_json(json::Value::parse(versioned)),
               DomainError);
}

TEST(BenchHarness, ProfileModeAttributesTheRoundTotal) {
  bench::HarnessConfig config = tiny_config();
  config.profile = true;
  const bool profiling_before = obs::profiling_enabled();
  const bench::Report report = bench::run_harness(config);
  // run_harness restores the caller's profiling switch.
  EXPECT_EQ(obs::profiling_enabled(), profiling_before);

  ASSERT_EQ(report.cells.size(), 2u);
  for (const bench::CellResult& cell : report.cells) {
    ASSERT_FALSE(cell.profile_nodes.empty());
    // The call-tree roots must account for (nearly) the whole measured
    // round total.  The 5% acceptance bound is checked on the real
    // --quick sweep (CI validates coverage per cell); this cell's rounds
    // are microseconds, where one scheduler preemption in inter-scope
    // glue moves the ratio tens of percent, so only sanity bounds hold
    // reliably under a fully parallel ctest run.
    EXPECT_GT(cell.profile_coverage, 0.40);
    EXPECT_LT(cell.profile_coverage, 2.00);
    for (const bench::ProfilePathNode& node : cell.profile_nodes) {
      EXPECT_FALSE(node.path.empty());
      EXPECT_GE(node.self_seconds, 0.0);
      EXPECT_LE(node.self_seconds, node.total_seconds + 1e-9);
      EXPECT_GT(node.calls, 0u);
    }
  }
  // The merged report-level tree exists and includes the allocate phase.
  ASSERT_FALSE(report.profile.empty());
  bool saw_allocate = false;
  for (const bench::ProfilePathNode& node : report.profile) {
    if (node.path.find("allocate") != std::string::npos) saw_allocate = true;
  }
  EXPECT_TRUE(saw_allocate);

  // Schema v2: per-cell and top-level profile blocks validate and parse.
  const json::Value doc = bench::report_to_json(report);
  EXPECT_NO_THROW(bench::validate_report_json(doc));
  const json::Value reparsed = json::Value::parse(doc.dump(2));
  EXPECT_NO_THROW(bench::validate_report_json(reparsed));
  ASSERT_NE(reparsed.find("profile"), nullptr);
  EXPECT_FALSE(reparsed.find("profile")->as_array().empty());
  const json::Value& cell = reparsed.find("results")->as_array()[0];
  ASSERT_NE(cell.find("profile"), nullptr);
  EXPECT_NE(cell.find("profile")->find("coverage"), nullptr);
  EXPECT_NE(cell.find("profile")->find("nodes"), nullptr);
  EXPECT_EQ(reparsed.find("config")->find("profile")->as_bool(), true);
}

TEST(BenchHarness, UnprofiledReportsCarryNoProfileBlocks) {
  const bench::Report report = bench::run_harness(tiny_config());
  const json::Value doc = bench::report_to_json(report);
  EXPECT_EQ(doc.find("profile"), nullptr);
  EXPECT_EQ(doc.find("results")->as_array()[0].find("profile"), nullptr);
  EXPECT_EQ(doc.find("config")->find("profile")->as_bool(), false);
}

TEST(BenchHarness, QuickConfigCoversPinnedRegressionCell) {
  const bench::HarnessConfig config = bench::quick_config();
  EXPECT_FALSE(config.policies.empty());
  bool has_pinned = false;
  for (const bench::SweepPoint& p : config.sweep) {
    if (p.nodes == 32 && p.vms_per_node == 16) has_pinned = true;
  }
  EXPECT_TRUE(has_pinned)
      << "quick sweep must keep the 32x16 cell the CI gate pins";
}

TEST(BenchHarness, RejectsEmptyConfigs) {
  bench::HarnessConfig config = tiny_config();
  config.policies.clear();
  EXPECT_THROW(bench::run_harness(config), PreconditionError);
  config = tiny_config();
  config.trials = 0;
  EXPECT_THROW(bench::run_harness(config), PreconditionError);
}

TEST(BenchHarness, SummaryMentionsEveryPolicy) {
  const bench::Report report = bench::run_harness(tiny_config());
  const std::string summary = bench::report_summary(report);
  EXPECT_NE(summary.find("tshirt"), std::string::npos);
  EXPECT_NE(summary.find("rrf"), std::string::npos);
}

}  // namespace
