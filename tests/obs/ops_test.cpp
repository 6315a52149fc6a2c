// Ops-plane data model: RoundSummary JSON round-trips, the /alerts
// document, and the OpsHub ring's cursor/drop semantics.
#include "obs/ops.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/detect.hpp"

namespace rrf::obs {
namespace {

RoundSummary sample_summary() {
  RoundSummary summary;
  summary.window = 42;
  summary.time = 210.0;
  summary.jain = 0.9725;
  summary.slots = 12;
  summary.phase_seconds = {1e-3, 2e-3, 3e-3, 4e-3};
  summary.active_alerts = 1;
  summary.alerts_total = 3;
  TenantRoundStat a;
  a.name = "tpcc-1";
  a.share = 1.25;
  a.demand = 1.6;
  a.granted = 1.1;
  a.contributed = 0.0;
  a.gained = 37.5;
  TenantRoundStat b;
  b.name = "hadoop-2";
  b.share = 0.75;
  b.demand = 0.4;
  b.granted = 0.4;
  b.contributed = 37.5;
  b.gained = 0.0;
  summary.tenants = {a, b};
  return summary;
}

TEST(OpsRoundSummary, JsonRoundTripPreservesEveryField) {
  const RoundSummary in = sample_summary();
  const RoundSummary out = round_summary_from_json(round_summary_to_json(in));
  EXPECT_EQ(out.window, in.window);
  EXPECT_DOUBLE_EQ(out.time, in.time);
  EXPECT_DOUBLE_EQ(out.jain, in.jain);
  EXPECT_EQ(out.slots, in.slots);
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    EXPECT_DOUBLE_EQ(out.phase_seconds[i], in.phase_seconds[i]) << i;
  }
  EXPECT_EQ(out.active_alerts, in.active_alerts);
  EXPECT_EQ(out.alerts_total, in.alerts_total);
  ASSERT_EQ(out.tenants.size(), in.tenants.size());
  for (std::size_t i = 0; i < in.tenants.size(); ++i) {
    EXPECT_EQ(out.tenants[i].name, in.tenants[i].name);
    EXPECT_DOUBLE_EQ(out.tenants[i].share, in.tenants[i].share);
    EXPECT_DOUBLE_EQ(out.tenants[i].demand, in.tenants[i].demand);
    EXPECT_DOUBLE_EQ(out.tenants[i].granted, in.tenants[i].granted);
    EXPECT_DOUBLE_EQ(out.tenants[i].contributed, in.tenants[i].contributed);
    EXPECT_DOUBLE_EQ(out.tenants[i].gained, in.tenants[i].gained);
  }
}

TEST(OpsRoundSummary, MissingGrantedFallsBackToTheLedgerShare) {
  // Journals written before the incident-detection schema rev carry no
  // "granted"; the ledger position stands in for it on load.
  json::Value doc = round_summary_to_json(sample_summary());
  json::Array tenants;
  for (const json::Value& t : doc.find("tenants")->as_array()) {
    json::Object pruned;
    for (const auto& [key, value] : t.as_object()) {
      if (key != "granted") pruned.emplace_back(key, value);
    }
    tenants.emplace_back(std::move(pruned));
  }
  json::Object out;
  for (auto& [key, value] : doc.as_object()) {
    if (key == "tenants") {
      out.emplace_back("tenants", std::move(tenants));
    } else {
      out.emplace_back(key, std::move(value));
    }
  }
  const RoundSummary parsed =
      round_summary_from_json(json::Value(std::move(out)));
  ASSERT_EQ(parsed.tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.tenants[0].granted, parsed.tenants[0].share);
  EXPECT_DOUBLE_EQ(parsed.tenants[1].granted, parsed.tenants[1].share);
}

TEST(OpsRoundSummary, SerializedLineParsesBackFromText) {
  const std::string line = round_summary_to_json(sample_summary()).dump();
  const RoundSummary out =
      round_summary_from_json(json::Value::parse(line));
  EXPECT_EQ(out.window, 42u);
  ASSERT_EQ(out.tenants.size(), 2u);
  EXPECT_EQ(out.tenants[1].name, "hadoop-2");
}

TEST(OpsRoundSummary, RejectsSchemaViolations) {
  // Wrong tag.
  EXPECT_THROW(
      round_summary_from_json(json::Value::parse(R"({"t":"gap"})")),
      DomainError);
  // Not an object.
  EXPECT_THROW(round_summary_from_json(json::Value::parse("[1,2]")),
               DomainError);
  // Missing field.
  json::Value missing = round_summary_to_json(sample_summary());
  json::Object pruned;
  for (auto& [key, value] : missing.as_object()) {
    if (key != "jain") pruned.emplace_back(key, std::move(value));
  }
  EXPECT_THROW(round_summary_from_json(json::Value(std::move(pruned))),
               DomainError);
  // Mistyped field.
  EXPECT_THROW(round_summary_from_json(json::Value::parse(
                   R"({"t":"round","window":"not-a-number"})")),
               DomainError);
  // Negative / fractional counts are not valid windows.
  EXPECT_THROW(round_summary_from_json(json::Value::parse(
                   R"({"t":"round","window":-3})")),
               DomainError);
}

TEST(OpsAlerts, EmptyDocumentIsValidJson) {
  const json::Value doc = json::Value::parse(empty_alerts_document());
  EXPECT_TRUE(doc.find("active")->as_array().empty());
  EXPECT_TRUE(doc.find("resolved")->as_array().empty());
  EXPECT_DOUBLE_EQ(doc.find("total")->as_number(), 0.0);
}

TEST(OpsAlerts, DocumentTracksRaiseAndResolve) {
  DetectConfig config;
  apply_detector_flag(config, "jain");  // keep the other detectors quiet
  config.warmup_rounds = 0;
  config.fast_window = 1;
  config.slow_window = 4;
  DetectorBank bank(config, {"tpcc-1", "hadoop-2"}, {100.0, 100.0});

  // Window 0: a Jain index below the SLO (share ratios 1 and 0: 0.5).
  RoundDigest round;
  round.reset(2, 0);
  round.tenant_position = {100.0, 0.0};
  bank.observe_round(round);

  json::Value doc = bank.alerts_document();
  ASSERT_EQ(doc.find("active")->as_array().size(), 1u);
  const json::Value& entry = doc.find("active")->as_array()[0];
  EXPECT_EQ(entry.find("kind")->as_string(), "jain");
  EXPECT_TRUE(entry.find("tenant")->is_null());  // cluster-wide
  EXPECT_DOUBLE_EQ(entry.find("raise_count")->as_number(), 1.0);
  EXPECT_LT(entry.find("value")->as_number(),
            entry.find("threshold")->as_number());
  EXPECT_DOUBLE_EQ(doc.find("counts")->find("jain")->as_number(), 1.0);
  EXPECT_EQ(doc.find("counts")->as_object().size(), kDetectorKindCount);
  EXPECT_DOUBLE_EQ(doc.find("total")->as_number(), 1.0);

  // Fair rounds until the alert has been quiet for the slow window.
  round.tenant_position = {100.0, 100.0};
  for (std::size_t w = 1; w < 200 && bank.active_alerts() > 0; ++w) {
    round.window = w;
    bank.observe_round(round);
  }
  ASSERT_EQ(bank.active_alerts(), 0u);
  doc = bank.alerts_document();
  EXPECT_TRUE(doc.find("active")->as_array().empty());
  ASSERT_EQ(doc.find("resolved")->as_array().size(), 1u);
  const json::Value& done = doc.find("resolved")->as_array()[0];
  EXPECT_EQ(done.find("kind")->as_string(), "jain");
  EXPECT_GT(done.find("resolved_window")->as_number(),
            done.find("raised_window")->as_number());

  // The transition log saw exactly one raise edge and one resolve edge.
  ASSERT_EQ(bank.transitions().size(), 2u);
  EXPECT_TRUE(bank.transitions()[0].raised);
  EXPECT_FALSE(bank.transitions()[1].raised);
  EXPECT_EQ(bank.transitions_since(1).size(), 1u);
  EXPECT_EQ(bank.transitions_since(2).size(), 0u);
}

TEST(OpsHubTest, PublishesLinesInOrder) {
  OpsHub hub;
  RoundSummary summary = sample_summary();
  for (std::size_t w = 0; w < 3; ++w) {
    summary.window = w;
    hub.publish_round(summary);
  }
  EXPECT_EQ(hub.rounds_published(), 3u);
  EXPECT_EQ(hub.oldest_seq(), 0u);
  EXPECT_EQ(hub.next_seq(), 3u);

  std::uint64_t cursor = 0;
  std::vector<std::string> lines;
  const std::size_t n =
      hub.wait_lines(&cursor, &lines, std::chrono::milliseconds(0));
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(cursor, 3u);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(round_summary_from_json(json::Value::parse(lines[w])).window, w);
  }
  // Nothing new: a zero-timeout wait returns without lines.
  EXPECT_EQ(hub.wait_lines(&cursor, &lines, std::chrono::milliseconds(0)), 0u);
}

TEST(OpsHubTest, SlowSubscriberSkipsAheadAndCountsTheGap) {
  OpsHub::Config config;
  config.ring_capacity = 4;
  OpsHub hub(config);
  RoundSummary summary = sample_summary();
  for (std::size_t w = 0; w < 10; ++w) {
    summary.window = w;
    hub.publish_round(summary);
  }
  EXPECT_EQ(hub.oldest_seq(), 6u);  // rounds 0..5 rotated out

  std::uint64_t cursor = 0;  // subscriber that never drained
  std::uint64_t dropped = 0;
  std::vector<std::string> lines;
  const std::size_t n = hub.wait_lines(&cursor, &lines,
                                       std::chrono::milliseconds(0), &dropped);
  EXPECT_EQ(dropped, 6u);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(cursor, 10u);
  EXPECT_EQ(round_summary_from_json(json::Value::parse(lines.front())).window,
            6u);
}

TEST(OpsHubTest, WaitBlocksUntilAPublishArrives) {
  OpsHub hub;
  std::uint64_t cursor = 0;
  std::vector<std::string> lines;
  std::thread publisher([&hub] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    hub.publish_round(RoundSummary{});
  });
  const std::size_t n =
      hub.wait_lines(&cursor, &lines, std::chrono::seconds(5));
  publisher.join();
  EXPECT_EQ(n, 1u);
}

TEST(OpsHubTest, AlertsJsonStartsEmptyAndIsReplaceable) {
  OpsHub hub;
  EXPECT_EQ(hub.alerts_json(), empty_alerts_document());
  hub.set_alerts_json(R"({"windows":7})");
  EXPECT_EQ(hub.alerts_json(), R"({"windows":7})");
}

TEST(OpsHubTest, WatchdogClockIsInfiniteBeforeTheFirstRound) {
  OpsHub hub;
  EXPECT_TRUE(std::isinf(hub.seconds_since_round()));
  hub.publish_round(RoundSummary{});
  EXPECT_LT(hub.seconds_since_round(), 60.0);
}

}  // namespace
}  // namespace rrf::obs
