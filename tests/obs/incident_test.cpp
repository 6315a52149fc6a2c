// IncidentManager lifecycle (hysteresis, correlation, severity,
// auto-resolve), the /incidents documents, the journal event feed and
// the forensic bundle round-trip through IncidentBundle::load_dir.
#include "obs/incident.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rrf::obs {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  fs::remove_all(path);
  return path;
}

RoundSummary make_round(std::size_t window, double granted, double demand) {
  RoundSummary summary;
  summary.window = window;
  summary.time = static_cast<double>(window) * 5.0;
  summary.jain = 1.0;
  summary.slots = 8;
  summary.phase_seconds = {1e-4, 1e-4, 1e-4, 1e-4};
  TenantRoundStat victim;
  victim.name = "victim";
  victim.share = 1.0;
  victim.granted = granted;
  victim.demand = demand;
  victim.contributed = 5.0;
  TenantRoundStat peer;
  peer.name = "peer";
  peer.share = 1.0;
  peer.granted = 1.0;
  peer.demand = 1.0;
  summary.tenants = {victim, peer};
  return summary;
}

/// Fast-reacting config: detectors arm after 2 rounds and fire after 3
/// consecutive bad rounds; incidents open after 2 firing rounds and
/// resolve after 4 quiet ones.
IncidentConfig quick_config(std::string dir = {}) {
  IncidentConfig config;
  config.dir = std::move(dir);
  config.open_after_rounds = 2;
  config.resolve_after_quiet = 4;
  config.ring_capacity = 8;
  return config;
}

DetectConfig quick_detect() {
  DetectConfig config;
  config.warmup_rounds = 2;
  config.fast_window = 3;
  config.slow_window = 10;
  return config;
}

/// The engine's per-round order: the bank detects, the manager reads
/// the bank.
struct Pipeline {
  explicit Pipeline(IncidentConfig config = quick_config())
      : manager(std::move(config)) {}

  /// Feeds `count` rounds, advancing the window.
  void feed(std::size_t count, double granted, double demand) {
    for (std::size_t i = 0; i < count; ++i) {
      const RoundSummary summary = make_round(window++, granted, demand);
      bank.observe_round(summary);
      manager.observe_round(summary, bank);
    }
  }

  DetectorBank bank{quick_detect(), {"victim", "peer"}, {1.0, 1.0}};
  IncidentManager manager;
  std::size_t window = 0;
};

TEST(IncidentManager, HealthyRunsOpenNothing) {
  Pipeline p;
  IncidentManager& manager = p.manager;
  p.feed(50, 1.0, 1.0);
  EXPECT_EQ(manager.opened_total(), 0u);
  EXPECT_EQ(manager.open_count(), 0u);
}

TEST(IncidentManager, OpensAfterTheFiringStreakAndResolvesAfterQuiet) {
  Pipeline p;
  IncidentManager& manager = p.manager;
  p.feed(10, 1.0, 1.0);
  // Starvation fires once 3 consecutive bad rounds fill the fast
  // window; the incident needs 2 such firing rounds (hysteresis).
  p.feed(3, 0.4, 1.0);
  EXPECT_EQ(manager.opened_total(), 0u) << "first firing round must not open";
  p.feed(1, 0.4, 1.0);
  ASSERT_EQ(manager.opened_total(), 1u);
  EXPECT_EQ(manager.open_count(), 1u);
  // Healthy again: the incident stays open through the quiet window,
  // then auto-resolves.
  p.feed(3, 1.0, 1.0);
  EXPECT_EQ(manager.open_count(), 1u);
  p.feed(2, 1.0, 1.0);
  EXPECT_EQ(manager.open_count(), 0u);
  const std::vector<Incident> incidents = manager.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].id, "inc-0001");
  EXPECT_FALSE(incidents[0].open);
  EXPECT_GT(incidents[0].resolved_window, incidents[0].opened_window);
}

TEST(IncidentManager, ConcurrentDetectionsCorrelateIntoOneIncident) {
  Pipeline p;
  IncidentManager& manager = p.manager;
  p.feed(10, 1.0, 1.0);
  // granted 0.4 / demand 1.0 trips starvation AND drift (gap 0.6) and,
  // as rounds accumulate, the changepoint and complaint detectors too —
  // all must fold into a single incident.
  p.feed(30, 0.4, 1.0);
  EXPECT_EQ(manager.opened_total(), 1u);
  const std::vector<Incident> incidents = manager.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_GE(incidents[0].kinds.size(), 2u);
  // Only the starved tenant is implicated.
  ASSERT_EQ(incidents[0].tenants.size(), 1u);
  EXPECT_EQ(incidents[0].tenants[0].name, "victim");
  // Multiple corroborating kinds escalate severity beyond minor.
  EXPECT_NE(incidents[0].severity, IncidentSeverity::kMinor);
}

TEST(IncidentManager, EventsFeedDrainsWithACursor) {
  Pipeline p;
  IncidentManager& manager = p.manager;
  std::size_t cursor = 0;
  p.feed(14, 1.0, 1.0);
  EXPECT_TRUE(manager.events_since(&cursor).empty());
  p.feed(4, 0.4, 1.0);
  const std::vector<IncidentEvent> opened = manager.events_since(&cursor);
  ASSERT_EQ(opened.size(), 1u);
  EXPECT_TRUE(opened[0].opened);
  EXPECT_EQ(opened[0].id, "inc-0001");
  EXPECT_TRUE(manager.events_since(&cursor).empty()) << "cursor advanced";
  p.feed(5, 1.0, 1.0);
  const std::vector<IncidentEvent> resolved = manager.events_since(&cursor);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_FALSE(resolved[0].opened);
  EXPECT_EQ(resolved[0].id, "inc-0001");
}

TEST(IncidentManager, IncidentsJsonListsAndFetchesById) {
  Pipeline p;
  IncidentManager& manager = p.manager;
  const json::Value empty = json::Value::parse(manager.incidents_json());
  EXPECT_DOUBLE_EQ(empty.find("open")->as_number(), 0.0);
  EXPECT_TRUE(empty.find("incidents")->as_array().empty());

  p.feed(10, 1.0, 1.0);
  p.feed(4, 0.4, 1.0);
  const json::Value doc = json::Value::parse(manager.incidents_json());
  EXPECT_DOUBLE_EQ(doc.find("open")->as_number(), 1.0);
  ASSERT_EQ(doc.find("incidents")->as_array().size(), 1u);

  ASSERT_TRUE(manager.incident_json("inc-0001").has_value());
  const json::Value one =
      json::Value::parse(*manager.incident_json("inc-0001"));
  EXPECT_EQ(one.find("id")->as_string(), "inc-0001");
  EXPECT_EQ(one.find("state")->as_string(), "open");
  EXPECT_FALSE(manager.incident_json("inc-9999").has_value());
}

TEST(IncidentManager, MetadataAndProvidersLandInTheBundle) {
  const std::string dir = fresh_dir("incident_bundle");
  Pipeline p(quick_config(dir));
  IncidentManager& manager = p.manager;
  manager.set_metadata("policy", "rrf");
  manager.set_extra_provider("shards.json", [] {
    return std::string(R"({"schema":"rrf-shards","version":1,"shards":[]})");
  });
  p.feed(10, 1.0, 1.0);
  p.feed(4, 0.4, 1.0);
  manager.finalize();

  const IncidentBundle bundle = IncidentBundle::load_dir(dir + "/inc-0001");
  EXPECT_TRUE(bundle.valid()) << (bundle.problems.empty()
                                      ? ""
                                      : bundle.problems.front());
  EXPECT_EQ(bundle.manifest.find("id")->as_string(), "inc-0001");
  EXPECT_FALSE(bundle.rounds.empty());
  EXPECT_TRUE(bundle.evidence.is_object());
  // Metadata and the extra file are recorded in the manifest.
  const json::Value* metadata = bundle.manifest.find("metadata");
  ASSERT_NE(metadata, nullptr);
  EXPECT_EQ(metadata->find("policy")->as_string(), "rrf");
  bool saw_shards = false;
  bool saw_alerts = false;
  for (const auto& [name, file] :
       bundle.manifest.find("files")->as_object()) {
    saw_shards = saw_shards || file.as_string() == "shards.json";
    saw_alerts = saw_alerts || file.as_string() == "alerts.json";
  }
  EXPECT_TRUE(saw_shards);
  // alerts.json is the bank's alert book at open: the starvation alert.
  ASSERT_TRUE(saw_alerts);
  std::ifstream alerts_file(dir + "/inc-0001/alerts.json");
  std::stringstream alerts_text;
  alerts_text << alerts_file.rdbuf();
  const json::Value alerts = json::Value::parse(alerts_text.str());
  bool starvation = false;
  for (const json::Value& entry : alerts.find("active")->as_array()) {
    starvation = starvation || entry.find("kind")->as_string() == "starvation";
  }
  EXPECT_TRUE(starvation);
  // Build provenance is stamped.
  EXPECT_NE(bundle.manifest.find("build"), nullptr);
}

TEST(IncidentBundle, MissingDirectoryThrows) {
  EXPECT_THROW(IncidentBundle::load_dir(fresh_dir("no_such_bundle")),
               DomainError);
}

TEST(IncidentBundle, TamperedBundleReportsProblemsWithoutThrowing) {
  const std::string dir = fresh_dir("incident_tampered");
  Pipeline p(quick_config(dir));
  IncidentManager& manager = p.manager;
  p.feed(10, 1.0, 1.0);
  p.feed(4, 0.4, 1.0);
  manager.finalize();

  const std::string bundle_dir = dir + "/inc-0001";
  // Delete a listed file and corrupt a round line.
  fs::remove(bundle_dir + "/evidence.json");
  std::ofstream(bundle_dir + "/rounds.jsonl", std::ios::app)
      << "{not json\n";
  const IncidentBundle bundle = IncidentBundle::load_dir(bundle_dir);
  EXPECT_FALSE(bundle.valid());
  EXPECT_GE(bundle.problems.size(), 2u);
}

TEST(IncidentManager, RunawayGuardStopsOpeningNewIncidents) {
  IncidentConfig config = quick_config();
  config.max_incidents = 1;
  config.resolve_after_quiet = 2;
  Pipeline p(config);
  IncidentManager& manager = p.manager;
  p.feed(10, 1.0, 1.0);
  p.feed(4, 0.4, 1.0);  // opens inc-0001
  p.feed(3, 1.0, 1.0);  // resolves it
  EXPECT_EQ(manager.open_count(), 0u);
  p.feed(10, 0.4, 1.0);  // would open inc-0002
  EXPECT_EQ(manager.opened_total(), 1u);
}

}  // namespace
}  // namespace rrf::obs
