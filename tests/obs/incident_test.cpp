// IncidentManager lifecycle (hysteresis, correlation, severity,
// auto-resolve), the /incidents documents, the journal event feed and
// the forensic bundle round-trip through IncidentBundle::load_dir.
#include "obs/incident.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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
  config.detect.warmup_rounds = 2;
  config.detect.fast_window = 3;
  config.detect.slow_window = 10;
  config.open_after_rounds = 2;
  config.resolve_after_quiet = 4;
  config.ring_capacity = 8;
  return config;
}

/// Feeds `count` rounds starting at `*window`, advancing it.
void feed(IncidentManager& manager, std::size_t* window, std::size_t count,
          double granted, double demand) {
  for (std::size_t i = 0; i < count; ++i) {
    manager.observe_round(make_round((*window)++, granted, demand));
  }
}

TEST(IncidentManager, HealthyRunsOpenNothing) {
  IncidentManager manager(quick_config());
  std::size_t w = 0;
  feed(manager, &w, 50, 1.0, 1.0);
  EXPECT_EQ(manager.opened_total(), 0u);
  EXPECT_EQ(manager.open_count(), 0u);
}

TEST(IncidentManager, OpensAfterTheFiringStreakAndResolvesAfterQuiet) {
  IncidentManager manager(quick_config());
  std::size_t w = 0;
  feed(manager, &w, 10, 1.0, 1.0);
  // Starvation fires once 3 consecutive bad rounds fill the fast
  // window; the incident needs 2 such firing rounds (hysteresis).
  feed(manager, &w, 3, 0.4, 1.0);
  EXPECT_EQ(manager.opened_total(), 0u) << "first firing round must not open";
  feed(manager, &w, 1, 0.4, 1.0);
  ASSERT_EQ(manager.opened_total(), 1u);
  EXPECT_EQ(manager.open_count(), 1u);
  // Healthy again: the incident stays open through the quiet window,
  // then auto-resolves.
  feed(manager, &w, 3, 1.0, 1.0);
  EXPECT_EQ(manager.open_count(), 1u);
  feed(manager, &w, 2, 1.0, 1.0);
  EXPECT_EQ(manager.open_count(), 0u);
  const std::vector<Incident> incidents = manager.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].id, "inc-0001");
  EXPECT_FALSE(incidents[0].open);
  EXPECT_GT(incidents[0].resolved_window, incidents[0].opened_window);
}

TEST(IncidentManager, ConcurrentDetectionsCorrelateIntoOneIncident) {
  IncidentManager manager(quick_config());
  std::size_t w = 0;
  feed(manager, &w, 10, 1.0, 1.0);
  // granted 0.4 / demand 1.0 trips starvation AND drift (gap 0.6) and,
  // as rounds accumulate, the changepoint and complaint detectors too —
  // all must fold into a single incident.
  feed(manager, &w, 30, 0.4, 1.0);
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
  IncidentManager manager(quick_config());
  std::size_t w = 0;
  std::size_t cursor = 0;
  feed(manager, &w, 14, 1.0, 1.0);
  EXPECT_TRUE(manager.events_since(&cursor).empty());
  feed(manager, &w, 4, 0.4, 1.0);
  const std::vector<IncidentEvent> opened = manager.events_since(&cursor);
  ASSERT_EQ(opened.size(), 1u);
  EXPECT_TRUE(opened[0].opened);
  EXPECT_EQ(opened[0].id, "inc-0001");
  EXPECT_TRUE(manager.events_since(&cursor).empty()) << "cursor advanced";
  feed(manager, &w, 5, 1.0, 1.0);
  const std::vector<IncidentEvent> resolved = manager.events_since(&cursor);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_FALSE(resolved[0].opened);
  EXPECT_EQ(resolved[0].id, "inc-0001");
}

TEST(IncidentManager, IncidentsJsonListsAndFetchesById) {
  IncidentManager manager(quick_config());
  std::size_t w = 0;
  const json::Value empty = json::Value::parse(manager.incidents_json());
  EXPECT_DOUBLE_EQ(empty.find("open")->as_number(), 0.0);
  EXPECT_TRUE(empty.find("incidents")->as_array().empty());

  feed(manager, &w, 10, 1.0, 1.0);
  feed(manager, &w, 4, 0.4, 1.0);
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
  IncidentManager manager(quick_config(dir));
  manager.set_metadata("policy", "rrf");
  manager.set_alerts_provider(
      [] { return std::string(R"({"active":[],"resolved":[],"total":0})"); });
  manager.set_extra_provider("shards.json", [] {
    return std::string(R"({"schema":"rrf-shards","version":1,"shards":[]})");
  });
  std::size_t w = 0;
  feed(manager, &w, 10, 1.0, 1.0);
  feed(manager, &w, 4, 0.4, 1.0);
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
  for (const auto& [name, file] :
       bundle.manifest.find("files")->as_object()) {
    saw_shards = saw_shards || file.as_string() == "shards.json";
  }
  EXPECT_TRUE(saw_shards);
  // Build provenance is stamped.
  EXPECT_NE(bundle.manifest.find("build"), nullptr);
}

TEST(IncidentBundle, MissingDirectoryThrows) {
  EXPECT_THROW(IncidentBundle::load_dir(fresh_dir("no_such_bundle")),
               DomainError);
}

TEST(IncidentBundle, TamperedBundleReportsProblemsWithoutThrowing) {
  const std::string dir = fresh_dir("incident_tampered");
  IncidentManager manager(quick_config(dir));
  std::size_t w = 0;
  feed(manager, &w, 10, 1.0, 1.0);
  feed(manager, &w, 4, 0.4, 1.0);
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
  IncidentManager manager(config);
  std::size_t w = 0;
  feed(manager, &w, 10, 1.0, 1.0);
  feed(manager, &w, 4, 0.4, 1.0);  // opens inc-0001
  feed(manager, &w, 3, 1.0, 1.0);  // resolves it
  EXPECT_EQ(manager.open_count(), 0u);
  feed(manager, &w, 10, 0.4, 1.0);  // would open inc-0002
  EXPECT_EQ(manager.opened_total(), 1u);
}

}  // namespace
}  // namespace rrf::obs
