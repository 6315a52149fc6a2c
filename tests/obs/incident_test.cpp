// IncidentManager lifecycle (it follows the alert book: opens with the
// first active alert, resolves with the last), correlation and severity,
// the /incidents documents, the journal event feed and the forensic
// bundle round-trip through IncidentBundle::load_dir.
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

/// "victim" (a net contributor) is granted `granted` of what it bought
/// and demands `demand`; "peer" is healthy.  Both bought one share.
RoundDigest make_round(std::size_t window, double granted, double demand) {
  RoundDigest digest;
  digest.reset(2, 0);
  digest.window = window;
  digest.time = static_cast<double>(window) * 5.0;
  digest.slots = 8;
  digest.phase_seconds = {1e-4, 1e-4, 1e-4, 1e-4};
  digest.tenant_position = {1.0, 1.0};
  digest.tenant_demand = {demand, 1.0};
  digest.tenant_granted = {granted, 1.0};
  digest.tenant_contributed = {5.0, 0.0};
  return digest;
}

IncidentConfig quick_config(std::string dir = {}) {
  IncidentConfig config;
  config.dir = std::move(dir);
  config.ring_capacity = 8;
  return config;
}

/// Fast-reacting detectors: armed after 2 rounds, fire after 3
/// consecutive bad rounds, and an alert resolves after 10 quiet ones.
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
      bank.observe_round(make_round(window++, granted, demand));
      manager.observe_round(bank);
    }
  }
  /// Feeds healthy rounds until the alert book is empty.
  void heal() {
    do {
      feed(1, 1.0, 1.0);
    } while (bank.active_alerts() > 0 && window < 1000);
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

TEST(IncidentManager, OpensWithTheFirstAlertAndResolvesWithTheLast) {
  Pipeline p;
  IncidentManager& manager = p.manager;
  p.feed(10, 1.0, 1.0);
  // Starvation fires once 3 consecutive bad rounds fill the fast window;
  // the incident opens on that round, with the book's first alert.
  p.feed(2, 0.4, 1.0);
  EXPECT_EQ(p.bank.active_alerts(), 0u);
  EXPECT_EQ(manager.opened_total(), 0u);
  p.feed(1, 0.4, 1.0);
  ASSERT_GT(p.bank.active_alerts(), 0u);
  ASSERT_EQ(manager.opened_total(), 1u);
  EXPECT_EQ(manager.incidents()[0].opened_window, 12u);
  EXPECT_EQ(p.bank.raised().front().window, 12u);

  // Healthy again: the incident stays open exactly as long as the book
  // holds an active alert, then resolves on the round its last resolves.
  while (p.bank.active_alerts() > 0) {
    ASSERT_LT(p.window, 100u);
    EXPECT_EQ(manager.open_count(), 1u) << "window " << p.window;
    p.feed(1, 1.0, 1.0);
  }
  EXPECT_EQ(manager.open_count(), 0u);
  const std::vector<Incident> incidents = manager.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].id, "inc-0001");
  EXPECT_FALSE(incidents[0].open);
  EXPECT_EQ(incidents[0].resolved_window, p.bank.transitions().back().window);
  EXPECT_FALSE(p.bank.transitions().back().raised);

  // A fresh alert episode opens a fresh incident.
  p.feed(3, 0.4, 1.0);
  EXPECT_EQ(manager.opened_total(), 2u);
  EXPECT_EQ(manager.open_count(), 1u);
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
  p.heal();
  const std::vector<IncidentEvent> resolved = manager.events_since(&cursor);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_FALSE(resolved[0].opened);
  EXPECT_EQ(resolved[0].id, "inc-0001");
  EXPECT_EQ(resolved[0].window, p.window - 1);
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
  Pipeline p(config);
  IncidentManager& manager = p.manager;
  p.feed(10, 1.0, 1.0);
  p.feed(4, 0.4, 1.0);  // opens inc-0001
  p.heal();             // resolves it with the book's last alert
  EXPECT_EQ(manager.open_count(), 0u);
  // Past max_incidents a fresh alert episode opens nothing, however long
  // it fires, and neither does the next one.
  for (int episode = 0; episode < 2; ++episode) {
    p.feed(30, 0.4, 1.0);
    EXPECT_GT(p.bank.active_alerts(), 0u);
    EXPECT_EQ(manager.opened_total(), 1u);
    EXPECT_EQ(manager.open_count(), 0u);
    p.heal();
  }
  std::size_t cursor = 0;
  EXPECT_EQ(manager.events_since(&cursor).size(), 2u);  // one open, one resolve
}

}  // namespace
}  // namespace rrf::obs
