// Incident detection end to end through the engine: a seeded oversold
// synthetic scenario must open exactly ONE incident whose forensic
// bundle round-trips the offline loader and implicates the starved
// tenants, clean runs (synthetic and paper) open ZERO incidents — the
// false-positive guard that makes the detectors pageable — and in every
// window an incident is open exactly when the alert book holds an alert.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "sim/synthetic.hpp"
#include "workload/workload.hpp"

namespace rrf::sim {
namespace {

namespace fs = std::filesystem;

SyntheticConfig synthetic_config(double overcommit) {
  SyntheticConfig config;
  config.nodes = 4;
  config.vms_per_node = 8;
  config.tenants = 4;
  config.overcommit = overcommit;
  return config;
}

EngineConfig engine_config() {
  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 1000.0;  // 200 rounds at window 5
  config.window = 5.0;
  return config;
}

TEST(IncidentIntegration, OversoldClusterOpensExactlyOneIncident) {
  const std::string dir =
      ::testing::TempDir() + "/incident_integration_seeded";
  fs::remove_all(dir);
  obs::IncidentConfig incident_config;
  incident_config.dir = dir;
  obs::IncidentManager incidents(incident_config);

  EngineConfig config = engine_config();
  config.incidents = &incidents;
  // 2.5x overcommit at fill 0.9: 2.25 shares sold per physical share,
  // so every saturated tenant is granted ~44% of its entitlement.
  run_simulation(make_synthetic_scenario(synthetic_config(2.5)), config);

  ASSERT_EQ(incidents.opened_total(), 1u)
      << "concurrent starvation/drift/changepoint detections must "
         "correlate into one incident";
  const std::vector<obs::Incident> all = incidents.incidents();
  ASSERT_EQ(all.size(), 1u);
  const obs::Incident& incident = all[0];
  EXPECT_EQ(incident.id, "inc-0001");
  EXPECT_GE(incident.kinds.size(), 2u);
  EXPECT_FALSE(incident.tenants.empty()) << "starved tenants must be named";

  // The bundle on disk round-trips the offline loader used by
  // `rrf_inspect incident validate`.
  const obs::IncidentBundle bundle =
      obs::IncidentBundle::load_dir(dir + "/inc-0001");
  EXPECT_TRUE(bundle.valid())
      << (bundle.problems.empty() ? "" : bundle.problems.front());
  EXPECT_FALSE(bundle.rounds.empty());
  // Engine-installed enrichment: run metadata and build provenance.
  ASSERT_NE(bundle.manifest.find("metadata"), nullptr);
  EXPECT_NE(bundle.manifest.find("metadata")->find("policy"), nullptr);
  EXPECT_NE(bundle.manifest.find("build"), nullptr);
}

TEST(IncidentIntegration, CleanSyntheticRunOpensNothing) {
  obs::IncidentManager incidents(obs::IncidentConfig{});
  EngineConfig config = engine_config();
  config.incidents = &incidents;
  run_simulation(make_synthetic_scenario(synthetic_config(1.0)), config);
  EXPECT_EQ(incidents.opened_total(), 0u);
}

TEST(IncidentIntegration, CleanPaperRunOpensNothing) {
  obs::IncidentManager incidents(obs::IncidentConfig{});
  EngineConfig config = engine_config();
  config.duration = 600.0;
  config.incidents = &incidents;
  ScenarioConfig scenario;
  scenario.workloads = wl::paper_workloads();
  run_simulation(build_scenario(scenario), config);
  EXPECT_EQ(incidents.opened_total(), 0u);
}

TEST(IncidentIntegration, IncidentTransitionsLandInTheJournal) {
  const std::string path =
      ::testing::TempDir() + "/incident_integration_journal.jsonl";
  std::remove(path.c_str());
  obs::IncidentManager incidents(obs::IncidentConfig{});
  obs::TelemetryJournal::Options options;
  options.path = path;
  options.policy = "rrf";
  auto journal = std::make_unique<obs::TelemetryJournal>(std::move(options));

  EngineConfig config = engine_config();
  config.incidents = &incidents;
  config.journal = journal.get();
  run_simulation(make_synthetic_scenario(synthetic_config(2.5)), config);
  journal->finish();

  const obs::JournalData data = obs::JournalData::load_file(path);
  ASSERT_FALSE(data.incidents.empty());
  EXPECT_EQ(data.incidents[0].id, "inc-0001");
  EXPECT_TRUE(data.incidents[0].opened);
  EXPECT_FALSE(data.incidents[0].kinds.empty());
  ASSERT_TRUE(data.end.has_value());
  EXPECT_EQ(data.end->incidents, data.incidents.size());
}

TEST(IncidentIntegration, IncidentsFollowTheAlertBook) {
  // Four paper hosts filled with the four workloads, under the flat
  // policies whose free riders and drifting tenants raise ledger alerts
  // that resolve mid-run, and the oversold cell, whose alerts stay on.
  // Each cell's inc-0001 opens with its first alert and resolves with
  // its last (0 = still open at the end).
  struct Cell {
    PolicyKind policy;
    bool oversold;
    std::size_t opened;
    std::size_t resolved;
  };
  const std::vector<Cell> cells = {{PolicyKind::kWmmf, false, 12, 103},
                                   {PolicyKind::kDrf, false, 12, 104},
                                   {PolicyKind::kDrfSeq, false, 12, 95},
                                   {PolicyKind::kIrt, false, 14, 77},
                                   {PolicyKind::kRrf, true, 12, 0}};
  const Scenario fill = fill_scenario(4, wl::paper_workloads(), 1.0, 42);
  const Scenario oversold = make_synthetic_scenario(synthetic_config(2.5));
  const std::string path =
      ::testing::TempDir() + "/incident_integration_book.jsonl";
  for (const Cell& cell : cells) {
    const std::string name = to_string(cell.policy);
    std::remove(path.c_str());
    obs::IncidentManager incidents(obs::IncidentConfig{});
    obs::TelemetryJournal::Options options;
    options.path = path;
    options.policy = name;
    obs::TelemetryJournal journal(options);
    EngineConfig config = engine_config();
    config.policy = cell.policy;
    if (!cell.oversold) config.duration = 1200.0;
    config.incidents = &incidents;
    config.journal = &journal;
    // The observer runs after the manager has seen the window.
    std::vector<std::size_t> open;
    config.observer = [&](const WindowSnapshot&) {
      open.push_back(incidents.open_count());
    };
    run_simulation(cell.oversold ? oversold : fill, config);
    journal.finish();

    const obs::JournalData data = obs::JournalData::load_file(path);
    ASSERT_EQ(data.rounds.size(), open.size()) << name;
    for (std::size_t w = 0; w < open.size(); ++w) {
      EXPECT_EQ(open[w] == 1, data.rounds[w].active_alerts > 0)
          << name << " window " << w << ": " << open[w]
          << " open incident(s), " << data.rounds[w].active_alerts
          << " active alert(s)";
    }
    const std::vector<obs::Incident> all = incidents.incidents();
    ASSERT_EQ(all.size(), 1u) << name;
    ASSERT_FALSE(data.alerts.empty()) << name;
    EXPECT_EQ(all[0].opened_window, data.alerts.front().window) << name;
    EXPECT_EQ(all[0].opened_window, cell.opened) << name;
    if (cell.resolved == 0) {
      EXPECT_TRUE(all[0].open) << name;
      continue;
    }
    ASSERT_FALSE(all[0].open) << name;
    EXPECT_FALSE(data.alerts.back().raised) << name;
    EXPECT_EQ(all[0].resolved_window, data.alerts.back().window) << name;
    EXPECT_EQ(all[0].resolved_window, cell.resolved) << name;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rrf::sim
