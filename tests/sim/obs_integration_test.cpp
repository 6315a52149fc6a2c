// End-to-end observability: the engine's fairness gauges, its one
// alerting pipeline (the detector bank feeding SimResult, the registry,
// the journal, /alerts and incident bundles) and the predictor/rebalance
// instrumentation, driven through real runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "sim/engine.hpp"
#include "sim/synthetic.hpp"

namespace rrf::sim {
namespace {

/// RAII guard: metric collection on for the test, restored after.
struct MetricsOn {
  MetricsOn() : was(obs::metrics_enabled()) { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was); }
  bool was;
};

std::uint64_t counter_value(const char* name) {
  const obs::Counter* c = obs::metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

/// The seeded starvation cell: 4 nodes x 8 VMs x 4 tenants sold at 2.5x
/// (2.25 shares per physical share), 200 rounds of RRF.
Scenario oversold_scenario() {
  SyntheticConfig config;
  config.overcommit = 2.5;
  return make_synthetic_scenario(config);
}

EngineConfig oversold_config() {
  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 1000.0;
  config.window = 5.0;
  return config;
}

using AlertKey = std::tuple<std::string, std::string, std::size_t>;

TEST(ObsEngineAudit, WellBehavedRrfRunRaisesNoAlerts) {
  MetricsOn guard;
  ScenarioConfig scenario;
  scenario.workloads = wl::paper_workloads();
  scenario.hosts = 1;
  scenario.seed = 42;

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 900.0;
  config.window = 5.0;

  const SimResult result = run_simulation(build_scenario(scenario), config);
  EXPECT_TRUE(result.alerts.empty())
      << result.alerts.size() << " alerts, first kind="
      << obs::to_string(result.alerts.front().kind);

  // The detector bank published its cluster gauges.
  const obs::Gauge* jain = obs::metrics().find_gauge("fairness.jain_index");
  ASSERT_NE(jain, nullptr);
  EXPECT_GT(jain->value(), 0.9);
  const obs::Gauge* windows =
      obs::metrics().find_gauge("fairness.audit_windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_DOUBLE_EQ(windows->value(), 180.0);
}

TEST(ObsEngineAudit, StarvationSloFiresEndToEnd) {
  MetricsOn guard;
  // Every built-in policy is share-weighted, so a clean run never pushes
  // a demanding tenant below her bought share (the clean-run test above).
  // An oversold cluster does: every saturated tenant is granted ~44% of
  // its entitlement, so each of the four must raise a starvation alert
  // and land in SimResult::alerts and the registry counter.
  const std::uint64_t alerts0 = counter_value("fairness.alerts");
  const SimResult result =
      run_simulation(oversold_scenario(), oversold_config());

  std::set<std::string> starved;
  for (const obs::Detection& alert : result.alerts) {
    if (alert.kind == obs::DetectorKind::kStarvation) {
      starved.insert(alert.tenant_name);
    }
  }
  EXPECT_EQ(starved.size(), result.tenants.size());
  EXPECT_EQ(counter_value("fairness.alerts") - alerts0, result.alerts.size());
}

TEST(ObsEngineAudit, AlertsAgreeAcrossConsumers) {
  MetricsOn guard;
  const std::string dir = ::testing::TempDir() + "/obs_alerts_agree";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Scenario scenario = oversold_scenario();
  obs::TelemetryJournal::Options options;
  options.path = dir + "/journal.jsonl";
  options.policy = "rrf";
  auto journal = std::make_unique<obs::TelemetryJournal>(options);
  obs::OpsHub hub;
  obs::IncidentConfig incident_config;
  incident_config.dir = dir + "/incidents";
  obs::IncidentManager incidents(incident_config);

  EngineConfig config = oversold_config();
  config.journal = journal.get();
  config.ops = &hub;
  config.incidents = &incidents;
  const std::uint64_t alerts0 = counter_value("fairness.alerts");
  const SimResult result = run_simulation(scenario, config);
  journal->finish();
  ASSERT_FALSE(result.alerts.empty());

  // The journal's raise records are SimResult::alerts, edge for edge.
  const obs::JournalData data = obs::JournalData::load_file(options.path);
  std::vector<AlertKey> journaled;
  for (const obs::JournalAlert& alert : data.alerts) {
    if (alert.raised) {
      journaled.emplace_back(alert.kind, alert.tenant_name, alert.window);
    }
  }
  std::vector<AlertKey> returned;
  for (const obs::Detection& alert : result.alerts) {
    returned.emplace_back(obs::to_string(alert.kind), alert.tenant_name,
                          alert.window);
  }
  EXPECT_EQ(journaled, returned);

  // /alerts, the registry counter and SimResult count the same raises.
  const json::Value doc = json::Value::parse(hub.alerts_json());
  EXPECT_EQ(static_cast<std::size_t>(doc.find("total")->as_number()),
            result.alerts.size());
  EXPECT_EQ(counter_value("fairness.alerts") - alerts0, result.alerts.size());

  // The incident bundle carries the same alert book, and it parses.
  ASSERT_EQ(incidents.opened_total(), 1u);
  const std::string bundle = dir + "/incidents/inc-0001";
  EXPECT_TRUE(obs::IncidentBundle::load_dir(bundle).valid());
  std::ifstream in(bundle + "/alerts.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const json::Value book = json::Value::parse(text.str());
  EXPECT_NE(book.find("active"), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(ObsEngineAudit, FreeRidersAndBetaDriftRaiseLedgerAlerts) {
  MetricsOn guard;
  // Four paper hosts filled with the four workloads under DRF: three
  // tenants take tenant-funded surplus without contributing, one drifts
  // off its bought share, and a fourth free rider shows up later.
  EngineConfig config;
  config.policy = PolicyKind::kDrf;
  config.duration = 1500.0;
  const SimResult result = run_simulation(
      fill_scenario(4, wl::paper_workloads(), 1.0, 42), config);

  std::vector<AlertKey> raised;
  for (const obs::Detection& alert : result.alerts) {
    raised.emplace_back(obs::to_string(alert.kind), alert.tenant_name,
                        alert.window);
  }
  const std::vector<AlertKey> expected = {
      {"reciprocity", "RUBBoS#1", 12}, {"reciprocity", "TPC-C#4", 12},
      {"beta_drift", "RUBBoS#5", 12},  {"reciprocity", "RUBBoS#9", 12},
      {"reciprocity", "TPC-C#8", 18}};
  EXPECT_EQ(raised, expected);
}

TEST(ObsEngineAudit, AuditRespectsTheMetricsSwitch) {
  const bool was = obs::metrics_enabled();
  obs::set_metrics_enabled(false);
  ScenarioConfig scenario;
  scenario.workloads = {wl::WorkloadKind::kTpcc, wl::WorkloadKind::kTpcc};
  scenario.hosts = 1;
  scenario.seed = 42;
  EngineConfig config;
  config.duration = 120.0;
  const SimResult result = run_simulation(build_scenario(scenario), config);
  EXPECT_TRUE(result.alerts.empty());  // no sink, so no detector bank
  obs::set_metrics_enabled(was);
}

TEST(ObsEmission, PredictorAndRebalanceInstrumentAContendedRun) {
  MetricsOn guard;
  const std::uint64_t observations0 = counter_value("predictor.observations");
  const std::uint64_t plans0 = counter_value("rebalance.plans");
  const std::uint64_t windows0 = counter_value("engine.windows");

  // Imbalanced first-fit start on two hosts: the rebalancer has real work,
  // and the predictor sees every tenant's demand stream.
  ScenarioConfig scenario;
  scenario.workloads = {
      wl::WorkloadKind::kRubbos, wl::WorkloadKind::kHadoop,
      wl::WorkloadKind::kTpcc,   wl::WorkloadKind::kKernelBuild,
      wl::WorkloadKind::kTpcc,   wl::WorkloadKind::kKernelBuild};
  scenario.hosts = 2;
  scenario.seed = 42;
  scenario.placement = cluster::PlacementPolicy::kFirstFit;

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 600.0;
  config.window = 5.0;
  config.rebalance.enabled = true;
  config.rebalance.every_windows = 24;

  run_simulation(build_scenario(scenario), config);

  // 120 windows x 6 tenants of predictor observations.
  EXPECT_GE(counter_value("predictor.observations") - observations0, 720u);
  EXPECT_NE(obs::metrics().find_histogram("predictor.underprediction"),
            nullptr);
  // Rebalance planning ran at the configured epochs (windows 24..96).
  EXPECT_GE(counter_value("rebalance.plans") - plans0, 4u);
  EXPECT_NE(obs::metrics().find_histogram("rebalance.pressure_gap"), nullptr);
  EXPECT_EQ(counter_value("engine.windows") - windows0, 120u);
}

}  // namespace
}  // namespace rrf::sim
