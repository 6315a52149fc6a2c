// Ops plane under fire: concurrent endpoint scrapes while the engine is
// mutating instruments and publishing rounds (the tsan tier re-runs this
// binary), plus the neutrality guarantee — attaching the ops plane must
// not change a single allocation.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "sim/engine.hpp"

namespace rrf::sim {
namespace {

struct MetricsOn {
  MetricsOn() : was(obs::metrics_enabled()) { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was); }
  bool was;
};

int connect_with_retry(std::uint16_t port) {
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (attempt >= 50) return -1;
    ::usleep(10'000);
  }
}

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = connect_with_retry(port);
  if (fd < 0) return {};
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

ScenarioConfig stress_scenario() {
  ScenarioConfig scenario;
  scenario.workloads = wl::paper_workloads();
  scenario.hosts = 1;
  scenario.seed = 42;
  return scenario;
}

TEST(OpsStress, ConcurrentScrapesDuringARun) {
  MetricsOn guard;
  // Per-process name: ctest runs this binary whole (tsan label) and by
  // test case, possibly at the same time.
  const std::string journal_path = ::testing::TempDir() +
                                   "/ops_stress_journal_" +
                                   std::to_string(getpid()) + ".jsonl";
  std::remove(journal_path.c_str());

  obs::OpsHub hub;
  obs::TelemetryJournal::Options journal_options;
  journal_options.path = journal_path;
  journal_options.policy = "rrf";
  obs::TelemetryJournal journal(std::move(journal_options));

  obs::ExpositionServer::Config server_config;
  server_config.ops = &hub;
  server_config.stall_deadline_seconds = 120.0;
  obs::ExpositionServer server(server_config);
  server.start();

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 600.0;
  config.window = 5.0;
  config.ops = &hub;
  config.journal = &journal;

  std::atomic<bool> done{false};
  SimResult result;
  std::thread sim([&] {
    result = run_simulation(build_scenario(stress_scenario()), config);
    done.store(true);
  });

  // Hammer every endpoint from several threads for the whole run.
  const std::vector<std::string> targets = {
      "/metrics", "/metrics.json", "/alerts", "/rounds?n=3", "/readyz"};
  std::atomic<std::uint64_t> responses{0};
  std::vector<std::thread> clients;
  clients.reserve(targets.size());
  for (const std::string& target : targets) {
    clients.emplace_back([&, target] {
      // At least a few scrapes each even if the run finishes quickly
      // (the server stays up until after the joins below).
      for (int i = 0; i < 5 || !done.load(); ++i) {
        const std::string response = http_get(server.port(), target);
        if (response.find("HTTP/1.1 200") != std::string::npos) {
          responses.fetch_add(1);
        }
      }
    });
  }
  sim.join();
  for (std::thread& t : clients) t.join();
  server.stop();
  journal.finish();

  EXPECT_GT(responses.load(), targets.size())
      << "scrapes should succeed while the engine runs";
  EXPECT_EQ(hub.rounds_published(), 120u);  // 600 s / 5 s windows

  // The journal survived the concurrency and replays every round.
  const obs::JournalData data = obs::JournalData::load_file(journal_path);
  EXPECT_EQ(data.rounds.size(), 120u);
  ASSERT_TRUE(data.end.has_value());
  EXPECT_EQ(data.end->rounds, 120u);
  EXPECT_EQ(data.rounds.back().window + 1, 120u);
  EXPECT_GT(result.fairness_geomean(), 0.0);
  std::remove(journal_path.c_str());
}

TEST(OpsNeutrality, AttachingTheOpsPlaneChangesNoAllocation) {
  MetricsOn guard;
  const std::string journal_path = ::testing::TempDir() +
                                   "/ops_neutrality_journal_" +
                                   std::to_string(getpid()) + ".jsonl";

  auto run = [&](bool with_ops) {
    std::vector<std::vector<double>> positions;
    EngineConfig config;
    config.policy = PolicyKind::kRrf;
    config.duration = 300.0;
    config.window = 5.0;
    config.observer = [&positions](const WindowSnapshot& snapshot) {
      positions.push_back(snapshot.tenant_position);
    };
    obs::OpsHub hub;
    std::unique_ptr<obs::TelemetryJournal> journal;
    std::unique_ptr<obs::IncidentManager> incidents;
    if (with_ops) {
      std::remove(journal_path.c_str());
      obs::TelemetryJournal::Options options;
      options.path = journal_path;
      options.policy = "rrf";
      journal = std::make_unique<obs::TelemetryJournal>(std::move(options));
      // Incident detection rides the same summary feed and must be just
      // as allocation-neutral as the hub and the journal.
      incidents = std::make_unique<obs::IncidentManager>(obs::IncidentConfig{});
      config.ops = &hub;
      config.journal = journal.get();
      config.incidents = incidents.get();
    }
    run_simulation(build_scenario(stress_scenario()), config);
    return positions;
  };

  const std::vector<std::vector<double>> plain = run(false);
  const std::vector<std::vector<double>> with_ops = run(true);
  std::remove(journal_path.c_str());
  ASSERT_EQ(plain.size(), with_ops.size());
  for (std::size_t w = 0; w < plain.size(); ++w) {
    ASSERT_EQ(plain[w].size(), with_ops[w].size());
    for (std::size_t t = 0; t < plain[w].size(); ++t) {
      // Bit-exact: the ops plane reads allocation outputs, never feeds
      // anything back into the decision path.
      EXPECT_EQ(plain[w][t], with_ops[w][t]) << "window " << w;
    }
  }
}

}  // namespace
}  // namespace rrf::sim
