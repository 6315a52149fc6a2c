#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "obs/exposition.hpp"
#include "obs/flightrec.hpp"
#include "obs/journal.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"
#include "workload/replay.hpp"

namespace rrf::sim {
namespace {

/// The paper's Fig. 4/5 setup: all four workloads co-located on one paper
/// host at alpha = 1, where the aggregate average demand fills the node
/// and peaks collide (real contention).
Scenario small_scenario(double alpha = 1.0) {
  ScenarioConfig config;
  config.workloads = wl::paper_workloads();
  config.alpha = alpha;
  config.hosts = 1;
  config.seed = 42;
  return build_scenario(config);
}

EngineConfig fast_engine(PolicyKind policy) {
  EngineConfig config;
  config.policy = policy;
  config.duration = 600.0;
  config.window = 5.0;
  return config;
}

TEST(Engine, TshirtBetaIsExactlyOne) {
  const Scenario s = small_scenario();
  const SimResult r = run_simulation(s, fast_engine(PolicyKind::kTshirt));
  for (const auto& t : r.tenants) {
    EXPECT_NEAR(t.beta(), 1.0, 1e-9) << t.name();
  }
}

TEST(Engine, EveryPolicyRunsAndProducesSaneMetrics) {
  const Scenario s = small_scenario();
  for (const alloc::Policy& row : alloc::policies()) {
    const PolicyKind policy = row.kind;
    const SimResult r = run_simulation(s, fast_engine(policy));
    ASSERT_EQ(r.tenants.size(), 4u) << to_string(policy);
    for (const auto& t : r.tenants) {
      EXPECT_GT(t.beta(), 0.2) << to_string(policy) << "/" << t.name();
      EXPECT_LT(t.beta(), 3.0) << to_string(policy) << "/" << t.name();
      EXPECT_GT(t.mean_perf(), 0.05) << to_string(policy);
      EXPECT_LE(t.mean_perf(), 1.0 + 1e-9) << to_string(policy);
      EXPECT_EQ(t.windows(), 120u);
    }
    EXPECT_GT(r.alloc_invocations, 0u);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_GE(r.mean_utilization[k], 0.0);
      EXPECT_LE(r.mean_utilization[k], 1.0 + 1e-9);
    }
  }
}

TEST(Engine, SharingBeatsStaticPartition) {
  // The headline claim: any sharing policy outperforms T-shirt.
  const Scenario s = small_scenario();
  const double base =
      run_simulation(s, fast_engine(PolicyKind::kTshirt)).perf_geomean();
  for (const PolicyKind policy :
       {PolicyKind::kWmmf, PolicyKind::kDrf, PolicyKind::kIwaOnly,
        PolicyKind::kRrf}) {
    const double perf = run_simulation(s, fast_engine(policy)).perf_geomean();
    EXPECT_GT(perf, base) << to_string(policy);
  }
}

TEST(Engine, RrfFairnessBeatsWmmfAndDrf) {
  // Economic fairness: RRF's betas cluster tighter than the baselines'
  // (the paper's Fig. 6 claim: "smaller difference of beta between
  // different applications").  Measured as the max-min spread over
  // tenants, on a longer horizon so trading episodes accumulate.
  const Scenario s = small_scenario();
  auto beta_spread = [&](PolicyKind policy) {
    EngineConfig config = fast_engine(policy);
    config.duration = 2700.0;
    const SimResult r = run_simulation(s, config);
    double lo = 1e9, hi = -1e9;
    for (const auto& t : r.tenants) {
      lo = std::min(lo, t.beta());
      hi = std::max(hi, t.beta());
    }
    return hi - lo;
  };
  const double rrf = beta_spread(PolicyKind::kRrf);
  EXPECT_LT(rrf, beta_spread(PolicyKind::kWmmf));
  EXPECT_LT(rrf, beta_spread(PolicyKind::kDrf));
}

TEST(Engine, DeterministicAcrossRuns) {
  const Scenario s = small_scenario();
  const SimResult a = run_simulation(s, fast_engine(PolicyKind::kRrf));
  const SimResult b = run_simulation(s, fast_engine(PolicyKind::kRrf));
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.tenants[t].beta(), b.tenants[t].beta());
    EXPECT_DOUBLE_EQ(a.tenants[t].mean_perf(), b.tenants[t].mean_perf());
  }
}

TEST(Engine, SerialAndParallelNodesAgree) {
  ScenarioConfig config;
  config.workloads = {wl::WorkloadKind::kTpcc, wl::WorkloadKind::kKernelBuild,
                      wl::WorkloadKind::kTpcc, wl::WorkloadKind::kKernelBuild};
  config.hosts = 2;
  config.seed = 7;
  const Scenario s = build_scenario(config);

  EngineConfig serial = fast_engine(PolicyKind::kRrf);
  serial.parallel_nodes = false;
  EngineConfig parallel = fast_engine(PolicyKind::kRrf);
  parallel.parallel_nodes = true;

  const SimResult a = run_simulation(s, serial);
  const SimResult b = run_simulation(s, parallel);
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_NEAR(a.tenants[t].beta(), b.tenants[t].beta(), 1e-12);
    EXPECT_NEAR(a.tenants[t].mean_perf(), b.tenants[t].mean_perf(), 1e-12);
  }
}

TEST(Engine, OracleDemandImprovesOnPrediction) {
  const Scenario s = small_scenario();
  EngineConfig predicted = fast_engine(PolicyKind::kRrf);
  EngineConfig oracle = fast_engine(PolicyKind::kRrf);
  oracle.use_predictor = false;
  const double p = run_simulation(s, predicted).perf_geomean();
  const double o = run_simulation(s, oracle).perf_geomean();
  EXPECT_GE(o, p - 0.02);  // the oracle is at least as good (within noise)
}

TEST(Engine, ActuatorLagCostsPerformance) {
  const Scenario s = small_scenario();
  EngineConfig with = fast_engine(PolicyKind::kRrf);
  EngineConfig without = fast_engine(PolicyKind::kRrf);
  without.use_actuators = false;
  const double lagged = run_simulation(s, with).perf_geomean();
  const double ideal = run_simulation(s, without).perf_geomean();
  EXPECT_GE(ideal, lagged - 0.02);
}

TEST(Engine, TimeSeriesHaveOneEntryPerWindow) {
  const Scenario s = small_scenario();
  const SimResult r = run_simulation(s, fast_engine(PolicyKind::kRrf));
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.demand_ratio_series().size(), 120u);
    EXPECT_EQ(t.alloc_ratio_series().size(), 120u);
  }
}

TEST(Engine, MemoryBackendsAllRun) {
  const Scenario s = small_scenario();
  double previous = -1.0;
  for (const hv::MemoryBackend backend :
       {hv::MemoryBackend::kBalloon, hv::MemoryBackend::kHotplug,
        hv::MemoryBackend::kCgroup}) {
    EngineConfig config = fast_engine(PolicyKind::kRrf);
    config.memory_backend = backend;
    const SimResult r = run_simulation(s, config);
    EXPECT_GT(r.perf_geomean(), 0.3);
    if (previous >= 0.0) {
      EXPECT_NEAR(r.perf_geomean(), previous, 0.05);  // backends agree
    }
    previous = r.perf_geomean();
  }
}

TEST(Engine, SlicedSchedulerModeAgreesWithFluid) {
  const Scenario s = small_scenario();
  EngineConfig fluid = fast_engine(PolicyKind::kRrf);
  fluid.duration = 150.0;
  EngineConfig sliced = fluid;
  sliced.use_sliced_scheduler = true;
  const double a = run_simulation(s, fluid).perf_geomean();
  const double b = run_simulation(s, sliced).perf_geomean();
  EXPECT_NEAR(a, b, 0.05);
}

TEST(Engine, PeriodicPredictorRunsEndToEnd) {
  const Scenario s = small_scenario();
  EngineConfig config = fast_engine(PolicyKind::kRrf);
  config.predictor.enable_periodicity = true;
  const SimResult r = run_simulation(s, config);
  EXPECT_GT(r.perf_geomean(), 0.3);
}

TEST(Engine, ObserverSeesEveryWindow) {
  const Scenario s = small_scenario();
  EngineConfig config = fast_engine(PolicyKind::kRrf);
  std::vector<WindowSnapshot> snapshots;
  config.observer = [&](const WindowSnapshot& snapshot) {
    snapshots.push_back(snapshot);
  };
  const SimResult r = run_simulation(s, config);
  ASSERT_EQ(snapshots.size(), 120u);
  EXPECT_EQ(snapshots.front().window, 0u);
  EXPECT_DOUBLE_EQ(snapshots[3].time, 15.0);
  // Snapshot values agree with the recorded series.
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const double shares = s.cluster.tenant_shares(t).sum();
    for (std::size_t w = 0; w < snapshots.size(); ++w) {
      ASSERT_EQ(snapshots[w].tenant_position.size(), r.tenants.size());
      EXPECT_NEAR(snapshots[w].tenant_position[t] / shares,
                  r.tenants[t].alloc_ratio_series()[w], 1e-9);
    }
  }
}

// Every consumer reads the same per-window digest, so their numbers agree
// with it bit for bit: the journal's ratios, SimResult's series, the
// detector bank's beta gauges and the flight recording's IRT Lambda.
TEST(Engine, DigestAgreesWithEveryConsumer) {
  SyntheticConfig cell;
  cell.nodes = 4;
  cell.vms_per_node = 8;
  cell.tenants = 4;
  cell.seed = 5;
  const Scenario scenario = make_synthetic_scenario(cell);
  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 30 * config.window;
  config.use_actuators = false;

  const std::string journal_path =
      ::testing::TempDir() + "engine_digest_journal.jsonl";
  obs::TelemetryJournal::Options options;
  options.path = journal_path;
  options.policy = "rrf";
  for (const auto& tenant : scenario.cluster.tenants()) {
    options.tenants.push_back(tenant.name);
  }
  obs::TelemetryJournal journal(options);
  std::stringstream recording;
  obs::FlightRecorder recorder(recording);
  recorder.write_header(make_flight_header(scenario, config));
  config.journal = &journal;
  config.flight = &recorder;
  std::vector<WindowSnapshot> digests;
  config.observer = [&](const WindowSnapshot& digest) {
    digests.push_back(digest);
  };

  const bool metrics_before = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const SimResult result = run_simulation(scenario, config);
  obs::set_metrics_enabled(metrics_before);
  journal.finish();
  recorder.finish();

  const obs::JournalData rounds = obs::JournalData::load_file(journal_path);
  std::filesystem::remove(journal_path);
  const obs::FlightRecording flight = obs::FlightRecording::load(recording);
  const std::size_t tenants = result.tenants.size();
  ASSERT_EQ(digests.size(), 30u);
  ASSERT_EQ(rounds.rounds.size(), digests.size());
  ASSERT_EQ(flight.rounds.size(), digests.size());
  bool traded = false;
  for (std::size_t w = 0; w < digests.size(); ++w) {
    const WindowSnapshot& digest = digests[w];
    const obs::RoundSummary& round = rounds.rounds[w];
    ASSERT_EQ(round.tenants.size(), tenants);
    std::vector<double> lambda(tenants, 0.0);
    for (const obs::FlightNode& node : flight.rounds[w].nodes) {
      for (const obs::FlightIrtTenant& irt : node.irt) {
        lambda[irt.tenant] += irt.lambda;
      }
    }
    for (std::size_t t = 0; t < tenants; ++t) {
      const double paid = scenario.cluster.tenant_shares(t).sum();
      EXPECT_EQ(round.tenants[t].share, digest.tenant_position[t] / paid);
      EXPECT_EQ(round.tenants[t].granted, digest.tenant_granted[t] / paid);
      EXPECT_EQ(round.tenants[t].demand, digest.tenant_demand[t] / paid);
      EXPECT_EQ(result.tenants[t].alloc_ratio_series()[w],
                digest.tenant_position[t] / paid);
      EXPECT_EQ(digest.tenant_lambda[t], lambda[t]);
      traded = traded || digest.tenant_lambda[t] > 0.0;
    }
  }
  EXPECT_TRUE(traded);  // the Lambda comparison saw real contributions
  // Phase time is kept once: the run totals are the window digests'
  // sums, in window order, bit for bit; every non-empty node runs one
  // round per window.
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    double total = 0.0;
    for (const WindowSnapshot& digest : digests) {
      total += digest.phase_seconds[p];
    }
    EXPECT_EQ(total, result.phase_seconds[p]) << "phase " << p;
  }
  ASSERT_TRUE(scenario.unplaced.empty());
  std::set<std::size_t> busy_nodes;
  for (const std::vector<std::size_t>& hosts : scenario.host_of) {
    busy_nodes.insert(hosts.begin(), hosts.end());
  }
  EXPECT_EQ(result.alloc_invocations, digests.size() * busy_nodes.size());
  // The beta gauge is the bank's ledger: the mean of the journal's
  // share ratios, summed in window order; SimResult's beta sums the
  // positions before dividing, so it agrees to rounding.
  for (std::size_t t = 0; t < tenants; ++t) {
    const obs::Gauge* beta = obs::metrics().find_gauge(obs::labeled(
        "fairness.tenant_beta", {{"tenant", result.tenants[t].name()}}));
    ASSERT_NE(beta, nullptr);
    double share_total = 0.0;
    for (const obs::RoundSummary& round : rounds.rounds) {
      share_total += round.tenants[t].share;
    }
    EXPECT_EQ(beta->value(),
              share_total / static_cast<double>(rounds.rounds.size()));
    EXPECT_NEAR(beta->value(), result.tenants[t].beta(), 1e-12);
  }
}

/// A synthetic cell for the phase-timing tests: 6 nodes of 4 VMs.
Scenario phase_cell() {
  SyntheticConfig cell;
  cell.nodes = 6;
  cell.vms_per_node = 4;
  cell.tenants = 3;
  cell.seed = 9;
  return make_synthetic_scenario(cell);
}

/// Serial, then three shards (two nodes each).
std::vector<EngineConfig> serial_and_sharded(std::size_t windows) {
  EngineConfig serial;
  serial.policy = PolicyKind::kRrf;
  serial.duration = static_cast<double>(windows) * serial.window;
  serial.use_actuators = false;
  serial.parallel_nodes = false;
  EngineConfig sharded = serial;
  sharded.parallel_nodes = true;
  sharded.shards = 3;
  return {serial, sharded};
}

// While tracing and metrics are on, every node's part of every phase is
// timed on its own: one kPhase event per phase per node round, carrying
// the node's id, one histogram sample each, and the per-node times add up
// to the run's phase seconds.
TEST(Engine, TracedRunTimesEveryNodesPhases) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const Scenario scenario = phase_cell();
  constexpr std::size_t kWindows = 10;
  for (const EngineConfig& config : serial_and_sharded(kWindows)) {
    const std::string tag = config.parallel_nodes ? "sharded" : "serial";
    const bool tracing_before = obs::tracing_enabled();
    const bool metrics_before = obs::metrics_enabled();
    obs::set_tracing_enabled(true);
    obs::set_metrics_enabled(true);
    obs::tracer().clear();
    std::array<std::uint64_t, obs::kPhaseCount> samples_before{};
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      samples_before[p] =
          obs::phase_histogram(obs::metrics(), static_cast<obs::Phase>(p))
              .count();
    }
    const SimResult result = run_simulation(scenario, config);
    const std::vector<obs::TraceEvent> events = obs::tracer().events();
    const std::uint64_t dropped = obs::tracer().dropped();
    obs::tracer().clear();
    obs::set_metrics_enabled(metrics_before);
    obs::set_tracing_enabled(tracing_before);

    ASSERT_EQ(dropped, 0u) << tag;
    const std::size_t rounds = result.alloc_invocations;
    ASSERT_EQ(rounds, 6u * kWindows) << tag;
    // (phase, node, window) -> events; and the per-node seconds per phase.
    std::map<std::tuple<int, int, int>, int> seen;
    std::array<double, obs::kPhaseCount> node_seconds{};
    std::size_t begins = 0, ends = 0;
    for (const obs::TraceEvent& e : events) {
      if (e.kind == obs::EventKind::kAllocRoundBegin) ++begins;
      if (e.kind == obs::EventKind::kAllocRoundEnd) ++ends;
      if (e.kind != obs::EventKind::kPhase) continue;
      ASSERT_GE(e.phase, 0) << tag;
      ASSERT_LT(e.phase, static_cast<int>(obs::kPhaseCount)) << tag;
      ++seen[{e.phase, e.node, e.window}];
      node_seconds[static_cast<std::size_t>(e.phase)] += e.dur_us * 1e-6;
    }
    EXPECT_EQ(begins, rounds) << tag;
    EXPECT_EQ(ends, rounds) << tag;
    EXPECT_EQ(seen.size(), obs::kPhaseCount * rounds) << tag;
    for (int p = 0; p < static_cast<int>(obs::kPhaseCount); ++p) {
      for (int node = 0; node < 6; ++node) {
        for (int w = 0; w < static_cast<int>(kWindows); ++w) {
          const auto it = seen.find({p, node, w});
          ASSERT_NE(it, seen.end())
              << tag << ": phase " << p << " node " << node << " window "
              << w;
          EXPECT_EQ(it->second, 1) << tag << ": phase " << p << " node "
                                   << node << " window " << w;
        }
      }
    }
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const obs::Phase phase = static_cast<obs::Phase>(p);
      EXPECT_EQ(obs::phase_histogram(obs::metrics(), phase).count(),
                samples_before[p] + rounds)
          << tag << ": " << obs::to_string(phase);
      EXPECT_GT(result.phase_seconds[p], 0.0) << tag;
      EXPECT_NEAR(node_seconds[p], result.phase_seconds[p],
                  1e-9 + 1e-6 * result.phase_seconds[p])
          << tag << ": " << obs::to_string(phase);
    }
  }
}

// With every sink off each shard reads the clock at its phase boundaries
// only, and still times every phase, serial and sharded.
TEST(Engine, UntracedRunTimesEveryPhase) {
  const Scenario scenario = phase_cell();
  for (const EngineConfig& config : serial_and_sharded(10)) {
    const bool tracing_before = obs::tracing_enabled();
    const bool metrics_before = obs::metrics_enabled();
    const bool profiling_before = obs::profiling_enabled();
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::set_profiling_enabled(false);
    const SimResult result = run_simulation(scenario, config);
    obs::set_profiling_enabled(profiling_before);
    obs::set_metrics_enabled(metrics_before);
    obs::set_tracing_enabled(tracing_before);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      EXPECT_GT(result.phase_seconds[p], 0.0)
          << (config.parallel_nodes ? "sharded " : "serial ")
          << obs::to_string(static_cast<obs::Phase>(p));
    }
  }
}

TEST(Engine, PolicyStringRoundTrip) {
  for (const alloc::Policy& row : alloc::policies()) {
    EXPECT_EQ(policy_from_string(to_string(row.kind)), row.kind);
  }
  EXPECT_THROW(policy_from_string("bogus"), DomainError);
  // The five schemes of the paper's Section VI-A, in comparison order.
  EXPECT_EQ(paper_policies(),
            (std::vector<PolicyKind>{PolicyKind::kTshirt, PolicyKind::kWmmf,
                                     PolicyKind::kDrf, PolicyKind::kIwaOnly,
                                     PolicyKind::kRrf}));
}

TEST(Engine, ValidatesConfig) {
  const Scenario s = small_scenario();
  EngineConfig bad = fast_engine(PolicyKind::kRrf);
  bad.window = 0.0;
  EXPECT_THROW(run_simulation(s, bad), PreconditionError);
  // A zero rebalance epoch would divide by zero in the window loop.
  EngineConfig zero_epoch = fast_engine(PolicyKind::kRrf);
  zero_epoch.rebalance.enabled = true;
  zero_epoch.rebalance.every_windows = 0;
  EXPECT_THROW(run_simulation(s, zero_epoch), PreconditionError);
}

// duration / window at or above 2^64 windows used to convert to zero
// windows (an undefined conversion) and report NaN utilization; a count
// from 2^53 on is refused, naming it.
TEST(Engine, RejectsAnUnrepresentableWindowCount) {
  const Scenario s = small_scenario();
  struct Case {
    double window;
    double duration;
    const char* count;
  };
  for (const Case& c : {Case{5.0, 1e300, "2e+299"},
                        Case{1e-300, 10.0, "9.999999999999999e+300"},
                        Case{1.0, 0x1p53, "9007199254740992"}}) {
    EngineConfig config = fast_engine(PolicyKind::kRrf);
    config.window = c.window;
    config.duration = c.duration;
    try {
      run_simulation(s, config);
      ADD_FAILURE() << c.count << " windows accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    std::string("duration / window = ") + c.count +
                    " windows, not below 2^53"),
                std::string::npos)
          << e.what();
    }
  }
}

/// A 2-host, 2-tenant synthetic cell: tenants syn0 and syn1, two VMs each.
Scenario two_tenant_cell() {
  SyntheticConfig cell;
  cell.nodes = 2;
  cell.vms_per_node = 2;
  cell.tenants = 2;
  return make_synthetic_scenario(cell);
}

/// A workload that models two VMs but yields one demand.
class ShortWorkload final : public wl::Workload {
 public:
  std::string name() const override { return "short"; }
  wl::WorkloadKind kind() const override {
    return wl::WorkloadKind::kKernelBuild;
  }
  wl::PerfMetric metric() const override {
    return wl::PerfMetric::kThroughput;
  }
  ResourceVector demand_at(Seconds) const override {
    return ResourceVector{1.0, 1.0};
  }
  std::vector<double> vm_split() const override { return {0.5, 0.5}; }
  std::vector<ResourceVector> vm_demands_at(Seconds t) const override {
    return {demand_at(t)};
  }
};

// Every malformed shape is a PreconditionError naming the tenant, raised
// before the engine reads out of bounds.
TEST(Engine, RejectsMalformedScenario) {
  const auto expect_rejected = [](Scenario s, const std::string& tenant,
                                  const std::string& what) {
    EngineConfig config = fast_engine(PolicyKind::kRrf);
    config.duration = 10.0;
    try {
      run_simulation(s, config);
      ADD_FAILURE() << what << ": accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(tenant), std::string::npos)
          << what << ": " << e.what();
    }
  };

  Scenario no_workload = two_tenant_cell();
  no_workload.workloads.pop_back();
  expect_rejected(std::move(no_workload), "syn1", "missing workload");

  Scenario short_placement = two_tenant_cell();
  short_placement.host_of[1].pop_back();
  expect_rejected(std::move(short_placement), "syn1", "host_of too short");

  Scenario bad_host = two_tenant_cell();
  bad_host.host_of[0][1] = 7;
  expect_rejected(std::move(bad_host), "syn0", "host index out of range");

  // A replayed trace splits its demand over one VM by default.
  Scenario one_vm_trace = two_tenant_cell();
  one_vm_trace.workloads[0] = std::make_unique<wl::ReplayWorkload>(
      "trace", std::vector<Seconds>{0.0},
      std::vector<ResourceVector>{ResourceVector{2.0, 1.0}});
  expect_rejected(std::move(one_vm_trace), "syn0", "one-VM workload");

  Scenario short_demands = two_tenant_cell();
  short_demands.workloads[1] = std::make_unique<ShortWorkload>();
  expect_rejected(std::move(short_demands), "syn1", "short demand vector");

  // A VM provisioned at inf, or at a capacity whose price overflows, buys
  // inf shares, which every policy level reads, the static one unchecked.
  for (const double cpu : {std::numeric_limits<double>::infinity(), 1e307}) {
    Scenario bad_shares = two_tenant_cell();
    cluster::Cluster cluster(bad_shares.cluster.hosts(),
                             bad_shares.cluster.pricing());
    for (cluster::TenantSpec tenant : bad_shares.cluster.tenants()) {
      if (tenant.name == "syn1") tenant.vms[1].provisioned[0] = cpu;
      cluster.add_tenant(std::move(tenant));
    }
    bad_shares.cluster = std::move(cluster);
    for (const PolicyKind policy : {PolicyKind::kTshirt, PolicyKind::kRrf}) {
      EngineConfig config = fast_engine(policy);
      config.duration = 10.0;
      try {
        run_simulation(bad_shares, config);
        ADD_FAILURE() << "VM provisioned " << cpu << " GHz: accepted";
      } catch (const PreconditionError& e) {
        EXPECT_NE(std::string(e.what()).find("tenant syn1 VM 1 buys <"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

/// The profiler frames of one window, from demand sampling to its tail:
/// the window phases and the node phases nested in the dispatch.
bool window_frame(const std::string& site) {
  for (const char* frame : {"window.demands", "window.dispatch",
                            "window.exchange", "window.finalize"}) {
    if (site == frame) return true;
  }
  for (std::size_t ph = 0; ph < obs::kPhaseCount; ++ph) {
    if (site == obs::to_string(static_cast<obs::Phase>(ph))) return true;
  }
  return false;
}

/// Heap bytes the profiler attributed to the window frames and every
/// frame nested in them; `offenders` lists the frames that allocated.
std::uint64_t window_heap_bytes(const obs::ProfileSnapshot& snapshot,
                                std::string* offenders) {
  std::vector<bool> in_window(snapshot.merged.size(), false);
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < snapshot.merged.size(); ++i) {
    const obs::ProfileNode& node = snapshot.merged[i];
    // Preorder: a parent always precedes its children.
    in_window[i] = window_frame(node.site) ||
                   (node.parent >= 0 &&
                    in_window[static_cast<std::size_t>(node.parent)]);
    if (in_window[i] && node.bytes > 0) {
      bytes += node.bytes;
      *offenders += " " + node.site + "=" + std::to_string(node.bytes);
    }
  }
  return bytes;
}

/// Calls of the profiler frame `site` summed over the merged tree.
std::uint64_t frame_calls(const obs::ProfileSnapshot& snapshot,
                          const std::string& site) {
  std::uint64_t calls = 0;
  for (const obs::ProfileNode& node : snapshot.merged) {
    if (node.site == site) calls += node.calls;
  }
  return calls;
}

class NodeRoundHeap : public ::testing::TestWithParam<std::string> {};

// The steady-state window allocates nothing, with actuators off and on:
// demand sampling writes into the engine's per-tenant buffers, every
// per-node buffer, the hypervisor's and the policy's scratch and results
// grow to the node's size in the first window, and the merge and the
// window tail reuse theirs.
TEST_P(NodeRoundHeap, SteadyStateRoundAllocatesNothing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "profiler compiled out";
  SyntheticConfig cell;
  cell.nodes = 4;
  cell.vms_per_node = 16;
  cell.tenants = 8;
  cell.seed = 3;
  const Scenario scenario = make_synthetic_scenario(cell);
  for (const bool actuators : {false, true}) {
    EngineConfig config;
    config.policy = policy_from_string(GetParam());
    config.window = 5.0;
    config.duration = 100.0;  // 20 windows
    config.use_actuators = actuators;
    config.parallel_nodes = false;
    config.observer = [](const WindowSnapshot& snapshot) {
      // Only the windows after the first count.
      if (snapshot.window == 0) obs::profile_reset();
    };

    const bool metrics_before = obs::metrics_enabled();
    const bool tracing_before = obs::tracing_enabled();
    const bool profiling_before = obs::profiling_enabled();
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::set_profiling_enabled(true);
    obs::profile_reset();
    const SimResult result = run_simulation(scenario, config);
    const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
    obs::profile_reset();
    obs::set_profiling_enabled(profiling_before);
    obs::set_tracing_enabled(tracing_before);
    obs::set_metrics_enabled(metrics_before);

    const std::string tag = actuators ? "actuators on" : "actuators off";
    ASSERT_EQ(result.alloc_invocations, 4u * 20u) << tag;
    // The frames of the 19 counted windows were seen...
    EXPECT_EQ(frame_calls(snapshot, "window.demands"), 19u) << tag;
    EXPECT_EQ(frame_calls(snapshot, "window.exchange"), 19u) << tag;
    EXPECT_EQ(frame_calls(snapshot,
                          obs::to_string(obs::Phase::kAllocate)),
              4u * 19u)
        << tag;
    // ... and none of them, nor any frame inside them, touched the heap.
    std::string offenders;
    EXPECT_EQ(window_heap_bytes(snapshot, &offenders), 0u)
        << tag << ": heap bytes in" << offenders;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, NodeRoundHeap,
                         ::testing::ValuesIn(alloc::policy_names()));

}  // namespace
}  // namespace rrf::sim
