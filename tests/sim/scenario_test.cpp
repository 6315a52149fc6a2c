#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rrf::sim {
namespace {

ScenarioConfig four_workloads() {
  ScenarioConfig config;
  config.workloads = wl::paper_workloads();
  config.hosts = 1;
  config.seed = 42;
  return config;
}

TEST(Scenario, PaperSingleHostScenarioFits) {
  // All four workloads at alpha = 1 co-locate on one paper host (the
  // paper's Fig. 4/5 setup): the aggregate *average* demand is close to
  // the node's capacity.
  const Scenario s = build_scenario(four_workloads());
  EXPECT_TRUE(s.unplaced.empty());
  EXPECT_EQ(s.cluster.tenants().size(), 4u);
  EXPECT_TRUE(s.cluster.reservation_fits());
  // Bulk reservation uses most of the node (paper: contention at peaks).
  const ResourceVector used = s.cluster.total_provisioned();
  const ResourceVector cap = s.cluster.total_capacity();
  EXPECT_GT(used[0] / cap[0], 0.75);
}

TEST(Scenario, VmCountsMatchThePaperDeployment) {
  const Scenario s = build_scenario(four_workloads());
  EXPECT_EQ(s.cluster.tenants()[0].vms.size(), 2u);   // TPC-C client+DB
  EXPECT_EQ(s.cluster.tenants()[1].vms.size(), 3u);   // RUBBoS 3-tier
  EXPECT_EQ(s.cluster.tenants()[2].vms.size(), 1u);   // kernel build
  EXPECT_EQ(s.cluster.tenants()[3].vms.size(), 11u);  // Hadoop master+10
}

TEST(Scenario, AlphaScalesProvisioning) {
  ScenarioConfig config = four_workloads();
  const Scenario s1 = build_scenario(config);
  config.alpha = 0.5;
  const Scenario s2 = build_scenario(config);
  const ResourceVector p1 = s1.cluster.total_provisioned();
  const ResourceVector p2 = s2.cluster.total_provisioned();
  EXPECT_NEAR(p2[0], 0.5 * p1[0], 1e-9);
  EXPECT_NEAR(p2[1], 0.5 * p1[1], 1e-9);
}

TEST(Scenario, PeakAlphaAboveOne) {
  const double a_star = peak_alpha(four_workloads());
  // TPC-C peaks at ~2.3x its average CPU: alpha* must be at least that.
  EXPECT_GT(a_star, 2.0);
  EXPECT_LT(a_star, 4.0);
}

TEST(Scenario, FillScenarioPacksUntilFull) {
  const std::vector<wl::WorkloadKind> cycle{wl::WorkloadKind::kKernelBuild,
                                            wl::WorkloadKind::kTpcc};
  const Scenario s = fill_scenario(/*hosts=*/1, cycle, /*alpha=*/1.0, 42);
  EXPECT_TRUE(s.unplaced.empty());
  EXPECT_GE(s.cluster.tenants().size(), 4u);  // small apps pack densely
  // Adding one more tenant would not fit: the reservation is nearly full.
  const ResourceVector used = s.cluster.total_provisioned();
  const ResourceVector cap = s.cluster.total_capacity();
  EXPECT_GT(std::max(used[0] / cap[0], used[1] / cap[1]), 0.6);
}

TEST(Scenario, FillScenarioDensityGrowsAsAlphaShrinks) {
  const std::vector<wl::WorkloadKind> cycle{wl::WorkloadKind::kTpcc};
  const Scenario tight = fill_scenario(1, cycle, 2.0, 42);
  const Scenario loose = fill_scenario(1, cycle, 1.0, 42);
  EXPECT_GT(loose.cluster.tenants().size(),
            tight.cluster.tenants().size());
}

// fill_scenario builds each tenant once and re-runs only the placement,
// so its scenario is the one build_scenario makes of the tenants it kept,
// and one more tenant of the cycle would not place.
TEST(Scenario, FillScenarioEqualsBuildingItsTenantList) {
  const std::vector<wl::WorkloadKind> cycle = wl::paper_workloads();
  const Scenario filled = fill_scenario(/*hosts=*/8, cycle, /*alpha=*/1.0, 1);
  ScenarioConfig config;
  config.hosts = 8;
  config.alpha = 1.0;
  config.seed = 1;
  for (std::size_t t = 0; t < filled.workloads.size(); ++t) {
    EXPECT_EQ(filled.workloads[t]->kind(), cycle[t % cycle.size()]);
    config.workloads.push_back(filled.workloads[t]->kind());
  }
  const Scenario built = build_scenario(config);

  EXPECT_EQ(filled.host_of, built.host_of);
  EXPECT_EQ(filled.unplaced, built.unplaced);
  EXPECT_TRUE(filled.unplaced.empty());
  ASSERT_EQ(filled.cluster.hosts().size(), built.cluster.hosts().size());
  const auto& tenants = filled.cluster.tenants();
  ASSERT_EQ(tenants.size(), built.cluster.tenants().size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const cluster::TenantSpec& want = built.cluster.tenants()[t];
    EXPECT_EQ(tenants[t].name, want.name);
    ASSERT_EQ(tenants[t].vms.size(), want.vms.size()) << want.name;
    for (std::size_t j = 0; j < want.vms.size(); ++j) {
      const cluster::VmSpec& got = tenants[t].vms[j];
      EXPECT_EQ(got.name, want.vms[j].name);
      EXPECT_EQ(got.vcpus, want.vms[j].vcpus) << got.name;
      EXPECT_EQ(got.max_mem_gb, want.vms[j].max_mem_gb) << got.name;
      for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
        EXPECT_EQ(got.provisioned[k], want.vms[j].provisioned[k])
            << got.name << " type " << k;
      }
    }
  }

  config.workloads.push_back(cycle[tenants.size() % cycle.size()]);
  EXPECT_FALSE(build_scenario(config).unplaced.empty());
}

TEST(Scenario, AutoSizesThePool) {
  // hosts == 0: the GSA sizes the bulk reservation via pool scaling.
  ScenarioConfig config = four_workloads();
  config.hosts = 0;
  config.autosize_utilization = 0.9;
  const Scenario s = build_scenario(config);
  // One paper host holds the aggregate at ~100%; at 90% it takes two.
  EXPECT_EQ(s.cluster.hosts().size(), 2u);
  EXPECT_TRUE(s.unplaced.empty());
  config.autosize_utilization = 1.0;
  EXPECT_EQ(build_scenario(config).cluster.hosts().size(), 1u);
}

TEST(Scenario, CustomPricingFlowsThrough) {
  ScenarioConfig config = four_workloads();
  config.pricing = PricingModel(ResourceVector{100.0, 400.0});
  const Scenario s = build_scenario(config);
  const ResourceVector shares = s.cluster.tenant_shares(0);
  const ResourceVector provisioned =
      s.cluster.tenants()[0].total_provisioned();
  EXPECT_NEAR(shares[0], provisioned[0] * 100.0, 1e-6);
  EXPECT_NEAR(shares[1], provisioned[1] * 400.0, 1e-6);
}

TEST(Scenario, ValidatesInput) {
  ScenarioConfig config;
  EXPECT_THROW(build_scenario(config), PreconditionError);  // no workloads
  config.workloads = {wl::WorkloadKind::kTpcc};
  config.alpha = 0.0;
  EXPECT_THROW(build_scenario(config), PreconditionError);
}

}  // namespace
}  // namespace rrf::sim
