// The paper fixes p = 2 (CPU + memory) for its evaluation but defines the
// model for p resource types.  These tests exercise every policy with a
// third type (disk bandwidth) and a fourth (network), checking that the
// fairness machinery generalizes.
#include <gtest/gtest.h>

#include "alloc/irt.hpp"
#include "alloc/policy.hpp"
#include "alloc/properties.hpp"
#include "alloc/rrf.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

AllocationEntity entity(ResourceVector share, ResourceVector demand,
                        std::string name = "") {
  AllocationEntity e;
  e.initial_share = std::move(share);
  e.demand = std::move(demand);
  e.name = std::move(name);
  return e;
}

TEST(MultiResource, ThreeWayTradeWorkedExample) {
  // CPU / RAM / disk-MBps, each priced into shares.  Three tenants, each
  // over-demanding one type and contributing another — a trading cycle:
  //   A frees disk, needs CPU;  B frees CPU, needs RAM;  C frees RAM,
  //   needs disk.
  const std::vector<AllocationEntity> tenants{
      entity({600.0, 600.0, 600.0}, {900.0, 600.0, 300.0}, "A"),
      entity({600.0, 600.0, 600.0}, {300.0, 900.0, 600.0}, "B"),
      entity({600.0, 600.0, 600.0}, {600.0, 300.0, 900.0}, "C"),
  };
  const ResourceVector capacity{1800.0, 1800.0, 1800.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, tenants);
  // Every deficit is exactly covered by the cycle's surplus.
  EXPECT_TRUE(r.allocations[0].approx_equal({900.0, 600.0, 300.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal({300.0, 900.0, 600.0}, 1e-9));
  EXPECT_TRUE(r.allocations[2].approx_equal({600.0, 300.0, 900.0}, 1e-9));
  EXPECT_TRUE(r.unallocated.approx_equal({0.0, 0.0, 0.0}, 1e-9));
}

TEST(MultiResource, FreeRiderStarvesInThreeTypesToo) {
  const std::vector<AllocationEntity> tenants{
      entity({600.0, 600.0, 600.0}, {300.0, 600.0, 600.0}, "giver"),
      entity({600.0, 600.0, 600.0}, {900.0, 900.0, 900.0}, "rider"),
  };
  const ResourceVector capacity{1200.0, 1200.0, 1200.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, tenants);
  EXPECT_TRUE(
      r.allocations[1].approx_equal({600.0, 600.0, 600.0}, 1e-9));
  EXPECT_NEAR(r.unallocated[0], 300.0, 1e-9);
}

TEST(MultiResource, ContributionCurrencySpansAllTypes) {
  // A's disk contribution funds its CPU gain even though no tenant frees
  // CPU-for-disk directly (the pool is the intermediary).
  const std::vector<AllocationEntity> tenants{
      entity({600.0, 600.0, 600.0}, {900.0, 600.0, 100.0}, "A"),
      entity({600.0, 600.0, 600.0}, {100.0, 600.0, 900.0}, "B"),
  };
  const ResourceVector capacity{1200.0, 1200.0, 1200.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, tenants);
  EXPECT_NEAR(r.allocations[0][0], 900.0, 1e-9);  // A's CPU need met
  EXPECT_NEAR(r.allocations[1][2], 900.0, 1e-9);  // B's disk need met
}

class MultiResourceSafety : public ::testing::TestWithParam<std::string> {};

TEST_P(MultiResourceSafety, ThreeTypes) {
  ScenarioOptions options;
  options.resource_types = 3;
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  const auto report =
      check_capacity_safety(policy, Rng(191), 150, options);
  EXPECT_TRUE(report.holds()) << GetParam() << ": " << report.first_example;
}

TEST_P(MultiResourceSafety, FourTypes) {
  ScenarioOptions options;
  options.resource_types = 4;
  options.balanced_shares = false;
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  const auto report =
      check_capacity_safety(policy, Rng(192), 150, options);
  EXPECT_TRUE(report.holds()) << GetParam() << ": " << report.first_example;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MultiResourceSafety,
                         ::testing::ValuesIn(policy_names()));

TEST(MultiResource, RrfPropertiesHoldWithThreeTypes) {
  ScenarioOptions options;
  options.resource_types = 3;
  const RrfAllocator rrf;
  EXPECT_TRUE(
      check_sharing_incentive(rrf, Rng(193), 150, options).holds());
  EXPECT_TRUE(
      check_gain_as_you_contribute(rrf, Rng(194), 150, options).holds());
}

TEST(MultiResource, StrategyProofVariantHoldsWithThreeTypes) {
  ScenarioOptions options;
  options.resource_types = 3;
  const Allocator& policy = *alloc::policy("rrf-sp").allocator;
  EXPECT_TRUE(
      check_strategy_proofness(policy, Rng(195), 100, options).holds());
}

TEST(MultiResource, MixedArityIsRejected) {
  std::vector<AllocationEntity> tenants{
      entity({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}),
      entity({1.0, 1.0}, {1.0, 1.0}),
  };
  EXPECT_THROW(
      IrtAllocator{}.allocate(ResourceVector{2.0, 2.0, 2.0}, tenants),
      PreconditionError);
}

}  // namespace
}  // namespace rrf::alloc
