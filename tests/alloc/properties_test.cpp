#include "alloc/properties.hpp"

#include <gtest/gtest.h>

#include "alloc/drf.hpp"
#include "alloc/irt.hpp"
#include "alloc/policy.hpp"
#include "alloc/rrf.hpp"
#include "alloc/tshirt.hpp"
#include "alloc/wmmf.hpp"

namespace rrf::alloc {
namespace {

constexpr std::size_t kTrials = 150;

TEST(SatisfiedValue, MinOfAllocAndDemand) {
  EXPECT_DOUBLE_EQ(
      satisfied_value(ResourceVector{5.0, 10.0}, ResourceVector{8.0, 4.0}),
      9.0);
}

TEST(Scenario, GeneratorProducesValidEntities) {
  Rng rng(71);
  ScenarioOptions opts;
  for (int t = 0; t < 50; ++t) {
    ResourceVector capacity(2);
    const auto entities = random_scenario(rng, opts, &capacity);
    EXPECT_GE(entities.size(), opts.min_entities);
    EXPECT_LE(entities.size(), opts.max_entities);
    ResourceVector total(2);
    for (const auto& e : entities) {
      EXPECT_TRUE(e.initial_share.all_nonneg());
      EXPECT_TRUE(e.demand.all_nonneg());
      total += e.initial_share;
      // balanced_shares: the share vector is uniform across types.
      EXPECT_DOUBLE_EQ(e.initial_share[0], e.initial_share[1]);
    }
    EXPECT_TRUE(total.approx_equal(capacity, 1e-6));
  }
}

// --- Sharing incentive (paper Theorem 1: all WMMF-derived policies) ---

TEST(SharingIncentive, RrfHolds) {
  const auto report =
      check_sharing_incentive(RrfAllocator{}, Rng(101), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(SharingIncentive, IrtHolds) {
  const auto report =
      check_sharing_incentive(IrtAllocator{}, Rng(102), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(SharingIncentive, WmmfHolds) {
  const auto report =
      check_sharing_incentive(WmmfAllocator{}, Rng(103), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(SharingIncentive, TshirtHoldsTrivially) {
  const auto report =
      check_sharing_incentive(TShirtAllocator{}, Rng(104), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(SharingIncentive, DrfViolatesShareRelativeIncentive) {
  // Finding (documented in DESIGN.md §5): canonical DRF's sharing-incentive
  // theorem is relative to an *equal split*, not to weighted share
  // endowments.  Filling along the demand vector can leave a tenant with
  // less usable value than min(S, D) per type — so against the paper's
  // economic baseline, DRF violates sharing incentive in some scenarios.
  const auto report =
      check_sharing_incentive(DrfAllocator{}, Rng(105), kTrials);
  EXPECT_FALSE(report.holds());
  // Violations are common but not universal.
  EXPECT_LT(report.violation_rate(), 0.9);
}

// --- Gain-as-you-contribute (paper Theorem 2: only RRF) ---

TEST(GainAsYouContribute, RrfHolds) {
  const auto report =
      check_gain_as_you_contribute(RrfAllocator{}, Rng(111), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(GainAsYouContribute, WmmfViolates) {
  const auto report =
      check_gain_as_you_contribute(WmmfAllocator{}, Rng(112), kTrials);
  EXPECT_FALSE(report.holds());
  EXPECT_GT(report.violation_rate(), 0.2);
}

TEST(GainAsYouContribute, DrfViolates) {
  const auto report =
      check_gain_as_you_contribute(DrfAllocator{}, Rng(113), kTrials);
  EXPECT_FALSE(report.holds());
  EXPECT_GT(report.violation_rate(), 0.2);
}

// --- Strategy-proofness (paper Theorem 3: RRF yes, DRF no) ---

TEST(StrategyProofness, RrfOverReportingNeverPays) {
  // Theorem 3's actual claim: inflating demand cannot increase what a
  // tenant can use, and free-riding yields nothing.
  const auto report = check_strategy_proofness(
      RrfAllocator{}, Rng(121), kTrials, {}, Manipulation::kOverReport);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(StrategyProofness, RrfUnderReportingCanPay) {
  // Finding (documented in DESIGN.md §5): when the trading exchange rate
  // psi/SumLambda exceeds 1, a tenant profits by *under*-claiming one type
  // to pose as a contributor — the paper's sketch misses this case (its
  // own Table II has exchange rate exactly 1).
  const auto report = check_strategy_proofness(
      RrfAllocator{}, Rng(121), kTrials, {}, Manipulation::kUnderReport);
  EXPECT_FALSE(report.holds());
}

TEST(StrategyProofness, BudgetCappedRrfHolds) {
  // The rrf-sp extension caps gains at contributions (exchange rate <= 1),
  // closing the under-reporting loophole.
  const Allocator& policy = *alloc::policy("rrf-sp").allocator;
  const auto report = check_strategy_proofness(policy, Rng(121), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(SharingIncentive, BudgetCappedRrfHolds) {
  const Allocator& policy = *alloc::policy("rrf-sp").allocator;
  const auto report = check_sharing_incentive(policy, Rng(106), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(StrategyProofness, TshirtHoldsTrivially) {
  const auto report =
      check_strategy_proofness(TShirtAllocator{}, Rng(122), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(StrategyProofness, SequentialDrfViolates) {
  // The paper's Theorem 3 counter-example generalizes: inflating the claim
  // lets a small-dominant-share VM grab more under the sequential variant.
  const auto report =
      check_strategy_proofness(SequentialDrfAllocator{}, Rng(123), kTrials);
  EXPECT_FALSE(report.holds());
}

// --- Pareto efficiency & envy-freeness (the DRF property set) ---

TEST(ParetoEfficiency, WmmfHolds) {
  const auto report =
      check_pareto_efficiency(WmmfAllocator{}, Rng(141), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(ParetoEfficiency, TshirtViolates) {
  // Static partitions waste capacity whenever demands are skewed.
  const auto report =
      check_pareto_efficiency(TShirtAllocator{}, Rng(142), kTrials);
  EXPECT_FALSE(report.holds());
}

TEST(ParetoEfficiency, RrfForfeitsByDesign) {
  // Strict gain-as-you-contribute leaves surplus idle rather than feed
  // free riders — RRF trades Pareto efficiency for economic fairness.
  const auto report =
      check_pareto_efficiency(RrfAllocator{}, Rng(143), kTrials);
  EXPECT_FALSE(report.holds());
}

TEST(ParetoEfficiency, ProportionalFallbackRestoresIt) {
  IrtOptions options;
  options.fallback = IrtOptions::SurplusFallback::kProportionalToShare;
  const auto report = check_pareto_efficiency(IrtAllocator{options},
                                              Rng(144), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(EnvyFreeness, WmmfHolds) {
  const auto report =
      check_envy_freeness(WmmfAllocator{}, Rng(145), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(EnvyFreeness, TshirtHolds) {
  const auto report =
      check_envy_freeness(TShirtAllocator{}, Rng(146), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

// --- Monotonicity (the rest of the DRF property discussion) ---

TEST(PopulationMonotonicity, WmmfHolds) {
  const auto report =
      check_population_monotonicity(WmmfAllocator{}, Rng(151), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(PopulationMonotonicity, RrfHolds) {
  const auto report =
      check_population_monotonicity(RrfAllocator{}, Rng(152), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(ResourceMonotonicity, WmmfHolds) {
  const auto report =
      check_resource_monotonicity(WmmfAllocator{}, Rng(153), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

TEST(ResourceMonotonicity, TshirtHolds) {
  const auto report =
      check_resource_monotonicity(TShirtAllocator{}, Rng(154), kTrials);
  EXPECT_TRUE(report.holds()) << report.first_example;
}

// --- Structural safety for every policy ---

class CapacitySafety : public ::testing::TestWithParam<std::string> {};

TEST_P(CapacitySafety, NoPolicyOverAllocates) {
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  const auto report = check_capacity_safety(policy, Rng(131), kTrials);
  EXPECT_TRUE(report.holds())
      << GetParam() << ": " << report.first_example;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CapacitySafety,
                         ::testing::ValuesIn(policy_names()));

// Skewed (unbalanced) share vectors stress the same safety property.
class CapacitySafetySkewed : public ::testing::TestWithParam<std::string> {};

TEST_P(CapacitySafetySkewed, NoPolicyOverAllocates) {
  ScenarioOptions opts;
  opts.balanced_shares = false;
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  const auto report =
      check_capacity_safety(policy, Rng(132), kTrials, opts);
  EXPECT_TRUE(report.holds())
      << GetParam() << ": " << report.first_example;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CapacitySafetySkewed,
                         ::testing::ValuesIn(policy_names()));

}  // namespace
}  // namespace rrf::alloc
