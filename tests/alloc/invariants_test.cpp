// Algebraic invariants every allocation policy should satisfy:
//
//  * scale invariance — multiplying capacity, shares and demands by c > 0
//    scales every allocation by c (shares are an arbitrary currency);
//  * permutation invariance — reordering entities permutes allocations;
//  * idempotence — re-running the policy with demands set to the previous
//    allocations returns those allocations unchanged (a fixed point: once
//    everyone asks exactly what they hold, nothing moves).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "alloc/policy.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

std::vector<AllocationEntity> random_entities(Rng& rng, std::size_t m,
                                              ResourceVector* capacity) {
  std::vector<AllocationEntity> entities(m);
  *capacity = ResourceVector(2);
  for (auto& e : entities) {
    const double share = rng.uniform(100.0, 1000.0);
    e.initial_share = ResourceVector{share, share};
    e.demand = ResourceVector{share * rng.uniform(0.2, 2.2),
                              share * rng.uniform(0.2, 2.2)};
    *capacity += e.initial_share;
  }
  return entities;
}

class PolicyInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(PolicyInvariants, ScaleInvariance) {
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  Rng rng(201);
  for (int t = 0; t < 50; ++t) {
    ResourceVector capacity(2);
    const auto entities = random_entities(rng, 5, &capacity);
    const AllocationResult base = policy.allocate(capacity, entities);

    const double c = rng.uniform(0.1, 10.0);
    std::vector<AllocationEntity> scaled = entities;
    for (auto& e : scaled) {
      e.initial_share *= c;
      e.demand *= c;
      if (e.weight > 0.0) e.weight *= c;
    }
    const AllocationResult result =
        policy.allocate(capacity * c, scaled);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      EXPECT_TRUE(result.allocations[i].approx_equal(
          base.allocations[i] * c, 1e-6 * std::max(1.0, c)))
          << GetParam() << " trial " << t << " entity " << i;
    }
  }
}

TEST_P(PolicyInvariants, PermutationInvariance) {
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  Rng rng(202);
  for (int t = 0; t < 50; ++t) {
    ResourceVector capacity(2);
    const auto entities = random_entities(rng, 6, &capacity);
    const AllocationResult base = policy.allocate(capacity, entities);

    std::vector<std::size_t> perm(entities.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    std::vector<AllocationEntity> shuffled(entities.size());
    for (std::size_t i = 0; i < entities.size(); ++i) {
      shuffled[i] = entities[perm[i]];
    }
    const AllocationResult result = policy.allocate(capacity, shuffled);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      EXPECT_TRUE(result.allocations[i].approx_equal(
          base.allocations[perm[i]], 1e-6))
          << GetParam() << " trial " << t;
    }
  }
}

TEST_P(PolicyInvariants, AllocationIsAFixedPoint) {
  // T-shirt ignores demand, so the fixed-point property is trivial there;
  // for the sharing policies it means a stable system does not churn.
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  Rng rng(203);
  for (int t = 0; t < 50; ++t) {
    ResourceVector capacity(2);
    auto entities = random_entities(rng, 5, &capacity);
    const AllocationResult first = policy.allocate(capacity, entities);

    std::vector<AllocationEntity> again = entities;
    for (std::size_t i = 0; i < entities.size(); ++i) {
      again[i].demand = first.allocations[i];
    }
    const AllocationResult second = policy.allocate(capacity, again);
    for (std::size_t i = 0; i < entities.size(); ++i) {
      if (GetParam() == "tshirt") continue;
      EXPECT_TRUE(second.allocations[i].approx_equal(first.allocations[i],
                                                     1e-6))
          << GetParam() << " trial " << t << " entity " << i;
    }
  }
}

TEST_P(PolicyInvariants, DuplicatedEntitiesSplitEvenly) {
  // Two identical entities (same shares, same demands) must receive
  // identical allocations — anonymity.
  const Allocator& policy = *alloc::policy(GetParam()).allocator;
  Rng rng(204);
  for (int t = 0; t < 50; ++t) {
    ResourceVector capacity(2);
    auto entities = random_entities(rng, 4, &capacity);
    entities.push_back(entities.front());
    capacity += entities.front().initial_share;
    const AllocationResult result = policy.allocate(capacity, entities);
    EXPECT_TRUE(result.allocations.front().approx_equal(
        result.allocations.back(), 1e-6))
        << GetParam() << " trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariants,
                         ::testing::ValuesIn(policy_names()));

}  // namespace
}  // namespace rrf::alloc
