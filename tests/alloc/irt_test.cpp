#include "alloc/irt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
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

/// The paper's Table II scenario, in shares (1 GHz = 100, 1 GB = 200).
std::vector<AllocationEntity> table2_entities() {
  return {
      entity({500.0, 500.0}, {600.0, 600.0}, "VM1"),
      entity({500.0, 500.0}, {800.0, 200.0}, "VM2"),
      entity({1000.0, 1000.0}, {800.0, 1600.0}, "VM3"),
      entity({1000.0, 1000.0}, {900.0, 1200.0}, "VM4"),
  };
}
const ResourceVector kTable2Capacity{3000.0, 3000.0};

TEST(Irt, TotalContributionsMatchTableTwo) {
  const auto entities = table2_entities();
  const auto lambda = IrtAllocator::total_contributions(entities);
  EXPECT_DOUBLE_EQ(lambda[0], 0.0);    // VM1 contributes nothing
  EXPECT_DOUBLE_EQ(lambda[1], 300.0);  // VM2: 300 RAM shares
  EXPECT_DOUBLE_EQ(lambda[2], 200.0);  // VM3: 200 CPU shares
  EXPECT_DOUBLE_EQ(lambda[3], 100.0);  // VM4: 100 CPU shares
}

TEST(Irt, ReproducesPaperTableTwo) {
  // Expected share allocation (Table II):
  //   VM1 <500, 500>, VM2 <800, 200>, VM3 <800, 1200>, VM4 <900, 1100>.
  const auto entities = table2_entities();
  const AllocationResult r =
      IrtAllocator{}.allocate(kTable2Capacity, entities);
  EXPECT_TRUE(r.allocations[0].approx_equal({500.0, 500.0}, 1e-6))
      << r.allocations[0];
  EXPECT_TRUE(r.allocations[1].approx_equal({800.0, 200.0}, 1e-6))
      << r.allocations[1];
  EXPECT_TRUE(r.allocations[2].approx_equal({800.0, 1200.0}, 1e-6))
      << r.allocations[2];
  EXPECT_TRUE(r.allocations[3].approx_equal({900.0, 1100.0}, 1e-6))
      << r.allocations[3];
  EXPECT_TRUE(r.total().approx_equal(kTable2Capacity, 1e-6));
  EXPECT_TRUE(r.unallocated.approx_equal({0.0, 0.0}, 1e-6));
}

TEST(Irt, LinearSearchAgreesWithBinarySearch) {
  IrtOptions linear;
  linear.search = IrtOptions::Search::kLinear;
  const IrtAllocator bin{};
  const IrtAllocator lin{linear};

  Rng rng(31);
  for (int t = 0; t < 300; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<AllocationEntity> entities;
    ResourceVector capacity(2);
    for (std::size_t i = 0; i < m; ++i) {
      ResourceVector share{rng.uniform(100.0, 1000.0),
                           rng.uniform(100.0, 1000.0)};
      ResourceVector demand{share[0] * rng.uniform(0.2, 2.2),
                            share[1] * rng.uniform(0.2, 2.2)};
      capacity += share;
      entities.push_back(entity(std::move(share), std::move(demand)));
    }
    const AllocationResult a = bin.allocate(capacity, entities);
    const AllocationResult b = lin.allocate(capacity, entities);
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(a.allocations[i].approx_equal(b.allocations[i], 1e-6))
          << "trial " << t << " entity " << i;
    }
  }
}

TEST(Irt, TraceExposesCategoriesForTableTwo) {
  const auto entities = table2_entities();
  std::vector<IrtTypeTrace> traces;
  IrtAllocator{}.allocate_traced(kTable2Capacity, entities, &traces);
  ASSERT_EQ(traces.size(), 2u);
  // CPU: VM3 and VM4 contribute; VM2 capped at demand as well (v = 3).
  EXPECT_EQ(traces[0].contributor_count, 2u);
  EXPECT_EQ(traces[0].capped_count, 3u);
  // CPU order: VM3 (U=0.8), VM4 (0.9), then VM2 (V=1), VM1 (V=inf).
  EXPECT_EQ(traces[0].order, (std::vector<std::size_t>{2, 3, 1, 0}));
  // Memory: only VM2 contributes; psi = 300 shares redistributed.
  EXPECT_EQ(traces[1].contributor_count, 1u);
  EXPECT_EQ(traces[1].capped_count, 1u);
  EXPECT_NEAR(traces[1].redistributed, 300.0, 1e-9);
  // Memory order: VM2 (U=0.4), VM4 (V=2), VM3 (V=3), VM1 (V=inf).
  EXPECT_EQ(traces[1].order, (std::vector<std::size_t>{1, 3, 2, 0}));
}

/// The order std::sort gives each type under IRT's three-level comparator:
/// contributors first, then ascending key (U = D/S for contributors,
/// V = (D - S)/Lambda otherwise), then ascending index.  The reference the
/// branch-free merge must reproduce.
std::vector<std::vector<std::size_t>> reference_orders(
    std::span<const AllocationEntity> entities) {
  const std::vector<double> lambda =
      IrtAllocator::total_contributions(entities);
  const std::size_t m = entities.size();
  const std::size_t p = entities.front().initial_share.size();
  std::vector<std::vector<std::size_t>> orders(p);
  for (std::size_t k = 0; k < p; ++k) {
    std::vector<char> contributor(m);
    std::vector<double> key(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double s = entities[i].initial_share[k];
      const double d = entities[i].demand[k];
      contributor[i] = d < s - 1e-9 ? 1 : 0;
      if (contributor[i]) {
        key[i] = s > 0.0 ? d / s : 0.0;
      } else {
        const double need = d - s;
        key[i] = need <= 0.0        ? 0.0
                 : lambda[i] > 0.0 ? need / lambda[i]
                                   : std::numeric_limits<double>::infinity();
      }
    }
    orders[k].resize(m);
    std::iota(orders[k].begin(), orders[k].end(), std::size_t{0});
    std::sort(orders[k].begin(), orders[k].end(),
              [&](std::size_t a, std::size_t b) {
                if (contributor[a] != contributor[b]) {
                  return contributor[a] > contributor[b];
                }
                if (key[a] != key[b]) return key[a] < key[b];
                return a < b;
              });
  }
  return orders;
}

// Seeded property: every per-type order allocate_traced reports equals
// std::sort under the three-level comparator, over sizes around the merge's
// run boundaries, tied keys, +inf keys (beneficiaries with Lambda = 0),
// -0.0 demands, a type where everyone contributes and one where nobody does.
TEST(Irt, OrderMatchesTheThreeLevelComparator) {
  Rng rng(2024);
  const std::vector<double> shares{100.0, 200.0, 400.0};
  const std::vector<double> factors{0.0, 0.5, 1.0, 1.5, 2.0};
  std::size_t inf_keys = 0, negative_zeros = 0, ties = 0;
  for (const std::size_t m : {1u, 2u, 3u, 16u, 17u, 32u, 100u, 257u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const bool tied = trial % 2 == 0;
      const bool all_contribute = trial % 4 == 3;
      std::vector<AllocationEntity> entities(m);
      ResourceVector capacity(3);
      for (std::size_t i = 0; i < m; ++i) {
        AllocationEntity& e = entities[i];
        e.initial_share = ResourceVector(3);
        e.demand = ResourceVector(3);
        // Every fifth entity wants more of everything: Lambda = 0.
        const bool free_rider =
            !all_contribute && rng.uniform_int(0, 4) == 0;
        for (std::size_t k = 0; k < 3; ++k) {
          const double s =
              tied ? shares[rng.uniform_int(0, 2)] : rng.uniform(50.0, 500.0);
          double d = s * (tied ? factors[rng.uniform_int(0, 4)]
                               : rng.uniform(0.0, 2.0));
          if (free_rider) d = s * 1.5;
          if (k == 0 && all_contribute) d = s * 0.5;
          if (k == 1) d = s * (d > s ? 2.0 : 1.0);  // nobody contributes
          if (d == 0.0 && rng.uniform_int(0, 1) == 0) d = -0.0;
          negative_zeros += std::signbit(d) ? 1 : 0;
          e.initial_share[k] = s;
          e.demand[k] = d;
          capacity[k] += s;
        }
        if (trial % 3 == 1) e.banked_contribution = rng.uniform(-100.0, 100.0);
      }
      std::vector<IrtTypeTrace> traces;
      IrtAllocator{}.allocate_traced(capacity, entities, &traces);
      const auto reference = reference_orders(entities);
      ASSERT_EQ(traces.size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(traces[k].order, reference[k])
            << "m " << m << " trial " << trial << " type " << k;
      }
      if (all_contribute) {
        EXPECT_EQ(traces[0].contributor_count, m) << "m " << m;
      }
      EXPECT_EQ(traces[1].contributor_count, 0u) << "m " << m;
      const auto lambda = IrtAllocator::total_contributions(entities);
      for (std::size_t i = 0; i < m; ++i) {
        inf_keys += lambda[i] == 0.0 &&
                    entities[i].demand[2] > entities[i].initial_share[2];
      }
      ties += tied ? 1 : 0;
    }
  }
  // The generator did produce the cases the property is about.
  EXPECT_GT(inf_keys, 0u);
  EXPECT_GT(negative_zeros, 0u);
  EXPECT_GT(ties, 0u);
}

TEST(Irt, FreeRiderGainsNothing) {
  // VM1 demands more than its share on both types but contributes nothing:
  // it must end exactly at its initial share.
  const auto entities = table2_entities();
  const AllocationResult r =
      IrtAllocator{}.allocate(kTable2Capacity, entities);
  EXPECT_TRUE(r.allocations[0].approx_equal(entities[0].initial_share, 1e-9));
}

TEST(Irt, GainProportionalToContribution) {
  // Table II memory: VM3 contributed 200 CPU shares, VM4 100; VM3's memory
  // gain (200) is exactly twice VM4's (100).
  const auto entities = table2_entities();
  const AllocationResult r =
      IrtAllocator{}.allocate(kTable2Capacity, entities);
  const double gain3 = r.allocations[2][1] - entities[2].initial_share[1];
  const double gain4 = r.allocations[3][1] - entities[3].initial_share[1];
  EXPECT_NEAR(gain3, 2.0 * gain4, 1e-9);
}

TEST(Irt, NoContentionEveryoneCappedAtDemand) {
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {300.0, 200.0}),
      entity({500.0, 500.0}, {400.0, 100.0}),
  };
  const ResourceVector capacity{1000.0, 1000.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  EXPECT_TRUE(r.allocations[0].approx_equal({300.0, 200.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal({400.0, 100.0}, 1e-9));
  EXPECT_TRUE(r.unallocated.approx_equal({300.0, 700.0}, 1e-9));
}

TEST(Irt, AllFreeRidersSurplusIdlesByDefault) {
  // One contributor frees CPU but every beneficiary has Lambda = 0:
  // the surplus is undistributable and must be reported idle.
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {200.0, 500.0}, "giver"),   // frees 300 CPU
      entity({500.0, 500.0}, {900.0, 500.0}, "rider"),   // contributes 0
  };
  const ResourceVector capacity{1000.0, 1000.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  EXPECT_TRUE(r.allocations[1].approx_equal({500.0, 500.0}, 1e-9));
  EXPECT_NEAR(r.unallocated[0], 300.0, 1e-9);
}

TEST(Irt, ProportionalFallbackSpreadsIdleSurplus) {
  IrtOptions opts;
  opts.fallback = IrtOptions::SurplusFallback::kProportionalToShare;
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {200.0, 500.0}, "giver"),
      entity({500.0, 500.0}, {900.0, 500.0}, "rider"),
  };
  const ResourceVector capacity{1000.0, 1000.0};
  const AllocationResult r =
      IrtAllocator{opts}.allocate(capacity, entities);
  // With the fallback the rider absorbs the 300 CPU surplus.
  EXPECT_NEAR(r.allocations[1][0], 800.0, 1e-9);
  EXPECT_NEAR(r.unallocated[0], 0.0, 1e-9);
}

TEST(Irt, MutualTradeBothBenefit) {
  // A frees RAM and needs CPU; B frees CPU and needs RAM — a clean swap.
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {800.0, 200.0}, "A"),
      entity({500.0, 500.0}, {200.0, 800.0}, "B"),
  };
  const ResourceVector capacity{1000.0, 1000.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  EXPECT_TRUE(r.allocations[0].approx_equal({800.0, 200.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal({200.0, 800.0}, 1e-9));
}

TEST(Irt, AsymmetricTradeSplitsByContribution) {
  // A frees 300 RAM, B frees 100 RAM; C frees 400 CPU.  A and B both need
  // 400 extra CPU but only 400 is available, so the CPU surplus is split
  // 3:1 by their contributions; C's RAM need (400) is exactly covered.
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {900.0, 200.0}, "A"),  // frees 300 RAM
      entity({500.0, 500.0}, {900.0, 400.0}, "B"),  // frees 100 RAM
      entity({500.0, 500.0}, {100.0, 900.0}, "C"),  // frees 400 CPU
  };
  const ResourceVector capacity{1500.0, 1500.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  EXPECT_NEAR(r.allocations[0][0], 500.0 + 300.0, 1e-9);
  EXPECT_NEAR(r.allocations[1][0], 500.0 + 100.0, 1e-9);
  EXPECT_NEAR(r.allocations[2][1], 900.0, 1e-9);
}

TEST(Irt, FullSurplusCoverageCapsEveryoneAtDemand) {
  // Variant where the freed CPU covers both beneficiaries entirely: then
  // everyone is capped at demand and nothing is idle.
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {700.0, 200.0}, "A"),
      entity({500.0, 500.0}, {700.0, 400.0}, "B"),
      entity({500.0, 500.0}, {100.0, 900.0}, "C"),
  };
  const ResourceVector capacity{1500.0, 1500.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  EXPECT_TRUE(r.allocations[0].approx_equal({700.0, 200.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal({700.0, 400.0}, 1e-9));
  EXPECT_TRUE(r.allocations[2].approx_equal({100.0, 900.0}, 1e-9));
  EXPECT_TRUE(r.unallocated.approx_equal({0.0, 0.0}, 1e-9));
}

TEST(Irt, ConservationUnderContentionRandomized) {
  Rng rng(37);
  for (int t = 0; t < 300; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 16));
    std::vector<AllocationEntity> entities;
    ResourceVector capacity(2);
    for (std::size_t i = 0; i < m; ++i) {
      ResourceVector share{rng.uniform(10.0, 1000.0),
                           rng.uniform(10.0, 1000.0)};
      ResourceVector demand{share[0] * rng.uniform(0.0, 2.5),
                            share[1] * rng.uniform(0.0, 2.5)};
      capacity += share;
      entities.push_back(entity(std::move(share), std::move(demand)));
    }
    const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
    ResourceVector total = r.unallocated;
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(r.allocations[i].all_nonneg(1e-9));
      total += r.allocations[i];
    }
    // Allocations + idle surplus exactly exhaust the pool.
    EXPECT_TRUE(total.approx_equal(capacity, 1e-6)) << "trial " << t;
  }
}

TEST(Irt, SatisfiedEntitiesNeverExceedDemand) {
  Rng rng(41);
  for (int t = 0; t < 200; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 10));
    std::vector<AllocationEntity> entities;
    ResourceVector capacity(2);
    for (std::size_t i = 0; i < m; ++i) {
      ResourceVector share{rng.uniform(10.0, 500.0),
                           rng.uniform(10.0, 500.0)};
      ResourceVector demand{share[0] * rng.uniform(0.1, 2.0),
                            share[1] * rng.uniform(0.1, 2.0)};
      capacity += share;
      entities.push_back(entity(std::move(share), std::move(demand)));
    }
    const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < 2; ++k) {
        // An entity is either capped at its demand or holds at least its
        // initial share (never above demand unless it kept its share).
        const double a = r.allocations[i][k];
        const double d = entities[i].demand[k];
        const double s = entities[i].initial_share[k];
        EXPECT_TRUE(a <= d + 1e-6 || a <= s + 1e-6)
            << "entity " << i << " type " << k;
      }
    }
  }
}

TEST(Irt, OvercommittedPoolScalesDownGracefully) {
  // Capacity below the sum of shares: the suffix is scaled, nothing
  // over-allocates, nothing goes negative.
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {600.0, 600.0}),
      entity({500.0, 500.0}, {600.0, 600.0}),
  };
  const ResourceVector capacity{600.0, 600.0};  // 60% of bought shares
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  ResourceVector total = r.unallocated;
  for (const auto& a : r.allocations) {
    EXPECT_TRUE(a.all_nonneg(1e-9));
    total += a;
  }
  EXPECT_TRUE(total.all_le(capacity, 1e-6));
}

TEST(Irt, SingleEntityKeepsMinOfShareAndDemand) {
  const std::vector<AllocationEntity> entities{
      entity({500.0, 500.0}, {900.0, 100.0})};
  const ResourceVector capacity{500.0, 500.0};
  const AllocationResult r = IrtAllocator{}.allocate(capacity, entities);
  EXPECT_NEAR(r.allocations[0][0], 500.0, 1e-9);  // capped by share
  EXPECT_NEAR(r.allocations[0][1], 100.0, 1e-9);  // capped by demand
}

TEST(Irt, ValidatesInput) {
  EXPECT_THROW(IrtAllocator{}.allocate(ResourceVector{100.0, 100.0},
                                       std::vector<AllocationEntity>{}),
               PreconditionError);
}

}  // namespace
}  // namespace rrf::alloc
