#include "alloc/drf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

AllocationEntity entity(ResourceVector share, ResourceVector demand,
                        double weight = 0.0, std::string name = "") {
  AllocationEntity e;
  e.initial_share = std::move(share);
  e.demand = std::move(demand);
  e.weight = weight;
  e.name = std::move(name);
  return e;
}

TEST(Drf, ReproducesNsdiExample) {
  // Ghodsi et al. NSDI'11 running example: capacity <9 CPU, 18 GB>,
  // user A tasks <1,4>, user B tasks <3,1>.  DRF equalizes dominant shares
  // at 2/3: A gets <3,12>, B gets <6,2>.
  const ResourceVector capacity{9.0, 18.0};
  const std::vector<AllocationEntity> users{
      entity({1.0, 1.0}, {100.0, 400.0}, 1.0, "A"),  // unbounded demand
      entity({1.0, 1.0}, {300.0, 100.0}, 1.0, "B"),
  };
  const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
  EXPECT_TRUE(r.allocations[0].approx_equal(ResourceVector{3.0, 12.0}, 1e-6));
  EXPECT_TRUE(r.allocations[1].approx_equal(ResourceVector{6.0, 2.0}, 1e-6));
}

TEST(Drf, AbundantCapacitySatisfiesAll) {
  const ResourceVector capacity{100.0, 100.0};
  const std::vector<AllocationEntity> users{
      entity({1.0, 1.0}, {5.0, 3.0}, 1.0),
      entity({1.0, 1.0}, {2.0, 9.0}, 1.0),
  };
  const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
  EXPECT_TRUE(r.allocations[0].approx_equal(ResourceVector{5.0, 3.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal(ResourceVector{2.0, 9.0}, 1e-9));
  EXPECT_NEAR(r.unallocated[0], 93.0, 1e-9);
  EXPECT_NEAR(r.unallocated[1], 88.0, 1e-9);
}

TEST(Drf, WeightsScaleDominantShares) {
  // Two identical users, weight 2 vs 1: allocations split 2:1 on the
  // contended resource.
  const ResourceVector capacity{9.0, 90.0};
  const std::vector<AllocationEntity> users{
      entity({2.0, 2.0}, {100.0, 10.0}, 2.0),
      entity({1.0, 1.0}, {100.0, 10.0}, 1.0),
  };
  const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
  EXPECT_NEAR(r.allocations[0][0], 6.0, 1e-6);
  EXPECT_NEAR(r.allocations[1][0], 3.0, 1e-6);
}

TEST(Drf, ZeroDemandEntityGetsNothingAndBlocksNothing) {
  const ResourceVector capacity{10.0, 10.0};
  const std::vector<AllocationEntity> users{
      entity({1.0, 1.0}, {0.0, 0.0}, 1.0),
      entity({1.0, 1.0}, {20.0, 20.0}, 1.0),
  };
  const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
  EXPECT_TRUE(r.allocations[0].approx_equal(ResourceVector{0.0, 0.0}, 1e-12));
  EXPECT_TRUE(r.allocations[1].approx_equal(ResourceVector{10.0, 10.0}, 1e-6));
}

TEST(Drf, FrozenUserKeepsAllocationWhenOthersContinue) {
  // User A only demands CPU; B demands CPU+RAM.  When CPU saturates both
  // freeze; C (RAM only) continues to its demand.
  const ResourceVector capacity{10.0, 10.0};
  const std::vector<AllocationEntity> users{
      entity({1.0, 1.0}, {20.0, 0.0}, 1.0, "A"),
      entity({1.0, 1.0}, {20.0, 4.0}, 1.0, "B"),
      entity({1.0, 1.0}, {0.0, 8.0}, 1.0, "C"),
  };
  const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
  // A and B split CPU equally (same weight, same dominant resource).
  EXPECT_NEAR(r.allocations[0][0], 5.0, 1e-6);
  EXPECT_NEAR(r.allocations[1][0], 5.0, 1e-6);
  // C is satisfied: RAM is not contended once B froze.
  EXPECT_NEAR(r.allocations[2][1], 8.0, 1e-6);
}

TEST(Drf, NeverOverAllocatesRandomized) {
  Rng rng(21);
  for (int t = 0; t < 300; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 10));
    std::vector<AllocationEntity> users;
    ResourceVector capacity{rng.uniform(5.0, 50.0), rng.uniform(5.0, 50.0)};
    for (std::size_t i = 0; i < m; ++i) {
      users.push_back(entity({1.0, 1.0},
                             {rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)},
                             rng.uniform(0.5, 3.0)));
    }
    const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
    ResourceVector total(2);
    for (const auto& a : r.allocations) {
      EXPECT_TRUE(a.all_nonneg(1e-9));
      total += a;
    }
    EXPECT_TRUE(total.all_le(capacity, 1e-6));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(r.allocations[i].all_le(users[i].demand, 1e-6));
    }
  }
}

TEST(Drf, UnsatisfiedUsersHaveEqualWeightedDominantShares) {
  // The defining DRF invariant: among users frozen by the same exhaustion
  // event, weighted dominant shares are equal.
  Rng rng(22);
  for (int t = 0; t < 100; ++t) {
    std::vector<AllocationEntity> users;
    const ResourceVector capacity{30.0, 30.0};
    const std::size_t m = 4;
    for (std::size_t i = 0; i < m; ++i) {
      // Everyone demands both resources heavily: single exhaustion event.
      users.push_back(entity({1.0, 1.0},
                             {rng.uniform(20.0, 40.0), rng.uniform(20.0, 40.0)},
                             1.0));
    }
    const AllocationResult r = DrfAllocator{}.allocate(capacity, users);
    double ds0 = -1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double ds = r.allocations[i].dominant_share(capacity);
      if (ds0 < 0) {
        ds0 = ds;
      } else {
        EXPECT_NEAR(ds, ds0, 1e-6);
      }
    }
  }
}

TEST(Drf, DemandOnZeroCapacityThrows) {
  const ResourceVector capacity{10.0, 0.0};
  const std::vector<AllocationEntity> users{
      entity({1.0, 1.0}, {1.0, 1.0}, 1.0)};
  EXPECT_THROW(DrfAllocator{}.allocate(capacity, users), PreconditionError);
}

// Near the top of the double range a user's filling rate times its demand
// overflows to inf, so the exhaustion step is 0 and nobody advances.  The
// event loop must stop with a typed error, not spin forever; 1e12 inputs
// still allocate (tests/data/entities_drf_overflow.csv is the CLI case).
TEST(Drf, OverflowingFillRateThrowsInsteadOfHanging) {
  for (const double big : {1e160, 1e200, 1e308}) {
    const std::vector<AllocationEntity> users{
        entity({big, 1.0}, {big, 2.0}), entity({big, 1.0}, {0.0, 0.0})};
    const ResourceVector capacity{1.7 * big, 2.0};
    EXPECT_THROW(DrfAllocator{}.allocate(capacity, users), DomainError)
        << big;
  }
  const std::vector<AllocationEntity> users{
      entity({1e12, 1.0}, {1e12, 2.0}), entity({1e12, 1.0}, {0.0, 0.0})};
  const AllocationResult r =
      DrfAllocator{}.allocate(ResourceVector{1.7e12, 2.0}, users);
  EXPECT_DOUBLE_EQ(r.allocations[0][1], 2.0);
  EXPECT_DOUBLE_EQ(r.allocations[0][0], 1e12);
}

// --- the event loop that rescanned every user and type, kept as the
// reference the active-list loop must match bit for bit ---

constexpr double kRefEps = 1e-9;

AllocationResult reference_drf(const ResourceVector& capacity,
                               std::span<const AllocationEntity> entities) {
  validate_entities(capacity, entities);
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();

  AllocationResult result;
  result.allocations.assign(m, ResourceVector(p));
  ResourceVector remaining = capacity;

  std::vector<double> ds(m, 0.0);
  std::vector<double> rate(m, 0.0);
  std::vector<double> x(m, 0.0);
  std::vector<char> active(m, 0);

  for (std::size_t i = 0; i < m; ++i) {
    double d = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      if (entities[i].demand[k] > 0.0) {
        RRF_REQUIRE(capacity[k] > 0.0,
                    "demand on a resource with zero capacity");
        d = std::max(d, entities[i].demand[k] / capacity[k]);
      }
    }
    ds[i] = d;
    if (d > 0.0) {
      const double w = entities[i].effective_weight();
      RRF_REQUIRE(w > 0.0, "DRF requires positive weights for demanders");
      rate[i] = w / d;
      active[i] = 1;
    } else {
      x[i] = 1.0;  // nothing demanded: trivially satisfied
    }
  }

  double g = 0.0;
  unsigned exhausted = 0;  // bit k: type k ran out (p <= 4)
  for (;;) {
    // Next user-saturation event.
    double dg_user = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (!active[i]) continue;
      // x_i reaches 1 when g grows by (1 - x_i) / rate_i.
      dg_user = std::min(dg_user, (1.0 - x[i]) / rate[i]);
    }
    if (!std::isfinite(dg_user)) break;  // no active users left

    // Next resource-exhaustion event.
    double dg_res = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < p; ++k) {
      double consumption_rate = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        if (active[i]) consumption_rate += rate[i] * entities[i].demand[k];
      }
      if (consumption_rate > kRefEps) {
        dg_res = std::min(dg_res, remaining[k] / consumption_rate);
      }
    }

    const double dg = std::min(dg_user, dg_res);

    // Advance every active user by dg.
    for (std::size_t i = 0; i < m; ++i) {
      if (!active[i]) continue;
      const double dx = dg * rate[i];
      x[i] = std::min(1.0, x[i] + dx);
      for (std::size_t k = 0; k < p; ++k) {
        remaining[k] -= dx * entities[i].demand[k];
      }
    }
    g += dg;

    // Freeze satisfied users.  Each step must freeze a user or exhaust a
    // type, so the loop ends after at most m + p steps.
    bool progressed = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (active[i] && x[i] >= 1.0 - kRefEps) {
        x[i] = 1.0;
        active[i] = 0;
        progressed = true;
      }
    }
    // Freeze users touching an exhausted resource.
    for (std::size_t k = 0; k < p; ++k) {
      if (remaining[k] <= kRefEps * std::max(1.0, capacity[k])) {
        progressed |= (exhausted & (1u << k)) == 0;
        exhausted |= 1u << k;
        remaining[k] = std::max(0.0, remaining[k]);
        for (std::size_t i = 0; i < m; ++i) {
          if (active[i] && entities[i].demand[k] > 0.0) {
            active[i] = 0;
            progressed = true;
          }
        }
      }
    }
    if (!progressed) {
      throw DomainError("drf: progressive filling stalled");
    }
  }

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < p; ++k) {
      result.allocations[i][k] = x[i] * entities[i].demand[k];
    }
  }
  result.unallocated = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    result.unallocated[k] = std::max(0.0, remaining[k]);
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One seeded DRF input: m in 1..257 (log-uniform, so most are small),
/// p in 1..4, demands at one magnitude (1, 1e-12 or 1e12) with zero
/// demands, idle users, repeated users and demands drawn from three
/// values (ties), explicit or default weights, and a capacity per type
/// between 0.1 and 1.5 times the summed demand (0 when nobody demands
/// the type, in one trial of four).
struct DrfInput {
  ResourceVector capacity;
  std::vector<AllocationEntity> users;
};

DrfInput random_drf_input(Rng& rng) {
  const auto p = static_cast<std::size_t>(rng.uniform_int(1, 4));
  const auto m = static_cast<std::size_t>(
      std::min(257.0, std::floor(std::pow(258.0, rng.uniform(0.0, 1.0)))));
  const double scales[] = {1.0, 1e-12, 1e12};
  const double scale = scales[rng.uniform_int(0, 2)];
  const bool tied = rng.uniform(0.0, 1.0) < 0.3;
  DrfInput in{ResourceVector(p), {}};
  for (std::size_t i = 0; i < m; ++i) {
    if (i > 0 && rng.uniform(0.0, 1.0) < 0.1) {
      in.users.push_back(in.users[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      continue;
    }
    const bool idle = rng.uniform(0.0, 1.0) < 0.1;
    AllocationEntity e = entity(ResourceVector(p), ResourceVector(p));
    for (std::size_t k = 0; k < p; ++k) {
      e.initial_share[k] = scale * rng.uniform(0.5, 2.0);
      const double d = tied ? static_cast<double>(rng.uniform_int(1, 3))
                            : rng.uniform(0.1, 4.0);
      e.demand[k] = idle || rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : scale * d;
    }
    const double pick = rng.uniform(0.0, 1.0);
    e.weight = pick < 0.4   ? 0.0
               : pick < 0.7 ? static_cast<double>(rng.uniform_int(1, 2))
                            : rng.uniform(0.5, 4.0);
    in.users.push_back(e);
  }
  const bool zero_idle_types = rng.uniform(0.0, 1.0) < 0.25;
  for (std::size_t k = 0; k < p; ++k) {
    double total = 0.0;
    for (const AllocationEntity& e : in.users) total += e.demand[k];
    if (total == 0.0) {
      in.capacity[k] = zero_idle_types ? 0.0 : scale;
    } else {
      in.capacity[k] = total * rng.uniform(0.1, 1.5);
    }
  }
  return in;
}

// The active-list loop keeps every expression and every summation order
// of the event loop that rescanned all users and types, so over 10,000
// seeded inputs it gives the same bits through the entity API and
// through FlatColumns (one workspace reused across inputs of every size).
TEST(DrfReference, ActiveListLoopMatchesTheFullRescanBitForBit) {
  Rng rng(2025);
  const DrfAllocator drf;
  Workspace ws;
  std::vector<double> share, demand, weight, grant;
  ResourceVector unallocated;
  std::size_t compared = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const DrfInput in = random_drf_input(rng);
    const std::size_t p = in.capacity.size();
    const std::size_t m = in.users.size();
    const AllocationResult want = reference_drf(in.capacity, in.users);
    const AllocationResult entity_api = drf.allocate(in.capacity, in.users);

    share.resize(p * m);
    demand.resize(p * m);
    weight.resize(m);
    grant.assign(p * m, -1.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < p; ++k) {
        share[k * m + i] = in.users[i].initial_share[k];
        demand[k * m + i] = in.users[i].demand[k];
      }
      weight[i] = in.users[i].effective_weight();
    }
    drf.allocate_flat(in.capacity, FlatColumns{p, m, share, demand, weight, {}},
                      ws, grant, unallocated, nullptr);

    const std::string where = "trial " + std::to_string(trial) + " m" +
                              std::to_string(m) + " p" + std::to_string(p);
    ASSERT_EQ(entity_api.allocations.size(), m) << where;
    for (std::size_t k = 0; k < p; ++k) {
      ASSERT_TRUE(same_bits(entity_api.unallocated[k], want.unallocated[k]))
          << where << " type " << k;
      ASSERT_TRUE(same_bits(unallocated[k], want.unallocated[k]))
          << where << " type " << k;
      for (std::size_t i = 0; i < m; ++i) {
        const double a = want.allocations[i][k];
        ASSERT_TRUE(same_bits(entity_api.allocations[i][k], a))
            << where << " user " << i << " type " << k;
        ASSERT_TRUE(same_bits(grant[k * m + i], a))
            << where << " user " << i << " type " << k;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100000u);
}

// --- the paper's sequential variant ---

TEST(SequentialDrf, ReproducesPaperTableOneWdrfRow) {
  // Example 1 with shares 1:1:2.  Paper's WDRF allocation:
  // VM1 <6,3>, VM2 <7,1>, VM3 <7,6>.
  const ResourceVector capacity{20.0, 10.0};
  const std::vector<AllocationEntity> vms{
      entity({5.0, 2.5}, {6.0, 3.0}, 1.0, "VM1"),
      entity({5.0, 2.5}, {8.0, 1.0}, 1.0, "VM2"),
      entity({10.0, 5.0}, {8.0, 8.0}, 2.0, "VM3"),
  };
  const AllocationResult r = SequentialDrfAllocator{}.allocate(capacity, vms);
  EXPECT_TRUE(r.allocations[0].approx_equal(ResourceVector{6.0, 3.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal(ResourceVector{7.0, 1.0}, 1e-9));
  EXPECT_TRUE(r.allocations[2].approx_equal(ResourceVector{7.0, 6.0}, 1e-9));
  EXPECT_TRUE(r.total().approx_equal(capacity, 1e-9));
}

TEST(SequentialDrf, LyingPaysOffAsThePaperClaims) {
  // Theorem 3's counter-example: if VM1 inflates its demand to <7, 3.5>,
  // its weighted dominant share (7/20) still sorts first, so sequential
  // DRF satisfies the inflated claim fully: VM1 grabs an extra 1 GHz.
  const ResourceVector capacity{20.0, 10.0};
  std::vector<AllocationEntity> vms{
      entity({5.0, 2.5}, {6.0, 3.0}, 1.0, "VM1"),
      entity({5.0, 2.5}, {8.0, 1.0}, 1.0, "VM2"),
      entity({10.0, 5.0}, {8.0, 8.0}, 2.0, "VM3"),
  };
  const AllocationResult honest =
      SequentialDrfAllocator{}.allocate(capacity, vms);
  vms[0].demand = ResourceVector{7.0, 3.5};
  const AllocationResult lied =
      SequentialDrfAllocator{}.allocate(capacity, vms);
  EXPECT_GT(lied.allocations[0][0], honest.allocations[0][0] + 0.5);
}

TEST(SequentialDrf, AbundantCapacitySatisfiesAll) {
  const ResourceVector capacity{100.0, 100.0};
  const std::vector<AllocationEntity> vms{
      entity({1.0, 1.0}, {5.0, 3.0}, 1.0),
      entity({1.0, 1.0}, {2.0, 9.0}, 1.0),
  };
  const AllocationResult r = SequentialDrfAllocator{}.allocate(capacity, vms);
  EXPECT_TRUE(r.allocations[0].approx_equal(ResourceVector{5.0, 3.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal(ResourceVector{2.0, 9.0}, 1e-9));
}

TEST(SequentialDrf, NeverOverAllocatesRandomized) {
  Rng rng(23);
  for (int t = 0; t < 300; ++t) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 10));
    std::vector<AllocationEntity> users;
    const ResourceVector capacity{rng.uniform(5.0, 50.0),
                                  rng.uniform(5.0, 50.0)};
    for (std::size_t i = 0; i < m; ++i) {
      users.push_back(entity({1.0, 1.0},
                             {rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0)},
                             rng.uniform(0.5, 3.0)));
    }
    const AllocationResult r =
        SequentialDrfAllocator{}.allocate(capacity, users);
    ResourceVector total(2);
    for (const auto& a : r.allocations) {
      EXPECT_TRUE(a.all_nonneg(1e-9));
      total += a;
    }
    EXPECT_TRUE(total.all_le(capacity, 1e-6));
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_TRUE(r.allocations[i].all_le(users[i].demand, 1e-6));
    }
  }
}

}  // namespace
}  // namespace rrf::alloc
