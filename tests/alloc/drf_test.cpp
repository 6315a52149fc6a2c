#include "alloc/drf.hpp"

#include <gtest/gtest.h>

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
