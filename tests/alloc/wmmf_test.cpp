#include "alloc/wmmf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

TEST(WeightedMaxMin, AbundantCapacityCapsAtDemand) {
  const std::vector<double> d{3.0, 5.0};
  const std::vector<double> w{1.0, 1.0};
  const auto a = weighted_max_min(100.0, d, w);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
  EXPECT_DOUBLE_EQ(a[1], 5.0);
}

TEST(WeightedMaxMin, EqualWeightsEqualSplit) {
  const std::vector<double> d{10.0, 10.0};
  const std::vector<double> w{1.0, 1.0};
  const auto a = weighted_max_min(10.0, d, w);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
  EXPECT_DOUBLE_EQ(a[1], 5.0);
}

TEST(WeightedMaxMin, SmallDemandSatisfiedFirst) {
  // Principle 1: smaller normalized demand is satisfied first, surplus
  // flows to the others.
  const std::vector<double> d{1.0, 10.0, 10.0};
  const std::vector<double> w{1.0, 1.0, 1.0};
  const auto a = weighted_max_min(9.0, d, w);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[1], 4.0);
  EXPECT_DOUBLE_EQ(a[2], 4.0);
}

TEST(WeightedMaxMin, WeightsSkewTheSplit) {
  const std::vector<double> d{10.0, 10.0};
  const std::vector<double> w{1.0, 3.0};
  const auto a = weighted_max_min(8.0, d, w);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 6.0);
}

TEST(WeightedMaxMin, ZeroWeightUserStarvesUnderContention) {
  const std::vector<double> d{5.0, 5.0};
  const std::vector<double> w{0.0, 1.0};
  const auto a = weighted_max_min(5.0, d, w);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 5.0);
}

TEST(WeightedMaxMin, ExactlyExhaustsContendedCapacity) {
  Rng rng(11);
  for (int t = 0; t < 200; ++t) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> d(n), w(n);
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = rng.uniform(0.0, 10.0);
      w[i] = rng.uniform(0.1, 5.0);
    }
    const double total = std::accumulate(d.begin(), d.end(), 0.0);
    const double capacity = rng.uniform(0.0, total);  // contended
    const auto a = weighted_max_min(capacity, d, w);
    const double used = std::accumulate(a.begin(), a.end(), 0.0);
    EXPECT_NEAR(used, capacity, 1e-9 * std::max(1.0, capacity));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(a[i], d[i] + 1e-9);
      EXPECT_GE(a[i], -1e-12);
    }
  }
}

TEST(WeightedMaxMin, WaterLevelIsMaxMin) {
  // Under contention, any user below her demand sits at the common level
  // alloc/weight; satisfied users are below or at the level.
  Rng rng(13);
  for (int t = 0; t < 100; ++t) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 10));
    std::vector<double> d(n), w(n);
    for (std::size_t i = 0; i < n; ++i) {
      d[i] = rng.uniform(1.0, 10.0);
      w[i] = rng.uniform(0.5, 4.0);
    }
    const double total = std::accumulate(d.begin(), d.end(), 0.0);
    const auto a = weighted_max_min(total * 0.6, d, w);
    double level = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i] < d[i] - 1e-9) {
        const double li = a[i] / w[i];
        if (level < 0) level = li;
        EXPECT_NEAR(a[i] / w[i], level, 1e-6);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (level > 0 && a[i] >= d[i] - 1e-9) {
        EXPECT_LE(d[i] / w[i], level + 1e-6);
      }
    }
  }
}

TEST(WeightedMaxMin, MismatchedInputsThrow) {
  const std::vector<double> d{1.0};
  const std::vector<double> w{1.0, 2.0};
  EXPECT_THROW(weighted_max_min(1.0, d, w), PreconditionError);
  const std::vector<double> w1{1.0};
  EXPECT_THROW(weighted_max_min(-1.0, d, w1), PreconditionError);
}

// --- the range guard ---

/// Runs the water-fill and expects a DomainError naming the normal range.
void expect_out_of_range(double capacity, const std::vector<double>& d,
                         const std::vector<double>& w) {
  try {
    weighted_max_min(capacity, d, w);
    ADD_FAILURE() << "no DomainError for capacity " << capacity;
  } catch (const DomainError& e) {
    EXPECT_NE(std::string(e.what()).find("normal double range"),
              std::string::npos)
        << e.what();
  }
}

TEST(WeightedMaxMin, RejectsProductsBelowTheNormalRange) {
  // 1e-300 * 1e-30 underflows to 0, so the test d*A <= R*w read 0 <= 0 and
  // satisfied both users: 3e-300 granted out of 1e-300.
  expect_out_of_range(1e-300, {1e-300, 2e-300}, {1e-30, 1e-30});
  expect_out_of_range(1e-300, {1e-300, 2e-300}, {1e-30, 2e-30});
}

TEST(WeightedMaxMin, RejectsAnOverflowingWeightSum) {
  // 1e308 + 1e308 is inf, so the level 1 / inf = 0 idled all the capacity.
  expect_out_of_range(1.0, {1.0, 1.0}, {1e308, 1e308});
  expect_out_of_range(1.0, {1.0, 1.0}, {1e308, 1.5e308});
}

TEST(WeightedMaxMin, RejectsDemandTimesWeightSumOverflow) {
  // 1e300 * 2e10 is inf, so inf <= inf satisfied the first user whole and
  // left the second nothing.
  expect_out_of_range(1e300, {1e300, 1e300}, {1e10, 1e10});
  expect_out_of_range(1e300, {1e300, 1e300}, {1e10, 2e10});
}

// --- the kernel against the std::sort walk it replaced ---

/// The water-fill before its single-weight path, verbatim: sort the
/// weighted users' indices by d/w, then walk once.  Every input the
/// kernel accepts must give these outputs bit for bit.
void reference_water_fill(double capacity, std::span<const double> demands,
                          std::span<const double> weights,
                          std::span<double> out,
                          std::vector<std::size_t>& order_scratch) {
  const std::size_t n = demands.size();
  std::fill(out.begin(), out.end(), 0.0);

  const double total_demand =
      std::accumulate(demands.begin(), demands.end(), 0.0);
  if (total_demand <= capacity) {
    // Abundant capacity: everyone is capped at demand (principle 2).
    std::copy(demands.begin(), demands.end(), out.begin());
    return;
  }

  // Contended: water-fill over the weighted users in increasing d/w order.
  std::vector<std::size_t>& order = order_scratch;
  order.clear();
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] > 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a] * weights[b] < demands[b] * weights[a];
  });

  double remaining = capacity;
  double active_weight = 0.0;
  for (std::size_t i : order) active_weight += weights[i];

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const std::size_t i = order[idx];
    // Would giving every remaining user the level d_i/w_i fit?
    if (demands[i] * active_weight <= remaining * weights[i]) {
      out[i] = demands[i];  // satisfied, surplus flows on
      remaining -= demands[i];
      active_weight -= weights[i];
    } else {
      // Water level found: all remaining users split `remaining` by weight.
      const double level = remaining / active_weight;
      for (std::size_t j = idx; j < order.size(); ++j) {
        const std::size_t u = order[j];
        out[u] = std::min(demands[u], level * weights[u]);
      }
      return;
    }
  }
}

std::vector<double> reference(double capacity, const std::vector<double>& d,
                              const std::vector<double>& w) {
  std::vector<double> out(d.size());
  std::vector<std::size_t> order;
  reference_water_fill(capacity, d, w, out, order);
  return out;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

template <class T>
std::vector<T> reversed(std::vector<T> v) {
  std::reverse(v.begin(), v.end());
  return v;
}

/// True when the reference's result depends on the order std::sort gives
/// tied keys: listing the users in reverse changes someone's output.
bool tie_order_shows(double capacity, const std::vector<double>& d,
                     const std::vector<double>& w) {
  return !bit_equal(reference(capacity, d, w),
                    reversed(reference(capacity, reversed(d), reversed(w))));
}

/// Requires the kernel to reproduce the reference bit for bit, through
/// both entry points and with a scratch reused from a larger call.
void expect_matches_reference(double capacity, const std::vector<double>& d,
                              const std::vector<double>& w,
                              const std::string& what) {
  const std::vector<double> expected = reference(capacity, d, w);
  const std::vector<double> got = weighted_max_min(capacity, d, w);
  std::vector<double> into(d.size(), -1.0);
  std::vector<std::size_t> scratch(d.size() + 3, 7);
  weighted_max_min_into(capacity, d, w, into, scratch);
  for (std::size_t i = 0; i < d.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << what << ", n " << d.size() << ", capacity " << capacity
        << ": user " << i << " got " << got[i] << ", reference "
        << expected[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(into[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << what << " (into), n " << d.size() << ": user " << i;
  }
}

constexpr std::size_t kSizes[] = {1, 2, 8, 16, 17, 32, 100, 257};

/// About half zero, a fifth from three repeated values, the rest spread.
std::vector<double> sparse_demands(Rng& rng, std::size_t n) {
  const double runs[] = {0.75, 1.5, 2.25};
  std::vector<double> d(n);
  for (double& x : d) {
    const double r = rng.uniform(0.0, 1.0);
    x = r < 0.5   ? 0.0
        : r < 0.7 ? runs[rng.uniform_int(0, 2)]
                  : rng.uniform(0.1, 4.0);
  }
  return d;
}

/// The capacities every family runs under: contended at several depths,
/// exactly the total, abundant and zero.
std::vector<double> capacities(const std::vector<double>& d) {
  const double total = std::accumulate(d.begin(), d.end(), 0.0);
  return {0.0, 0.05 * total, 0.3 * total, 0.6 * total, 0.95 * total, total,
          total + 1.0};
}

TEST(WeightedMaxMinReference, OneWeightMatchesBitForBit) {
  Rng rng(2301);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::vector<double> d = sparse_demands(rng, n);
      for (const double weight : {1.0, 0.3, 1.0 / 32.0, 7.77}) {
        const std::vector<double> w(n, weight);
        for (const double capacity : capacities(d)) {
          expect_matches_reference(capacity, d, w, "one weight");
        }
      }
    }
  }
}

TEST(WeightedMaxMinReference, MixedAndZeroWeightsMatchBitForBit) {
  Rng rng(2302);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::vector<double> d = sparse_demands(rng, n);
      std::vector<double> mixed(n);
      for (double& x : mixed) x = rng.uniform(0.1, 5.0);
      // One weight with some users' weight zeroed, and none weighted.
      std::vector<double> holes(n, 0.3);
      for (double& x : holes) {
        if (rng.uniform(0.0, 1.0) < 0.3) x = 0.0;
      }
      const std::vector<double> none(n, 0.0);
      for (const double capacity : capacities(d)) {
        expect_matches_reference(capacity, d, mixed, "mixed weights");
        expect_matches_reference(capacity, d, holes, "zero weights");
        expect_matches_reference(capacity, d, none, "no weight");
      }
    }
  }
}

TEST(WeightedMaxMinReference, NegativeZeroDemandsMatchBitForBit) {
  // -0.0's bits sort above every positive double's, so the single-weight
  // path must leave such calls to the index sort.
  Rng rng(2303);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> d = sparse_demands(rng, n);
      for (double& x : d) {
        if (x == 0.0 && rng.uniform(0.0, 1.0) < 0.5) x = -0.0;
      }
      const std::vector<double> w(n, 0.3);
      for (const double capacity : capacities(d)) {
        expect_matches_reference(capacity, d, w, "-0.0 demands");
      }
    }
  }
}

TEST(WeightedMaxMinReference, RunStraddlingTheLevelMatchesBitForBit) {
  // A run of identical demands at the water level: in exact arithmetic the
  // level is the run's value, so rounding decides each copy's test and the
  // walk can satisfy some copies and stop on another.  Which copies it
  // satisfies is then std::sort's tie order.
  Rng rng(2304);
  int tie_order_cases = 0;
  for (const std::size_t n : kSizes) {
    if (n < 8) continue;
    for (int trial = 0; trial < 40; ++trial) {
      const double v = rng.uniform(0.5, 3.0);
      std::vector<double> d(n);
      for (double& x : d) {
        const double r = rng.uniform(0.0, 1.0);
        x = r < 0.3   ? 0.0
            : r < 0.6 ? v
            : r < 0.8 ? rng.uniform(0.01, v)
                      : rng.uniform(v, 2.0 * v);
      }
      const double weight = rng.uniform(0.05, 3.0);
      const std::vector<double> w(n, weight);
      double at_level = 0.0;
      for (const double x : d) at_level += std::min(x, v);
      for (int ulps = -6; ulps <= 6; ++ulps) {
        const double capacity =
            at_level * (1.0 + ulps * std::ldexp(1.0, -52));
        expect_matches_reference(capacity, d, w, "run at the level");
        expect_matches_reference(capacity, reversed(d), w,
                                 "run at the level, reversed");
        tie_order_cases += tie_order_shows(capacity, d, w);
      }
    }
  }
  // The family must reach the case it exists for.
  EXPECT_GT(tie_order_cases, 0);
}

TEST(WeightedMaxMinReference, DemandsOneUlpApartMatchBitForBit) {
  // x and its successor round to one product with w, so the sort key ties
  // two different demands and the order std::sort gives them feeds the
  // remaining-capacity sums.
  Rng rng(2305);
  int tie_order_cases = 0;
  for (const std::size_t n : kSizes) {
    if (n < 8) continue;
    for (int trial = 0; trial < 60; ++trial) {
      const double weight = rng.uniform(0.1, 5.0);
      double x = rng.uniform(0.5, 1.5);
      while (x * weight != std::nextafter(x, 2.0) * weight) {
        x = rng.uniform(0.5, 1.5);
      }
      std::vector<double> d(n);
      for (double& e : d) {
        e = rng.uniform(0.0, 1.0) < 0.4 ? 0.0 : rng.uniform(0.1, 4.0);
      }
      const auto pick = [&] {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      };
      const std::size_t a = pick();
      std::size_t b = pick();
      while (b == a) b = pick();
      d[a] = x;
      d[b] = std::nextafter(x, 2.0);
      const std::vector<double> w(n, weight);
      double below = 0.0;  // both tied demands sit below a level of 2
      for (const double e : d) below += std::min(e, 2.0);
      for (const double capacity : {below, 0.98 * below, 0.9 * below}) {
        expect_matches_reference(capacity, d, w, "one ulp apart");
        expect_matches_reference(capacity, reversed(d), w,
                                 "one ulp apart, reversed");
        tie_order_cases += tie_order_shows(capacity, d, w);
      }
    }
  }
  EXPECT_GT(tie_order_cases, 0);
}

TEST(WeightedMaxMinReference, UnderflowingProductIsRejected) {
  // A nonzero demand whose product with w underflows to 0 would tie with
  // the zero demands; the range guard refuses the call instead.
  for (const std::size_t n : kSizes) {
    if (n < 2) continue;
    std::vector<double> d(n, 1.0);
    d[0] = 0.0;
    d[n - 1] = 1e-300;
    const std::vector<double> w(n, 1e-30);
    const double total = std::accumulate(d.begin(), d.end(), 0.0);
    EXPECT_THROW(weighted_max_min(0.5 * total, d, w), DomainError)
        << "n " << n;
  }
}

// --- multi-resource allocator ---

AllocationEntity entity(ResourceVector share, ResourceVector demand,
                        std::string name = "") {
  AllocationEntity e;
  e.initial_share = std::move(share);
  e.demand = std::move(demand);
  e.name = std::move(name);
  return e;
}

TEST(WmmfAllocator, ReproducesPaperTableOne) {
  // Example 1: pool <20 GHz, 10 GB>, shares 1:1:2,
  // demands VM1 <6,3>, VM2 <8,1>, VM3 <8,8>.
  // Paper's WMMF row: VM1 <6,3>, VM2 <6,1>, VM3 <8,6>.
  const ResourceVector capacity{20.0, 10.0};
  const std::vector<AllocationEntity> vms{
      entity({5.0, 2.5}, {6.0, 3.0}, "VM1"),
      entity({5.0, 2.5}, {8.0, 1.0}, "VM2"),
      entity({10.0, 5.0}, {8.0, 8.0}, "VM3"),
  };
  const WmmfAllocator wmmf;
  const AllocationResult r = wmmf.allocate(capacity, vms);
  EXPECT_TRUE(r.allocations[0].approx_equal(ResourceVector{6.0, 3.0}, 1e-9));
  EXPECT_TRUE(r.allocations[1].approx_equal(ResourceVector{6.0, 1.0}, 1e-9));
  EXPECT_TRUE(r.allocations[2].approx_equal(ResourceVector{8.0, 6.0}, 1e-9));
  EXPECT_TRUE(r.total().approx_equal(capacity, 1e-9));
}

TEST(WmmfAllocator, PerTypeIndependence) {
  // CPU contended, RAM abundant: RAM demands met exactly, CPU water-filled.
  const ResourceVector capacity{10.0, 100.0};
  const std::vector<AllocationEntity> vms{
      entity({5.0, 5.0}, {8.0, 2.0}),
      entity({5.0, 5.0}, {8.0, 3.0}),
  };
  const AllocationResult r = WmmfAllocator{}.allocate(capacity, vms);
  EXPECT_DOUBLE_EQ(r.allocations[0][0], 5.0);
  EXPECT_DOUBLE_EQ(r.allocations[1][0], 5.0);
  EXPECT_DOUBLE_EQ(r.allocations[0][1], 2.0);
  EXPECT_DOUBLE_EQ(r.allocations[1][1], 3.0);
  EXPECT_DOUBLE_EQ(r.unallocated[1], 95.0);
}

TEST(WmmfAllocator, FallsBackToScalarWeightWhenTypeUnowned) {
  // Nobody owns RAM shares; the RAM capacity is still shared by scalar
  // weight instead of idling.
  const ResourceVector capacity{10.0, 10.0};
  std::vector<AllocationEntity> vms{
      entity({6.0, 0.0}, {10.0, 10.0}),
      entity({4.0, 0.0}, {10.0, 10.0}),
  };
  vms[0].weight = 6.0;
  vms[1].weight = 4.0;
  const AllocationResult r = WmmfAllocator{}.allocate(capacity, vms);
  EXPECT_DOUBLE_EQ(r.allocations[0][1], 6.0);
  EXPECT_DOUBLE_EQ(r.allocations[1][1], 4.0);
}

TEST(WmmfAllocator, ValidatesInput) {
  const ResourceVector capacity{10.0, 10.0};
  EXPECT_THROW(
      WmmfAllocator{}.allocate(capacity, std::vector<AllocationEntity>{}),
      PreconditionError);
  std::vector<AllocationEntity> bad{entity({1.0, 1.0}, {-1.0, 0.0})};
  EXPECT_THROW(WmmfAllocator{}.allocate(capacity, bad), PreconditionError);
}

}  // namespace
}  // namespace rrf::alloc
