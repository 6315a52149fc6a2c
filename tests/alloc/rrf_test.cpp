#include "alloc/rrf.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

AllocationEntity vm(ResourceVector share, ResourceVector demand,
                    std::string name = "") {
  AllocationEntity e;
  e.initial_share = std::move(share);
  e.demand = std::move(demand);
  e.name = std::move(name);
  return e;
}

TEST(TenantGroup, AggregateSumsVms) {
  TenantGroup t;
  t.name = "A";
  t.vms.push_back(vm({300.0, 400.0}, {100.0, 600.0}));
  t.vms.push_back(vm({200.0, 100.0}, {300.0, 100.0}));
  const AllocationEntity agg = t.aggregate();
  EXPECT_TRUE(agg.initial_share.approx_equal({500.0, 500.0}, 1e-12));
  EXPECT_TRUE(agg.demand.approx_equal({400.0, 700.0}, 1e-12));
  EXPECT_EQ(agg.name, "A");
}

TEST(TenantGroup, EmptyTenantThrows) {
  TenantGroup t;
  EXPECT_THROW(t.aggregate(), PreconditionError);
}

TEST(Rrf, FlatAllocationEqualsIrt) {
  // Single-VM tenants: RRF degenerates to IRT exactly.
  const std::vector<AllocationEntity> entities{
      vm({500.0, 500.0}, {600.0, 600.0}),
      vm({500.0, 500.0}, {800.0, 200.0}),
      vm({1000.0, 1000.0}, {800.0, 1600.0}),
      vm({1000.0, 1000.0}, {900.0, 1200.0}),
  };
  const ResourceVector capacity{3000.0, 3000.0};
  const AllocationResult a = RrfAllocator{}.allocate(capacity, entities);
  const AllocationResult b = IrtAllocator{}.allocate(capacity, entities);
  for (std::size_t i = 0; i < entities.size(); ++i) {
    EXPECT_TRUE(a.allocations[i].approx_equal(b.allocations[i], 1e-12));
  }
}

TEST(Rrf, HierarchicalFigureOneStyleScenario) {
  // Two tenants; tenant A's VM1 under-uses RAM while VM2 needs more: IWA
  // moves it inside the tenant.  Tenant B trades CPU for A's RAM surplus.
  TenantGroup a;
  a.name = "A";
  a.vms.push_back(vm({500.0, 500.0}, {500.0, 300.0}, "A/vm1"));
  a.vms.push_back(vm({500.0, 500.0}, {500.0, 700.0}, "A/vm2"));
  TenantGroup b;
  b.name = "B";
  b.vms.push_back(vm({500.0, 500.0}, {300.0, 500.0}, "B/vm1"));
  b.vms.push_back(vm({500.0, 500.0}, {500.0, 500.0}, "B/vm2"));

  const ResourceVector capacity{2000.0, 2000.0};
  const std::vector<TenantGroup> tenants{a, b};
  const HierarchicalResult r =
      RrfAllocator{}.allocate_hierarchical(capacity, tenants);

  // Tenant level: A's demand <1000,1000> == its share; B frees 200 CPU.
  EXPECT_TRUE(r.tenant_level.allocations[0].approx_equal({1000.0, 1000.0},
                                                         1e-9));
  EXPECT_TRUE(r.tenant_level.allocations[1].approx_equal({800.0, 1000.0},
                                                         1e-9));

  // Inside tenant A, IWA moved 200 RAM from vm1 to vm2.
  EXPECT_TRUE(r.vm_allocations[0][0].approx_equal({500.0, 300.0}, 1e-9));
  EXPECT_TRUE(r.vm_allocations[0][1].approx_equal({500.0, 700.0}, 1e-9));
}

TEST(Rrf, VmAllocationsNeverExceedTenantGrant) {
  Rng rng(61);
  const RrfAllocator rrf;
  for (int t = 0; t < 100; ++t) {
    const std::size_t tenant_count =
        static_cast<std::size_t>(rng.uniform_int(2, 6));
    std::vector<TenantGroup> tenants(tenant_count);
    ResourceVector capacity(2);
    for (auto& tn : tenants) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 5));
      for (std::size_t j = 0; j < n; ++j) {
        ResourceVector share{rng.uniform(50.0, 500.0),
                             rng.uniform(50.0, 500.0)};
        ResourceVector demand{share[0] * rng.uniform(0.1, 2.0),
                              share[1] * rng.uniform(0.1, 2.0)};
        capacity += share;
        tn.vms.push_back(vm(std::move(share), std::move(demand)));
      }
    }
    const HierarchicalResult r = rrf.allocate_hierarchical(capacity, tenants);
    ASSERT_EQ(r.vm_allocations.size(), tenant_count);
    for (std::size_t i = 0; i < tenant_count; ++i) {
      ResourceVector used = r.tenant_headroom[i];
      for (const auto& a : r.vm_allocations[i]) {
        EXPECT_TRUE(a.all_nonneg(1e-9));
        used += a;
      }
      EXPECT_TRUE(used.all_le(r.tenant_level.allocations[i], 1e-6))
          << "tenant " << i << " trial " << t;
    }
  }
}

TEST(Rrf, VmAllocationsCappedAtVmDemand) {
  Rng rng(67);
  const RrfAllocator rrf;
  for (int t = 0; t < 100; ++t) {
    std::vector<TenantGroup> tenants(3);
    ResourceVector capacity(2);
    for (auto& tn : tenants) {
      for (std::size_t j = 0; j < 3; ++j) {
        ResourceVector share{rng.uniform(50.0, 500.0),
                             rng.uniform(50.0, 500.0)};
        ResourceVector demand{share[0] * rng.uniform(0.1, 2.0),
                              share[1] * rng.uniform(0.1, 2.0)};
        capacity += share;
        tn.vms.push_back(vm(std::move(share), std::move(demand)));
      }
    }
    const HierarchicalResult r = rrf.allocate_hierarchical(capacity, tenants);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      for (std::size_t j = 0; j < tenants[i].vms.size(); ++j) {
        EXPECT_TRUE(
            r.vm_allocations[i][j].all_le(tenants[i].vms[j].demand, 1e-6));
      }
    }
  }
}

}  // namespace
}  // namespace rrf::alloc
