// The policy table (alloc/policy.hpp): lookups, and the contract every
// row's flat allocator shares with the rest.
#include "alloc/policy.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <vector>

#include "alloc/rrf.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

AllocationEntity vm(ResourceVector share, ResourceVector demand) {
  AllocationEntity e;
  e.initial_share = std::move(share);
  e.demand = std::move(demand);
  return e;
}

TEST(Factory, BuildsEveryRegisteredPolicy) {
  std::set<std::string> names;
  std::set<PolicyKind> kinds;
  std::vector<std::string> ordered;
  for (const Policy& row : policies()) {
    ordered.emplace_back(row.name);
    ASSERT_NE(row.allocator, nullptr) << row.name;
    EXPECT_EQ(&policy(row.name), &row);
    EXPECT_EQ(&policy(row.kind), &row);
    EXPECT_TRUE(names.insert(std::string(row.name)).second) << row.name;
    EXPECT_TRUE(kinds.insert(row.kind).second) << row.name;
    // Only the tenant level runs IRT, and only RRF banks contributions.
    if (row.level != PolicyLevel::kTenant) {
      EXPECT_EQ(row.rrf, nullptr) << row.name;
    }
    if (row.banks_contribution) {
      EXPECT_NE(row.rrf, nullptr) << row.name;
    }
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_EQ(policy_names(), ordered);
  EXPECT_THROW(policy("nonsense"), DomainError);
}

TEST(Factory, PoliciesProduceValidAllocationsOnCommonScenario) {
  const std::vector<AllocationEntity> entities{
      vm({500.0, 500.0}, {600.0, 600.0}),
      vm({500.0, 500.0}, {800.0, 200.0}),
      vm({1000.0, 1000.0}, {800.0, 1600.0}),
  };
  const ResourceVector capacity{2000.0, 2000.0};
  for (const Policy& row : policies()) {
    const AllocationResult r = row.allocator->allocate(capacity, entities);
    ASSERT_EQ(r.allocations.size(), entities.size()) << row.name;
    ResourceVector total(2);
    for (const auto& alloc : r.allocations) {
      EXPECT_TRUE(alloc.all_nonneg(1e-9)) << row.name;
      total += alloc;
    }
    EXPECT_TRUE(total.all_le(capacity, 1e-6)) << row.name;
  }
}

TEST(PolicyTable, UnknownNameListsEveryValidName) {
  try {
    policy("bogus");
    FAIL() << "no throw";
  } catch (const DomainError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'bogus'"), std::string::npos) << message;
    for (const Policy& row : policies()) {
      EXPECT_NE(message.find(std::string(row.name)), std::string::npos)
          << message;
    }
  }
}

TEST(PolicyTable, EveryPolicyRejectsNonFiniteDemand) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<AllocationEntity> entities{
      vm({150.0, 150.0}, {inf, 100.0}),
      vm({150.0, 150.0}, {100.0, 100.0}),
  };
  const ResourceVector capacity{300.0, 300.0};
  for (const Policy& row : policies()) {
    EXPECT_THROW(row.allocator->allocate(capacity, entities),
                 PreconditionError)
        << row.name;
  }
}

TEST(PolicyTable, IwaAloneCapsOwnSharesAtDemand) {
  const Allocator& iwa = *policy(PolicyKind::kIwaOnly).allocator;
  const std::vector<AllocationEntity> entities{
      vm({500.0, 500.0}, {800.0, 200.0}),
      vm({500.0, 500.0}, {100.0, 900.0}),
  };
  const AllocationResult r = iwa.allocate({1000.0, 1000.0}, entities);
  EXPECT_TRUE(r.allocations[0].approx_equal({500.0, 200.0}, 0.0));
  EXPECT_TRUE(r.allocations[1].approx_equal({100.0, 500.0}, 0.0));
  EXPECT_TRUE(r.unallocated.approx_equal({400.0, 300.0}, 0.0));
  // An oversold pool backs each share in proportion.
  const AllocationResult half = iwa.allocate({500.0, 500.0}, entities);
  EXPECT_TRUE(half.allocations[0].approx_equal({250.0, 200.0}, 1e-12));
  EXPECT_TRUE(half.allocations[1].approx_equal({100.0, 250.0}, 1e-12));
}

TEST(PolicyTable, FlatLongTermRrfIsRrfOnTheCallersBank) {
  std::vector<AllocationEntity> entities{
      vm({500.0, 500.0}, {200.0, 800.0}),
      vm({500.0, 500.0}, {800.0, 200.0}),
  };
  entities[0].banked_contribution = 50.0;
  const ResourceVector capacity{1000.0, 1000.0};
  const AllocationResult lt =
      policy(PolicyKind::kRrfLt).allocator->allocate(capacity, entities);
  const AllocationResult rrf = RrfAllocator{}.allocate(capacity, entities);
  for (std::size_t i = 0; i < entities.size(); ++i) {
    EXPECT_TRUE(lt.allocations[i].approx_equal(rrf.allocations[i], 0.0));
  }
}

/// A random flat input: `m` entities over `p` resource types, capacity
/// equal to the shares sold.
struct FlatInput {
  ResourceVector capacity;
  std::vector<AllocationEntity> entities;
};

FlatInput random_input(std::size_t m, std::size_t p, std::uint64_t seed) {
  Rng rng(seed);
  FlatInput in{ResourceVector(p), {}};
  for (std::size_t i = 0; i < m; ++i) {
    AllocationEntity e;
    e.initial_share = ResourceVector(p);
    e.demand = ResourceVector(p);
    for (std::size_t k = 0; k < p; ++k) {
      e.initial_share[k] = rng.uniform(100.0, 1000.0);
      e.demand[k] = rng.uniform(0.0, 1500.0);
    }
    in.capacity += e.initial_share;
    in.entities.push_back(e);
  }
  return in;
}

// allocate_into owes the same bits whatever its workspace and result held
// before: one pair is reused across inputs that grow, shrink and change
// arity, and every call must match a fresh by-value allocation.
TEST(PolicyTable, ReusedWorkspaceMatchesAFreshOne) {
  const std::vector<FlatInput> inputs{
      random_input(3, 2, 1), random_input(9, 3, 2), random_input(2, 4, 3),
      random_input(5, 2, 4), random_input(3, 2, 1)};
  for (const Policy& row : policies()) {
    Workspace ws;
    AllocationResult reused;
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      const FlatInput& in = inputs[c];
      row.allocator->allocate_into(in.capacity, in.entities, ws, reused);
      const AllocationResult fresh =
          row.allocator->allocate(in.capacity, in.entities);
      EXPECT_EQ(reused.allocations, fresh.allocations)
          << row.name << " input " << c;
      EXPECT_EQ(reused.unallocated, fresh.unallocated)
          << row.name << " input " << c;
      EXPECT_EQ(reused.contribution_lambda, fresh.contribution_lambda)
          << row.name << " input " << c;
    }
  }
}

TEST(PolicyTable, ReusedHierarchicalBuffersMatchAFreshRun) {
  // Tenants of 1..3 VMs cut from the flat inputs above.
  auto tenants_of = [](const FlatInput& in) {
    std::vector<TenantGroup> groups;
    for (std::size_t i = 0; i < in.entities.size();) {
      TenantGroup g;
      for (std::size_t n = 0; n < 1 + groups.size() % 3 &&
                              i < in.entities.size();
           ++n, ++i) {
        g.vms.push_back(in.entities[i]);
      }
      groups.push_back(g);
    }
    return groups;
  };
  const std::vector<FlatInput> inputs{random_input(7, 2, 5),
                                      random_input(12, 3, 6),
                                      random_input(4, 2, 7)};
  for (const Policy& row : policies()) {
    if (row.rrf == nullptr) continue;
    Workspace ws;
    HierarchicalResult reused;
    for (std::size_t c = 0; c < inputs.size(); ++c) {
      const std::vector<TenantGroup> groups = tenants_of(inputs[c]);
      row.rrf->allocate_hierarchical_into(inputs[c].capacity, groups, ws,
                                          reused);
      const HierarchicalResult fresh =
          row.rrf->allocate_hierarchical(inputs[c].capacity, groups);
      EXPECT_EQ(reused.vm_allocations, fresh.vm_allocations)
          << row.name << " input " << c;
      EXPECT_EQ(reused.tenant_headroom, fresh.tenant_headroom)
          << row.name << " input " << c;
      EXPECT_EQ(reused.tenant_level.allocations,
                fresh.tenant_level.allocations)
          << row.name << " input " << c;
    }
  }
}

}  // namespace
}  // namespace rrf::alloc
