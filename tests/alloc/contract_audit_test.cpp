// Audit-mode sweep: every allocator, driven over randomized contended
// scenarios with contracts in audit mode, must record zero violations —
// the paper-derived invariants hold on real inputs, not just the golden
// cases.  (In release builds contracts are compiled out and the sweep
// trivially records nothing; the Debug/sanitizer CI tiers carry the
// signal.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "alloc/policy.hpp"
#include "alloc/properties.hpp"
#include "alloc/rrf.hpp"
#include "common/contract.hpp"
#include "common/rng.hpp"

namespace rrf::alloc {
namespace {

class ContractAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    contract::set_mode(contract::Mode::kAudit);
    contract::reset_violations();
  }
  void TearDown() override {
    contract::set_mode(contract::Mode::kAbort);
    contract::reset_violations();
  }
};

std::string violation_summary() {
  std::string out;
  for (const auto& [site, count] : contract::violation_counts()) {
    out += site + " x" + std::to_string(count) + "; ";
  }
  return out;
}

TEST_F(ContractAuditTest, AllPoliciesSweepCleanly) {
  for (const Policy& row : policies()) {
    const Allocator& policy = *row.allocator;
    Rng rng(2026);
    for (int trial = 0; trial < 200; ++trial) {
      ResourceVector capacity;
      const std::vector<AllocationEntity> entities =
          random_scenario(rng, {}, &capacity);
      (void)policy.allocate(capacity, entities);
    }
    EXPECT_EQ(contract::total_violations(), 0u)
        << row.name << " violated: " << violation_summary();
    contract::reset_violations();
  }
}

TEST_F(ContractAuditTest, UnbalancedSharesSweepCleanly) {
  // Per-type share skew exercises the IRT ordering and boundary search
  // harder than the paper's uniform-priority model.
  ScenarioOptions options;
  options.balanced_shares = false;
  options.resource_types = 3;
  for (const Policy& row : policies()) {
    const Allocator& policy = *row.allocator;
    Rng rng(77);
    for (int trial = 0; trial < 100; ++trial) {
      ResourceVector capacity;
      const std::vector<AllocationEntity> entities =
          random_scenario(rng, options, &capacity);
      (void)policy.allocate(capacity, entities);
    }
    EXPECT_EQ(contract::total_violations(), 0u)
        << row.name << " violated: " << violation_summary();
    contract::reset_violations();
  }
}

TEST_F(ContractAuditTest, HierarchicalRrfSweepsCleanly) {
  // Two-level allocation: IRT over tenant aggregates, IWA within — the
  // rrf.hierarchy_conserved site only runs on this path.
  Rng rng(4242);
  const RrfAllocator rrf;
  for (int trial = 0; trial < 100; ++trial) {
    ResourceVector capacity;
    const std::vector<AllocationEntity> pool =
        random_scenario(rng, {.min_entities = 4, .max_entities = 9},
                        &capacity);
    // Group consecutive entities into tenants of 1-3 VMs.
    std::vector<TenantGroup> tenants;
    std::size_t i = 0;
    while (i < pool.size()) {
      const std::size_t take = std::min<std::size_t>(
          1 + static_cast<std::size_t>(rng.uniform_int(0, 2)),
          pool.size() - i);
      TenantGroup group;
      group.name = "t" + std::to_string(tenants.size());
      group.vms.assign(pool.begin() + static_cast<std::ptrdiff_t>(i),
                       pool.begin() + static_cast<std::ptrdiff_t>(i + take));
      tenants.push_back(std::move(group));
      i += take;
    }
    (void)rrf.allocate_hierarchical(capacity, tenants);
  }
  EXPECT_EQ(contract::total_violations(), 0u)
      << "hierarchical rrf violated: " << violation_summary();
}

}  // namespace
}  // namespace rrf::alloc
