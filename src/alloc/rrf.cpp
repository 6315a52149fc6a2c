#include "alloc/rrf.hpp"

#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/profiler.hpp"

namespace rrf::alloc {

AllocationEntity TenantGroup::aggregate() const {
  AllocationEntity agg;
  aggregate_into(agg);
  agg.name = name;
  return agg;
}

void TenantGroup::aggregate_into(AllocationEntity& agg) const {
  RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
  agg.initial_share = ResourceVector(vms.front().initial_share.size());
  agg.demand = ResourceVector(vms.front().demand.size());
  for (const auto& vm : vms) {
    agg.initial_share += vm.initial_share;
    agg.demand += vm.demand;
  }
  agg.banked_contribution = banked_contribution;
}

HierarchicalResult RrfAllocator::allocate_hierarchical(
    const ResourceVector& capacity,
    std::span<const TenantGroup> tenants) const {
  Workspace ws;
  HierarchicalResult out;
  allocate_hierarchical_into(capacity, tenants, ws, out);
  return out;
}

void RrfAllocator::allocate_hierarchical_into(
    const ResourceVector& capacity, std::span<const TenantGroup> tenants,
    Workspace& ws, HierarchicalResult& out) const {
  obs::ProfileScope profile("rrf.hierarchical");
  RRF_REQUIRE(!tenants.empty(), "no tenants");
  const std::size_t count = tenants.size();

  // rrf-hot-path: begin(rrf.hierarchical)
  // Level 1: IRT over the tenant aggregates.
  ws.aggregates.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    tenants[i].aggregate_into(ws.aggregates[i]);
  }
  // IRT takes its scratch from the same workspace but never touches
  // ws.aggregates, its input here.
  irt_.allocate_into(capacity, ws.aggregates, ws, out.tenant_level);

  // Level 2: IWA inside each tenant, seeded with its IRT entitlement.
  out.vm_allocations.resize(count);
  out.tenant_headroom.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.vm_allocations[i].resize(tenants[i].vms.size());
    out.tenant_headroom[i] =
        iwa_distribute_into(out.tenant_level.allocations[i], tenants[i].vms,
                            ws, out.vm_allocations[i]);
  }
  // rrf-hot-path: end(rrf.hierarchical)

  if (contract::armed()) {
    // Hierarchy glue: the two levels must agree — per tenant and type, the
    // VM grants plus the tenant's retained headroom add up to exactly the
    // entitlement IRT handed down (no shares appear or vanish between
    // Algorithm 1 and Algorithm 2).
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      for (std::size_t k = 0; k < capacity.size(); ++k) {
        double vm_sum = 0.0;
        for (const ResourceVector& a : out.vm_allocations[i]) vm_sum += a[k];
        RRF_ENSURE("rrf.hierarchy_conserved",
                   approx_eq(vm_sum + out.tenant_headroom[i][k],
                             out.tenant_level.allocations[i][k], 1e-7),
                   "tenant " + std::to_string(i) + " type " +
                       std::to_string(k) + ": VM sum " +
                       std::to_string(vm_sum) + " + headroom " +
                       std::to_string(out.tenant_headroom[i][k]) +
                       " != tenant grant " +
                       std::to_string(out.tenant_level.allocations[i][k]));
      }
    }
  }
}

void RrfAllocator::allocate_into(const ResourceVector& capacity,
                                 std::span<const AllocationEntity> entities,
                                 Workspace& ws, AllocationResult& out) const {
  // Single-VM tenants: IWA is the identity, so flat RRF == IRT.
  irt_.allocate_into(capacity, entities, ws, out);
}

}  // namespace rrf::alloc
