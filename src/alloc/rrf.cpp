#include "alloc/rrf.hpp"

#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/profiler.hpp"

namespace rrf::alloc {

namespace {

/// The tenants' VMs, tenant by tenant, as the workspace's VM columns.
TenantColumns lay_out(std::size_t p, std::span<const TenantGroup> tenants,
                      Workspace& ws) {
  std::size_t n = 0;
  for (const TenantGroup& tenant : tenants) n += tenant.vms.size();
  ws.vm_share.resize(p * n);
  ws.vm_demand.resize(p * n);
  ws.vm_grant.resize(p * n);
  ws.members.resize(n);
  ws.first.resize(tenants.size() + 1);
  ws.banked.resize(tenants.size());
  std::size_t j = 0;
  for (std::size_t g = 0; g < tenants.size(); ++g) {
    ws.first[g] = j;
    ws.banked[g] = tenants[g].banked_contribution;
    for (const AllocationEntity& vm : tenants[g].vms) {
      RRF_REQUIRE(vm.initial_share.size() == p && vm.demand.size() == p,
                  "VM vector arity mismatch");
      for (std::size_t k = 0; k < p; ++k) {
        ws.vm_share[k * n + j] = vm.initial_share[k];
        ws.vm_demand[k * n + j] = vm.demand[k];
      }
      ws.members[j] = j;
      ++j;
    }
  }
  ws.first[tenants.size()] = n;
  return TenantColumns{p,          n,        ws.vm_share, ws.vm_demand,
                       ws.members, ws.first, ws.banked};
}

}  // namespace

AllocationEntity TenantGroup::aggregate() const {
  RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
  AllocationEntity agg;
  agg.initial_share = ResourceVector(vms.front().initial_share.size());
  agg.demand = ResourceVector(vms.front().demand.size());
  for (const auto& vm : vms) {
    agg.initial_share += vm.initial_share;
    agg.demand += vm.demand;
  }
  agg.banked_contribution = banked_contribution;
  agg.name = name;
  return agg;
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
  RRF_REQUIRE(!tenants.empty(), "no tenants");
  const std::size_t p = capacity.size();
  const std::size_t m = tenants.size();
  const TenantColumns in = lay_out(p, tenants, ws);
  out.tenant_level.contribution_lambda.resize(m);
  allocate_tenants(capacity, in, ws, ws.vm_grant,
                   out.tenant_level.contribution_lambda);

  out.tenant_level.allocations.assign(m, ResourceVector(p));
  out.tenant_level.unallocated = ws.unallocated;
  out.vm_allocations.resize(m);
  out.tenant_headroom.assign(m, ResourceVector(p));
  for (std::size_t g = 0; g < m; ++g) {
    out.vm_allocations[g].assign(tenants[g].vms.size(), ResourceVector(p));
    for (std::size_t k = 0; k < p; ++k) {
      out.tenant_level.allocations[g][k] = ws.tenant_grant[k * m + g];
      out.tenant_headroom[g][k] = ws.tenant_headroom[k * m + g];
      for (std::size_t t = 0; t < tenants[g].vms.size(); ++t) {
        out.vm_allocations[g][t][k] =
            ws.vm_grant[k * in.vms + in.members[in.first[g] + t]];
      }
    }
  }
}

void RrfAllocator::allocate_tenants(const ResourceVector& capacity,
                                    const TenantColumns& in, Workspace& ws,
                                    std::span<double> entitlement,
                                    std::span<double> lambda) const {
  obs::ProfileScope profile("rrf.hierarchical");
  RRF_REQUIRE(capacity.size() == in.types,
              "tenant columns' arity must match capacity");
  const std::size_t m = in.tenants();

  // rrf-hot-path: begin(rrf.hierarchical)
  // Level 1: IRT over the tenants' summed columns.
  sum_tenants(in, ws);
  ws.tenant_grant.resize(in.types * m);
  irt_.allocate_columns(capacity,
                        FlatColumns{in.types, m, ws.tenant_share,
                                    ws.tenant_demand, {}, in.banked},
                        ws, ws.tenant_grant, ws.unallocated, lambda, nullptr);

  // Level 2: IWA inside each tenant, seeded with its IRT entitlement.
  iwa_columns(in, ws.tenant_share, ws.tenant_grant, ws, entitlement);
  // rrf-hot-path: end(rrf.hierarchical)

  if (contract::armed()) {
    // Hierarchy glue: the two levels must agree — per tenant and type, the
    // VM grants plus the tenant's retained headroom add up to exactly the
    // entitlement IRT handed down (no shares appear or vanish between
    // Algorithm 1 and Algorithm 2).
    for (std::size_t g = 0; g < m; ++g) {
      for (std::size_t k = 0; k < in.types; ++k) {
        double vm_sum = 0.0;
        for (std::size_t t = in.first[g]; t < in.first[g + 1]; ++t) {
          vm_sum += entitlement[k * in.vms + in.members[t]];
        }
        const double headroom = ws.tenant_headroom[k * m + g];
        const double grant = ws.tenant_grant[k * m + g];
        RRF_ENSURE("rrf.hierarchy_conserved",
                   approx_eq(vm_sum + headroom, grant, 1e-7),
                   "tenant " + std::to_string(g) + " type " +
                       std::to_string(k) + ": VM sum " +
                       std::to_string(vm_sum) + " + headroom " +
                       std::to_string(headroom) + " != tenant grant " +
                       std::to_string(grant));
      }
    }
  }
}

void RrfAllocator::allocate_flat(const ResourceVector& capacity,
                                 const FlatColumns& in, Workspace& ws,
                                 std::span<double> grant,
                                 ResourceVector& unallocated,
                                 std::vector<double>* lambda) const {
  // Single-VM tenants: IWA is the identity, so flat RRF == IRT.
  irt_.allocate_flat(capacity, in, ws, grant, unallocated, lambda);
}

}  // namespace rrf::alloc
