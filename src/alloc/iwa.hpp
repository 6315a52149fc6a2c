// Intra-tenant Weight Adjustment (IWA) — Algorithm 2 of the paper.
//
// Within one tenant, each VM is first reset to its initial share; VMs whose
// allocation exceeds their demand are capped at demand, and the freed
// capacity (plus any headroom the tenant gained at the IRT level) flows to
// sibling VMs **in the ratio of their unsatisfied demands** (unlike WMMF,
// which redistributes in proportion to weights).
//
// Deviation from the paper's pseudo-code (documented in DESIGN.md §5): when
// the tenant-level grant exceeds what the unsatisfied VMs need (Phi >
// Gamma), the raw formula would over-satisfy them; we cap at demand and
// return the excess as tenant headroom.
//
// One implementation runs per tenant and type over TenantColumns; the
// entity forms below lay their inputs out into columns first.
#pragma once

#include <span>
#include <vector>

#include "alloc/allocator.hpp"

namespace rrf::alloc {

struct IwaResult {
  /// s'(j): per-VM share grant for this resource-type slice.
  std::vector<double> allocations;
  /// Tenant-level shares left over after every VM demand is met.
  double headroom{0.0};
};

/// Single-resource-type IWA.  `tenant_total` is S_k: the tenant's grant for
/// this type from the inter-tenant level (IRT or static).  `initial_shares`
/// and `demands` are the per-VM s_k(j) / d_k(j).
IwaResult iwa_distribute(double tenant_total,
                         std::span<const double> initial_shares,
                         std::span<const double> demands);

/// Vector version: runs IWA per resource type.  `tenant_total[k]` is the
/// tenant-level grant of type k; the VM entities' initial_share/demand
/// fields supply s(j) and d(j).
struct IwaVectorResult {
  std::vector<ResourceVector> allocations;  // per VM
  ResourceVector headroom;                  // per type
};
IwaVectorResult iwa_distribute(const ResourceVector& tenant_total,
                               std::span<const AllocationEntity> vms);

/// Sums every tenant's VM shares and demands, in member order, into
/// ws.tenant_share / ws.tenant_demand (type-major, one entry per tenant).
/// Throws PreconditionError for a tenant with no VMs.
void sum_tenants(const TenantColumns& in, Workspace& ws);

/// IWA in every tenant and type: tenant g's type-k grant
/// tenant_total[k * tenants + g] is spread over its VMs into `entitlement`
/// (laid out like in.share), and the part no VM can use goes to
/// ws.tenant_headroom (laid out like tenant_total).  `tenant_share` holds
/// the tenants' summed shares (sum_tenants).
void iwa_columns(const TenantColumns& in, std::span<const double> tenant_share,
                 std::span<const double> tenant_total, Workspace& ws,
                 std::span<double> entitlement);

/// The iwa policy's tenant level: each tenant keeps its own shares, and
/// IWA moves them between its VMs only.
void iwa_tenants(const TenantColumns& in, Workspace& ws,
                 std::span<double> entitlement);

}  // namespace rrf::alloc
