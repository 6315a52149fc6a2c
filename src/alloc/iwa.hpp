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

/// In-place single-type IWA: writes the per-VM grants into `out`
/// (out.size() == initial_shares.size()) and returns the tenant headroom.
/// The allocation hot path uses this to reuse one buffer across resource
/// types instead of allocating a result vector per type.
double iwa_distribute_into(double tenant_total,
                           std::span<const double> initial_shares,
                           std::span<const double> demands,
                           std::span<double> out);

/// Vector version: runs iwa_distribute per resource type.
/// `tenant_total[k]` is the tenant-level grant of type k; the VM entities'
/// initial_share/demand fields supply s(j) and d(j).
struct IwaVectorResult {
  std::vector<ResourceVector> allocations;  // per VM
  ResourceVector headroom;                  // per type
};
IwaVectorResult iwa_distribute(const ResourceVector& tenant_total,
                               std::span<const AllocationEntity> vms);

/// Allocation-free vector IWA: writes each VM's grant into `allocations`
/// (allocations.size() == vms.size()), takes its per-type columns from
/// `ws`, and returns the tenant headroom per type.
ResourceVector iwa_distribute_into(const ResourceVector& tenant_total,
                                   std::span<const AllocationEntity> vms,
                                   Workspace& ws,
                                   std::span<ResourceVector> allocations);

}  // namespace rrf::alloc
