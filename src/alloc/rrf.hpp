// Reciprocal Resource Fairness (RRF) — the paper's full mechanism:
// inter-tenant resource trading (IRT, Algorithm 1) at the tenant level
// composed with intra-tenant weight adjustment (IWA, Algorithm 2) inside
// each tenant.
//
// The tenant level runs over TenantColumns (the engine's node arrays); a
// tenant's share and demand at the IRT level are the sums over its VMs.
// The hierarchical entry point takes tenants-with-VMs and lays them out
// into columns.  A flat Allocator
// adapter is also provided so RRF can be compared against the baselines on
// single-level scenarios (each entity = one single-VM tenant, in which case
// IWA is the identity).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/irt.hpp"
#include "alloc/iwa.hpp"

namespace rrf::alloc {

/// One tenant's VMs for hierarchical allocation.  Each VM entity carries
/// its initial share vector s(j) and demand vector d(j).
struct TenantGroup {
  std::vector<AllocationEntity> vms;
  std::string name;
  /// Tenant-level long-term contribution credit (rrf-lt); see
  /// AllocationEntity::banked_contribution.
  double banked_contribution{0.0};

  /// Tenant-level aggregates (S(i) / D(i) in Algorithm 1).
  AllocationEntity aggregate() const;
};

struct HierarchicalResult {
  /// Tenant-level entitlements (output of IRT).
  AllocationResult tenant_level;
  /// Per-tenant, per-VM share grants (output of IWA).
  std::vector<std::vector<ResourceVector>> vm_allocations;
  /// Per-tenant headroom IWA could not place in any VM.
  std::vector<ResourceVector> tenant_headroom;
};

class RrfAllocator final : public Allocator {
 public:
  explicit RrfAllocator(IrtOptions irt_options = {}) : irt_(irt_options) {}

  /// The tenant level over columns (rrf, rrf-sp, rrf-lt): IRT across the
  /// tenants' summed columns, then IWA within each tenant.  Writes every
  /// VM's grant into `entitlement` (laid out like in.share) and each
  /// tenant's Lambda(i) into `lambda`; the tenant grants, headroom and
  /// idle shares stay in ws.tenant_grant, ws.tenant_headroom and
  /// ws.unallocated.
  void allocate_tenants(const ResourceVector& capacity,
                        const TenantColumns& in, Workspace& ws,
                        std::span<double> entitlement,
                        std::span<double> lambda) const;

  /// Full hierarchical allocation: IRT across tenants, IWA within each.
  HierarchicalResult allocate_hierarchical(
      const ResourceVector& capacity,
      std::span<const TenantGroup> tenants) const;

  /// Lays the tenants' VMs out into workspace columns, runs
  /// allocate_tenants and writes every field of `out`.
  void allocate_hierarchical_into(const ResourceVector& capacity,
                                  std::span<const TenantGroup> tenants,
                                  Workspace& ws,
                                  HierarchicalResult& out) const;

  /// Flat adapter: every entity is treated as a single-VM tenant.
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& ws, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* lambda) const override;

  const IrtAllocator& irt() const { return irt_; }

 private:
  IrtAllocator irt_;
};

}  // namespace rrf::alloc
