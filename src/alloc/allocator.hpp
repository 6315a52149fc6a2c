// The multi-resource allocation policy interface.
//
// A policy takes the pool capacity Omega (in shares) plus the entities'
// (initial share, demand) pairs and produces each entity's entitlement for
// the current window.  Allocation is *oblivious* (paper Section IV): every
// round starts from initial shares with no carry-over.
//
// Every policy has one implementation, reached through `allocate_into`: it
// writes into a caller-owned AllocationResult and takes its scratch from a
// caller-owned Workspace, so a caller that keeps both across rounds (the
// engine keeps one pair per node) allocates nothing once the buffers have
// grown to the node's size.  `allocate` is the by-value convenience form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "alloc/entity.hpp"

namespace rrf::alloc {

/// The tenant level's input, type-major: for each resource type the
/// values of all VMs are contiguous, VM j's type-k value at
/// [k * vms + j].  Tenant g's VMs are members[first[g]] ..
/// members[first[g + 1] - 1], in the order IWA walks them; a tenant's VMs
/// need not be adjacent in the columns (after a live migration they are
/// not).  The engine points it at its node arrays; the entity wrappers
/// lay their AllocationEntity vectors out into Workspace columns.
struct TenantColumns {
  std::size_t types{0};
  std::size_t vms{0};
  /// s(j): each VM's (capacity-backed) initial share, types * vms.
  std::span<const double> share;
  /// d(j): each VM's forecast demand, types * vms.
  std::span<const double> demand;
  std::span<const std::size_t> members;
  /// tenants() + 1 offsets into `members`.
  std::span<const std::size_t> first;
  /// Per tenant, rrf-lt's banked credit; empty when nothing is banked.
  std::span<const double> banked;

  std::size_t tenants() const { return first.empty() ? 0 : first.size() - 1; }
};

/// One IRT sort item: the packed (contributor, key) of an entity and its
/// index.
struct OrderItem {
  std::uint64_t key;
  std::size_t index;
};

/// Scratch for the allocation-free entry points (`allocate_into`, the
/// tenant level's `RrfAllocator::allocate_tenants` and `iwa_tenants`,
/// `allocate_hierarchical_into`).  Each call resizes the buffers it uses
/// to its input; a buffer keeps its heap block between calls.  Contents
/// between calls are unspecified, except that the tenant level leaves
/// its per-tenant results in `tenant_grant`, `tenant_headroom` and
/// `unallocated`; one workspace serves one call at a time.
struct Workspace {
  // ---- one slot per entity ----
  /// IRT (strategy-proof): the trade budget left.
  std::vector<double> budget;
  /// DRF: dominant share of the full demand.  Sequential DRF: weighted
  /// dominant share.
  std::vector<double> key;
  /// DRF: still filling.
  std::vector<char> flag;
  /// IRT: one type's allocation order.  Sequential DRF: ascending
  /// weighted dominant share.
  std::vector<std::size_t> order;
  /// IRT: one type's sort items and the merge's second buffer.
  std::vector<OrderItem> items;
  std::vector<OrderItem> merge;

  // ---- one resource type's column over entities or VMs, the input
  // and output of a water-fill or of single-type IWA ----
  std::vector<double> share;
  std::vector<double> demand;
  std::vector<double> weight;
  std::vector<double> grant;
  /// weighted_max_min_into's scratch: the d/w order, or the demand bits
  /// of its single-weight path.
  std::vector<std::size_t> fill_order;

  // ---- IRT boundary-search tables, m + 1 entries ----
  std::vector<double> prefix_demand;
  std::vector<double> suffix_share;
  std::vector<double> suffix_lambda;

  // ---- IRT's entities (tenants, or flat entities each its own tenant),
  // type-major like TenantColumns: S(i), D(i), the grant S'(i) and, after
  // IWA, the headroom no VM could use; the wrappers' banked credit per
  // entity; the idle shares per type ----
  std::vector<double> tenant_share;
  std::vector<double> tenant_demand;
  std::vector<double> tenant_grant;
  std::vector<double> tenant_headroom;
  std::vector<double> banked;
  ResourceVector unallocated;

  // ---- the entity wrappers' VM columns (TenantColumns' layout) ----
  std::vector<double> vm_share;
  std::vector<double> vm_demand;
  std::vector<double> vm_grant;
  std::vector<std::size_t> members;
  std::vector<std::size_t> first;
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Compute entitlements into `out` (every field overwritten).
  /// Implementations must:
  ///  * never allocate more than `capacity` in total per resource type
  ///    (surplus goes to AllocationResult::unallocated),
  ///  * never return negative entitlements,
  ///  * be deterministic, whatever `ws` and `out` held before.
  virtual void allocate_into(const ResourceVector& capacity,
                             std::span<const AllocationEntity> entities,
                             Workspace& ws, AllocationResult& out) const = 0;

  /// By-value form of allocate_into with a fresh workspace.
  AllocationResult allocate(const ResourceVector& capacity,
                            std::span<const AllocationEntity> entities) const {
    Workspace ws;
    AllocationResult out;
    allocate_into(capacity, entities, ws, out);
    return out;
  }
};

}  // namespace rrf::alloc
