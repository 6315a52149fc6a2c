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
#include <span>
#include <vector>

#include "alloc/entity.hpp"

namespace rrf::alloc {

/// Scratch for the allocation-free entry points (`allocate_into`,
/// `RrfAllocator::allocate_hierarchical_into`, the vector
/// `iwa_distribute_into`).  Each call resizes the buffers it uses to its
/// input; a buffer keeps its heap block between calls.  Contents between
/// calls are unspecified, and one workspace serves one call at a time.
struct Workspace {
  // ---- one slot per entity ----
  /// IRT: Lambda(i).
  std::vector<double> lambda;
  /// IRT (strategy-proof): the trade budget left.
  std::vector<double> budget;
  /// IRT: one type's sort key (U for contributors, V otherwise).  DRF:
  /// dominant share of the full demand.  Sequential DRF: weighted
  /// dominant share.
  std::vector<double> key;
  /// IRT: contributor on the current type.  DRF: still filling.
  std::vector<char> flag;
  /// IRT: one type's allocation order.  Sequential DRF: ascending
  /// weighted dominant share.
  std::vector<std::size_t> order;

  // ---- one resource type's column over entities or VMs, the input
  // and output of a water-fill or of single-type IWA ----
  std::vector<double> share;
  std::vector<double> demand;
  std::vector<double> weight;
  std::vector<double> grant;
  /// weighted_max_min_into's d/w ordering.
  std::vector<std::size_t> fill_order;

  // ---- IRT boundary-search tables, m + 1 entries ----
  std::vector<double> prefix_demand;
  std::vector<double> suffix_share;
  std::vector<double> suffix_lambda;

  /// RRF: the tenant aggregates S(i) / D(i) handed to IRT.
  std::vector<AllocationEntity> aggregates;
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
