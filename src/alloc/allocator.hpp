// The multi-resource allocation policy interface.
//
// A policy takes the pool capacity Omega (in shares) plus the entities'
// (initial share, demand) pairs and produces each entity's entitlement for
// the current window.  Allocation is *oblivious* (paper Section IV): every
// round starts from initial shares with no carry-over.
#pragma once

#include <span>

#include "alloc/entity.hpp"

namespace rrf::alloc {

class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Compute entitlements.  Implementations must:
  ///  * never allocate more than `capacity` in total per resource type
  ///    (surplus goes to AllocationResult::unallocated),
  ///  * never return negative entitlements,
  ///  * be deterministic.
  virtual AllocationResult allocate(
      const ResourceVector& capacity,
      std::span<const AllocationEntity> entities) const = 0;
};

}  // namespace rrf::alloc
