// T-shirt (static) baseline: the fixed-size VM model of current IaaS clouds.
//
// Capacity is divided per resource type in proportion to initial shares and
// *never* redistributed: tenants keep their entitlement whether they use it
// or not (paper Table I).  This is the 100%-economic-fairness /
// worst-efficiency baseline.
#pragma once

#include "alloc/allocator.hpp"

namespace rrf::alloc {

class TShirtAllocator final : public Allocator {
 public:
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& ws, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* lambda) const override;
};

}  // namespace rrf::alloc
