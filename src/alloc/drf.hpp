// Dominant Resource Fairness [Ghodsi et al., NSDI'11], weighted, with
// demand caps — the multi-resource baseline the paper compares against.
//
// Two variants are provided:
//
//  * DrfAllocator — canonical weighted DRF via *exact* event-driven
//    progressive filling: all unsatisfied users rise together at equal
//    weighted dominant share; a user freezes when fully satisfied or when a
//    resource type it demands is exhausted.  This is the textbook policy
//    (it can strand capacity of non-saturated resources).  Each event
//    walks only the users still filling, kept as an ascending list that
//    shrinks as they freeze.
//
//  * SequentialDrfAllocator — the arithmetic the paper uses in Table I:
//    users are fully satisfied in ascending order of weighted dominant
//    share; once the next user no longer fits, each resource type is split
//    among all remaining users by (unweighted) max-min.  It reproduces the
//    paper's WDRF row exactly.
#pragma once

#include "alloc/allocator.hpp"

namespace rrf::alloc {

class DrfAllocator final : public Allocator {
 public:
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& ws, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* lambda) const override;
};

class SequentialDrfAllocator final : public Allocator {
 public:
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& ws, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* lambda) const override;
};

}  // namespace rrf::alloc
