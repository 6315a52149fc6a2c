// Weighted Max-Min Fairness (WMMF), the classical single-resource policy
// [Keshav'97], applied to each resource type independently (paper Sec. II-A).
//
// Principles implemented exactly:
//  1. demands are satisfied in increasing order of demand/weight,
//  2. nobody receives more than her demand,
//  3. unsatisfied users share the remainder in proportion to their weights.
#pragma once

#include <span>
#include <vector>

#include "alloc/allocator.hpp"

namespace rrf::alloc {

/// Exact single-resource weighted max-min water-filling.
///
/// Returns the allocation vector: a_i = min(d_i, lambda * w_i) with lambda
/// chosen so the allocations exactly exhaust min(capacity, sum d).  Users
/// with zero weight receive only what is left after weighted users are
/// satisfied (i.e. their demand when capacity is abundant, else nothing).
std::vector<double> weighted_max_min(double capacity,
                                     std::span<const double> demands,
                                     std::span<const double> weights);

/// Allocation-free variant for per-round hot paths: writes the result
/// into `out` (out.size() == demands.size(), fully overwritten) and uses
/// `order_scratch` for the d/w ordering (grown to demands.size() when it
/// is smaller, so a caller that sizes it once never reallocates).
/// Bit-identical to weighted_max_min — same arithmetic, same visit order.
///
/// When a call has more than 16 users and all carry the same weight bits,
/// the users sort by demand value and the walk reads only the ascending
/// demand sequence; the kernel then sorts only the demands up to the
/// water level, after proving per call that std::sort's tie order cannot
/// show in the result (else it runs the full index sort).
///
/// Throws DomainError when contended inputs would take a water-fill
/// product out of the normal double range: the weight sum overflows, the
/// largest demand or capacity times it overflows, or the smallest nonzero
/// demand or capacity times the smallest positive weight is below the
/// smallest normal double.
void weighted_max_min_into(double capacity, std::span<const double> demands,
                           std::span<const double> weights,
                           std::span<double> out,
                           std::vector<std::size_t>& order_scratch);

class WmmfAllocator final : public Allocator {
 public:
  /// Runs weighted_max_min per resource type with per-type weights equal to
  /// the entities' per-type initial shares (allocation proportional to
  /// payment, as the paper prescribes).
  void allocate_flat(const ResourceVector& capacity, const FlatColumns& in,
                     Workspace& ws, std::span<double> grant,
                     ResourceVector& unallocated,
                     std::vector<double>* lambda) const override;
};

}  // namespace rrf::alloc
