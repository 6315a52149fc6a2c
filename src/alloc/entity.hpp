// Entity and result types shared by every allocation policy.
//
// All allocation happens in the *share* domain: demands, initial shares,
// capacities and allocations are share vectors (see common/pricing.hpp for
// the capacity <-> share mappings f1/f2).  An "entity" is whatever the
// policy arbitrates between: tenants for inter-tenant trading, VMs for the
// per-resource baselines.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/resource_vector.hpp"

namespace rrf::alloc {

struct AllocationEntity {
  /// S(i): the share vector the entity owns (reflects payment / priority).
  ResourceVector initial_share;
  /// D(i): the share vector the entity currently demands.
  ResourceVector demand;
  /// Scalar weight used by WMMF/DRF baselines.  Entities paying for more
  /// shares have proportionally larger weights; by convention this is
  /// sum(initial_share) unless the caller overrides it.
  double weight{0.0};
  /// Long-term extension (rrf-lt): contribution credit banked in earlier
  /// windows.  IRT adds it to the entity's instantaneous contribution
  /// Lambda(i) when prioritising redistribution, so tenants whose demand
  /// is cyclical are repaid in the windows where they need it.  May be
  /// negative (a tenant that has net-consumed others' surplus), which
  /// lowers — but never inverts — its priority; the effective Lambda is
  /// clamped at zero.  The paper's oblivious model corresponds to 0.
  double banked_contribution{0.0};
  /// Optional label carried through to reports.
  std::string name;

  /// The entity's weight, defaulting to its aggregate share value.
  double effective_weight() const {
    return weight > 0.0 ? weight : initial_share.sum();
  }
};

struct AllocationResult {
  /// S'(i): the share entitlement of each entity after (re)allocation.
  /// Sharing policies cap entitlements at demands; the T-shirt baseline does
  /// not (tenants keep what they bought whether or not they use it).
  std::vector<ResourceVector> allocations;
  /// Capacity (in shares) left idle per resource type.  Non-zero when
  /// demand < capacity, or under RRF when surplus is undistributable
  /// because every unsatisfied tenant contributed nothing.
  ResourceVector unallocated;
  /// Per-entity declared contribution Lambda(i) (IRT's gain-as-you-
  /// contribute accounting, banked credit included).  Empty for policies
  /// without trading; the detector bank publishes its per-tenant sum as
  /// the fairness.contribution_lambda gauge.
  std::vector<double> contribution_lambda;

  /// Sum of all entitlements per resource type.
  ResourceVector total() const;
};

/// Validate a policy input: finite, non-negative vectors of uniform arity
/// matching the capacity, and finite non-negative weights.  Throws
/// PreconditionError on violations.
void validate_entities(const ResourceVector& capacity,
                       std::span<const AllocationEntity> entities);

/// Aggregate demand over all entities.
ResourceVector total_demand(std::span<const AllocationEntity> entities);

/// Aggregate initial share over all entities.
ResourceVector total_share(std::span<const AllocationEntity> entities);

}  // namespace rrf::alloc
