#include "alloc/tshirt.hpp"

#include <string>

#include "alloc/contract_checks.hpp"
#include "common/contract.hpp"
#include "common/float_eq.hpp"

namespace rrf::alloc {

void TShirtAllocator::allocate_into(const ResourceVector& capacity,
                                    std::span<const AllocationEntity> entities,
                                    Workspace& /*ws*/,
                                    AllocationResult& result) const {
  validate_entities(capacity, entities);
  const std::size_t p = capacity.size();
  const ResourceVector shares = total_share(entities);

  result.allocations.resize(entities.size());
  result.unallocated = ResourceVector(p);
  result.contribution_lambda.clear();

  for (std::size_t i = 0; i < entities.size(); ++i) {
    ResourceVector& a = result.allocations[i];
    a = ResourceVector(p);
    for (std::size_t k = 0; k < p; ++k) {
      // Proportional static partition; if nobody owns shares of type k the
      // whole capacity stays idle.
      a[k] = shares[k] > 0.0
                 ? capacity[k] * (entities[i].initial_share[k] / shares[k])
                 : 0.0;
    }
  }
  for (std::size_t k = 0; k < p; ++k) {
    if (shares[k] <= 0.0) result.unallocated[k] = capacity[k];
  }

  if (contract::armed()) {
    // Static partition: each grant is exactly the entity's share fraction
    // of capacity, regardless of demand (the baseline's defining — and
    // wasteful — property the paper argues against).
    for (std::size_t k = 0; k < p; ++k) {
      if (shares[k] <= 0.0) continue;
      for (std::size_t i = 0; i < entities.size(); ++i) {
        const double expected =
            capacity[k] * (entities[i].initial_share[k] / shares[k]);
        RRF_ENSURE("tshirt.proportional_to_share",
                   approx_eq(result.allocations[i][k], expected, 1e-9),
                   "entity " + std::to_string(i) + " type " +
                       std::to_string(k) + " grant " +
                       std::to_string(result.allocations[i][k]) +
                       " != share cut " + std::to_string(expected));
      }
    }
    check_allocation_contracts("tshirt", capacity, entities, result,
                               {.demand_capped = false});
  }
}

}  // namespace rrf::alloc
