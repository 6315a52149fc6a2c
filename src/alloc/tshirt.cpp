#include "alloc/tshirt.hpp"

#include <string>

#include "alloc/contract_checks.hpp"
#include "common/contract.hpp"
#include "common/float_eq.hpp"

namespace rrf::alloc {

void TShirtAllocator::allocate_flat(const ResourceVector& capacity,
                                    const FlatColumns& in, Workspace& /*ws*/,
                                    std::span<double> grant,
                                    ResourceVector& unallocated,
                                    std::vector<double>* /*lambda*/) const {
  validate_columns(capacity, in);
  const std::size_t p = capacity.size();
  const std::size_t m = in.entities;
  RRF_REQUIRE(grant.size() == p * m, "T-shirt column length mismatch");
  unallocated = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    const double* share = in.share.data() + k * m;
    double shares = 0.0;
    for (std::size_t i = 0; i < m; ++i) shares += share[i];
    // Proportional static partition; if nobody owns shares of type k the
    // whole capacity stays idle.
    for (std::size_t i = 0; i < m; ++i) {
      grant[k * m + i] =
          shares > 0.0 ? capacity[k] * (share[i] / shares) : 0.0;
    }
    if (shares <= 0.0) unallocated[k] = capacity[k];

    if (contract::armed() && shares > 0.0) {
      // Static partition: each grant is exactly the entity's share fraction
      // of capacity, regardless of demand (the baseline's defining — and
      // wasteful — property the paper argues against).
      for (std::size_t i = 0; i < m; ++i) {
        const double expected = capacity[k] * (share[i] / shares);
        RRF_ENSURE("tshirt.proportional_to_share",
                   approx_eq(grant[k * m + i], expected, 1e-9),
                   "entity " + std::to_string(i) + " type " +
                       std::to_string(k) + " grant " +
                       std::to_string(grant[k * m + i]) + " != share cut " +
                       std::to_string(expected));
      }
    }
  }
  if (contract::armed()) {
    check_column_contracts("tshirt", capacity, m, in.demand, grant,
                           unallocated, {.demand_capped = false});
  }
}

}  // namespace rrf::alloc
