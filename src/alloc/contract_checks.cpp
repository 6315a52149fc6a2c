#include "alloc/contract_checks.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contract.hpp"
#include "common/float_eq.hpp"

namespace rrf::alloc {

namespace {
/// Contract tolerance: allocations are sums/water-fills over hundreds of
/// doubles, so the comparison epsilon is scaled-relative (float_eq.hpp)
/// and looser than the allocators' own kEps decision threshold.
constexpr double kTol = 1e-7;

std::string describe(const char* policy, std::size_t i, std::size_t k,
                     double value) {
  return std::string(policy) + ": entity " + std::to_string(i) + " type " +
         std::to_string(k) + " value " + std::to_string(value);
}

}  // namespace

void check_column_contracts(const char* policy,
                            const ResourceVector& capacity, std::size_t m,
                            std::span<const double> demand,
                            std::span<const double> allocation,
                            const ResourceVector& unallocated,
                            const AllocationContractOptions& options) {
  for (std::size_t k = 0; k < capacity.size(); ++k) {
    double allocated = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double a = allocation[k * m + i];
      const double d = demand[k * m + i];
      RRF_ENSURE("alloc.no_negative_allocation", a >= -kTol,
                 describe(policy, i, k, a));
      if (options.demand_capped) {
        RRF_ENSURE("alloc.demand_capped", approx_le(a, d, kTol),
                   describe(policy, i, k, a) + " demand " +
                       std::to_string(d));
      }
      allocated += a;
    }
    RRF_ENSURE("alloc.capacity_respected",
               approx_le(allocated, capacity[k], kTol),
               std::string(policy) + ": type " + std::to_string(k) +
                   " allocated " + std::to_string(allocated) +
                   " of capacity " + std::to_string(capacity[k]));
    // The policy's idle shares and `idle` are each the capacity minus a
    // sum of grants rounded its own way, so they agree to the capacity's
    // scale, not to their own: at 1e12 shares they differ by ~1e-4.
    const double idle = std::max(0.0, capacity[k] - allocated);
    RRF_ENSURE("alloc.unallocated_consistent",
               unallocated[k] >= -kTol &&
                   std::abs(unallocated[k] - idle) <=
                       kTol * std::max(1.0, capacity[k]),
               std::string(policy) + ": type " + std::to_string(k) +
                   " reports " + std::to_string(unallocated[k]) +
                   " unallocated, expected " + std::to_string(idle));
  }
}

}  // namespace rrf::alloc
