#include "alloc/contract_checks.hpp"

#include <algorithm>
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

/// The checks behind both entry points; demand(i, k) and allocation(i, k)
/// read entity i's type-k value.
template <class Demand, class Allocation>
void check_contracts(const char* policy, const ResourceVector& capacity,
                     std::size_t m, Demand demand, Allocation allocation,
                     const ResourceVector& unallocated,
                     const AllocationContractOptions& options) {
  for (std::size_t k = 0; k < capacity.size(); ++k) {
    double allocated = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double a = allocation(i, k);
      RRF_ENSURE("alloc.no_negative_allocation", a >= -kTol,
                 describe(policy, i, k, a));
      if (options.demand_capped) {
        RRF_ENSURE("alloc.demand_capped", approx_le(a, demand(i, k), kTol),
                   describe(policy, i, k, a) + " demand " +
                       std::to_string(demand(i, k)));
      }
      allocated += a;
    }
    RRF_ENSURE("alloc.capacity_respected",
               approx_le(allocated, capacity[k], kTol),
               std::string(policy) + ": type " + std::to_string(k) +
                   " allocated " + std::to_string(allocated) +
                   " of capacity " + std::to_string(capacity[k]));
    const double idle = std::max(0.0, capacity[k] - allocated);
    RRF_ENSURE("alloc.unallocated_consistent",
               unallocated[k] >= -kTol && approx_eq(unallocated[k], idle, kTol),
               std::string(policy) + ": type " + std::to_string(k) +
                   " reports " + std::to_string(unallocated[k]) +
                   " unallocated, expected " + std::to_string(idle));
  }
}

}  // namespace

void check_allocation_contracts(const char* policy,
                                const ResourceVector& capacity,
                                std::span<const AllocationEntity> entities,
                                const AllocationResult& result,
                                const AllocationContractOptions& options) {
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();
  RRF_ENSURE("alloc.result_arity",
             result.allocations.size() == m && result.unallocated.size() == p,
             std::string(policy) + ": result arity mismatch");
  if (result.allocations.size() != m || result.unallocated.size() != p) {
    return;  // audit mode continues; avoid indexing a malformed result
  }
  check_contracts(
      policy, capacity, m,
      [&](std::size_t i, std::size_t k) { return entities[i].demand[k]; },
      [&](std::size_t i, std::size_t k) { return result.allocations[i][k]; },
      result.unallocated, options);
}

void check_column_contracts(const char* policy,
                            const ResourceVector& capacity, std::size_t m,
                            std::span<const double> demand,
                            std::span<const double> allocation,
                            const ResourceVector& unallocated,
                            const AllocationContractOptions& options) {
  check_contracts(
      policy, capacity, m,
      [&](std::size_t i, std::size_t k) { return demand[k * m + i]; },
      [&](std::size_t i, std::size_t k) { return allocation[k * m + i]; },
      unallocated, options);
}

}  // namespace rrf::alloc
