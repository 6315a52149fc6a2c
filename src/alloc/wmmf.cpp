#include "alloc/wmmf.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "alloc/contract_checks.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"

namespace rrf::alloc {

std::vector<double> weighted_max_min(double capacity,
                                     std::span<const double> demands,
                                     std::span<const double> weights) {
  std::vector<double> alloc(demands.size());
  std::vector<std::size_t> order;
  weighted_max_min_into(capacity, demands, weights, alloc, order);
  return alloc;
}

void weighted_max_min_into(double capacity, std::span<const double> demands,
                           std::span<const double> weights,
                           std::span<double> out,
                           std::vector<std::size_t>& order_scratch) {
  RRF_REQUIRE(demands.size() == weights.size(),
              "demand/weight length mismatch");
  RRF_REQUIRE(out.size() == demands.size(), "output length mismatch");
  RRF_REQUIRE(capacity >= 0.0, "negative capacity");
  const std::size_t n = demands.size();
  std::fill(out.begin(), out.end(), 0.0);

  const double total_demand =
      std::accumulate(demands.begin(), demands.end(), 0.0);
  if (total_demand <= capacity) {
    // Abundant capacity: everyone is capped at demand (principle 2).
    std::copy(demands.begin(), demands.end(), out.begin());
    return;
  }

  // Contended: water-fill over the weighted users in increasing d/w order.
  std::vector<std::size_t>& order = order_scratch;
  order.clear();
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] > 0.0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return demands[a] * weights[b] < demands[b] * weights[a];
  });

  double remaining = capacity;
  double active_weight = 0.0;
  for (std::size_t i : order) active_weight += weights[i];

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const std::size_t i = order[idx];
    // Would giving every remaining user the level d_i/w_i fit?
    if (demands[i] * active_weight <= remaining * weights[i]) {
      out[i] = demands[i];  // satisfied, surplus flows on
      remaining -= demands[i];
      active_weight -= weights[i];
    } else {
      // Water level found: all remaining users split `remaining` by weight.
      const double level = remaining / active_weight;
      for (std::size_t j = idx; j < order.size(); ++j) {
        const std::size_t u = order[j];
        out[u] = std::min(demands[u], level * weights[u]);
      }
      return;
    }
  }
}

void WmmfAllocator::allocate_into(const ResourceVector& capacity,
                                  std::span<const AllocationEntity> entities,
                                  Workspace& ws,
                                  AllocationResult& result) const {
  validate_entities(capacity, entities);
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();

  result.allocations.assign(m, ResourceVector(p));
  result.unallocated = ResourceVector(p);
  result.contribution_lambda.clear();

  std::vector<double>& demands = ws.demand;
  std::vector<double>& weights = ws.weight;
  std::vector<double>& alloc = ws.grant;
  demands.resize(m);
  weights.resize(m);
  alloc.resize(m);
  ws.fill_order.reserve(m);
  for (std::size_t k = 0; k < p; ++k) {
    bool any_weight = false;
    for (std::size_t i = 0; i < m; ++i) {
      demands[i] = entities[i].demand[k];
      weights[i] = entities[i].initial_share[k];
      any_weight = any_weight || weights[i] > 0.0;
    }
    if (!any_weight) {
      // Nobody owns shares of this type: fall back to scalar weights so the
      // capacity is still distributed fairly.
      for (std::size_t i = 0; i < m; ++i) {
        weights[i] = entities[i].effective_weight();
      }
    }
    weighted_max_min_into(capacity[k], demands, weights, alloc,
                          ws.fill_order);
    double used = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      result.allocations[i][k] = alloc[i];
      used += alloc[i];
    }
    result.unallocated[k] = std::max(0.0, capacity[k] - used);

    if (contract::armed() &&
        result.unallocated[k] > 1e-7 * std::max(1.0, capacity[k])) {
      // Work conservation: capacity is only left idle when every weighted
      // user is already demand-satisfied.  Zero-weight users receive
      // nothing under contention and are exempt.
      for (std::size_t i = 0; i < m; ++i) {
        if (weights[i] <= 0.0) continue;
        RRF_ENSURE("wmmf.work_conserving",
                   approx_eq(alloc[i], demands[i], 1e-7),
                   "type " + std::to_string(k) + ": entity " +
                       std::to_string(i) + " unsatisfied (" +
                       std::to_string(alloc[i]) + " of " +
                       std::to_string(demands[i]) + ") while " +
                       std::to_string(result.unallocated[k]) + " idles");
      }
    }
  }

  if (contract::armed()) {
    check_allocation_contracts("wmmf", capacity, entities, result,
                               {.demand_capped = true});
  }
}

}  // namespace rrf::alloc
