#include "alloc/drf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "alloc/contract_checks.hpp"
#include "alloc/wmmf.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"

namespace rrf::alloc {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

void DrfAllocator::allocate_into(const ResourceVector& capacity,
                                 std::span<const AllocationEntity> entities,
                                 Workspace& ws,
                                 AllocationResult& result) const {
  validate_entities(capacity, entities);
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();

  result.allocations.assign(m, ResourceVector(p));
  result.contribution_lambda.clear();
  ResourceVector remaining = capacity;

  // Per-user dominant-share fraction of full demand and filling rate.
  // x_i in [0,1] is the satisfied fraction; at common weighted dominant
  // share level g, an active user's fraction is x_i = g * w_i / ds_i.
  std::vector<double>& ds = ws.key;       // dominant share of the full demand
  std::vector<double>& rate = ws.weight;  // dx/dg = w_i / ds_i
  std::vector<double>& x = ws.grant;
  std::vector<char>& active = ws.flag;
  ds.assign(m, 0.0);
  rate.assign(m, 0.0);
  x.assign(m, 0.0);
  active.assign(m, 0);

  for (std::size_t i = 0; i < m; ++i) {
    double d = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      if (entities[i].demand[k] > 0.0) {
        RRF_REQUIRE(capacity[k] > 0.0,
                    "demand on a resource with zero capacity");
        d = std::max(d, entities[i].demand[k] / capacity[k]);
      }
    }
    ds[i] = d;
    if (d > 0.0) {
      const double w = entities[i].effective_weight();
      RRF_REQUIRE(w > 0.0, "DRF requires positive weights for demanders");
      rate[i] = w / d;
      active[i] = 1;
    } else {
      x[i] = 1.0;  // nothing demanded: trivially satisfied
    }
  }

  double g = 0.0;
  unsigned exhausted = 0;  // bit k: type k ran out (p <= 4)
  for (;;) {
    // Next user-saturation event.
    double dg_user = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (!active[i]) continue;
      // x_i reaches 1 when g grows by (1 - x_i) / rate_i.
      dg_user = std::min(dg_user, (1.0 - x[i]) / rate[i]);
    }
    if (!std::isfinite(dg_user)) break;  // no active users left

    // Next resource-exhaustion event.
    double dg_res = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < p; ++k) {
      double consumption_rate = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        if (active[i]) consumption_rate += rate[i] * entities[i].demand[k];
      }
      if (consumption_rate > kEps) {
        dg_res = std::min(dg_res, remaining[k] / consumption_rate);
      }
    }

    const double dg = std::min(dg_user, dg_res);
    RRF_ASSERT(dg >= -kEps);

    // Advance every active user by dg.
    for (std::size_t i = 0; i < m; ++i) {
      if (!active[i]) continue;
      const double dx = dg * rate[i];
      x[i] = std::min(1.0, x[i] + dx);
      for (std::size_t k = 0; k < p; ++k) {
        remaining[k] -= dx * entities[i].demand[k];
      }
    }
    g += dg;

    // Freeze satisfied users.  Each step must freeze a user or exhaust a
    // type, so the loop ends after at most m + p steps.
    bool progressed = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (active[i] && x[i] >= 1.0 - kEps) {
        x[i] = 1.0;
        active[i] = 0;
        progressed = true;
      }
    }
    // Freeze users touching an exhausted resource.
    for (std::size_t k = 0; k < p; ++k) {
      if (remaining[k] <= kEps * std::max(1.0, capacity[k])) {
        progressed |= (exhausted & (1u << k)) == 0;
        exhausted |= 1u << k;
        remaining[k] = std::max(0.0, remaining[k]);
        for (std::size_t i = 0; i < m; ++i) {
          if (active[i] && entities[i].demand[k] > 0.0) {
            active[i] = 0;
            progressed = true;
          }
        }
      }
    }
    // With finite inputs a step stalls only when a user's filling rate
    // times its demand overflows to inf: the exhaustion step is then 0,
    // nobody advances and the same step would repeat forever.
    if (!progressed) {
      throw DomainError(
          "drf: progressive filling stalled: a filling rate times a demand "
          "overflows a double (inputs too close to the largest double)");
    }
  }

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < p; ++k) {
      result.allocations[i][k] = x[i] * entities[i].demand[k];
    }
  }
  result.unallocated = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    result.unallocated[k] = std::max(0.0, remaining[k]);
  }
  if (contract::armed()) {
    check_allocation_contracts("drf", capacity, entities, result,
                               {.demand_capped = true});
  }
}

void SequentialDrfAllocator::allocate_into(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities, Workspace& ws,
    AllocationResult& result) const {
  validate_entities(capacity, entities);
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();

  result.allocations.assign(m, ResourceVector(p));
  result.contribution_lambda.clear();
  ResourceVector remaining = capacity;

  // Ascending weighted dominant share of the *full* demand.
  std::vector<std::size_t>& order = ws.order;
  order.resize(m);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double>& wds = ws.key;
  wds.assign(m, 0.0);
  // Phase 2's columns, sized for all m entities whether or not this round
  // reaches phase 2, so a workspace reused across rounds stops growing.
  ws.demand.resize(m);
  ws.weight.assign(m, 1.0);
  ws.grant.resize(m);
  ws.fill_order.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    double d = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      if (entities[i].demand[k] > 0.0) {
        RRF_REQUIRE(capacity[k] > 0.0,
                    "demand on a resource with zero capacity");
        d = std::max(d, entities[i].demand[k] / capacity[k]);
      }
    }
    const double w = entities[i].effective_weight();
    wds[i] = w > 0.0 ? d / w : std::numeric_limits<double>::infinity();
  }
  // Ties keep index order, exactly as a stable sort would.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return wds[a] != wds[b] ? wds[a] < wds[b] : a < b;
  });

  // Phase 1: fully satisfy users in ascending dominant-share order, but
  // process *ties* as one batch (the paper satisfies VM1 first, then treats
  // VM2 = VM3 as a joint max-min group).  A batch is only fully granted if
  // its combined demand fits.
  std::size_t idx = 0;
  while (idx < m) {
    std::size_t end = idx + 1;
    const double tie_tol = 1e-12 + 1e-9 * std::abs(wds[order[idx]]);
    while (end < m && std::abs(wds[order[end]] - wds[order[idx]]) <= tie_tol) {
      ++end;
    }
    ResourceVector batch_demand(p);
    for (std::size_t t = idx; t < end; ++t) {
      batch_demand += entities[order[t]].demand;
    }
    if (!batch_demand.all_le(remaining, kEps)) break;
    for (std::size_t t = idx; t < end; ++t) {
      result.allocations[order[t]] = entities[order[t]].demand;
      remaining -= entities[order[t]].demand;
    }
    idx = end;
  }

  // Phase 2: split every resource among the remainder by unweighted
  // max-min on their demands (the paper's Table-I arithmetic).
  if (idx < m) {
    const std::size_t rest = m - idx;
    const std::span<double> demands(ws.demand.data(), rest);
    const std::span<const double> ones(ws.weight.data(), rest);
    const std::span<double> alloc(ws.grant.data(), rest);
    for (std::size_t k = 0; k < p; ++k) {
      for (std::size_t j = 0; j < rest; ++j) {
        demands[j] = entities[order[idx + j]].demand[k];
      }
      weighted_max_min_into(std::max(0.0, remaining[k]), demands, ones,
                            alloc, ws.fill_order);
      for (std::size_t j = 0; j < rest; ++j) {
        result.allocations[order[idx + j]][k] = alloc[j];
        remaining[k] -= alloc[j];
      }
    }
  }

  result.unallocated = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    result.unallocated[k] = std::max(0.0, remaining[k]);
  }
  if (contract::armed()) {
    check_allocation_contracts("sequential drf", capacity, entities, result,
                               {.demand_capped = true});
  }
}

}  // namespace rrf::alloc
