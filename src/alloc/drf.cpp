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
constexpr double kInf = std::numeric_limits<double>::infinity();

// rrf-hot-path: begin(drf.fill)
/// Progressive filling over P types of the users active[0..count)
/// (ascending), each with filling rate dx/dg = rate[i] = w_i / ds_i:
/// advances their satisfied fractions x and the shares `remaining` event
/// by event until every user froze.
///
/// The one pass of an event advances every active user, drops the
/// satisfied ones and folds the others into the next event's step and
/// consumption rates, in index order: the order in which a scan of all
/// users that skips the frozen ones folds them.  A type running out
/// freezes its users too; that happens at most P times, and the fold
/// then restarts over the users left.  So every minimum and every sum
/// is taken in the same order, with the same expressions, as an event
/// loop that rescans every user and type.
template <std::size_t P>
void fill(const ResourceVector& capacity, const double* demand,
          std::size_t m, const double* rate, double* x, std::size_t* active,
          std::size_t count, double* remaining) {
  // x_i reaches 1 when g grows by (1 - x_i) / rate_i; type k runs out
  // when g grows by remaining_k / consumption_k.
  double dg_user = kInf;
  double consumption[P] = {};
  const auto fold = [&](std::size_t i) {
    dg_user = std::min(dg_user, (1.0 - x[i]) / rate[i]);
    for (std::size_t k = 0; k < P; ++k) {
      consumption[k] += rate[i] * demand[k * m + i];
    }
  };
  const auto restart = [&] {
    dg_user = kInf;
    for (std::size_t k = 0; k < P; ++k) consumption[k] = 0.0;
  };
  for (std::size_t j = 0; j < count; ++j) fold(active[j]);

  unsigned exhausted = 0;  // bit k: type k ran out
  while (std::isfinite(dg_user)) {
    double dg_res = kInf;
    for (std::size_t k = 0; k < P; ++k) {
      if (consumption[k] > kEps) {
        dg_res = std::min(dg_res, remaining[k] / consumption[k]);
      }
    }
    const double dg = std::min(dg_user, dg_res);
    RRF_ASSERT(dg >= -kEps);

    restart();
    std::size_t kept = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = active[j];
      const double dx = dg * rate[i];
      x[i] = std::min(1.0, x[i] + dx);
      for (std::size_t k = 0; k < P; ++k) {
        remaining[k] -= dx * demand[k * m + i];
      }
      if (x[i] >= 1.0 - kEps) {
        x[i] = 1.0;
        continue;
      }
      active[kept++] = i;
      fold(i);
    }
    // Each event must freeze a user or exhaust a type, so the loop ends
    // after at most m + P events.
    bool progressed = kept < count;
    count = kept;
    unsigned fresh = 0;  // types that ran out in this event
    for (std::size_t k = 0; k < P; ++k) {
      if (remaining[k] <= kEps * std::max(1.0, capacity[k])) {
        fresh |= ~exhausted & (1u << k);
        exhausted |= 1u << k;
        remaining[k] = std::max(0.0, remaining[k]);
      }
    }
    if (fresh != 0) {
      progressed = true;
      restart();
      kept = 0;
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = active[j];
        bool touches = false;
        for (std::size_t k = 0; k < P; ++k) {
          touches |= (fresh & (1u << k)) != 0 && demand[k * m + i] > 0.0;
        }
        if (touches) continue;
        active[kept++] = i;
        fold(i);
      }
      count = kept;
    }
    // With finite inputs an event stalls only when a user's filling rate
    // times its demand overflows to inf: the exhaustion step is then 0,
    // nobody advances and the same event would repeat forever.
    if (!progressed) {
      throw DomainError(
          "drf: progressive filling stalled: a filling rate times a demand "
          "overflows a double (inputs too close to the largest double)");
    }
  }
}
// rrf-hot-path: end(drf.fill)

}  // namespace

void DrfAllocator::allocate_flat(const ResourceVector& capacity,
                                 const FlatColumns& in, Workspace& ws,
                                 std::span<double> grant,
                                 ResourceVector& unallocated,
                                 std::vector<double>* /*lambda*/) const {
  validate_columns(capacity, in);
  const std::size_t p = capacity.size();
  const std::size_t m = in.entities;
  RRF_REQUIRE(in.weight.size() == m && grant.size() == p * m,
              "DRF column length mismatch");
  const double* demand = in.demand.data();

  // rrf-hot-path: begin(drf.prepare)
  // x_i in [0,1] is the satisfied fraction; at common weighted dominant
  // share level g, an active user's fraction is x_i = g * w_i / ds_i,
  // where ds_i is the dominant share of the full demand.  One block holds
  // every x_i, then every filling rate.
  ws.grant.assign(2 * m, 0.0);
  double* const x = ws.grant.data();
  double* const rate = x + m;
  std::vector<std::size_t>& active = ws.order;
  active.resize(m);
  std::size_t count = 0;
  for (std::size_t i = 0; i < m; ++i) {
    double ds = 0.0;
    for (std::size_t k = 0; k < p; ++k) {
      const double d = demand[k * m + i];
      if (d > 0.0) {
        RRF_REQUIRE(capacity[k] > 0.0,
                    "demand on a resource with zero capacity");
        ds = std::max(ds, d / capacity[k]);
      }
    }
    if (ds > 0.0) {
      const double w = in.weight[i];
      RRF_REQUIRE(w > 0.0, "DRF requires positive weights for demanders");
      rate[i] = w / ds;
      active[count++] = i;
    } else {
      x[i] = 1.0;  // nothing demanded: trivially satisfied
    }
  }

  double remaining[ResourceVector::kInlineCapacity] = {};
  for (std::size_t k = 0; k < p; ++k) remaining[k] = capacity[k];
  // One loop per type count, so the per-type loops unroll.
  using Fill = void (*)(const ResourceVector&, const double*, std::size_t,
                        const double*, double*, std::size_t*, std::size_t,
                        double*);
  constexpr Fill kFills[] = {nullptr, fill<1>, fill<2>, fill<3>, fill<4>};
  if (count > 0) {
    kFills[p](capacity, demand, m, rate, x, active.data(), count,
              remaining);
  }

  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      grant[k * m + i] = x[i] * demand[k * m + i];
    }
  }
  unallocated = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    unallocated[k] = std::max(0.0, remaining[k]);
  }
  // rrf-hot-path: end(drf.prepare)
  if (contract::armed()) {
    check_column_contracts("drf", capacity, m, in.demand, grant, unallocated,
                           {.demand_capped = true});
  }
}

void SequentialDrfAllocator::allocate_flat(const ResourceVector& capacity,
                                           const FlatColumns& in,
                                           Workspace& ws,
                                           std::span<double> grant,
                                           ResourceVector& unallocated,
                                           std::vector<double>* /*lambda*/)
    const {
  validate_columns(capacity, in);
  const std::size_t p = capacity.size();
  const std::size_t m = in.entities;
  RRF_REQUIRE(in.weight.size() == m && grant.size() == p * m,
              "sequential DRF column length mismatch");
  const double* demand = in.demand.data();
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
      if (demand[k * m + i] > 0.0) {
        RRF_REQUIRE(capacity[k] > 0.0,
                    "demand on a resource with zero capacity");
        d = std::max(d, demand[k * m + i] / capacity[k]);
      }
    }
    const double w = in.weight[i];
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
      for (std::size_t k = 0; k < p; ++k) {
        batch_demand[k] += demand[k * m + order[t]];
      }
    }
    if (!batch_demand.all_le(remaining, kEps)) break;
    for (std::size_t t = idx; t < end; ++t) {
      for (std::size_t k = 0; k < p; ++k) {
        grant[k * m + order[t]] = demand[k * m + order[t]];
        remaining[k] -= demand[k * m + order[t]];
      }
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
        demands[j] = demand[k * m + order[idx + j]];
      }
      weighted_max_min_into(std::max(0.0, remaining[k]), demands, ones,
                            alloc, ws.fill_order);
      for (std::size_t j = 0; j < rest; ++j) {
        grant[k * m + order[idx + j]] = alloc[j];
        remaining[k] -= alloc[j];
      }
    }
  }

  unallocated = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    unallocated[k] = std::max(0.0, remaining[k]);
  }
  if (contract::armed()) {
    check_column_contracts("sequential drf", capacity, m, in.demand, grant,
                           unallocated, {.demand_capped = true});
  }
}

}  // namespace rrf::alloc
