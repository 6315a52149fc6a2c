#include "alloc/irt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "alloc/contract_checks.hpp"
#include "alloc/wmmf.hpp"
#include "common/branchless.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace rrf::alloc {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// State for one resource type's boundary search over a fixed order.
///
/// Positions [0, v) are capped at demand; positions [v, m) keep their
/// initial share plus a Lambda-proportional cut of the leftover
///   psi(v) = Omega_k - sum_{t<v} D(o_t) - sum_{t>=v} S(o_t).
///
/// sat(v) asks: would the entity at position v-1 be satisfied if it were
/// NOT capped (i.e. boundary at v-1)?  This is inequality (1) of the paper;
/// sat(v+1) being false is inequality (2).
///
/// Monotonicity (enables binary search): write phi(v) = psi(v)/suffixLambda(v)
/// for the fill factor.  Moving a satisfied entity i across the boundary
/// updates phi' = (phi*L - V_i*Lambda_i)/(L - Lambda_i) >= phi whenever
/// phi >= V_i, and the V_i are ascending along the order — so sat() is true
/// on a prefix and false after it.
class BoundarySearch {
 public:
  /// `share` / `demand` are one type's columns.  The three cumulative-sum
  /// tables live in the caller's workspace, so the per-resource-type loop
  /// reuses one heap block per table instead of allocating three vectors
  /// per type.
  BoundarySearch(double capacity, const double* share, const double* demand,
                 std::span<const double> lambda,
                 std::span<const std::size_t> order, Workspace& ws)
      : share_(share),
        demand_(demand),
        lambda_(lambda),
        order_(order),
        prefix_demand_(ws.prefix_demand),
        suffix_share_(ws.suffix_share),
        suffix_lambda_(ws.suffix_lambda) {
    const std::size_t m = order.size();
    prefix_demand_.assign(m + 1, 0.0);
    suffix_share_.assign(m + 1, 0.0);
    suffix_lambda_.assign(m + 1, 0.0);
    for (std::size_t t = 0; t < m; ++t) {
      prefix_demand_[t + 1] = prefix_demand_[t] + demand[order[t]];
    }
    for (std::size_t t = m; t-- > 0;) {
      suffix_share_[t] = suffix_share_[t + 1] + share[order[t]];
      suffix_lambda_[t] = suffix_lambda_[t + 1] + lambda[order[t]];
    }
    capacity_ = capacity;
  }

  /// psi with the first `v` positions capped at demand.
  double psi(std::size_t v) const {
    return capacity_ - prefix_demand_[v] - suffix_share_[v];
  }

  double suffix_lambda(std::size_t v) const { return suffix_lambda_[v]; }

  /// Inequality (1) for boundary v (>= 1): entity at position v-1 would be
  /// satisfied by share + its proportional cut if left uncapped.
  bool sat(std::size_t v) const {
    RRF_ASSERT(v >= 1 && v <= order_.size());
    const std::size_t i = order_[v - 1];
    const double need = demand_[i] - share_[i];
    if (need <= kEps) return true;  // contributors / exactly-met entities
    const double lam_suffix = suffix_lambda_[v - 1];
    if (lam_suffix <= 0.0) return false;  // nothing to redistribute with
    const double extra = psi(v - 1) * lambda_[i] / lam_suffix;
    return extra + kEps >= need;
  }

 private:
  const double* share_;
  const double* demand_;
  std::span<const double> lambda_;
  std::span<const std::size_t> order_;
  double capacity_{0.0};
  std::vector<double>& prefix_demand_;
  std::vector<double>& suffix_share_;
  std::vector<double>& suffix_lambda_;
};

/// Lambda(i) of every entity into `lambda`: its per-type surpluses
/// max(0, S - D) summed in type order, plus any banked long-term credit
/// (rrf-lt), clamped so a debtor never gets negative priority.
void contributions_into(const FlatColumns& in, std::size_t p,
                        std::span<double> lambda) {
  const std::size_t m = in.entities;
  std::fill(lambda.begin(), lambda.end(), 0.0);
  for (std::size_t k = 0; k < p; ++k) {
    const double* share = in.share.data() + k * m;
    const double* demand = in.demand.data() + k * m;
    for (std::size_t i = 0; i < m; ++i) {
      lambda[i] += std::max(0.0, share[i] - demand[i]);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    lambda[i] = std::max(0.0, lambda[i] + (in.banked.empty() ? 0.0
                                                             : in.banked[i]));
  }
}

/// One entity's sort key on one type: contributors (bit 63 clear) before
/// everyone else, then the key's bits.  Keys are >= 0 or +inf, so their
/// bit patterns sort as their values do; adding +0.0 folds -0.0 into +0.0.
std::uint64_t pack_key(bool contributor, double key) {
  return (static_cast<std::uint64_t>(!contributor) << 63) |
         std::bit_cast<std::uint64_t>(key + 0.0);
}

/// Sorts the first m = items.size() - 1 items by key with a bottom-up
/// merge and returns the buffer that holds the result (`items` or
/// `merge`, both m + 1 long).  Each step writes one output: it takes the
/// right run's head when that run is not exhausted and either the left
/// one is or the right head's key is smaller, so ties take the left head.
/// An exhausted run's head still points at readable memory (the next run,
/// or the spare slot at m) whose value the choice discards, and nothing
/// branches on the data.  The items start in index order and every index
/// of a left run is below every index of its right run, so ties end in
/// index order: the permutation std::sort gives under (contributor, key,
/// index), which is a strict total order.
std::span<const OrderItem> sort_items(std::span<OrderItem> items,
                                      std::span<OrderItem> merge) {
  const std::size_t m = items.size() - 1;
  OrderItem* from = items.data();
  OrderItem* to = merge.data();
  for (std::size_t width = 1; width < m; width *= 2) {
    for (std::size_t lo = 0; lo < m; lo += 2 * width) {
      const OrderItem* a = from + lo;
      const OrderItem* const a_end = from + std::min(lo + width, m);
      const OrderItem* b = a_end;
      const OrderItem* const b_end = from + std::min(lo + 2 * width, m);
      for (OrderItem* out = to + lo; out != to + (b_end - from); ++out) {
        const OrderItem x = *a;
        const OrderItem y = *b;
        const bool right = (b != b_end) & ((a == a_end) | (y.key < x.key));
        out->key = branchless(right, y.key, x.key);
        out->index = branchless(right, y.index, x.index);
        a += !right;
        b += right;
      }
    }
    std::swap(from, to);
  }
  return {from, m};
}

/// Entity i of the columns as a vector (provenance only).
ResourceVector column_entry(std::span<const double> column, std::size_t p,
                            std::size_t m, std::size_t i) {
  ResourceVector v(p);
  for (std::size_t k = 0; k < p; ++k) v[k] = column[k * m + i];
  return v;
}

}  // namespace

std::vector<double> IrtAllocator::total_contributions(
    std::span<const AllocationEntity> entities) {
  std::vector<double> lambda(entities.size(), 0.0);
  if (entities.empty()) return lambda;
  const std::size_t p = entities.front().initial_share.size();
  Workspace ws;
  std::span<double> grant;
  contributions_into(lay_out_entities(ResourceVector(p), entities, ws, grant),
                     p, lambda);
  return lambda;
}

void IrtAllocator::allocate_flat(const ResourceVector& capacity,
                                 const FlatColumns& in, Workspace& ws,
                                 std::span<double> grant,
                                 ResourceVector& unallocated,
                                 std::vector<double>* lambda) const {
  std::vector<double>& out = lambda != nullptr ? *lambda : ws.lambda;
  out.resize(in.entities);
  allocate_columns(capacity, in, ws, grant, unallocated, out, nullptr);
}

AllocationResult IrtAllocator::allocate_traced(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities,
    std::vector<IrtTypeTrace>* traces) const {
  Workspace ws;
  AllocationResult result;
  std::span<double> grant;
  const FlatColumns in = lay_out_entities(capacity, entities, ws, grant);
  result.contribution_lambda.resize(in.entities);
  allocate_columns(capacity, in, ws, grant, result.unallocated,
                   result.contribution_lambda, traces);
  gather_entities(grant, in.types, in.entities, result.allocations);
  return result;
}

void IrtAllocator::allocate_columns(const ResourceVector& capacity,
                                    const FlatColumns& in, Workspace& ws,
                                    std::span<double> grant,
                                    ResourceVector& unallocated,
                                    std::span<double> lambda,
                                    std::vector<IrtTypeTrace>* traces) const {
  obs::ProfileScope profile("irt.allocate");
  const std::size_t p = capacity.size();
  const std::size_t m = in.entities;
  validate_columns(capacity, in);
  RRF_REQUIRE(grant.size() == p * m && lambda.size() == m &&
                  (in.banked.empty() || in.banked.size() == m),
              "IRT column length mismatch");

  if (obs::metrics_enabled()) {
    static obs::Counter& invocations =
        obs::metrics().counter("irt.invocations");
    invocations.add();
  }

  // rrf-hot-path: begin(irt.prepare)
  // Lines 1-8: initial shares, per-type contributions, total Lambda(i).
  contributions_into(in, p, lambda);

  if (contract::armed()) {
    // Lambda(i) is a clamped sum of per-type surpluses, so it is bounded
    // by the entity's aggregate share plus any banked long-term credit
    // (paper Algorithm 1 lines 1-8; banked term is the rrf-lt extension).
    for (std::size_t i = 0; i < m; ++i) {
      double bound = 0.0;
      for (std::size_t k = 0; k < p; ++k) bound += in.share[k * m + i];
      bound += std::max(0.0, in.banked.empty() ? 0.0 : in.banked[i]);
      RRF_INVARIANT("irt.lambda_range",
                    lambda[i] >= 0.0 && approx_le(lambda[i], bound, 1e-9),
                    "entity " + std::to_string(i) + " Lambda " +
                        std::to_string(lambda[i]) + " outside [0, " +
                        std::to_string(bound) + "]");
    }
  }

  unallocated = ResourceVector(p);
  if (traces) traces->assign(p, IrtTypeTrace{});

  // Trade budgets for the strategy-proof variant: a tenant's cumulative
  // gain across all types may not exceed her total contribution.
  std::vector<double>& budget = ws.budget;
  if (options_.cap_gain_at_contribution) {
    budget.assign(lambda.begin(), lambda.end());
  }

  // Per-type scratch, reused across the k loop: the sort items (plus the
  // merge's spare slot) and order are refilled each iteration and the
  // cumulative tables are reassigned by the BoundarySearch constructor.
  // The suffix water-fill scratch (caps/weights/extras over at most m
  // entities) is sized here too so the loop body stays
  // heap-allocation-free.
  std::vector<OrderItem>& items = ws.items;
  std::vector<std::size_t>& order = ws.order;
  items.resize(m + 1);
  order.resize(m);
  ws.merge.resize(m + 1);
  std::vector<double>& cap_scratch = ws.demand;
  std::vector<double>& weight_scratch = ws.weight;
  std::vector<double>& extra_scratch = ws.grant;
  cap_scratch.resize(m);
  weight_scratch.resize(m);
  extra_scratch.resize(m);
  ws.fill_order.resize(m);
  // rrf-hot-path: end(irt.prepare)

  // rrf-hot-path: begin(irt.types)
  for (std::size_t k = 0; k < p; ++k) {
    const double* share = in.share.data() + k * m;
    const double* demand = in.demand.data() + k * m;
    double* out = grant.data() + k * m;

    // ---- ordering: contributors by ascending U = D/S, then
    // beneficiaries by ascending V = (D - S)/Lambda (lines 9-14), ties
    // by index.  Both keys are computed for every entity, each division
    // over a guarded divisor, and the flag picks one: no branch depends
    // on the data here or in the sort. ----
    std::size_t u = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double s = share[i];
      const double d = demand[i];
      const bool c = d < s - kEps;
      const bool has_share = s > 0.0;
      const double contributor_key =
          branchless(has_share, d / branchless(has_share, s, 1.0), 0.0);
      const double need = d - s;
      const bool has_lambda = lambda[i] > 0.0;
      const double beneficiary_key = branchless(
          need <= 0.0, 0.0,
          branchless(has_lambda, need / branchless(has_lambda, lambda[i], 1.0),
                     kInf));
      items[i] = {pack_key(c, branchless(c, contributor_key, beneficiary_key)),
                  i};
      u += c;
    }
    const std::span<const OrderItem> sorted = sort_items(items, ws.merge);
    for (std::size_t t = 0; t < m; ++t) order[t] = sorted[t].index;

    // ---- boundary search (line 15). ----
    const BoundarySearch search(capacity[k], share, demand, lambda, order,
                                ws);
    std::size_t v = u;
    if (options_.cap_gain_at_contribution) {
      // Budget caps break the monotonicity proof, so the strategy-proof
      // variant always scans linearly: the prefix grows while the next
      // entity is satisfiable within both its proportional cut and its
      // remaining trade budget.
      while (v < m) {
        const std::size_t i = order[v];
        const double need = demand[i] - share[i];
        if (need > budget[i] + kEps) break;
        if (!search.sat(v + 1)) break;
        ++v;
      }
    } else if (options_.search == IrtOptions::Search::kBinary) {
      // Largest v in [u, m] with (v == u or sat(v)); sat is monotone.
      std::size_t lo = u, hi = m;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (mid == u || search.sat(mid)) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      v = lo;
    } else {
      v = u;
      while (v < m && search.sat(v + 1)) ++v;
    }

    if (contract::armed() && !options_.cap_gain_at_contribution) {
      // Boundary-table monotonicity (the binary search's correctness
      // argument, see the BoundarySearch comment): sat() must be true on
      // the whole accepted prefix (u, v] and false at v + 1, exactly the
      // state a linear scan would have stopped in.
      for (std::size_t t = u + 1; t <= v; ++t) {
        RRF_INVARIANT("irt.boundary_monotone", search.sat(t),
                      "type " + std::to_string(k) + ": accepted position " +
                          std::to_string(t) + " of boundary " +
                          std::to_string(v) + " is unsatisfiable");
      }
      RRF_INVARIANT("irt.boundary_monotone", v >= m || !search.sat(v + 1),
                    "type " + std::to_string(k) + ": boundary " +
                        std::to_string(v) +
                        " stopped although the next entity is satisfiable");
    }

    // ---- allocation (lines 16-20). ----
    const double psi = search.psi(v);
    const double lam_suffix = search.suffix_lambda(v);
    double allocated = 0.0;
    for (std::size_t t = 0; t < v; ++t) {
      const std::size_t i = order[t];
      out[i] = demand[i];
      allocated += demand[i];
      if (options_.cap_gain_at_contribution) {
        budget[i] = std::max(0.0, budget[i] - std::max(0.0,
            demand[i] - share[i]));
      }
    }
    if (v < m) {
      if (options_.cap_gain_at_contribution && psi >= 0.0) {
        // Strategy-proof variant: water-fill the surplus over the suffix
        // weighted by contribution, with each gain capped at both the
        // unmet need and the remaining trade budget.  Unplaceable surplus
        // idles (spreading it would reopen the free-gain loophole).
        const std::size_t rest = m - v;
        const std::span<double> caps(cap_scratch.data(), rest);
        const std::span<double> weights(weight_scratch.data(), rest);
        const std::span<double> extras(extra_scratch.data(), rest);
        for (std::size_t t = 0; t < rest; ++t) {
          const std::size_t i = order[v + t];
          const double need = std::max(0.0, demand[i] - share[i]);
          caps[t] = std::min(need, budget[i]);
          weights[t] = lambda[i];
        }
        weighted_max_min_into(psi, caps, weights, extras, ws.fill_order);
        for (std::size_t t = 0; t < rest; ++t) {
          const std::size_t i = order[v + t];
          out[i] = share[i] + extras[t];
          allocated += out[i];
          budget[i] = std::max(0.0, budget[i] - extras[t]);
        }
      } else if (psi >= 0.0 && lam_suffix > 0.0) {
        // Redistribute psi to the unsatisfied suffix by contribution.
        for (std::size_t t = v; t < m; ++t) {
          const std::size_t i = order[t];
          const double g = share[i] + psi * lambda[i] / lam_suffix;
          out[i] = g;
          allocated += g;
        }
        if (contract::armed()) {
          // Gain-as-you-contribute (Algorithm 1 line 20 / Table II): every
          // uncapped entity's gain over its initial share is proportional
          // to its Lambda, i.e. gain_i * Lambda_j == gain_j * Lambda_i.
          const std::size_t a = order[v];
          const double gain_a = out[a] - share[a];
          for (std::size_t t = v + 1; t < m; ++t) {
            const std::size_t i = order[t];
            const double gain_i = out[i] - share[i];
            RRF_INVARIANT(
                "irt.gain_proportional_to_lambda",
                approx_eq(gain_i * lambda[a], gain_a * lambda[i],
                          1e-9 * std::max(1.0, psi * psi)),
                "type " + std::to_string(k) + ": gains " +
                    std::to_string(gain_a) + "/" + std::to_string(gain_i) +
                    " not in Lambda ratio " + std::to_string(lambda[a]) +
                    "/" + std::to_string(lambda[i]));
          }
        }
      } else if (psi >= 0.0) {
        // Nobody in the suffix contributed anything: psi is
        // undistributable under gain-as-you-contribute.  The optional
        // fallback water-fills it by share, capped at each entity's
        // remaining need (keeping the fallback Pareto-efficient).
        const std::size_t rest = m - v;
        const std::span<double> extras(extra_scratch.data(), rest);
        std::fill(extras.begin(), extras.end(), 0.0);
        if (options_.fallback ==
            IrtOptions::SurplusFallback::kProportionalToShare) {
          const std::span<double> needs(cap_scratch.data(), rest);
          const std::span<double> weights(weight_scratch.data(), rest);
          for (std::size_t t = 0; t < rest; ++t) {
            const std::size_t i = order[v + t];
            needs[t] = std::max(0.0, demand[i] - share[i]);
            weights[t] = share[i];
          }
          weighted_max_min_into(psi, needs, weights, extras,
                                ws.fill_order);
        }
        for (std::size_t t = 0; t < rest; ++t) {
          const std::size_t i = order[v + t];
          const double g = share[i] + extras[t];
          out[i] = g;
          allocated += g;
        }
      } else {
        // Overcommitted pool (capacity below the suffix's initial shares):
        // scale the suffix's shares down proportionally so the type fits.
        double suffix_share = 0.0;
        for (std::size_t t = v; t < m; ++t) suffix_share += share[order[t]];
        const double available = std::max(0.0, capacity[k] - allocated);
        const double scale =
            suffix_share > 0.0 ? available / suffix_share : 0.0;
        for (std::size_t t = v; t < m; ++t) {
          const std::size_t i = order[t];
          const double g = share[i] * scale;
          out[i] = g;
          allocated += g;
        }
      }
    }
    unallocated[k] = std::max(0.0, capacity[k] - allocated);

    if (contract::armed()) {
      // Reciprocity (paper Table II "contributed == gained"): when the pool
      // is exactly the sum of initial shares — the normal case, the engine
      // always hands IRT pool == sum(S) — every share some entity gives up
      // is either picked up by another entity or reported idle.
      double total_share = 0.0, contributed = 0.0, gained = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double delta = out[i] - share[i];
        total_share += share[i];
        if (delta < 0.0) {
          contributed -= delta;
        } else {
          gained += delta;
        }
      }
      if (approx_eq(total_share, capacity[k], 1e-9)) {
        RRF_ENSURE("irt.contributed_equals_gained",
                   approx_eq(contributed, gained + unallocated[k], 1e-7),
                   "type " + std::to_string(k) + ": contributed " +
                       std::to_string(contributed) + " != gained " +
                       std::to_string(gained) + " + idle " +
                       std::to_string(unallocated[k]));
      }
    }

    if (traces) {
      (*traces)[k].order = order;
      (*traces)[k].contributor_count = u;
      (*traces)[k].capped_count = v;
      (*traces)[k].redistributed = std::max(0.0, psi);
    }

    if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
      sink->irt_types.push_back(
          obs::ProvenanceIrtType{u, v, std::max(0.0, psi)});
    }

    if (obs::metrics_enabled()) {
      static obs::Histogram& redistributed = obs::metrics().histogram(
          "irt.redistributed_shares", obs::default_magnitude_bounds());
      redistributed.observe(std::max(0.0, psi));
    }
    if (obs::tracing_enabled()) {
      // One trade event per entity whose grant moved away from its initial
      // share: negative value = shares contributed, positive = received.
      obs::EventTracer& tr = obs::tracer();
      for (std::size_t i = 0; i < m; ++i) {
        const double delta = out[i] - share[i];
        if (std::abs(delta) <= kEps) continue;
        obs::TraceEvent e;
        e.kind = obs::EventKind::kIrtTrade;
        e.tenant = static_cast<std::int32_t>(i);
        e.resource = static_cast<std::int8_t>(k);
        e.value = delta;
        e.value2 = lambda[i];
        tr.record(e);
      }
    }
  }
  // rrf-hot-path: end(irt.types)

  if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
    sink->has_irt = true;
    sink->irt.clear();
    sink->irt.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      sink->irt.push_back(obs::FlightIrtTenant{
          i, lambda[i], column_entry(in.share, p, m, i),
          column_entry(in.demand, p, m, i), column_entry(grant, p, m, i)});
    }
  }

  if (contract::armed()) {
    if (options_.cap_gain_at_contribution) {
      // Strategy-proofness (the sp variant's defining property): no entity
      // gains more across all types than its total contribution Lambda(i).
      for (std::size_t i = 0; i < m; ++i) {
        double gain = 0.0;
        for (std::size_t k = 0; k < p; ++k) {
          gain += std::max(0.0, grant[k * m + i] - in.share[k * m + i]);
        }
        RRF_ENSURE("irt.gain_capped_at_contribution",
                   approx_le(gain, lambda[i], 1e-7),
                   "entity " + std::to_string(i) + " gained " +
                       std::to_string(gain) + " > Lambda " +
                       std::to_string(lambda[i]));
      }
    }
    check_column_contracts("irt", capacity, m, in.demand, grant, unallocated,
                           {.demand_capped = true});
  }
}

}  // namespace rrf::alloc
