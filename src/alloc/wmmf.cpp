#include "alloc/wmmf.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "alloc/contract_checks.hpp"
#include "common/branchless.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"

namespace rrf::alloc {

namespace {

// The single-weight path keeps demand bit patterns in the index scratch.
static_assert(sizeof(std::size_t) == sizeof(double));

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinNormal = std::numeric_limits<double>::min();
/// The bits of +inf.  A double whose bits lie below them is +0 or finite
/// and positive, and such doubles order as their bits do.
constexpr std::size_t kInfBits = std::bit_cast<std::size_t>(kInf);
/// Newton passes the single-weight path spends looking for the water
/// height (rrf-dense needs 3-4).
constexpr int kNewtonPasses = 8;
/// Up to this many users std::sort is an insertion sort, and the index
/// sort beats the single-weight path's passes (at 8 users the path took
/// 0.17-0.21 us a call against 0.12-0.15 us).
constexpr std::size_t kInsertionSortMax = 16;

std::size_t bits(double x) { return std::bit_cast<std::size_t>(x); }
double from_bits(std::size_t b) { return std::bit_cast<double>(b); }

[[noreturn]] void throw_out_of_range(const char* what) {
  throw DomainError(std::string("weighted max-min: ") + what +
                    " (every water-fill product must stay in the normal "
                    "double range, 2.2250738585072014e-308 to "
                    "1.7976931348623157e+308)");
}

/// Throws DomainError unless every product the water-fill walk forms
/// (demand times the active weight, remaining capacity times a weight,
/// level times a weight) stays in the normal range: `largest` and
/// `smallest` are the largest and the smallest nonzero of the capacity
/// and the weighted users' demands.  Outside it the test d*A <= R*w
/// compares 0 with 0 or inf with inf and hands out capacity that is not
/// there, or the level R/inf idles all of it.
void check_range(double largest, double smallest, double min_weight,
                 double weight_sum) {
  if (!(weight_sum < kInf)) {
    throw_out_of_range("the weight sum overflows");
  }
  if (!(largest * weight_sum < kInf)) {
    throw_out_of_range(
        "the largest demand or capacity times the weight sum overflows");
  }
  if (smallest * min_weight < kMinNormal) {
    throw_out_of_range(
        "the smallest nonzero demand or capacity times the smallest "
        "positive weight is below the smallest normal double");
  }
}

}  // namespace

std::vector<double> weighted_max_min(double capacity,
                                     std::span<const double> demands,
                                     std::span<const double> weights) {
  std::vector<double> alloc(demands.size());
  std::vector<std::size_t> order;
  weighted_max_min_into(capacity, demands, weights, alloc, order);
  return alloc;
}

// rrf-hot-path: begin(wmmf.fill)
namespace {

/// The contended water-fill when every user has the same weight w (finite,
/// > 0) and every demand is +0 or finite and positive; `demand_bits` holds
/// the nonzero demands' bits in index order.  It runs the std::sort path's
/// walk (the same active-weight fold, test, subtractions and cap) over the
/// demands in ascending order, sorting only those up to the water level.
/// Returns false, having written nothing, when std::sort's tie order could
/// show in the result.
///
/// With one weight the sort key d*w orders as d does, and the walk reads
/// only the ascending sequence of demand values.  Ties in the key permute
/// users in an order only std::sort knows; they cannot show when
///  * no two distinct demands up to the one the walk stops on share a
///    product (then ties only swap copies of one demand, which no sum can
///    tell apart; a larger demand tied with the stop fails the test too);
///  * the walk stops on the first copy of its demand (else the tie order
///    picks which copies were satisfied).
bool fill_one_weight(double capacity, std::span<const double> demands,
                     double w, double active_weight, std::size_t zeros,
                     std::span<std::size_t> demand_bits,
                     std::span<double> out) {
  // The zero demands sort first and are all satisfied: remaining stays and
  // the active weight drops by w for each.
  double remaining = capacity;
  for (std::size_t z = 0; z < zeros; ++z) active_weight -= w;

  // Newton steps from below on sum_i min(d_i, h) = remaining.  Each pass
  // moves the demands at or below the new height h to the front of `c`;
  // the walk stops at or just above the final height.
  std::size_t* c = demand_bits.data();
  const std::size_t m = demand_bits.size();
  std::size_t below = 0;
  double below_sum = 0.0;
  double h = 0.0;
  for (int pass = 0; pass < kNewtonPasses && below < m; ++pass) {
    const double above = static_cast<double>(m - below);
    const double step = (remaining - below_sum - above * h) / above;
    if (!(step > 0.0)) break;
    h += step;
    const std::size_t h_bits = bits(h);
    const std::size_t before = below;
    for (std::size_t j = below; j < m; ++j) {
      const std::size_t v = c[j];
      c[j] = c[below];
      c[below] = v;
      const bool in = v <= h_bits;
      below_sum += in ? from_bits(v) : 0.0;
      below += in;
    }
    if (below == before) break;  // no demand crossed: h is the level
  }
  // The smallest demand above the height closes the run, which an
  // insertion sort orders: it is short, and std::sort's partition step
  // mispredicts more.
  std::size_t sorted = below;
  if (below < m) {
    std::swap(c[below], *std::min_element(c + below, c + m));
    ++sorted;
  }
  for (std::size_t i = 1; i < sorted; ++i) {
    const std::size_t v = c[i];
    std::size_t j = i;
    for (; j > 0 && c[j - 1] > v; --j) c[j] = c[j - 1];
    c[j] = v;
  }

  double prev = 0.0;  // the demand last satisfied; the zero group's first
  for (std::size_t j = 0; j < sorted; ++j) {
    const double d = from_bits(c[j]);
    if (!exactly_equal(d, prev) && exactly_equal(d * w, prev * w)) {
      return false;  // distinct demands tied in the sort key
    }
    if (d * active_weight <= remaining * w) {
      remaining -= d;
      active_weight -= w;
      prev = d;
      continue;
    }
    if (exactly_equal(d, prev)) return false;  // the stop splits a run
    // Demands below the stop keep what they asked for and the rest get the
    // level times w, capped at demand: a select, as the test is random.
    const double level = remaining / active_weight;
    const double cap = level * w;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const double di = demands[i];
      out[i] = branchless(di < d, di, std::min(di, cap));
    }
    return true;
  }
  // Every sorted demand was satisfied; unless that was all of them, the
  // walk would go on past what was sorted.
  if (sorted < m) return false;
  std::copy(demands.begin(), demands.end(), out.begin());
  return true;
}

}  // namespace

void weighted_max_min_into(double capacity, std::span<const double> demands,
                           std::span<const double> weights,
                           std::span<double> out,
                           std::vector<std::size_t>& order_scratch) {
  RRF_REQUIRE(demands.size() == weights.size(),
              "demand/weight length mismatch");
  RRF_REQUIRE(out.size() == demands.size(), "output length mismatch");
  RRF_REQUIRE(capacity >= 0.0, "negative capacity");
  const std::size_t n = demands.size();
  if (n == 0) return;
  if (order_scratch.size() < n) order_scratch.resize(n);
  std::size_t* scratch = order_scratch.data();

  // One pass sums the demands and, above the insertion-sort size, gathers
  // what the single-weight path needs: whether every weight has the same
  // bits, the std::sort path's active-weight fold under that weight, the
  // largest demand bits, the smallest nonzero demand and the nonzero
  // demands' bits.
  const bool sort_light = n > kInsertionSortMax;
  const double w = weights[0];
  double total_demand = 0.0;
  double fold = 0.0;
  const std::size_t weight_bits = bits(w);
  bool one_weight = true;
  std::size_t largest_bits = 0;
  std::size_t smallest_bits = kInfBits;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_demand += demands[i];
    if (!sort_light) continue;
    fold += w;
    const std::size_t b = bits(demands[i]);
    one_weight &= bits(weights[i]) == weight_bits;
    largest_bits = std::max(largest_bits, b);
    smallest_bits = std::min(smallest_bits, b != 0 ? b : kInfBits);
    scratch[nonzero] = b;
    nonzero += b != 0;
  }
  if (total_demand <= capacity) {
    // Abundant capacity: everyone is capped at demand (principle 2).
    std::copy(demands.begin(), demands.end(), out.begin());
    return;
  }

  if (sort_light && one_weight && w > 0.0 && w < kInf &&
      largest_bits < kInfBits) {
    check_range(std::max(capacity, from_bits(largest_bits)),
                std::min(capacity > 0.0 ? capacity : kInf,
                         from_bits(smallest_bits)),
                w, fold);
    if (fill_one_weight(capacity, demands, w, fold, n - nonzero,
                        std::span<std::size_t>(scratch, nonzero), out)) {
      return;
    }
  }

  // Contended, the exact path: water-fill over the weighted users in
  // increasing d/w order.
  std::fill(out.begin(), out.end(), 0.0);
  std::size_t* order = scratch;
  std::size_t count = 0;
  double largest = capacity;
  double smallest = capacity > 0.0 ? capacity : kInf;
  double min_weight = kInf;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(weights[i] > 0.0)) continue;
    order[count++] = i;
    largest = std::max(largest, demands[i]);
    smallest = std::min(smallest, demands[i] > 0.0 ? demands[i] : kInf);
    min_weight = std::min(min_weight, weights[i]);
    weight_sum += weights[i];
  }
  // Checked before the sort, whose comparator a non-finite product breaks.
  check_range(largest, smallest, min_weight, weight_sum);
  std::sort(order, order + count, [&](std::size_t a, std::size_t b) {
    return demands[a] * weights[b] < demands[b] * weights[a];
  });

  double remaining = capacity;
  double active_weight = 0.0;
  for (std::size_t idx = 0; idx < count; ++idx) {
    active_weight += weights[order[idx]];
  }
  // The fold in d/w order rounds apart from the sum above only in its
  // last bits, but at the edge of the range that can still overflow.
  check_range(largest, smallest, min_weight, active_weight);

  for (std::size_t idx = 0; idx < count; ++idx) {
    const std::size_t i = order[idx];
    // Would giving every remaining user the level d_i/w_i fit?
    if (demands[i] * active_weight <= remaining * weights[i]) {
      out[i] = demands[i];  // satisfied, surplus flows on
      remaining -= demands[i];
      active_weight -= weights[i];
    } else {
      // Water level found: all remaining users split `remaining` by weight.
      const double level = remaining / active_weight;
      for (std::size_t j = idx; j < count; ++j) {
        const std::size_t u = order[j];
        out[u] = std::min(demands[u], level * weights[u]);
      }
      return;
    }
  }
}
// rrf-hot-path: end(wmmf.fill)

void WmmfAllocator::allocate_flat(const ResourceVector& capacity,
                                  const FlatColumns& in, Workspace& ws,
                                  std::span<double> grant,
                                  ResourceVector& unallocated,
                                  std::vector<double>* /*lambda*/) const {
  validate_columns(capacity, in);
  const std::size_t p = capacity.size();
  const std::size_t m = in.entities;
  RRF_REQUIRE(in.weight.size() == m && grant.size() == p * m,
              "WMMF column length mismatch");
  unallocated = ResourceVector(p);
  ws.fill_order.resize(m);
  for (std::size_t k = 0; k < p; ++k) {
    const std::span<const double> demands = in.demand.subspan(k * m, m);
    std::span<const double> weights = in.share.subspan(k * m, m);
    const std::span<double> alloc = grant.subspan(k * m, m);
    bool any_weight = false;
    for (const double w : weights) any_weight = any_weight || w > 0.0;
    if (!any_weight) {
      // Nobody owns shares of this type: fall back to scalar weights so the
      // capacity is still distributed fairly.
      weights = in.weight;
    }
    weighted_max_min_into(capacity[k], demands, weights, alloc,
                          ws.fill_order);
    double used = 0.0;
    for (std::size_t i = 0; i < m; ++i) used += alloc[i];
    unallocated[k] = std::max(0.0, capacity[k] - used);

    if (contract::armed() &&
        unallocated[k] > 1e-7 * std::max(1.0, capacity[k])) {
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
                       std::to_string(unallocated[k]) + " idles");
      }
    }
  }

  if (contract::armed()) {
    check_column_contracts("wmmf", capacity, m, in.demand, grant, unallocated,
                           {.demand_capped = true});
  }
}

}  // namespace rrf::alloc
