#include "alloc/iwa.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace rrf::alloc {

double iwa_distribute_into(double tenant_total,
                           std::span<const double> initial_shares,
                           std::span<const double> demands,
                           std::span<double> out) {
  RRF_REQUIRE(initial_shares.size() == demands.size(),
              "share/demand length mismatch");
  RRF_REQUIRE(out.size() == initial_shares.size(),
              "output span length mismatch");
  RRF_REQUIRE(tenant_total >= 0.0, "negative tenant grant");
  const std::size_t n = initial_shares.size();
  // rrf-hot-path: begin(iwa.distribute)

  // Line 1: Phi starts as the difference between the tenant-level grant and
  // the sum of the VMs' initial shares (IRT may have grown or shrunk it).
  const double initial_sum =
      std::accumulate(initial_shares.begin(), initial_shares.end(), 0.0);
  double phi = tenant_total - initial_sum;

  // Lines 2-6: satisfied VMs are capped at demand and free their surplus;
  // Gamma accumulates the unsatisfied need.
  double gamma = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (demands[j] >= initial_shares[j]) {
      gamma += demands[j] - initial_shares[j];
    } else {
      phi += initial_shares[j] - demands[j];
    }
  }

  // Lines 7-11: spread Phi over unsatisfied VMs in the ratio of their
  // unsatisfied demands.  We additionally cap at demand (Phi may exceed
  // Gamma) and clamp at zero (the tenant-level grant may be below the sum
  // of VM demands of satisfied VMs in pathological inputs).
  const double fill = gamma > 0.0 ? std::min(phi, gamma) / gamma : 0.0;
  double used = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double grant;
    if (demands[j] >= initial_shares[j]) {
      grant = initial_shares[j] + (demands[j] - initial_shares[j]) * fill;
    } else {
      grant = demands[j];
    }
    grant = std::max(0.0, grant);
    out[j] = grant;
    used += grant;
  }

  // Whatever the VMs cannot absorb stays with the tenant.
  double headroom = std::max(0.0, tenant_total - used);

  // Degenerate defensive case: if the tenant-level grant cannot even cover
  // the capped allocations (tenant_total < used), scale down uniformly so
  // we never hand out more than the tenant owns.
  const bool scaled_down = used > tenant_total && used > 0.0;
  if (scaled_down) {
    const double scale = tenant_total / used;
    for (double& a : out) a *= scale;
    headroom = 0.0;
  }

  if (contract::armed()) {
    // Algorithm 2 post-conditions: grants are non-negative, capped at
    // demand, and every share the tenant was granted is either handed to
    // a VM or kept as headroom — intra-tenant adjustment never creates or
    // destroys shares.
    double granted = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      RRF_ENSURE("iwa.no_negative_allocation", out[j] >= 0.0,
                 "VM " + std::to_string(j) + " grant " +
                     std::to_string(out[j]));
      RRF_ENSURE("iwa.demand_capped", approx_le(out[j], demands[j], 1e-7),
                 "VM " + std::to_string(j) + " grant " +
                     std::to_string(out[j]) + " over demand " +
                     std::to_string(demands[j]));
      granted += out[j];
    }
    RRF_ENSURE("iwa.share_conservation",
               approx_eq(granted + headroom, tenant_total, 1e-7),
               "granted " + std::to_string(granted) + " + headroom " +
                   std::to_string(headroom) + " != tenant grant " +
                   std::to_string(tenant_total));
    if (!scaled_down && fill > 0.0) {
      // Surplus split (Algorithm 2 lines 7-11): every unsatisfied VM gains
      // the same fraction `fill` of its unmet need.
      for (std::size_t j = 0; j < n; ++j) {
        if (demands[j] < initial_shares[j]) continue;
        const double need = demands[j] - initial_shares[j];
        RRF_ENSURE("iwa.surplus_split_ratio",
                   approx_eq(out[j] - initial_shares[j], need * fill, 1e-7),
                   "VM " + std::to_string(j) + " gain " +
                       std::to_string(out[j] - initial_shares[j]) +
                       " != fill " + std::to_string(fill) + " x need " +
                       std::to_string(need));
      }
    }
  }
  // rrf-hot-path: end(iwa.distribute)
  return headroom;
}

IwaResult iwa_distribute(double tenant_total,
                         std::span<const double> initial_shares,
                         std::span<const double> demands) {
  IwaResult result;
  result.allocations.assign(initial_shares.size(), 0.0);
  result.headroom = iwa_distribute_into(tenant_total, initial_shares,
                                        demands, result.allocations);
  return result;
}

IwaVectorResult iwa_distribute(const ResourceVector& tenant_total,
                               std::span<const AllocationEntity> vms) {
  Workspace ws;
  IwaVectorResult out;
  out.allocations.resize(vms.size());
  out.headroom = iwa_distribute_into(tenant_total, vms, ws, out.allocations);
  return out;
}

ResourceVector iwa_distribute_into(const ResourceVector& tenant_total,
                                   std::span<const AllocationEntity> vms,
                                   Workspace& ws,
                                   std::span<ResourceVector> allocations) {
  obs::ProfileScope profile("iwa.distribute");
  RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
  RRF_REQUIRE(allocations.size() == vms.size(),
              "output span length mismatch");
  const std::size_t p = tenant_total.size();
  const std::size_t n = vms.size();

  ResourceVector headroom(p);
  for (ResourceVector& a : allocations) a = ResourceVector(p);

  if (obs::metrics_enabled()) {
    static obs::Counter& invocations =
        obs::metrics().counter("iwa.invocations");
    invocations.add();
  }

  std::vector<double>& shares = ws.share;
  std::vector<double>& demands = ws.demand;
  std::vector<double>& grants = ws.grant;
  shares.resize(n);
  demands.resize(n);
  grants.resize(n);
  // rrf-hot-path: begin(iwa.types)
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      RRF_REQUIRE(vms[j].initial_share.size() == p &&
                      vms[j].demand.size() == p,
                  "VM vector arity mismatch");
      shares[j] = vms[j].initial_share[k];
      demands[j] = vms[j].demand[k];
    }
    headroom[k] =
        iwa_distribute_into(tenant_total[k], shares, demands, grants);
    for (std::size_t j = 0; j < n; ++j) {
      allocations[j][k] = grants[j];
    }

    if (obs::tracing_enabled() || obs::metrics_enabled()) {
      // One weight-adjustment event per VM whose grant moved away from its
      // initial share (positive: gained from siblings, negative: ceded).
      for (std::size_t j = 0; j < n; ++j) {
        const double delta = grants[j] - shares[j];
        if (std::abs(delta) <= 1e-9) continue;
        if (obs::metrics_enabled()) {
          static obs::Counter& adjustments =
              obs::metrics().counter("iwa.adjustments");
          static obs::Histogram& magnitude = obs::metrics().histogram(
              "iwa.adjustment_shares", obs::default_magnitude_bounds());
          adjustments.add();
          magnitude.observe(std::abs(delta));
        }
        if (obs::tracing_enabled()) {
          obs::TraceEvent e;
          e.kind = obs::EventKind::kIwaAdjust;
          e.vm = static_cast<std::int32_t>(j);
          e.resource = static_cast<std::int8_t>(k);
          e.value = delta;
          e.value2 = grants[j];
          obs::tracer().record(e);
        }
      }
    }
  }
  // rrf-hot-path: end(iwa.types)

  if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
    // One entry per call; the caller (hierarchical RRF) invokes this in
    // group order, so the entry index identifies the tenant.
    sink->iwa.push_back(obs::FlightIwa{
        sink->iwa.size(),
        std::vector<ResourceVector>(allocations.begin(), allocations.end()),
        headroom});
  }
  return headroom;
}

}  // namespace rrf::alloc
