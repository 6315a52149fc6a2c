#include "alloc/iwa.hpp"

#include <cmath>
#include <numeric>
#include <string>

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

/// Algorithm 2 for one tenant and one resource type: spreads
/// `tenant_total` over the VMs `vms` of the type's share / demand columns,
/// writes their grants into the same slots of `out` and returns the
/// tenant's headroom.  `initial_sum` is the VMs' shares summed in `vms`
/// order.
double distribute(double tenant_total, double initial_sum,
                  const double* share, const double* demand,
                  std::span<const std::size_t> vms, double* out) {
  RRF_REQUIRE(tenant_total >= 0.0, "negative tenant grant");
  // rrf-hot-path: begin(iwa.distribute)

  // Line 1: Phi starts as the difference between the tenant-level grant and
  // the sum of the VMs' initial shares (IRT may have grown or shrunk it).
  double phi = tenant_total - initial_sum;

  // Lines 2-6: satisfied VMs are capped at demand and free their surplus;
  // Gamma accumulates the unsatisfied need.  Every choice below is a
  // branchless() select (max(0, x) is x > 0 ? x : +0.0).  Each VM adds
  // +0.0 to the sum it does not feed: that leaves Gamma's bits alone (it
  // is never -0.0) and can flip only a -0.0 Phi, which no grant tells
  // from +0.0.
  double gamma = 0.0;
  for (const std::size_t j : vms) {
    const bool unsatisfied = demand[j] >= share[j];
    gamma += branchless(unsatisfied, demand[j] - share[j], 0.0);
    phi += branchless(unsatisfied, 0.0, share[j] - demand[j]);
  }

  // Lines 7-11: spread Phi over unsatisfied VMs in the ratio of their
  // unsatisfied demands.  We additionally cap at demand (Phi may exceed
  // Gamma) and clamp at zero (the tenant-level grant may be below the sum
  // of VM demands of satisfied VMs in pathological inputs).
  const bool short_of_need = gamma > 0.0;
  const double spread = branchless(gamma < phi, gamma, phi);  // min(Phi, Gamma)
  const double fill = branchless(
      short_of_need, spread / branchless(short_of_need, gamma, 1.0), 0.0);
  double used = 0.0;
  for (const std::size_t j : vms) {
    const double grant = branchless(
        demand[j] >= share[j], share[j] + (demand[j] - share[j]) * fill,
        demand[j]);
    out[j] = branchless(grant > 0.0, grant, 0.0);
    used += out[j];
  }

  // Whatever the VMs cannot absorb stays with the tenant.
  const double left = tenant_total - used;
  double headroom = branchless(left > 0.0, left, 0.0);

  // Degenerate defensive case: if the tenant-level grant cannot even cover
  // the capped allocations (tenant_total < used), scale down uniformly so
  // we never hand out more than the tenant owns.
  const bool scaled_down = used > tenant_total && used > 0.0;
  if (scaled_down) {
    const double scale = tenant_total / used;
    for (const std::size_t j : vms) out[j] *= scale;
    headroom = 0.0;
  }
  // rrf-hot-path: end(iwa.distribute)

  if (contract::armed()) {
    // Algorithm 2 post-conditions: grants are non-negative, capped at
    // demand, and every share the tenant was granted is either handed to
    // a VM or kept as headroom — intra-tenant adjustment never creates or
    // destroys shares.
    double granted = 0.0;
    for (std::size_t t = 0; t < vms.size(); ++t) {
      const std::size_t j = vms[t];
      RRF_ENSURE("iwa.no_negative_allocation", out[j] >= 0.0,
                 "VM " + std::to_string(t) + " grant " +
                     std::to_string(out[j]));
      RRF_ENSURE("iwa.demand_capped", approx_le(out[j], demand[j], 1e-7),
                 "VM " + std::to_string(t) + " grant " +
                     std::to_string(out[j]) + " over demand " +
                     std::to_string(demand[j]));
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
      for (std::size_t t = 0; t < vms.size(); ++t) {
        const std::size_t j = vms[t];
        if (demand[j] < share[j]) continue;
        const double need = demand[j] - share[j];
        RRF_ENSURE("iwa.surplus_split_ratio",
                   approx_eq(out[j] - share[j], need * fill, 1e-7),
                   "VM " + std::to_string(t) + " gain " +
                       std::to_string(out[j] - share[j]) + " != fill " +
                       std::to_string(fill) + " x need " +
                       std::to_string(need));
      }
    }
  }
  return headroom;
}

/// Tenant g's VMs, as indices into the columns.
std::span<const std::size_t> vms_of(const TenantColumns& in, std::size_t g) {
  return in.members.subspan(in.first[g], in.first[g + 1] - in.first[g]);
}

/// One weight-adjustment event and metric per VM whose grant moved away
/// from its initial share (positive: gained from siblings, negative:
/// ceded), tenant by tenant, then type by type.
void record_adjustments(const TenantColumns& in,
                        std::span<const double> entitlement) {
  for (std::size_t g = 0; g < in.tenants(); ++g) {
    const std::span<const std::size_t> vms = vms_of(in, g);
    for (std::size_t k = 0; k < in.types; ++k) {
      for (std::size_t t = 0; t < vms.size(); ++t) {
        const std::size_t at = k * in.vms + vms[t];
        const double delta = entitlement[at] - in.share[at];
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
          e.vm = static_cast<std::int32_t>(t);
          e.resource = static_cast<std::int8_t>(k);
          e.value = delta;
          e.value2 = entitlement[at];
          obs::tracer().record(e);
        }
      }
    }
  }
}

/// The tenant's VMs as one tenant of the workspace's VM columns.
TenantColumns lay_out(std::size_t p, std::span<const AllocationEntity> vms,
                      Workspace& ws) {
  RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
  const std::size_t n = vms.size();
  ws.vm_share.resize(p * n);
  ws.vm_demand.resize(p * n);
  ws.vm_grant.resize(p * n);
  for (std::size_t j = 0; j < n; ++j) {
    RRF_REQUIRE(vms[j].initial_share.size() == p && vms[j].demand.size() == p,
                "VM vector arity mismatch");
    for (std::size_t k = 0; k < p; ++k) {
      ws.vm_share[k * n + j] = vms[j].initial_share[k];
      ws.vm_demand[k * n + j] = vms[j].demand[k];
    }
  }
  ws.members.resize(n);
  std::iota(ws.members.begin(), ws.members.end(), std::size_t{0});
  ws.first.assign({0, n});
  return TenantColumns{p, n, ws.vm_share, ws.vm_demand, ws.members, ws.first,
                       {}};
}

}  // namespace

IwaResult iwa_distribute(double tenant_total,
                         std::span<const double> initial_shares,
                         std::span<const double> demands) {
  RRF_REQUIRE(initial_shares.size() == demands.size(),
              "share/demand length mismatch");
  std::vector<std::size_t> vms(initial_shares.size());
  std::iota(vms.begin(), vms.end(), std::size_t{0});
  IwaResult result;
  result.allocations.assign(vms.size(), 0.0);
  result.headroom = distribute(
      tenant_total,
      std::accumulate(initial_shares.begin(), initial_shares.end(), 0.0),
      initial_shares.data(), demands.data(), vms, result.allocations.data());
  return result;
}

IwaVectorResult iwa_distribute(const ResourceVector& tenant_total,
                               std::span<const AllocationEntity> vms) {
  const std::size_t p = tenant_total.size();
  Workspace ws;
  const TenantColumns in = lay_out(p, vms, ws);
  sum_tenants(in, ws);
  iwa_columns(in, ws.tenant_share, tenant_total.values(), ws, ws.vm_grant);
  IwaVectorResult out;
  out.allocations.assign(vms.size(), ResourceVector(p));
  out.headroom = ResourceVector(p);
  for (std::size_t k = 0; k < p; ++k) {
    for (std::size_t j = 0; j < vms.size(); ++j) {
      out.allocations[j][k] = ws.vm_grant[k * vms.size() + j];
    }
    out.headroom[k] = ws.tenant_headroom[k];
  }
  return out;
}

void sum_tenants(const TenantColumns& in, Workspace& ws) {
  const std::size_t m = in.tenants();
  const std::size_t n = in.vms;
  RRF_REQUIRE(m > 0, "no tenants");
  RRF_REQUIRE(in.share.size() == in.types * n &&
                  in.demand.size() == in.types * n &&
                  in.first.front() == 0 && in.first.back() == in.members.size(),
              "tenant column length mismatch");
  for (std::size_t g = 0; g < m; ++g) {
    RRF_REQUIRE(in.first[g] < in.first[g + 1], "tenant with no VMs");
  }
  ws.tenant_share.resize(in.types * m);
  ws.tenant_demand.resize(in.types * m);
  // rrf-hot-path: begin(iwa.sum_tenants)
  for (std::size_t k = 0; k < in.types; ++k) {
    const double* share = in.share.data() + k * n;
    const double* demand = in.demand.data() + k * n;
    for (std::size_t g = 0; g < m; ++g) {
      double s = 0.0;
      double d = 0.0;
      for (const std::size_t j : vms_of(in, g)) {
        s += share[j];
        d += demand[j];
      }
      ws.tenant_share[k * m + g] = s;
      ws.tenant_demand[k * m + g] = d;
    }
  }
  // rrf-hot-path: end(iwa.sum_tenants)
}

void iwa_columns(const TenantColumns& in, std::span<const double> tenant_share,
                 std::span<const double> tenant_total, Workspace& ws,
                 std::span<double> entitlement) {
  obs::ProfileScope profile("iwa.distribute");
  const std::size_t m = in.tenants();
  const std::size_t n = in.vms;
  RRF_REQUIRE(tenant_share.size() == in.types * m &&
                  tenant_total.size() == in.types * m &&
                  entitlement.size() == in.types * n,
              "IWA column length mismatch");
  ws.tenant_headroom.resize(in.types * m);

  if (obs::metrics_enabled()) {
    static obs::Counter& invocations =
        obs::metrics().counter("iwa.invocations");
    invocations.add(m);
  }

  // rrf-hot-path: begin(iwa.types)
  for (std::size_t k = 0; k < in.types; ++k) {
    const double* share = in.share.data() + k * n;
    const double* demand = in.demand.data() + k * n;
    double* out = entitlement.data() + k * n;
    for (std::size_t g = 0; g < m; ++g) {
      ws.tenant_headroom[k * m + g] =
          distribute(tenant_total[k * m + g], tenant_share[k * m + g], share,
                     demand, vms_of(in, g), out);
    }
  }
  // rrf-hot-path: end(iwa.types)

  if (obs::tracing_enabled() || obs::metrics_enabled()) {
    record_adjustments(in, entitlement);
  }

  if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
    // One entry per tenant, in tenant order, so the entry index
    // identifies the tenant.
    for (std::size_t g = 0; g < m; ++g) {
      const std::span<const std::size_t> vms = vms_of(in, g);
      obs::FlightIwa entry{sink->iwa.size(),
                           std::vector<ResourceVector>(
                               vms.size(), ResourceVector(in.types)),
                           ResourceVector(in.types)};
      for (std::size_t k = 0; k < in.types; ++k) {
        for (std::size_t t = 0; t < vms.size(); ++t) {
          entry.vm_grant[t][k] = entitlement[k * n + vms[t]];
        }
        entry.headroom[k] = ws.tenant_headroom[k * m + g];
      }
      sink->iwa.push_back(std::move(entry));
    }
  }
}

void iwa_tenants(const TenantColumns& in, Workspace& ws,
                 std::span<double> entitlement) {
  sum_tenants(in, ws);
  iwa_columns(in, ws.tenant_share, ws.tenant_share, ws, entitlement);
}

}  // namespace rrf::alloc
