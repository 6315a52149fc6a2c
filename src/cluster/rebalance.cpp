#include "cluster/rebalance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include <string>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"

namespace rrf::cluster {

double host_pressure(const ResourceVector& capacity,
                     const ResourceVector& total_demand) {
  return total_demand.dominant_share(capacity);
}

namespace {

struct HostState {
  ResourceVector demand;
  ResourceVector reserved;
};

std::vector<double> pressures(
    const std::vector<ResourceVector>& host_capacity,
    const std::vector<HostState>& hosts) {
  std::vector<double> out(hosts.size());
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    out[h] = host_pressure(host_capacity[h], hosts[h].demand);
  }
  return out;
}

}  // namespace

RebalancePlan plan_rebalance(
    const std::vector<ResourceVector>& host_capacity,
    const std::vector<VmLoad>& vms, const RebalanceOptions& options) {
  obs::ProfileScope profile("rebalance.plan");
  RRF_REQUIRE(!host_capacity.empty(), "no hosts");
  const std::size_t p = host_capacity.front().size();

  std::vector<HostState> hosts(host_capacity.size());
  for (auto& h : hosts) {
    h.demand = ResourceVector(p);
    h.reserved = ResourceVector(p);
  }
  std::vector<std::size_t> where(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    RRF_REQUIRE(vms[i].host < hosts.size(), "VM on unknown host");
    hosts[vms[i].host].demand += vms[i].demand;
    hosts[vms[i].host].reserved += vms[i].reserved;
    where[i] = vms[i].host;
  }

  RebalancePlan plan;
  plan.pressure_before = pressures(host_capacity, hosts);

  for (std::size_t round = 0; round < options.max_migrations; ++round) {
    const std::vector<double> current = pressures(host_capacity, hosts);
    const std::size_t hot = static_cast<std::size_t>(
        std::max_element(current.begin(), current.end()) - current.begin());
    const std::size_t cold = static_cast<std::size_t>(
        std::min_element(current.begin(), current.end()) - current.begin());
    if (current[hot] - current[cold] <= options.pressure_gap_threshold) {
      break;
    }

    // Candidate: cheapest VM on the hot host whose move shrinks the gap
    // and fits the cold host's reservation capacity.
    std::size_t best = vms.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < vms.size(); ++i) {
      if (where[i] != hot) continue;
      if (!(hosts[cold].reserved + vms[i].reserved)
               .all_le(host_capacity[cold], 1e-9)) {
        continue;
      }
      const double hot_after = host_pressure(
          host_capacity[hot], hosts[hot].demand - vms[i].demand);
      const double cold_after = host_pressure(
          host_capacity[cold], hosts[cold].demand + vms[i].demand);
      const double gap_after =
          std::abs(hot_after - cold_after);
      if (gap_after >= current[hot] - current[cold]) continue;
      const double cost = vms[i].demand[Resource::kRam];
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best == vms.size()) break;  // nothing helps

    hosts[hot].demand -= vms[best].demand;
    hosts[hot].reserved -= vms[best].reserved;
    hosts[cold].demand += vms[best].demand;
    hosts[cold].reserved += vms[best].reserved;
    where[best] = cold;
    plan.migrations.push_back(Migration{best, hot, cold, best_cost});
    plan.total_cost_gb += best_cost;
  }

  plan.pressure_after = pressures(host_capacity, hosts);

  if (contract::armed()) {
    // Migration moves load between hosts but never creates or destroys
    // it: summed per-host demand/reservation totals after the plan equal
    // the totals over the VM list itself.
    ResourceVector total_demand(p), total_reserved(p);
    for (const VmLoad& vm : vms) {
      total_demand += vm.demand;
      total_reserved += vm.reserved;
    }
    ResourceVector host_demand(p), host_reserved(p);
    for (const HostState& h : hosts) {
      host_demand += h.demand;
      host_reserved += h.reserved;
    }
    for (std::size_t k = 0; k < p; ++k) {
      RRF_ENSURE("rebalance.totals_conserved",
                 approx_eq(host_demand[k], total_demand[k], 1e-7) &&
                     approx_eq(host_reserved[k], total_reserved[k], 1e-7),
                 "type " + std::to_string(k) + ": hosts carry " +
                     std::to_string(host_demand[k]) + "/" +
                     std::to_string(host_reserved[k]) +
                     " demand/reserved, VM list sums to " +
                     std::to_string(total_demand[k]) + "/" +
                     std::to_string(total_reserved[k]));
    }
    RRF_ENSURE("rebalance.migration_budget",
               plan.migrations.size() <= options.max_migrations,
               std::to_string(plan.migrations.size()) +
                   " migrations exceed budget " +
                   std::to_string(options.max_migrations));
    for (const Migration& mig : plan.migrations) {
      RRF_INVARIANT("rebalance.plan_wellformed",
                    mig.vm_index < vms.size() && mig.from != mig.to &&
                        mig.from < hosts.size() && mig.to < hosts.size(),
                    "migration of VM " + std::to_string(mig.vm_index) +
                        " from " + std::to_string(mig.from) + " to " +
                        std::to_string(mig.to));
    }
  }

  if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
    sink->has_rebalance = true;
    sink->pressure_before = plan.pressure_before;
    sink->pressure_after = plan.pressure_after;
    sink->migrations.clear();
    sink->migrations.reserve(plan.migrations.size());
    for (const Migration& m : plan.migrations) {
      sink->migrations.push_back(obs::FlightMigration{
          vms[m.vm_index].tenant, vms[m.vm_index].vm, m.from, m.to,
          m.cost_gb});
    }
  }

  if (obs::metrics_enabled()) {
    static obs::Counter& plans = obs::metrics().counter("rebalance.plans");
    static obs::Counter& migrations =
        obs::metrics().counter("rebalance.migrations");
    static obs::Histogram& migration_gb = obs::metrics().histogram(
        "rebalance.migration_gb", obs::default_magnitude_bounds());
    static obs::Histogram& gap = obs::metrics().histogram(
        "rebalance.pressure_gap", obs::default_magnitude_bounds());
    plans.add();
    migrations.add(plan.migrations.size());
    for (const Migration& m : plan.migrations) {
      migration_gb.observe(m.cost_gb);
    }
    const auto [lo, hi] = std::minmax_element(plan.pressure_before.begin(),
                                              plan.pressure_before.end());
    gap.observe(*hi - *lo);
  }
  return plan;
}

std::size_t suggest_host_count(const ResourceVector& aggregate_demand,
                               const ResourceVector& host_capacity,
                               double target_utilization) {
  RRF_REQUIRE(target_utilization > 0.0 && target_utilization <= 1.0,
              "target utilization must be in (0, 1]");
  std::size_t hosts = 1;
  for (std::size_t k = 0; k < aggregate_demand.size(); ++k) {
    RRF_REQUIRE(host_capacity[k] > 0.0, "zero host capacity");
    const double needed =
        aggregate_demand[k] / (host_capacity[k] * target_utilization);
    hosts = std::max(hosts,
                     static_cast<std::size_t>(std::ceil(needed - 1e-12)));
  }
  return hosts;
}

}  // namespace rrf::cluster
