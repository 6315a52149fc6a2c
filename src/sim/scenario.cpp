#include "sim/scenario.hpp"

#include <algorithm>

#include "cluster/rebalance.hpp"
#include "common/error.hpp"
#include "workload/profile.hpp"

namespace rrf::sim {

namespace {

std::vector<cluster::HostSpec> make_hosts(std::size_t count) {
  std::vector<cluster::HostSpec> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hosts.push_back(cluster::paper_host("node" + std::to_string(i)));
  }
  return hosts;
}

void check_config(const ScenarioConfig& config) {
  RRF_REQUIRE(!config.workloads.empty(), "scenario needs >= 1 workload");
  RRF_REQUIRE(config.alpha > 0.0, "alpha must be positive");
}

/// The tenants of a scenario before placement, built one at a time: each
/// tenant's workload, VM specs and profiled average demand, and one
/// placement request per VM in tenant, then VM, order.
struct TenantDrafts {
  std::vector<wl::WorkloadPtr> workloads;
  std::vector<cluster::TenantSpec> specs;
  /// The workload's average demand at 1 Hz (pool auto-sizing reads it).
  std::vector<ResourceVector> averages;
  std::vector<cluster::PlacementRequest> requests;

  std::size_t size() const { return specs.size(); }

  /// Builds tenant t = size(), which runs config.workloads[t].
  void add(const ScenarioConfig& config) {
    const std::size_t t = size();
    const Seconds profile_dt = 5.0;
    wl::WorkloadPtr workload =
        wl::make_workload(config.workloads[t], config.seed + 1000 * (t + 1));
    // Sizing uses 1 Hz profiling so the measured average matches the
    // trace's normalized mean exactly (coarser sampling would mis-size
    // VMs by a fraction of a percent, enough to break an exact packing).
    const wl::WorkloadProfile profile =
        wl::profile_workload(*workload, config.profile_duration, 1.0);

    cluster::TenantSpec tenant;
    tenant.name = workload->name() + "#" + std::to_string(t);
    const std::vector<double> split = workload->vm_split();

    // Per-VM demand series for placement (split of the total profile).
    const std::vector<double> cpu_series = wl::demand_series(
        *workload, Resource::kCpu, config.profile_duration, profile_dt);
    const std::vector<double> ram_series = wl::demand_series(
        *workload, Resource::kRam, config.profile_duration, profile_dt);

    for (std::size_t j = 0; j < split.size(); ++j) {
      cluster::VmSpec vm;
      vm.name = tenant.name + "/vm" + std::to_string(j);
      // The paper configures 4 vCPUs per VM; we add head-room when a VM's
      // peak demand cannot physically fit on 4 cores, so the vCPU ceiling
      // never clips what the credit scheduler was asked to deliver.
      const double peak_cores =
          profile.peak[Resource::kCpu] * split[j] / wl::kCoreGhz;
      vm.vcpus = std::max<std::size_t>(
          4, static_cast<std::size_t>(std::ceil(peak_cores)));
      vm.provisioned = profile.average * (config.alpha * split[j]);
      tenant.vms.push_back(vm);

      cluster::PlacementRequest request;
      request.reserved = vm.provisioned;
      request.group = t;
      request.cpu_profile.reserve(cpu_series.size());
      request.ram_profile.reserve(ram_series.size());
      for (std::size_t s = 0; s < cpu_series.size(); ++s) {
        request.cpu_profile.push_back(cpu_series[s] * split[j]);
        request.ram_profile.push_back(ram_series[s] * split[j]);
      }
      requests.push_back(std::move(request));
    }

    specs.push_back(std::move(tenant));
    workloads.push_back(std::move(workload));
    averages.push_back(profile.average);
  }

  /// Drops the last tenant built.
  void pop() {
    requests.resize(requests.size() - specs.back().vms.size());
    specs.pop_back();
    workloads.pop_back();
    averages.pop_back();
  }

  /// config.hosts, or when it is 0 the pool scaling of the tenants'
  /// aggregate provisioned capacity (the GSA's bulk reservation).
  std::size_t host_count(const ScenarioConfig& config) const {
    if (config.hosts != 0) return config.hosts;
    ResourceVector aggregate(kDefaultResourceCount);
    for (const ResourceVector& average : averages) {
      aggregate += average * config.alpha;
    }
    return cluster::suggest_host_count(aggregate,
                                       cluster::paper_host().capacity,
                                       config.autosize_utilization);
  }

  /// Places every request, in order, onto `hosts` paper hosts.
  cluster::PlacementResult place(const ScenarioConfig& config,
                                 std::size_t hosts) const {
    std::vector<ResourceVector> capacities;
    capacities.reserve(hosts);
    for (const cluster::HostSpec& host : make_hosts(hosts)) {
      capacities.push_back(host.capacity);
    }
    cluster::PlacementResult placement =
        cluster::place_vms(capacities, requests, config.placement);
    RRF_REQUIRE(placement.placed > 0, "nothing could be placed");
    return placement;
  }

  /// The scenario of these tenants on `hosts` paper hosts, placed by
  /// `placement`; the workloads and specs move into it.
  Scenario assemble(const ScenarioConfig& config, std::size_t hosts,
                    const cluster::PlacementResult& placement) && {
    Scenario scenario{
        cluster::Cluster(make_hosts(hosts), config.pricing), {}, {}, {}};
    scenario.host_of.resize(size());
    std::size_t r = 0;
    for (std::size_t t = 0; t < size(); ++t) {
      scenario.host_of[t].resize(specs[t].vms.size());
      for (std::size_t j = 0; j < specs[t].vms.size(); ++j, ++r) {
        if (placement.host_of[r]) {
          scenario.host_of[t][j] = *placement.host_of[r];
        } else {
          scenario.host_of[t][j] = 0;  // engine skips unplaced VMs
          scenario.unplaced.emplace_back(t, j);
        }
      }
      scenario.cluster.add_tenant(std::move(specs[t]));
      scenario.workloads.push_back(std::move(workloads[t]));
    }
    return scenario;
  }
};

}  // namespace

Scenario build_scenario(const ScenarioConfig& config) {
  check_config(config);
  TenantDrafts drafts;
  while (drafts.size() < config.workloads.size()) drafts.add(config);
  const std::size_t hosts = drafts.host_count(config);
  const cluster::PlacementResult placement = drafts.place(config, hosts);
  return std::move(drafts).assemble(config, hosts, placement);
}

Scenario fill_scenario(std::size_t hosts,
                       const std::vector<wl::WorkloadKind>& cycle,
                       double alpha, std::uint64_t seed,
                       std::size_t max_tenants) {
  RRF_REQUIRE(!cycle.empty(), "need at least one workload kind");
  ScenarioConfig config;
  config.hosts = hosts;
  config.alpha = alpha;
  config.seed = seed;
  config.workloads = {cycle[0]};
  check_config(config);

  // Each tenant is built once, as build_scenario would build it; only the
  // placement re-runs over the growing list.  Grow until the newest
  // tenant fails to place fully, then return the previous list.
  TenantDrafts drafts;
  drafts.add(config);
  std::size_t best_hosts = drafts.host_count(config);
  cluster::PlacementResult best = drafts.place(config, best_hosts);
  if (!best.all_placed()) {
    throw DomainError("not even one tenant fits at this alpha");
  }
  for (std::size_t k = 1; k < max_tenants; ++k) {
    config.workloads.push_back(cycle[k % cycle.size()]);
    drafts.add(config);
    const std::size_t next_hosts = drafts.host_count(config);
    cluster::PlacementResult next = drafts.place(config, next_hosts);
    if (!next.all_placed()) {
      drafts.pop();
      break;
    }
    best = std::move(next);
    best_hosts = next_hosts;
  }
  return std::move(drafts).assemble(config, best_hosts, best);
}

double peak_alpha(const ScenarioConfig& config) {
  double worst = 1.0;
  for (std::size_t t = 0; t < config.workloads.size(); ++t) {
    wl::WorkloadPtr workload = wl::make_workload(
        config.workloads[t], config.seed + 1000 * (t + 1));
    const wl::WorkloadProfile p =
        wl::profile_workload(*workload, config.profile_duration);
    for (std::size_t k = 0; k < p.average.size(); ++k) {
      if (p.average[k] > 0.0) {
        worst = std::max(worst, p.peak[k] / p.average[k]);
      }
    }
  }
  return worst;
}

}  // namespace rrf::sim
