#include "cluster/cluster.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rrf::cluster {

ResourceVector TenantSpec::total_provisioned() const {
  RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
  ResourceVector total(vms.front().provisioned.size());
  for (const auto& vm : vms) total += vm.provisioned;
  return total;
}

HostSpec paper_host(std::string name) {
  // 24 cores x 3.07 GHz minus 2 cores for domain 0; 24 GB minus 1 GB.
  return HostSpec{std::move(name), ResourceVector{22.0 * 3.07, 23.0}};
}

Cluster::Cluster(std::vector<HostSpec> hosts, PricingModel pricing)
    : hosts_(std::move(hosts)), pricing_(std::move(pricing)) {
  RRF_REQUIRE(!hosts_.empty(), "a cluster needs at least one host");
  for (const auto& h : hosts_) {
    RRF_REQUIRE(h.capacity.all_nonneg(), "negative host capacity");
    largest_host_mem_gb_ =
        std::max(largest_host_mem_gb_, h.capacity[Resource::kRam]);
  }
}

std::size_t Cluster::add_tenant(TenantSpec tenant) {
  RRF_REQUIRE(!tenant.vms.empty(), "tenant with no VMs");
  for (auto& vm : tenant.vms) {
    RRF_REQUIRE(vm.provisioned.all_nonneg(), "negative VM provision");
    RRF_REQUIRE(vm.vcpus >= 1, "VM needs at least one vCPU");
    if (vm.max_mem_gb <= 0.0) {
      // Default ceiling: the largest host's memory (hotplug-style "create
      // with max_memory = host capacity" trick from Section V).
      vm.max_mem_gb = largest_host_mem_gb_;
    }
  }
  tenants_.push_back(std::move(tenant));
  return tenants_.size() - 1;
}

ResourceVector Cluster::total_capacity() const {
  ResourceVector total(hosts_.front().capacity.size());
  for (const auto& h : hosts_) total += h.capacity;
  return total;
}

ResourceVector Cluster::total_provisioned() const {
  RRF_REQUIRE(!tenants_.empty(), "no tenants");
  ResourceVector total(hosts_.front().capacity.size());
  for (const auto& t : tenants_) total += t.total_provisioned();
  return total;
}

ResourceVector Cluster::tenant_shares(std::size_t tenant) const {
  RRF_REQUIRE(tenant < tenants_.size(), "unknown tenant");
  return pricing_.shares_for(tenants_[tenant].total_provisioned());
}

ResourceVector Cluster::vm_shares(std::size_t tenant, std::size_t vm) const {
  RRF_REQUIRE(tenant < tenants_.size(), "unknown tenant");
  RRF_REQUIRE(vm < tenants_[tenant].vms.size(), "unknown VM");
  return pricing_.shares_for(tenants_[tenant].vms[vm].provisioned);
}

bool Cluster::reservation_fits() const {
  return total_provisioned().all_le(total_capacity(), 1e-9);
}

}  // namespace rrf::cluster
