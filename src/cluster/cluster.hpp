// Cluster data model: VMs, tenants, hosts and the global share allocator's
// bulk view (paper Section III-B / Figure 1).
//
// A tenant buys a set of VMs; each VM's provisioned capacity is translated
// into shares by the pricing model (f1).  The cluster tracks which host
// each VM landed on; the per-node local allocators (IRT + IWA) and the
// hypervisor actuation live in other modules.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/pricing.hpp"
#include "common/resource_vector.hpp"
#include "common/types.hpp"

namespace rrf::cluster {

struct VmSpec {
  std::string name;
  std::size_t vcpus{4};  // the paper configures 4 vCPUs per VM
  /// Capacity the tenant provisioned for this VM: <GHz, GB>.
  ResourceVector provisioned{0.0, 0.0};
  /// Ballooning ceiling; defaults to the host's memory when 0.
  double max_mem_gb{0.0};
};

struct TenantSpec {
  std::string name;
  std::vector<VmSpec> vms;

  /// Aggregate provisioned capacity of all the tenant's VMs.
  ResourceVector total_provisioned() const;
};

struct HostSpec {
  std::string name;
  /// Capacity available to VMs (domain-0 overhead already removed).
  ResourceVector capacity{0.0, 0.0};
};

/// The paper's testbed node: 24 cores / 24 GB minus 2 cores + 1 GB for
/// domain 0 => 22 cores (67.54 GHz) and 23 GB for VMs.
HostSpec paper_host(std::string name = "node");

/// Where each VM of each tenant lives.
struct Placement {
  /// assignment[tenant][vm] = host index.
  std::vector<std::vector<std::size_t>> assignment;
};

class Cluster {
 public:
  Cluster(std::vector<HostSpec> hosts, PricingModel pricing);

  const std::vector<HostSpec>& hosts() const { return hosts_; }
  const PricingModel& pricing() const { return pricing_; }

  std::size_t add_tenant(TenantSpec tenant);
  const std::vector<TenantSpec>& tenants() const { return tenants_; }

  /// Aggregate capacity across all hosts.
  ResourceVector total_capacity() const;

  /// Aggregate provisioned capacity across all tenants (what the GSA must
  /// reserve in bulk).
  ResourceVector total_provisioned() const;

  /// Initial share vector of tenant `i` (f1 of its provisioned capacity).
  ResourceVector tenant_shares(std::size_t tenant) const;

  /// Initial share vector of one VM.
  ResourceVector vm_shares(std::size_t tenant, std::size_t vm) const;

  /// True if the bulk reservation fits: total provisioned <= capacity.
  bool reservation_fits() const;

 private:
  std::vector<HostSpec> hosts_;
  PricingModel pricing_;
  std::vector<TenantSpec> tenants_;
  /// The hosts are fixed at construction, so their largest memory, the
  /// default ballooning ceiling of a VM, is found once.
  double largest_host_mem_gb_{0.0};
};

}  // namespace rrf::cluster
