#include "sim/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "workload/workload.hpp"

namespace rrf::sim {

namespace {

/// Deterministic closed-form demand for one tenant's VMs: per VM j,
///   demand_k(t) = provisioned_k * clamp(1 + A*sin(2*pi*t/period + phase)
///                                         + bias, 0.05, 2.0)
/// with independent phases per resource type so CPU and RAM peaks are
/// offset (multi-resource trades), and a per-VM bias so some VMs are
/// persistent contributors and others persistent free riders.
///
/// The (VM, type) terms are kept in ascending phase order, so consecutive
/// sin arguments share a quadrant and a size range and the branches inside
/// sin predict; in VM order they are random and a call costs about twice
/// as much.  Each term is written to its own VM and type, so the order
/// changes no output bit.
class SyntheticWorkload final : public wl::Workload {
 public:
  SyntheticWorkload(std::string name, std::size_t vm_count,
                    ResourceVector vm_provisioned, double amplitude,
                    Seconds period, const Rng& seed_rng)
      : name_(std::move(name)),
        vm_provisioned_(std::move(vm_provisioned)),
        amplitude_(amplitude),
        period_(period) {
    const std::size_t p = vm_provisioned_.size();
    std::vector<Term> drawn;
    drawn.reserve(vm_count * p);
    bias_.reserve(vm_count);
    // VM j draws from fork j of the tenant's stream.
    seed_rng.for_each_fork(0, vm_count, [&](std::size_t j, Rng& vm_rng) {
      for (std::size_t k = 0; k < p; ++k) {
        drawn.push_back({vm_rng.uniform(0.0, 2.0 * std::numbers::pi),
                         static_cast<std::uint32_t>(j),
                         static_cast<std::uint32_t>(k)});
      }
      bias_.push_back(vm_rng.uniform(-0.35, 0.35));
    });
    terms_ = by_phase(drawn);
  }

  std::string name() const override { return name_; }
  wl::WorkloadKind kind() const override {
    return wl::WorkloadKind::kKernelBuild;  // nearest "steady" archetype
  }
  wl::PerfMetric metric() const override {
    return wl::PerfMetric::kThroughput;
  }

  ResourceVector demand_at(Seconds t) const override {
    ResourceVector total(vm_provisioned_.size());
    for (const ResourceVector& d : vm_demands_at(t)) total += d;
    return total;
  }

  std::vector<double> vm_split() const override {
    return std::vector<double>(bias_.size(),
                               1.0 / static_cast<double>(bias_.size()));
  }

  std::vector<ResourceVector> vm_demands_at(Seconds t) const override {
    std::vector<ResourceVector> out(bias_.size());
    vm_demands_into(t, out);
    return out;
  }

  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override {
    require_vm_count(bias_.size(), out);
    const std::size_t p = vm_provisioned_.size();
    const double omega = 2.0 * std::numbers::pi / period_;
    // rrf-hot-path: begin(workload.synthetic)
    for (ResourceVector& vm : out) vm = ResourceVector(p);
    for (const Term& term : terms_) {
      const double wave =
          1.0 + amplitude_ * std::sin(omega * t + term.phase) +
          bias_[term.vm];
      out[term.vm][term.type] =
          vm_provisioned_[term.type] * std::clamp(wave, 0.05, 2.0);
    }
    // rrf-hot-path: end(workload.synthetic)
  }

 private:
  /// One VM's phase for one resource type.
  struct Term {
    double phase;
    std::uint32_t vm;
    std::uint32_t type;
  };

  /// `terms` in ascending phase order: a counting sort with one bucket per
  /// term over [0, 2*pi), stable within a bucket.  The phases are uniform,
  /// so a bucket holds about one term, and the sort is O(n) where a
  /// comparison sort's O(n log n) showed in the set-up time.
  static std::vector<Term> by_phase(const std::vector<Term>& terms) {
    const std::size_t n = terms.size();
    const double per_radian =
        static_cast<double>(n) / (2.0 * std::numbers::pi);
    const auto bucket = [&](const Term& term) {
      return std::min(n - 1,
                      static_cast<std::size_t>(term.phase * per_radian));
    };
    std::vector<std::size_t> next(n + 1, 0);  // becomes each bucket's start
    for (const Term& term : terms) ++next[bucket(term) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    std::vector<Term> sorted(n);
    for (const Term& term : terms) sorted[next[bucket(term)]++] = term;
    return sorted;
  }

  std::string name_;
  ResourceVector vm_provisioned_;
  double amplitude_;
  Seconds period_;
  std::vector<Term> terms_;   // ascending phase
  std::vector<double> bias_;  // [vm]
};

}  // namespace

Scenario make_synthetic_scenario(const SyntheticConfig& config) {
  RRF_REQUIRE(config.nodes > 0 && config.vms_per_node > 0,
              "synthetic scenario needs nodes and vms_per_node > 0");
  const std::size_t total_vms = config.nodes * config.vms_per_node;
  RRF_REQUIRE(config.tenants > 0 && config.tenants <= total_vms,
              "synthetic scenario needs 0 < tenants <= total VMs");
  RRF_REQUIRE(config.fill > 0.0 && config.amplitude >= 0.0 &&
                  config.period > 0.0,
              "bad synthetic demand parameters");
  RRF_REQUIRE(config.overcommit > 0.0,
              "synthetic overcommit must be positive");

  std::vector<cluster::HostSpec> hosts;
  hosts.reserve(config.nodes);
  for (std::size_t h = 0; h < config.nodes; ++h) {
    hosts.push_back(cluster::paper_host("node" + std::to_string(h)));
  }
  const ResourceVector host_capacity = hosts.front().capacity;

  // Every VM is provisioned the same slice of a host, `fill` of capacity
  // split across the node's VM population (scaled past what the host has
  // when overcommit > 1; 1.0 multiplies by exactly 1 and is bit-exact).
  ResourceVector vm_provisioned = host_capacity;
  vm_provisioned *= config.fill * config.overcommit /
                    static_cast<double>(config.vms_per_node);
  for (const double capacity : vm_provisioned.values()) {
    RRF_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                "synthetic overcommit " + TextTable::exact(config.overcommit) +
                    " provisions each VM " +
                    vm_provisioned.to_exact_string() +
                    ", not a finite positive capacity");
  }
  const std::size_t vcpus = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(vm_provisioned[0] / wl::kCoreGhz)));

  // Tenant t owns VMs with global index in [first_vm[t], first_vm[t+1]);
  // the remainder of an uneven split goes to the earliest tenants.
  std::vector<std::size_t> vm_count(config.tenants,
                                    total_vms / config.tenants);
  for (std::size_t t = 0; t < total_vms % config.tenants; ++t) {
    ++vm_count[t];
  }

  Scenario scenario{
      cluster::Cluster(std::move(hosts), PricingModel::paper_default()),
      {},
      {},
      {}};
  const Rng root(config.seed);
  std::size_t global_vm = 0;
  for (std::size_t t = 0; t < config.tenants; ++t) {
    cluster::TenantSpec tenant;
    tenant.name = "syn" + std::to_string(t);
    std::vector<std::size_t> host_of;
    host_of.reserve(vm_count[t]);
    for (std::size_t j = 0; j < vm_count[t]; ++j, ++global_vm) {
      cluster::VmSpec vm;
      vm.name = tenant.name + "-vm" + std::to_string(j);
      vm.vcpus = vcpus;
      vm.provisioned = vm_provisioned;
      tenant.vms.push_back(std::move(vm));
      // Round-robin over hosts: each host ends up with exactly
      // vms_per_node VMs because total_vms == nodes * vms_per_node.
      host_of.push_back(global_vm % config.nodes);
    }
    scenario.cluster.add_tenant(std::move(tenant));
    scenario.workloads.push_back(std::make_unique<SyntheticWorkload>(
        "syn" + std::to_string(t), vm_count[t], vm_provisioned,
        config.amplitude, config.period, root.fork(1000 + t)));
    scenario.host_of.push_back(std::move(host_of));
  }
  return scenario;
}

}  // namespace rrf::sim
