#include "hypervisor/node.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rrf::hv {

HypervisorNode::HypervisorNode(Config config)
    : config_(std::move(config)),
      scheduler_(config_.capacity[Resource::kCpu], config_.scheduler_mode) {
  RRF_REQUIRE(config_.capacity.size() == kDefaultResourceCount,
              "node capacity must be <GHz, GB>");
  RRF_REQUIRE(config_.capacity[Resource::kRam] > 0.0,
              "node memory capacity must be positive");
  switch (config_.memory_backend) {
    case MemoryBackend::kBalloon:
      memory_ = std::make_unique<BalloonDriver>(config_.balloon_rate_gb_s);
      break;
    case MemoryBackend::kHotplug:
      memory_ = std::make_unique<MemoryHotplug>();
      break;
    case MemoryBackend::kCgroup:
      memory_ = std::make_unique<CgroupMemoryController>();
      break;
  }
}

std::size_t HypervisorNode::add_vm(std::size_t vcpus,
                                   const ResourceVector& boot_capacity,
                                   double max_mem_gb) {
  RRF_REQUIRE(boot_capacity.size() == kDefaultResourceCount,
              "boot capacity must be <GHz, GB>");
  const std::size_t cpu_idx = scheduler_.add_vm(
      /*weight=*/config_.pricing.shares_for(boot_capacity)[Resource::kCpu] +
          1e-9,  // strictly positive even for 0-CPU boots
      vcpus);
  const std::size_t mem_idx =
      memory_->add_vm(boot_capacity[Resource::kRam], max_mem_gb);
  RRF_REQUIRE(cpu_idx == mem_idx, "scheduler/memory index drift");
  vm_shares_.push_back(config_.pricing.shares_for(boot_capacity));
  return cpu_idx;
}

void HypervisorNode::apply_shares(std::span<const ResourceVector> vm_shares) {
  RRF_REQUIRE(vm_shares.size() == vm_count(),
              "one share vector per VM required");
  for (std::size_t i = 0; i < vm_shares.size(); ++i) {
    const ResourceVector entitlement =
        config_.pricing.capacity_for(vm_shares[i]);
    // CPU: shares become the credit weight; optionally a hard cap.
    scheduler_.set_weight(i, vm_shares[i][Resource::kCpu] + 1e-9);
    scheduler_.set_cap(i, config_.cap_cpu_at_entitlement
                              ? entitlement[Resource::kCpu]
                              : 0.0);
    // Memory: entitlement becomes the balloon/hotplug target.
    memory_->set_target(i, entitlement[Resource::kRam]);
    vm_shares_[i] = vm_shares[i];
  }
}

std::vector<ResourceVector> HypervisorNode::step(
    Seconds dt, std::span<const ResourceVector> demands) {
  std::vector<ResourceVector> realized(vm_count());
  step_into(dt, demands, realized);
  return realized;
}

void HypervisorNode::step_into(Seconds dt,
                               std::span<const ResourceVector> demands,
                               std::span<ResourceVector> realized) {
  RRF_REQUIRE(demands.size() == vm_count(), "one demand per VM required");
  RRF_REQUIRE(realized.size() == vm_count(), "one output per VM required");
  memory_->step(dt);

  cpu_demand_.resize(vm_count());
  cpu_.resize(vm_count());
  for (std::size_t i = 0; i < vm_count(); ++i) {
    cpu_demand_[i] = demands[i][Resource::kCpu];
  }
  if (config_.use_sliced_scheduler) {
    const std::vector<double> sliced =
        scheduler_.schedule_sliced(cpu_demand_, dt);
    std::copy(sliced.begin(), sliced.end(), cpu_.begin());
  } else {
    scheduler_.schedule_into(cpu_demand_, cpu_);
  }

  for (std::size_t i = 0; i < vm_count(); ++i) {
    realized[i] = ResourceVector(kDefaultResourceCount);
    realized[i][Resource::kCpu] = cpu_[i];
    realized[i][Resource::kRam] = memory_->allocated(i);
  }
}

}  // namespace rrf::hv
