// HypervisorNode: the per-host control/actuation facade.
//
// The RRF allocator computes share entitlements; this class is the
// hypervisor-facing half: it converts shares into concrete knobs (credit
// weight + cap for CPU, balloon/hotplug target for memory — mirroring the
// Xen interface the paper's prototype drives) and realises them over time.
// Memory moves with actuation lag; CPU follows the credit scheduler's
// proportional share each step.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/pricing.hpp"
#include "common/resource_vector.hpp"
#include "hypervisor/balloon.hpp"
#include "hypervisor/cgroup.hpp"
#include "hypervisor/credit_scheduler.hpp"

namespace rrf::hv {

enum class MemoryBackend { kBalloon, kHotplug, kCgroup };

class HypervisorNode {
 public:
  struct Config {
    /// Capacity available to VMs: <GHz, GB> (domain-0 already subtracted).
    ResourceVector capacity{0.0, 0.0};
    PricingModel pricing = PricingModel::paper_default();
    /// Which memory actuator realises targets: Xen ballooning (rate- and
    /// ceiling-limited), the authors' hotplug extension (block-granular,
    /// no ceiling) or a cgroup controller (container mode: instant grow,
    /// fast reclaim).
    MemoryBackend memory_backend = MemoryBackend::kBalloon;
    /// Balloon transfer rate (GB/s); only used by the balloon backend.
    /// 0.5 GB/s reflects guest-driver page give-back on the paper's
    /// hardware; slower rates model memory-pressure-stalled guests.
    double balloon_rate_gb_s = 0.5;
    SchedulerMode scheduler_mode = SchedulerMode::kWorkConserving;
    /// When true, each VM's CPU is capped at its share entitlement (the
    /// paper's non-work-conserving use of the credit scheduler); when
    /// false, entitlements act as weights only and spare cycles flow.
    bool cap_cpu_at_entitlement = true;
    /// Dispatch CPU with the explicit 30 ms slice-by-slice credit
    /// accounting instead of the closed-form fluid limit.  Slower but
    /// models OVER-state round-robin exactly.
    bool use_sliced_scheduler = false;
  };

  explicit HypervisorNode(Config config);

  /// Adds a VM with `vcpus` virtual CPUs, a boot-time capacity vector
  /// (<GHz, GB>, converted to the initial share entitlement) and a
  /// ballooning ceiling.  Returns the VM's dense index.
  std::size_t add_vm(std::size_t vcpus, const ResourceVector& boot_capacity,
                     double max_mem_gb);

  std::size_t vm_count() const { return vm_shares_.size(); }
  const ResourceVector& capacity() const { return config_.capacity; }
  const PricingModel& pricing() const { return config_.pricing; }

  /// Control plane: pushes new share entitlements (one vector per VM, in
  /// shares) down to the scheduler weights/caps and memory targets.
  void apply_shares(std::span<const ResourceVector> vm_shares);

  /// Data plane: advances actuators by `dt` and dispatches CPU for this
  /// step.  `demands` are the VMs' instantaneous demands in capacity units
  /// (<GHz, GB>).  Returns the *realized* allocation per VM.
  std::vector<ResourceVector> step(Seconds dt,
                                   std::span<const ResourceVector> demands);

  /// step() writing the realized allocation into `realized` (one entry
  /// per VM).  With the fluid scheduler it reuses this node's scratch, so
  /// it allocates nothing once the scratch has grown.
  void step_into(Seconds dt, std::span<const ResourceVector> demands,
                 std::span<ResourceVector> realized);

  const CreditScheduler& scheduler() const { return scheduler_; }
  const MemoryActuator& memory() const { return *memory_; }

  /// Last shares applied per VM (what the allocator decided).
  const std::vector<ResourceVector>& applied_shares() const {
    return vm_shares_;
  }

 private:
  Config config_;
  CreditScheduler scheduler_;
  std::unique_ptr<MemoryActuator> memory_;
  std::vector<ResourceVector> vm_shares_;
  /// step_into's per-VM CPU demand and dispatch.
  std::vector<double> cpu_demand_;
  std::vector<double> cpu_;
};

}  // namespace rrf::hv
