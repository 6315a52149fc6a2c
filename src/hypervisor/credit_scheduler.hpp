// Simulated Xen credit scheduler (the paper's CPU actuator, Section V).
//
// The real credit scheduler assigns each VM a weight and an optional cap;
// every accounting period it refills per-VM credits in proportion to weight
// and debits them per 30 ms time slice; runnable vCPUs in the UNDER state
// (positive credits) run before OVER ones, which makes throughput converge
// to a weighted proportional share, capped at demand and at the per-VM cap
// (non-work-conserving mode).
//
// Two entry points:
//  * schedule()        — the closed-form fixed point (weighted max-min with
//                        caps), which the fluid limit of credit accounting
//                        converges to; used by the simulation engine.
//  * schedule_sliced() — an explicit slice-by-slice credit accounting
//                        simulation; tests assert it converges to the
//                        closed form, and the overhead bench exercises it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace rrf::hv {

enum class SchedulerMode {
  kWorkConserving,     ///< unused cycles flow to VMs with residual demand
  kNonWorkConserving,  ///< every VM is hard-capped at its weight share / cap
};

class CreditScheduler {
 public:
  /// `capacity_ghz`: aggregate CPU capacity of the node available to VMs.
  explicit CreditScheduler(double capacity_ghz,
                           SchedulerMode mode = SchedulerMode::kWorkConserving);

  /// Registers a VM; returns its dense index.  `cap_ghz <= 0` = uncapped.
  std::size_t add_vm(double weight, std::size_t vcpus, double cap_ghz = 0.0);

  std::size_t vm_count() const { return vms_.size(); }
  double capacity() const { return capacity_ghz_; }
  SchedulerMode mode() const { return mode_; }

  void set_weight(std::size_t vm, double weight);
  void set_cap(std::size_t vm, double cap_ghz);
  void set_mode(SchedulerMode mode) { mode_ = mode; }
  double weight(std::size_t vm) const;
  double cap(std::size_t vm) const;

  /// Closed-form steady-state allocation of CPU (GHz) for one window given
  /// the VMs' instantaneous demands (GHz).  A VM can never use more than
  /// vcpus * per-core capacity regardless of weight.
  std::vector<double> schedule(std::span<const double> demands_ghz) const;

  /// schedule() written into `out` (one entry per VM), reusing this
  /// scheduler's scratch: no heap allocation once it has grown.
  void schedule_into(std::span<const double> demands_ghz,
                     std::span<double> out);

  /// Explicit credit-accounting simulation over `window_s` seconds with
  /// `slice_s` time slices (default 30 ms, the Xen value).  Returns average
  /// GHz per VM over the window.
  std::vector<double> schedule_sliced(std::span<const double> demands_ghz,
                                      double window_s,
                                      double slice_s = 0.030) const;

  /// GHz a single physical core contributes (used for the vCPU ceiling).
  void set_core_ghz(double ghz) { core_ghz_ = ghz; }
  double core_ghz() const { return core_ghz_; }

 private:
  struct Vm {
    double weight{1.0};
    double cap_ghz{0.0};  // <= 0: uncapped
    std::size_t vcpus{1};
  };

  /// The scratch of one closed-form dispatch.
  struct Scratch {
    std::vector<double> eff;
    std::vector<double> weights;
    std::vector<std::size_t> order;
  };

  double effective_demand(const Vm& vm, double demand) const;
  void schedule_with(std::span<const double> demands_ghz, Scratch& scratch,
                     std::span<double> out) const;

  double capacity_ghz_;
  double core_ghz_{3.07};  // Xeon X5675, the paper's testbed
  SchedulerMode mode_;
  std::vector<Vm> vms_;
  Scratch scratch_;
};

}  // namespace rrf::hv
