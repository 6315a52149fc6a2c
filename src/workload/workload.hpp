// Workload abstraction: a time-varying multi-resource demand plus metadata.
//
// The paper's evaluation drives four applications (Section VI-A); since the
// real binaries (DBT-2/MySQL, RUBBoS 3-tier, kernel build, Hadoop
// WordCount) need a physical testbed, we model each as a demand-trace
// generator whose statistics match the paper's own measurements (Table IV)
// and whose *shape* matches Figure 4:
//
//   TPC-C        irregular on-off CPU bursts        avg <1.4c, 2.2GB>
//   RUBBoS       cyclical 500/1000-user alternation avg <8.1c, 4.6GB>
//   Kernel-build steady moderate, balanced          avg <1.0c, 0.6GB>
//   Hadoop       stable high, map 95% then reduce   avg <11.5c,10.3GB>
//
// Demands are in capacity units: <GHz, GB>, with 1 core = 3.07 GHz (Xeon
// X5675, the paper's testbed).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/resource_vector.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace rrf::wl {

/// GHz of one physical core on the paper's testbed.
inline constexpr double kCoreGhz = 3.07;

enum class WorkloadKind { kTpcc, kRubbos, kKernelBuild, kHadoop };

std::string to_string(WorkloadKind kind);

/// How a workload's performance reacts to resource shortfall.
enum class PerfMetric {
  kThroughput,    ///< e.g. transactions/min, jobs/hour (higher is better)
  kResponseTime,  ///< e.g. request latency (we report its inverse)
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual WorkloadKind kind() const = 0;
  virtual PerfMetric metric() const = 0;

  /// Instantaneous total demand <GHz, GB> of the whole application at t.
  virtual ResourceVector demand_at(Seconds t) const = 0;

  /// Number of VMs the application occupies (paper Section VI-A) and the
  /// long-run fraction of the total demand each VM carries.
  virtual std::vector<double> vm_split() const = 0;

  /// Per-VM demand at t: vm_split() of demand_at() with VM-local jitter
  /// (deterministic per seed) so intra-tenant imbalance exists for IWA.
  virtual std::vector<ResourceVector> vm_demands_at(Seconds t) const = 0;

  /// vm_demands_at(t) written into `out`, which must hold exactly one
  /// entry per VM (PreconditionError otherwise).  The default copies
  /// vm_demands_at(); the built-in generators override it and write in
  /// place without touching the heap.
  virtual void vm_demands_into(Seconds t, std::span<ResourceVector> out) const;

 protected:
  /// The PreconditionError of a buffer that does not hold `vms` entries.
  void require_vm_count(std::size_t vms,
                        std::span<const ResourceVector> out) const;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/// The paper's Table IV, in <GHz, GB>.
struct DemandProfileSpec {
  ResourceVector average;
  ResourceVector peak;
};
DemandProfileSpec paper_demand_spec(WorkloadKind kind);

/// Builds a workload generator; `seed` controls all of its jitter.
WorkloadPtr make_workload(WorkloadKind kind, std::uint64_t seed);

/// All four paper workloads in presentation order.
std::vector<WorkloadKind> paper_workloads();

}  // namespace rrf::wl
