#include "workload/workload.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "workload/traces.hpp"

namespace rrf::wl {

std::string to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTpcc: return "TPC-C";
    case WorkloadKind::kRubbos: return "RUBBoS";
    case WorkloadKind::kKernelBuild: return "Kernel-build";
    case WorkloadKind::kHadoop: return "Hadoop";
  }
  return "unknown";
}

void Workload::vm_demands_into(Seconds t,
                               std::span<ResourceVector> out) const {
  const std::vector<ResourceVector> demands = vm_demands_at(t);
  require_vm_count(demands.size(), out);
  std::copy(demands.begin(), demands.end(), out.begin());
}

void Workload::require_vm_count(std::size_t vms,
                                std::span<const ResourceVector> out) const {
  RRF_REQUIRE(out.size() == vms,
              "workload " + name() + " yields " + std::to_string(vms) +
                  " per-VM demands for " + std::to_string(out.size()) +
                  " VMs");
}

DemandProfileSpec paper_demand_spec(WorkloadKind kind) {
  // Table IV of the paper, converted from cores to GHz (1 core = 3.07).
  switch (kind) {
    case WorkloadKind::kTpcc:
      return {ResourceVector{1.4 * kCoreGhz, 2.2},
              ResourceVector{3.2 * kCoreGhz, 2.8}};
    case WorkloadKind::kRubbos:
      return {ResourceVector{8.1 * kCoreGhz, 4.6},
              ResourceVector{16.5 * kCoreGhz, 8.4}};
    case WorkloadKind::kKernelBuild:
      return {ResourceVector{1.0 * kCoreGhz, 0.6},
              ResourceVector{1.5 * kCoreGhz, 0.8}};
    case WorkloadKind::kHadoop:
      return {ResourceVector{11.5 * kCoreGhz, 10.3},
              ResourceVector{12.5 * kCoreGhz, 12.6}};
  }
  throw DomainError("unknown workload kind");
}

WorkloadPtr make_workload(WorkloadKind kind, std::uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kTpcc:
      return std::make_unique<TpccWorkload>(seed);
    case WorkloadKind::kRubbos:
      return std::make_unique<RubbosWorkload>(seed);
    case WorkloadKind::kKernelBuild:
      return std::make_unique<KernelBuildWorkload>(seed);
    case WorkloadKind::kHadoop:
      return std::make_unique<HadoopWorkload>(seed);
  }
  throw DomainError("unknown workload kind");
}

std::vector<WorkloadKind> paper_workloads() {
  return {WorkloadKind::kTpcc, WorkloadKind::kRubbos,
          WorkloadKind::kKernelBuild, WorkloadKind::kHadoop};
}

}  // namespace rrf::wl
