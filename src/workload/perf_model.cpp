#include "workload/perf_model.hpp"

#include "common/error.hpp"

namespace rrf::wl {

double PerfModel::step_progress(const ResourceVector& demand,
                                const ResourceVector& alloc) const {
  return step_score(PerfMetric::kThroughput, demand, alloc);
}

double PerfModel::step_inverse_latency(const ResourceVector& demand,
                                       const ResourceVector& alloc) const {
  return step_score(PerfMetric::kResponseTime, demand, alloc);
}

double PerfModel::step_score(PerfMetric metric, const ResourceVector& demand,
                             const ResourceVector& alloc) const {
  RRF_REQUIRE(demand.size() == alloc.size(), "arity mismatch");
  return score(metric,
               satisfaction(alloc[Resource::kCpu], demand[Resource::kCpu]),
               satisfaction(alloc[Resource::kRam], demand[Resource::kRam]));
}

}  // namespace rrf::wl
