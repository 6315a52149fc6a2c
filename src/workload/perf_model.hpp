// Application performance model: allocation satisfaction -> progress.
//
// The paper reports application performance normalized to a baseline; we
// model each step's progress as a function of how well the realized
// allocation covers the instantaneous demand:
//
//   s_k       = min(1, alloc_k / demand_k)           per resource type
//   progress  = s_cpu * mem_penalty(s_ram)
//
// CPU shortfall degrades throughput linearly (fewer cycles, fewer
// transactions).  Memory shortfall is *super-linear*: once the working set
// no longer fits, paging dominates, so we use s_ram^gamma with gamma > 1.
// Response-time workloads report the inverse latency, modelled via an
// M/M/1-style blowup near saturation.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/float_eq.hpp"
#include "common/resource_vector.hpp"
#include "workload/workload.hpp"

namespace rrf::wl {

struct PerfModelConfig {
  /// Exponent of the memory penalty (>1 = paging hurts super-linearly).
  double mem_penalty_exponent = 2.0;
  /// Floor so progress never reaches exactly zero (background progress).
  double progress_floor = 0.02;
  /// Latency model: rt = base / max(eps, 2*s - 1) style blowup guard.
  double latency_saturation_guard = 0.05;
};

class PerfModel {
 public:
  explicit PerfModel(PerfModelConfig config = {}) : config_(config) {}

  /// Per-type satisfaction min(1, alloc/demand); 1 where demand == 0.
  static double satisfaction(double alloc, double demand) {
    if (demand <= 0.0) return 1.0;
    return std::clamp(alloc / demand, 0.0, 1.0);
  }

  /// The score of one step from its CPU and RAM satisfaction (what
  /// step_score computes after satisfaction()).
  double score(PerfMetric metric, double s_cpu, double s_ram) const {
    // C Annex F: pow(+1, y) is 1 for every y, so a fully served RAM
    // demand skips the call.
    const double mem_penalty =
        exactly_equal(s_ram, 1.0)
            ? 1.0
            : std::pow(s_ram, config_.mem_penalty_exponent);
    if (metric == PerfMetric::kResponseTime) {
      // Service capacity below offered load: queueing delay blows up like
      // 1/(mu - lambda).  With s the fraction of demand served, the
      // response time scales ~ 1/s * 1/(s - rho0) style; we use a smooth
      // surrogate: inverse latency = s^2 damped by the memory penalty.
      const double utilization_term =
          std::max(config_.latency_saturation_guard, s_cpu * s_cpu);
      return std::max(config_.progress_floor, utilization_term * mem_penalty);
    }
    return std::max(config_.progress_floor, s_cpu * mem_penalty);
  }

  /// Progress in [floor, 1] for one step of a throughput workload.
  double step_progress(const ResourceVector& demand,
                       const ResourceVector& alloc) const;

  /// Normalized inverse response time in (0, 1] for a latency workload:
  /// 1 when fully satisfied, degrading hyperbolically as CPU/memory
  /// saturate (queueing blowup).
  double step_inverse_latency(const ResourceVector& demand,
                              const ResourceVector& alloc) const;

  /// Dispatch on the workload's metric kind.
  double step_score(PerfMetric metric, const ResourceVector& demand,
                    const ResourceVector& alloc) const;

  const PerfModelConfig& config() const { return config_; }

 private:
  PerfModelConfig config_;
};

}  // namespace rrf::wl
