// Trace-based workload generators.  Each generator precomputes a demand
// series on a 1-second grid at construction (deterministic in the seed) and
// answers demand_at() by lookup, so simulation steps are O(1) and the same
// object returns identical traces across policies being compared.
#pragma once

#include <vector>

#include "workload/workload.hpp"

namespace rrf::wl {

/// Shared scaffolding: trace storage, VM split and per-VM jitter.
class TraceWorkload : public Workload {
 public:
  ResourceVector demand_at(Seconds t) const final;
  std::vector<ResourceVector> vm_demands_at(Seconds t) const final;
  void vm_demands_into(Seconds t, std::span<ResourceVector> out) const final;
  std::vector<double> vm_split() const final { return split_; }

  /// Length of the precomputed trace (seconds of unique data; the trace
  /// wraps around afterwards).
  Seconds trace_length() const { return static_cast<double>(trace_.size()); }

 protected:
  /// `split` must sum to 1.  `jitter` is the relative stddev of the
  /// per-VM share of demand around its split fraction.
  TraceWorkload(std::vector<double> split, double jitter, std::uint64_t seed);

  /// Rescales the trace per resource type so its empirical mean equals
  /// `target_average` exactly (Table IV fidelity regardless of phase
  /// offsets or noise realisations).  Call at the end of a constructor.
  void normalize_mean(const ResourceVector& target_average);

  /// Subclasses fill `trace_` (1 Hz samples of total demand).
  std::vector<ResourceVector> trace_;

 private:
  std::size_t index_for(Seconds t) const;

  std::vector<double> split_;
  double jitter_;
  std::uint64_t seed_;
};

/// Irregular on-off OLTP load (TPC-C via DBT-2; client VM + DB VM).
class TpccWorkload final : public TraceWorkload {
 public:
  explicit TpccWorkload(std::uint64_t seed, Seconds length = 2700.0);
  std::string name() const override { return "TPC-C"; }
  WorkloadKind kind() const override { return WorkloadKind::kTpcc; }
  PerfMetric metric() const override { return PerfMetric::kThroughput; }
};

/// Cyclical 3-tier web load (RUBBoS; web + app + DB VMs), alternating
/// 500 and 1000 concurrent users.
class RubbosWorkload final : public TraceWorkload {
 public:
  explicit RubbosWorkload(std::uint64_t seed, Seconds length = 2700.0);
  std::string name() const override { return "RUBBoS"; }
  WorkloadKind kind() const override { return WorkloadKind::kRubbos; }
  PerfMetric metric() const override { return PerfMetric::kResponseTime; }
};

/// Steady moderate compile load (Linux kernel build; one VM).
class KernelBuildWorkload final : public TraceWorkload {
 public:
  explicit KernelBuildWorkload(std::uint64_t seed, Seconds length = 2700.0);
  std::string name() const override { return "Kernel-build"; }
  WorkloadKind kind() const override { return WorkloadKind::kKernelBuild; }
  PerfMetric metric() const override { return PerfMetric::kThroughput; }
};

/// Stable high MapReduce load (Hadoop WordCount; master + workers), map
/// stage ~95% of the run followed by a lighter reduce stage.
class HadoopWorkload final : public TraceWorkload {
 public:
  explicit HadoopWorkload(std::uint64_t seed, Seconds length = 2700.0);
  std::string name() const override { return "Hadoop"; }
  WorkloadKind kind() const override { return WorkloadKind::kHadoop; }
  PerfMetric metric() const override { return PerfMetric::kThroughput; }
};

}  // namespace rrf::wl
