// Trace replay: drive the simulator with recorded demand traces instead
// of the synthetic generators — e.g. datacenter utilization logs.
//
// CSV format (header required):
//   t_seconds,cpu_ghz,ram_gb
//   0,4.2,2.0
//   5,6.8,2.1
//   ...
// Rows must be in increasing time order; demand_at() holds the last value
// (zero-order hold) and wraps around after the final row.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace rrf::wl {

class ReplayWorkload final : public Workload {
 public:
  /// `samples` are (time, demand) pairs, strictly increasing in time.
  /// `split` distributes the total demand across VMs (defaults to one VM).
  ReplayWorkload(std::string name, std::vector<Seconds> times,
                 std::vector<ResourceVector> demands,
                 std::vector<double> split = {1.0},
                 PerfMetric metric = PerfMetric::kThroughput);

  /// Parses the CSV format above; throws DomainError on malformed input.
  static std::unique_ptr<ReplayWorkload> from_csv(
      std::string name, std::istream& in,
      std::vector<double> split = {1.0},
      PerfMetric metric = PerfMetric::kThroughput);

  /// Convenience: open and parse a file.
  static std::unique_ptr<ReplayWorkload> from_csv_file(
      const std::string& path, std::vector<double> split = {1.0},
      PerfMetric metric = PerfMetric::kThroughput);

  std::string name() const override { return name_; }
  WorkloadKind kind() const override { return WorkloadKind::kKernelBuild; }
  PerfMetric metric() const override { return metric_; }
  ResourceVector demand_at(Seconds t) const override;
  std::vector<double> vm_split() const override { return split_; }
  std::vector<ResourceVector> vm_demands_at(Seconds t) const override;
  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override;

  Seconds trace_length() const { return times_.back(); }
  std::size_t sample_count() const { return times_.size(); }

 private:
  std::string name_;
  std::vector<Seconds> times_;
  std::vector<ResourceVector> demands_;
  std::vector<double> split_;
  PerfMetric metric_;
};

/// Writes a workload's demand trace in the replay CSV format (round-trip
/// with from_csv); useful for exporting the synthetic generators.
void export_trace_csv(const Workload& workload, Seconds duration,
                      Seconds dt, std::ostream& out);

}  // namespace rrf::wl
