// Reproduces Figure 5: the ratio of allocated shares to initial shares
// S'_t(i)/S(i) under RRF, same scenario as Figure 4.  During contention
// RRF balances the allocations around each tenant's share position; in
// uncontended periods every workload simply holds its demand.  The series
// are the per-tenant allocation ratios the engine records in SimResult.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/rrf_system.hpp"

namespace {

using namespace rrf;

std::string sparkline(const std::vector<double>& xs, double lo, double hi) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::string out;
  for (double x : xs) {
    const double f = std::clamp((x - lo) / (hi - lo), 0.0, 0.999);
    out += kLevels[static_cast<int>(f * 8.0)];
  }
  return out;
}

}  // namespace

int main() {
  sim::ScenarioConfig scenario;
  scenario.workloads = wl::paper_workloads();
  scenario.hosts = 1;
  scenario.seed = 42;

  sim::EngineConfig engine;
  engine.duration = 2700.0;
  engine.window = 5.0;

  const RrfSystem system(scenario, engine);
  const sim::SimResult result = system.run(sim::PolicyKind::kRrf);

  std::cout << "Figure 5 — S'_t(i)/S(i): allocated vs initial shares under "
               "RRF, 4 workloads on one host, alpha = 1\n\n";

  {
    std::ofstream csv("fig5_rrf_allocation.csv");
    sim::write_series_csv(csv, result, &sim::TenantMetrics::alloc_ratio_series);
  }

  TextTable table("per-workload allocation-ratio summary (RRF)");
  table.header({"Workload", "mean S'/S", "min", "max", "stddev", "beta"});
  for (std::size_t t = 0; t < result.tenants.size(); ++t) {
    const std::vector<double>& series = result.tenants[t].alloc_ratio_series();
    std::vector<double> per_minute;
    for (std::size_t w = 0; w < series.size(); w += 12) {
      per_minute.push_back(series[w]);
    }
    const double mn = *std::min_element(series.begin(), series.end());
    const double mx = *std::max_element(series.begin(), series.end());
    table.row({result.tenants[t].name(), TextTable::num(mean(series), 3),
               TextTable::num(mn, 3), TextTable::num(mx, 3),
               TextTable::num(stddev(series), 3),
               TextTable::num(result.tenants[t].beta(), 3)});
    std::cout << result.tenants[t].name() << "\n  [0.5 .. 1.5] "
              << sparkline(per_minute, 0.5, 1.5) << "\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nFull series written to fig5_rrf_allocation.csv\n"
               "Paper's observation: balanced allocations for RUBBoS, TPC-C"
               " and Hadoop during the contended period; Kernel-build is\n"
               "over-provisioned there and contributes to the others.\n";
  return 0;
}
