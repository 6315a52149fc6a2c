// Reproduces Figure 4: for each workload co-located on one host at
// alpha = 1, the ratio of total demanded shares to total initial shares
// D_t(i)/S(i) over 45 minutes.  Prints a coarse series (one sample per
// minute) plus an ASCII sparkline, and writes the full 5-second series to
// fig4_demand_traces.csv for plotting.  The series are the per-tenant
// demand ratios the engine records in SimResult — no bench-side
// accumulation.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

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
  engine.policy = sim::PolicyKind::kRrf;

  const RrfSystem system(scenario, engine);
  const sim::SimResult result = system.run(sim::PolicyKind::kRrf);

  std::cout << "Figure 4 — D_t(i)/S(i): demanded vs initial shares, "
               "4 workloads on one host, alpha = 1\n\n";

  {
    std::ofstream csv("fig4_demand_traces.csv");
    sim::write_series_csv(csv, result,
                          &sim::TenantMetrics::demand_ratio_series);
  }

  const std::size_t tenant_count = result.tenants.size();
  const std::size_t windows =
      tenant_count > 0 ? result.tenants.front().windows() : 0;
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const std::vector<double>& series =
        result.tenants[t].demand_ratio_series();
    std::vector<double> per_minute;
    double mn = 1e9, mx = -1e9;
    for (std::size_t w = 0; w < series.size(); w += 12) {
      per_minute.push_back(series[w]);
    }
    for (double x : series) {
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
    std::cout << result.tenants[t].name() << "  min="
              << TextTable::num(mn, 2) << " max=" << TextTable::num(mx, 2)
              << "\n  [0.0 .. 2.5] " << sparkline(per_minute, 0.0, 2.5)
              << "\n";
  }

  // The paper's headline observation: the co-located total exceeds the
  // node's capacity in some periods (contention) and fits in others.
  std::size_t contended = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    double total_ratio = 0.0;
    double total_shares = 0.0;
    for (std::size_t t = 0; t < tenant_count; ++t) {
      const double s = system.scenario().cluster.tenant_shares(t).sum();
      total_ratio += result.tenants[t].demand_ratio_series()[w] * s;
      total_shares += s;
    }
    if (total_ratio / total_shares > 1.0) ++contended;
  }
  std::cout << "\nContended windows (aggregate demand > aggregate shares): "
            << contended << "/" << windows << " ("
            << TextTable::pct(static_cast<double>(contended) /
                              static_cast<double>(windows))
            << ")\nFull series written to fig4_demand_traces.csv\n";
  return 0;
}
