// Reproduces Figure 8: application performance vs VM density as the
// provisioning coefficient alpha varies.
//
// alpha* provisions every VM at its peak demand (the safe T-shirt sizing);
// smaller alphas pack more tenants on the same hosts ("launch one by one
// until no room").  The paper's headline: at alpha = 1 RRF packs ~2.2x
// more VMs than peak provisioning at ~15% performance cost.
#include <iostream>

#include "common/table.hpp"
#include "core/experiments.hpp"

namespace {
using namespace rrf;
}  // namespace

int main() {
  sim::EngineConfig engine;
  engine.duration = 1200.0;  // enough windows for stable means
  engine.window = 5.0;

  const std::vector<sim::PolicyKind> policies = sim::paper_policies();

  // The sweep over alpha; alpha* is computed from the workloads' profiles.
  sim::ScenarioConfig probe;
  probe.workloads = wl::paper_workloads();
  const double alpha_star = sim::peak_alpha(probe);
  const std::vector<double> alphas = {alpha_star, 2.0, 1.5, 1.25, 1.0,
                                      0.75};

  const AlphaSweep sweep =
      alpha_sweep(/*hosts=*/4, wl::paper_workloads(), alphas, engine,
                  policies);

  TextTable table("Figure 8 — VM density vs normalized performance");
  std::vector<std::string> header{"alpha", "VMs placed", "density vs a*",
                                  "a*/alpha"};
  for (const sim::PolicyKind policy : policies) {
    header.push_back("perf " + sim::to_string(policy));
  }
  table.header(std::move(header));

  for (const AlphaPoint& point : sweep.points) {
    std::vector<std::string> row{
        TextTable::num(point.alpha, 2) +
            (point.alpha == sweep.alpha_star ? " (a*)" : ""),
        std::to_string(point.placed_vms),
        TextTable::num(point.vm_density, 2) + "x",
        TextTable::num(sweep.alpha_star / point.alpha, 2) + "x"};
    for (double perf : point.perf_geomean) {
      row.push_back(TextTable::num(perf, 3));
    }
    table.row(std::move(row));
  }
  table.print(std::cout);

  // The paper's headline comparison: alpha = 1 vs alpha*.
  const AlphaPoint* at_one = nullptr;
  const AlphaPoint* at_star = nullptr;
  for (const AlphaPoint& point : sweep.points) {
    if (point.alpha == 1.0) at_one = &point;
    if (point.alpha == sweep.alpha_star) at_star = &point;
  }
  if (at_one != nullptr && at_star != nullptr) {
    const std::size_t rrf_index = 4;  // kRrf position in `policies`
    std::cout << "\nalpha* = " << TextTable::num(sweep.alpha_star, 2)
              << "; at alpha = 1 RRF packs "
              << TextTable::num(at_one->vm_density, 2)
              << "x the VMs of peak provisioning at "
              << TextTable::pct(1.0 - at_one->perf_geomean[rrf_index] /
                                          at_star->perf_geomean[rrf_index])
              << " performance cost (paper: 2.2x at ~15%).\n";
  }
  return 0;
}
