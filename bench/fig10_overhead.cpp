// Reproduces Figure 10: runtime overhead of dynamic allocation as the
// window size shrinks.
//
// The paper runs RRF for 10 VMs per node and reports the domain-0 CPU
// load for window sizes from 30 s down to 5 s (and the prediction
// overhead).  We first print the derived table — allocator CPU load =
// time per allocation round / window length — then run google-benchmark
// microbenchmarks of the round's components.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <vector>

#include "alloc/rrf.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "hypervisor/node.hpp"
#include "obs/phase.hpp"
#include "sim/engine.hpp"
#include "sim/predictor.hpp"
#include "sim/scenario.hpp"
#include "workload/workload.hpp"

namespace {

using namespace rrf;

/// One node with `vms` VMs across `tenants` tenants, realistic share
/// magnitudes.
struct NodeFixture {
  std::vector<alloc::TenantGroup> groups;
  ResourceVector pool{0.0, 0.0};
  std::vector<sim::DemandPredictor> predictors;

  explicit NodeFixture(std::size_t vms, std::size_t tenants,
                       std::uint64_t seed = 7) {
    Rng rng(seed);
    groups.resize(tenants);
    for (std::size_t v = 0; v < vms; ++v) {
      alloc::AllocationEntity vm;
      const double share = rng.uniform(200.0, 2000.0);
      vm.initial_share = ResourceVector{share, share};
      vm.demand = ResourceVector{share * rng.uniform(0.3, 2.0),
                                 share * rng.uniform(0.3, 2.0)};
      pool += vm.initial_share;
      groups[v % tenants].vms.push_back(std::move(vm));
      predictors.emplace_back();
    }
  }
};

/// One full allocation round: prediction for every VM, then IRT + IWA.
void run_round(NodeFixture& fixture, const alloc::RrfAllocator& rrf) {
  std::size_t i = 0;
  for (auto& group : fixture.groups) {
    for (auto& vm : group.vms) {
      fixture.predictors[i].observe(vm.demand);
      benchmark::DoNotOptimize(fixture.predictors[i].predict());
      ++i;
    }
  }
  const alloc::HierarchicalResult result =
      rrf.allocate_hierarchical(fixture.pool, fixture.groups);
  benchmark::DoNotOptimize(result);
}

void print_figure10_table() {
  NodeFixture fixture(/*vms=*/10, /*tenants=*/4);
  const alloc::RrfAllocator rrf;

  // Warm up, then measure the mean round time.
  for (int i = 0; i < 100; ++i) run_round(fixture, rrf);
  constexpr int kRounds = 2000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kRounds; ++i) run_round(fixture, rrf);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds_per_round =
      std::chrono::duration<double>(t1 - t0).count() / kRounds;

  TextTable table(
      "Figure 10 — allocator CPU load vs window size (10 VMs per node)");
  table.header({"window (s)", "rounds/hour", "CPU load"});
  for (const double window : {30.0, 10.0, 5.0, 2.0, 1.0}) {
    table.row({TextTable::num(window, 0),
               TextTable::num(3600.0 / window, 0),
               TextTable::pct(seconds_per_round / window, 4)});
  }
  table.print(std::cout);
  std::cout << "one allocation round (prediction + IRT + IWA) = "
            << TextTable::num(seconds_per_round * 1e6, 1) << " us\n"
            << "Paper's observation: load is negligible even at the 5 s "
               "window.\n\n";
}

/// Per-phase timing of a full engine run, from the obs::PhaseClock
/// instrumentation: where one allocation round actually spends its time
/// (prediction vs the allocator itself vs actuation vs bookkeeping).
void print_phase_profile() {
  sim::ScenarioConfig scenario_config;
  scenario_config.workloads = wl::paper_workloads();
  scenario_config.alpha = 1.0;
  scenario_config.hosts = 1;
  const sim::Scenario scenario = sim::build_scenario(scenario_config);

  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.duration = 600.0;
  config.window = 5.0;
  const sim::SimResult result = sim::run_simulation(scenario, config);

  const double rounds = std::max<double>(
      1.0, static_cast<double>(result.alloc_invocations));
  double total = 0.0;
  for (const double s : result.phase_seconds) total += s;

  TextTable table("Round phase profile (rrf, 1 host, 600 s @ 5 s windows)");
  table.header({"phase", "total (ms)", "us/round", "share"});
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const double seconds = result.phase_seconds[i];
    table.row({to_string(static_cast<obs::Phase>(i)),
               TextTable::num(seconds * 1e3, 2),
               TextTable::num(seconds / rounds * 1e6, 1),
               TextTable::pct(total > 0.0 ? seconds / total : 0.0)});
  }
  table.print(std::cout);
  std::cout << "allocator share of the 5 s window: "
            << TextTable::pct(result.allocator_load(), 4) << "\n\n";
}

void BM_RrfAllocationRound(benchmark::State& state) {
  const auto vms = static_cast<std::size_t>(state.range(0));
  NodeFixture fixture(vms, std::max<std::size_t>(1, vms / 3));
  const alloc::RrfAllocator rrf;
  for (auto _ : state) run_round(fixture, rrf);
}
BENCHMARK(BM_RrfAllocationRound)->Arg(10)->Arg(20)->Arg(50)->Arg(100);

void BM_PredictorStep(benchmark::State& state) {
  sim::DemandPredictor predictor;
  Rng rng(3);
  const ResourceVector demand{rng.uniform(1.0, 10.0),
                              rng.uniform(1.0, 10.0)};
  for (auto _ : state) {
    predictor.observe(demand);
    benchmark::DoNotOptimize(predictor.predict());
  }
}
BENCHMARK(BM_PredictorStep);

void BM_ActuationKnobs(benchmark::State& state) {
  // Cost of pushing new share entitlements into the hypervisor facade.
  hv::HypervisorNode::Config config;
  config.capacity = ResourceVector{67.54, 23.0};
  hv::HypervisorNode node(config);
  const std::size_t vms = 10;
  std::vector<ResourceVector> shares;
  for (std::size_t i = 0; i < vms; ++i) {
    node.add_vm(4, ResourceVector{4.0, 2.0}, 23.0);
    shares.push_back(ResourceVector{400.0, 400.0});
  }
  for (auto _ : state) {
    node.apply_shares(shares);
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_ActuationKnobs);

}  // namespace

int main(int argc, char** argv) {
  print_figure10_table();
  print_phase_profile();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
