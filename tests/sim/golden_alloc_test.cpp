// Golden-output allocation tests.
//
// Captures bit-exact (hexfloat) allocation results — allocator-level IRT /
// IWA / hierarchical RRF outputs, engine-level per-window tenant ledger
// positions, tenant-level edge cases (share fallback, oversold pools,
// Lambda = 0 beneficiaries, tied and -0.0 keys, banked credit, one tenant,
// 1e-12 / 1e12 magnitudes), weighted max-min water-fills past
// std::sort's insertion-sort cutoff, the random draws behind the
// workloads' per-VM demands, the synthetic demand stream over a day, DRF
// and sequential DRF edge cases and seeded inputs, and flat IRT in the
// engine — against a checked-in golden file.  The
// golden was generated from the pre-optimization allocation path; the
// cached tenant-grouping, scratch-buffer reuse and thread-pool chunking
// optimizations must keep every number identical, which is exactly what
// these tests assert.
//
// Regenerate (e.g. after an *intentional* semantic change) with:
//   RRF_GOLDEN_REGEN=1 ./build/tests/test_golden_alloc
// which rewrites tests/data/golden_allocations.txt in the source tree.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/drf.hpp"
#include "alloc/irt.hpp"
#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "alloc/wmmf.hpp"
#include "common/rng.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"
#include "workload/workload.hpp"

namespace {

using namespace rrf;

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string hex_vector(const ResourceVector& v) {
  std::string out;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k > 0) out += " ";
    out += hex(v[k]);
  }
  return out;
}

std::vector<alloc::AllocationEntity> make_entities(std::size_t m,
                                                   std::size_t p,
                                                   ResourceVector* capacity,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<alloc::AllocationEntity> entities(m);
  *capacity = ResourceVector(p);
  for (auto& e : entities) {
    e.initial_share = ResourceVector(p);
    e.demand = ResourceVector(p);
    for (std::size_t k = 0; k < p; ++k) {
      e.initial_share[k] = rng.uniform(100.0, 1000.0);
      e.demand[k] = e.initial_share[k] * rng.uniform(0.2, 2.2);
      (*capacity)[k] += e.initial_share[k];
    }
  }
  return entities;
}

/// Allocator-level capture: IRT variants, hierarchical RRF, IWA.
void capture_allocators(std::vector<std::string>* lines) {
  for (const std::size_t m : {3u, 8u, 17u}) {
    for (const std::size_t p : {2u, 4u}) {
      ResourceVector capacity(p);
      const auto entities =
          make_entities(m, p, &capacity, 1000 + m * 10 + p);

      struct Variant {
        const char* name;
        alloc::IrtOptions options;
      };
      alloc::IrtOptions linear;
      linear.search = alloc::IrtOptions::Search::kLinear;
      alloc::IrtOptions binary;
      binary.search = alloc::IrtOptions::Search::kBinary;
      alloc::IrtOptions sp;
      sp.cap_gain_at_contribution = true;
      for (const Variant& variant :
           {Variant{"irt-linear", linear}, Variant{"irt-binary", binary},
            Variant{"irt-sp", sp}}) {
        const alloc::IrtAllocator irt(variant.options);
        const alloc::AllocationResult r = irt.allocate(capacity, entities);
        for (std::size_t i = 0; i < r.allocations.size(); ++i) {
          lines->push_back(std::string(variant.name) + " m" +
                           std::to_string(m) + " p" + std::to_string(p) +
                           " e" + std::to_string(i) + " " +
                           hex_vector(r.allocations[i]));
        }
        lines->push_back(std::string(variant.name) + " m" +
                         std::to_string(m) + " p" + std::to_string(p) +
                         " unallocated " + hex_vector(r.unallocated));
      }

      // Hierarchical RRF: group consecutive entities into tenants of 1-3
      // VMs (deterministic pattern).
      std::vector<alloc::TenantGroup> groups;
      std::size_t i = 0;
      std::size_t size = 1;
      while (i < entities.size()) {
        alloc::TenantGroup group;
        for (std::size_t j = 0; j < size && i < entities.size(); ++j, ++i) {
          group.vms.push_back(entities[i]);
        }
        groups.push_back(std::move(group));
        size = size % 3 + 1;
      }
      const alloc::RrfAllocator rrf;
      const alloc::HierarchicalResult hr =
          rrf.allocate_hierarchical(capacity, groups);
      for (std::size_t g = 0; g < hr.vm_allocations.size(); ++g) {
        for (std::size_t j = 0; j < hr.vm_allocations[g].size(); ++j) {
          lines->push_back("rrf-hier m" + std::to_string(m) + " p" +
                           std::to_string(p) + " t" + std::to_string(g) +
                           " vm" + std::to_string(j) + " " +
                           hex_vector(hr.vm_allocations[g][j]));
        }
        lines->push_back("rrf-hier m" + std::to_string(m) + " p" +
                         std::to_string(p) + " t" + std::to_string(g) +
                         " headroom " + hex_vector(hr.tenant_headroom[g]));
      }

      // IWA over the first group-of-all split.
      ResourceVector tenant_total(p);
      for (const auto& e : entities) tenant_total += e.initial_share;
      const alloc::IwaVectorResult iwa =
          alloc::iwa_distribute(tenant_total, entities);
      for (std::size_t j = 0; j < iwa.allocations.size(); ++j) {
        lines->push_back("iwa m" + std::to_string(m) + " p" +
                         std::to_string(p) + " vm" + std::to_string(j) + " " +
                         hex_vector(iwa.allocations[j]));
      }
      lines->push_back("iwa m" + std::to_string(m) + " p" +
                       std::to_string(p) + " headroom " +
                       hex_vector(iwa.headroom));
    }
  }
}

/// One RRF run's per-window tenant lines plus its utilization and
/// migration count, tagged `tag`.
void capture_run(const sim::Scenario& scenario, sim::EngineConfig config,
                 const std::string& tag, std::vector<std::string>* lines) {
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.parallel_nodes = false;
  config.observer = [&](const sim::WindowSnapshot& snapshot) {
    for (std::size_t t = 0; t < snapshot.tenant_position.size(); ++t) {
      lines->push_back("engine " + tag + " w" +
                       std::to_string(snapshot.window) + " t" +
                       std::to_string(t) + " pos " +
                       hex(snapshot.tenant_position[t]) + " dem " +
                       hex(snapshot.tenant_demand[t]) + " score " +
                       hex(snapshot.tenant_score[t]));
    }
  };
  const sim::SimResult result = sim::run_simulation(scenario, config);
  lines->push_back("engine " + tag + " util " +
                   hex_vector(result.mean_utilization) + " migrations " +
                   std::to_string(result.migrations));
  if (config.rebalance.enabled) {
    EXPECT_GT(result.migrations, 0u) << tag << " moved no VM";
  }
}

/// The engine paths the policy sweep below leaves out: live migration
/// (predictor state and demand EMA travel with the slot) and the
/// periodicity search (history ring, detection and the seasonal blend).
void capture_engine_paths(std::vector<std::string>* lines) {
  // First-fit packs the big tenants onto host 0, so the planner moves VMs
  // at its first epoch boundaries.
  sim::ScenarioConfig skewed;
  skewed.workloads = {wl::WorkloadKind::kRubbos, wl::WorkloadKind::kHadoop,
                      wl::WorkloadKind::kTpcc,   wl::WorkloadKind::kKernelBuild,
                      wl::WorkloadKind::kTpcc,   wl::WorkloadKind::kKernelBuild};
  skewed.hosts = 2;
  skewed.seed = 42;
  skewed.placement = cluster::PlacementPolicy::kFirstFit;
  sim::EngineConfig migrate;
  migrate.duration = 200.0;  // 40 windows, epochs at 12, 24 and 36
  migrate.rebalance.enabled = true;
  migrate.rebalance.every_windows = 12;
  capture_run(sim::build_scenario(skewed), migrate, "rrf+rebalance", lines);

  // The synthetic demand cycles every 120 s (24 windows).  A 48-window
  // history searches lags 8..24 every 8 observations from the 32nd on,
  // and wraps before the run ends.
  sim::SyntheticConfig syn;
  syn.nodes = 3;
  syn.vms_per_node = 5;
  syn.tenants = 4;
  syn.seed = 77;
  sim::EngineConfig periodic;
  periodic.duration = 400.0;  // 80 windows
  periodic.predictor.enable_periodicity = true;
  periodic.predictor.history = 48;
  periodic.predictor.min_period = 8;
  periodic.predictor.redetect_every = 8;
  capture_run(sim::make_synthetic_scenario(syn), periodic, "rrf+periodic",
              lines);
}

/// The engine capture's 3-node, 5-VM, 4-tenant synthetic scenario.
sim::Scenario engine_scenario() {
  sim::SyntheticConfig syn;
  syn.nodes = 3;
  syn.vms_per_node = 5;
  syn.tenants = 4;
  syn.seed = 77;
  return sim::make_synthetic_scenario(syn);
}

/// One policy's per-window tenant positions over six windows, with or
/// without hypervisor actuation (serial node order), then its utilization.
void capture_policy(const sim::Scenario& scenario, sim::PolicyKind policy,
                    bool actuators, std::vector<std::string>* lines) {
  sim::EngineConfig config;
  config.policy = policy;
  config.window = 5.0;
  config.duration = 30.0;
  config.use_actuators = actuators;
  config.parallel_nodes = false;  // deterministic aggregation order
  const std::string tag = sim::to_string(policy) +
                          (actuators ? "+hv" : "+raw");
  config.observer = [&](const sim::WindowSnapshot& snapshot) {
    for (std::size_t t = 0; t < snapshot.tenant_position.size(); ++t) {
      lines->push_back(
          "engine " + tag + " w" + std::to_string(snapshot.window) + " t" +
          std::to_string(t) + " pos " + hex(snapshot.tenant_position[t]) +
          " dem " + hex(snapshot.tenant_demand[t]) + " score " +
          hex(snapshot.tenant_score[t]));
    }
  };
  const sim::SimResult result = sim::run_simulation(scenario, config);
  lines->push_back("engine " + tag + " util " +
                   hex_vector(result.mean_utilization));
}

/// Engine-level capture: per-window tenant positions for every policy but
/// flat IRT, with and without hypervisor actuation, then the migration and
/// periodicity runs.
void capture_engine(std::vector<std::string>* lines) {
  const sim::Scenario scenario = engine_scenario();
  for (const bool actuators : {false, true}) {
    for (const sim::PolicyKind policy :
         {sim::PolicyKind::kTshirt, sim::PolicyKind::kWmmf,
          sim::PolicyKind::kDrf, sim::PolicyKind::kDrfSeq,
          sim::PolicyKind::kIwaOnly, sim::PolicyKind::kRrf,
          sim::PolicyKind::kRrfSp, sim::PolicyKind::kRrfLt}) {
      capture_policy(scenario, policy, actuators, lines);
    }
  }
  capture_engine_paths(lines);
}

/// One tenant-level edge case: tenants of VMs under a fixed pool, run
/// through flat IRT (every VM one entity) and hierarchical RRF.
struct EdgeCase {
  std::string name;
  ResourceVector capacity;
  std::vector<alloc::TenantGroup> tenants;
  alloc::IrtOptions options;
};

alloc::AllocationEntity edge_vm(ResourceVector share, ResourceVector demand) {
  alloc::AllocationEntity e;
  e.initial_share = share;
  e.demand = demand;
  return e;
}

alloc::TenantGroup edge_tenant(std::vector<alloc::AllocationEntity> vms,
                               double banked = 0.0) {
  alloc::TenantGroup t;
  t.vms = std::move(vms);
  t.banked_contribution = banked;
  return t;
}

/// Σ of every VM's share, in tenant then VM order, times `scale`.
ResourceVector edge_pool(const std::vector<alloc::TenantGroup>& tenants,
                         double scale) {
  ResourceVector pool(tenants.front().vms.front().initial_share.size());
  for (const alloc::TenantGroup& t : tenants) {
    for (const alloc::AllocationEntity& vm : t.vms) pool += vm.initial_share;
  }
  return pool * scale;
}

/// Seeded tenants of 1..3 VMs with shares in [lo, 10 lo] and demands at
/// 0.2..2.2 times the share.
std::vector<alloc::TenantGroup> edge_random(std::size_t tenants,
                                            std::size_t p, double lo,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<alloc::TenantGroup> out;
  for (std::size_t g = 0; g < tenants; ++g) {
    std::vector<alloc::AllocationEntity> vms(1 + g % 3);
    for (alloc::AllocationEntity& vm : vms) {
      vm.initial_share = ResourceVector(p);
      vm.demand = ResourceVector(p);
      for (std::size_t k = 0; k < p; ++k) {
        vm.initial_share[k] = rng.uniform(lo, 10.0 * lo);
        vm.demand[k] = vm.initial_share[k] * rng.uniform(0.2, 2.2);
      }
    }
    out.push_back(edge_tenant(std::move(vms)));
  }
  return out;
}

std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  alloc::IrtOptions share_fallback;
  share_fallback.fallback =
      alloc::IrtOptions::SurplusFallback::kProportionalToShare;

  // Tenant 0 contributes on both types; the others want more on both, so
  // their Lambda is 0 and the suffix holds only +inf keys.
  std::vector<alloc::TenantGroup> free_riders{
      edge_tenant({edge_vm({400.0, 300.0}, {100.0, 120.0}),
                   edge_vm({200.0, 300.0}, {150.0, 90.0})}),
      edge_tenant({edge_vm({300.0, 200.0}, {500.0, 260.0})}),
      edge_tenant({edge_vm({100.0, 500.0}, {130.0, 900.0}),
                   edge_vm({250.0, 150.0}, {400.0, 151.0})}),
      edge_tenant({edge_vm({350.0, 250.0}, {351.0, 700.0})})};
  cases.push_back({"fallback-share", edge_pool(free_riders, 1.0), free_riders,
                   share_fallback});
  cases.push_back({"lambda0", edge_pool(free_riders, 1.0), free_riders, {}});

  // Beneficiaries with Lambda = 0 between contributors and traders.
  std::vector<alloc::TenantGroup> mixed{
      edge_tenant({edge_vm({500.0, 500.0}, {900.0, 800.0})}),
      edge_tenant({edge_vm({500.0, 500.0}, {200.0, 700.0})}),
      edge_tenant({edge_vm({300.0, 400.0}, {600.0, 450.0}),
                   edge_vm({200.0, 100.0}, {100.0, 50.0})}),
      edge_tenant({edge_vm({400.0, 400.0}, {800.0, 900.0})}),
      edge_tenant({edge_vm({600.0, 600.0}, {300.0, 200.0})})};
  cases.push_back({"lambda0-mixed", edge_pool(mixed, 1.0), mixed, {}});

  // A pool below the tenants' shares: the psi < 0 scale-down branch.
  cases.push_back({"oversold", edge_pool(mixed, 0.6), mixed, {}});
  const std::vector<alloc::TenantGroup> crowded =
      edge_random(9, 3, 100.0, 91);
  cases.push_back(
      {"oversold-random", edge_pool(crowded, 0.7), crowded, {}});

  // Every tenant identical: all keys tie on both types.
  std::vector<alloc::TenantGroup> equal;
  for (int g = 0; g < 5; ++g) {
    equal.push_back(edge_tenant({edge_vm({100.0, 100.0}, {150.0, 50.0}),
                                 edge_vm({100.0, 100.0}, {150.0, 50.0})}));
  }
  cases.push_back({"equal-keys", edge_pool(equal, 1.0), equal, {}});

  // -0.0 demands: contributors whose key is -0.0, tied with +0.0 ones.
  std::vector<alloc::TenantGroup> negzero{
      edge_tenant({edge_vm({300.0, 300.0}, {-0.0, 500.0})}),
      edge_tenant({edge_vm({300.0, 300.0}, {0.0, -0.0})}),
      edge_tenant({edge_vm({300.0, 300.0}, {-0.0, 0.0}),
                   edge_vm({100.0, 100.0}, {-0.0, 300.0})}),
      edge_tenant({edge_vm({300.0, 300.0}, {800.0, 0.0})})};
  cases.push_back({"negzero", edge_pool(negzero, 1.0), negzero, {}});

  // rrf-lt's banked credit, positive, negative and clamping Lambda to 0.
  std::vector<alloc::TenantGroup> banked = mixed;
  banked[0].banked_contribution = 250.0;
  banked[1].banked_contribution = -50.0;
  banked[2].banked_contribution = -5000.0;
  banked[3].banked_contribution = 1e-3;
  cases.push_back({"banked", edge_pool(banked, 1.0), banked, {}});

  // One tenant: IRT has a single entity.
  std::vector<alloc::TenantGroup> single{
      edge_tenant({edge_vm({500.0, 200.0}, {700.0, 100.0}),
                   edge_vm({300.0, 400.0}, {100.0, 600.0}),
                   edge_vm({200.0, 400.0}, {250.0, 100.0})})};
  cases.push_back({"single", edge_pool(single, 1.0), single, {}});
  cases.push_back({"single-vm", {400.0, 400.0},
                   {edge_tenant({edge_vm({500.0, 200.0}, {700.0, 100.0})})},
                   {}});

  // Magnitudes far from the kEps = 1e-9 scale.
  const std::vector<alloc::TenantGroup> tiny = edge_random(7, 2, 1e-12, 93);
  cases.push_back({"tiny", edge_pool(tiny, 1.0), tiny, {}});
  const std::vector<alloc::TenantGroup> huge = edge_random(7, 2, 1e12, 95);
  cases.push_back({"huge", edge_pool(huge, 1.0), huge, {}});
  return cases;
}

/// The edge cases through flat IRT and hierarchical RRF, each with the
/// case's options and with the strategy-proof cap added.
void capture_edge_cases(std::vector<std::string>* lines) {
  for (const EdgeCase& c : edge_cases()) {
    for (const bool sp : {false, true}) {
      alloc::IrtOptions options = c.options;
      options.cap_gain_at_contribution = sp;
      const std::string tag = "edge " + c.name + (sp ? " sp" : "");

      std::vector<alloc::AllocationEntity> flat;
      for (const alloc::TenantGroup& t : c.tenants) {
        for (alloc::AllocationEntity vm : t.vms) {
          vm.banked_contribution = t.banked_contribution;
          flat.push_back(vm);
        }
      }
      const alloc::AllocationResult r =
          alloc::IrtAllocator(options).allocate(c.capacity, flat);
      for (std::size_t i = 0; i < r.allocations.size(); ++i) {
        lines->push_back(tag + " irt e" + std::to_string(i) + " " +
                         hex_vector(r.allocations[i]) + " lambda " +
                         hex(r.contribution_lambda[i]));
      }
      lines->push_back(tag + " irt unallocated " + hex_vector(r.unallocated));

      const alloc::HierarchicalResult hr =
          alloc::RrfAllocator(options).allocate_hierarchical(c.capacity,
                                                            c.tenants);
      for (std::size_t g = 0; g < hr.vm_allocations.size(); ++g) {
        for (std::size_t j = 0; j < hr.vm_allocations[g].size(); ++j) {
          lines->push_back(tag + " rrf t" + std::to_string(g) + " vm" +
                           std::to_string(j) + " " +
                           hex_vector(hr.vm_allocations[g][j]));
        }
        lines->push_back(
            tag + " rrf t" + std::to_string(g) + " grant " +
            hex_vector(hr.tenant_level.allocations[g]) + " lambda " +
            hex(hr.tenant_level.contribution_lambda[g]) + " headroom " +
            hex_vector(hr.tenant_headroom[g]));
      }
      lines->push_back(tag + " rrf unallocated " +
                       hex_vector(hr.tenant_level.unallocated));
    }
  }
}

/// Weighted max-min water-fills at n = 17, 100 and 257.  Above 16
/// elements std::sort stops using insertion sort, so the order it gives
/// tied d/w keys is no longer index order.  About half the demands are
/// zero and the rest repeat three values or spread uniformly; each set
/// runs under one weight for every user and under mixed weights, with
/// the water level on a run of identical demands, with abundant capacity
/// and with capacity 0.  Eight outputs per line.
void capture_water_fills(std::vector<std::string>* lines) {
  for (const std::size_t n : {17u, 100u, 257u}) {
    Rng rng(4000 + n);
    const double run_values[] = {0.75, 1.5, 2.25};
    std::vector<double> demand(n);
    for (double& d : demand) {
      const double r = rng.uniform(0.0, 1.0);
      d = r < 0.5   ? 0.0
          : r < 0.7 ? run_values[rng.uniform_int(0, 2)]
                    : rng.uniform(0.1, 4.0);
    }
    const std::vector<double> one(n, 0.3);
    std::vector<double> mixed(n);
    for (double& w : mixed) w = rng.uniform(0.1, 5.0);
    double total = 0.0;
    double at_level = 0.0;  // sum of min(d, 1.5): one weight's level 1.5
    for (const double d : demand) {
      total += d;
      at_level += std::min(d, 1.5);
    }

    struct Fill {
      const char* name;
      double capacity;
      const std::vector<double>* weights;
    };
    for (const Fill& fill : {Fill{"one-weight", 0.4 * total, &one},
                             Fill{"mixed", 0.4 * total, &mixed},
                             Fill{"level-run", at_level, &one},
                             Fill{"abundant", total + 1.0, &one},
                             Fill{"zero-capacity", 0.0, &one}}) {
      const std::vector<double> out =
          alloc::weighted_max_min(fill.capacity, demand, *fill.weights);
      for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t last = std::min(n, i + 8) - 1;
        std::string line = "wmmf n" + std::to_string(n) + " " + fill.name +
                           " i" + std::to_string(i) + "-" +
                           std::to_string(last);
        for (std::size_t j = i; j <= last; ++j) line += " " + hex(out[j]);
        lines->push_back(line);
      }
    }
  }
}

/// The per-VM demands the workloads derive from seeded streams: the
/// trace workloads' per-VM jitter (a fresh stream per VM and 60 s epoch,
/// drawn over a trace itself built from one long stream) over 24 epochs,
/// and the synthetic builder's per-VM phases and biases at t = 0 for two
/// seeds.
void capture_workload_draws(std::vector<std::string>* lines) {
  for (const wl::WorkloadKind kind :
       {wl::WorkloadKind::kTpcc, wl::WorkloadKind::kRubbos,
        wl::WorkloadKind::kHadoop}) {
    const wl::WorkloadPtr workload = wl::make_workload(kind, 7);
    for (std::size_t epoch = 0; epoch < 24; ++epoch) {
      const Seconds t = 60.0 * static_cast<double>(epoch) + 30.0;
      const std::vector<ResourceVector> vms = workload->vm_demands_at(t);
      for (std::size_t j = 0; j < vms.size(); ++j) {
        lines->push_back("draws " + workload->name() + " e" +
                         std::to_string(epoch) + " vm" + std::to_string(j) +
                         " " + hex_vector(vms[j]));
      }
    }
  }
  for (const std::uint64_t seed : {1u, 77u}) {
    sim::SyntheticConfig syn;
    syn.seed = seed;
    const sim::Scenario scenario = sim::make_synthetic_scenario(syn);
    for (std::size_t t = 0; t < scenario.workloads.size(); ++t) {
      const std::vector<ResourceVector> vms =
          scenario.workloads[t]->vm_demands_at(0.0);
      for (std::size_t j = 0; j < vms.size(); ++j) {
        lines->push_back("draws synthetic s" + std::to_string(seed) + " t" +
                         std::to_string(t) + " vm" + std::to_string(j) + " " +
                         hex_vector(vms[j]));
      }
    }
  }
}

/// The synthetic builder's demand stream, `vm_demands_at` at six times from
/// t = 0 to a day, for two seeds, on the default 4x8x4 cell and on a
/// 4x100x4 cell (100 VMs per tenant): eight VMs per line.
void capture_synthetic_stream(std::vector<std::string>* lines) {
  struct Cell {
    std::size_t nodes;
    std::size_t vms_per_node;
    std::size_t tenants;
  };
  for (const Cell cell : {Cell{4, 8, 4}, Cell{4, 100, 4}}) {
    for (const std::uint64_t seed : {1u, 7u}) {
      sim::SyntheticConfig syn;
      syn.nodes = cell.nodes;
      syn.vms_per_node = cell.vms_per_node;
      syn.tenants = cell.tenants;
      syn.seed = seed;
      const sim::Scenario scenario = sim::make_synthetic_scenario(syn);
      const std::string cell_tag =
          "stream synthetic " + std::to_string(cell.nodes) + "x" +
          std::to_string(cell.vms_per_node) + "x" +
          std::to_string(cell.tenants) + " s" + std::to_string(seed);
      for (const Seconds t : {0.0, 5.0, 95.0, 600.0, 1995.0, 86400.0}) {
        for (std::size_t w = 0; w < scenario.workloads.size(); ++w) {
          const std::vector<ResourceVector> vms =
              scenario.workloads[w]->vm_demands_at(t);
          for (std::size_t i = 0; i < vms.size(); i += 8) {
            const std::size_t last = std::min(vms.size(), i + 8) - 1;
            std::string line = cell_tag + " t=" +
                               std::to_string(static_cast<long>(t)) + " " +
                               scenario.workloads[w]->name() + " vm" +
                               std::to_string(i) + "-" + std::to_string(last);
            for (std::size_t j = i; j <= last; ++j) {
              line += " " + hex_vector(vms[j]);
            }
            lines->push_back(line);
          }
        }
      }
    }
  }
}

/// One DRF input: a capacity and the users, with an explicit weight or
/// (0) their shares' sum.
struct DrfCase {
  std::string name;
  ResourceVector capacity;
  std::vector<alloc::AllocationEntity> users;
};

alloc::AllocationEntity drf_user(ResourceVector share, ResourceVector demand,
                                 double weight = 0.0) {
  alloc::AllocationEntity e = edge_vm(share, demand);
  e.weight = weight;
  return e;
}

/// Seeded users over p types: shares in [100, 1000], demands at 0.2..2.2
/// times the share with one user in eight demanding nothing and one
/// demand in eight zero, every third user with an explicit weight in
/// [0.5, 4], and a capacity of 0.6 times the summed demand per type.
DrfCase drf_random(std::size_t m, std::size_t p, std::uint64_t seed) {
  Rng rng(seed);
  DrfCase c{"m" + std::to_string(m) + " p" + std::to_string(p),
            ResourceVector(p),
            {}};
  for (std::size_t i = 0; i < m; ++i) {
    alloc::AllocationEntity e = drf_user(ResourceVector(p), ResourceVector(p));
    const bool idle = rng.uniform(0.0, 1.0) < 0.125;
    for (std::size_t k = 0; k < p; ++k) {
      e.initial_share[k] = rng.uniform(100.0, 1000.0);
      const double scale = rng.uniform(0.2, 2.2);
      const bool zero = idle || rng.uniform(0.0, 1.0) < 0.125;
      e.demand[k] = zero ? 0.0 : e.initial_share[k] * scale;
      c.capacity[k] += 0.6 * e.demand[k];
    }
    if (i % 3 == 2) e.weight = rng.uniform(0.5, 4.0);
    c.users.push_back(e);
  }
  for (std::size_t k = 0; k < p; ++k) {
    if (c.capacity[k] == 0.0) c.capacity[k] = 1.0;
  }
  return c;
}

std::vector<DrfCase> drf_cases() {
  std::vector<DrfCase> cases;
  cases.push_back({"one-user", {400.0, 400.0},
                   {drf_user({500.0, 200.0}, {700.0, 100.0})}});
  cases.push_back({"zero-demand",
                   {600.0, 500.0},
                   {drf_user({300.0, 300.0}, {0.0, 0.0}),
                    drf_user({300.0, 200.0}, {500.0, 0.0}),
                    drf_user({200.0, 300.0}, {0.0, 0.0}),
                    drf_user({400.0, 100.0}, {300.0, 450.0}),
                    drf_user({100.0, 400.0}, {0.0, 800.0})}});
  cases.push_back({"zero-capacity-type",
                   {1000.0, 0.0, 500.0},
                   {drf_user({300.0, 0.0, 200.0}, {600.0, 0.0, 100.0}),
                    drf_user({200.0, 0.0, 300.0}, {300.0, 0.0, 400.0}),
                    drf_user({500.0, 0.0, 100.0}, {900.0, 0.0, 300.0})}});
  cases.push_back({"exhaust-first",
                   {100.0, 1000.0},
                   {drf_user({300.0, 300.0}, {900.0, 50.0}),
                    drf_user({300.0, 300.0}, {800.0, 900.0}),
                    drf_user({300.0, 300.0}, {700.0, 2000.0})}});
  std::vector<alloc::AllocationEntity> tied;
  for (int i = 0; i < 5; ++i) {
    tied.push_back(drf_user({200.0, 200.0}, {300.0, 150.0}));
  }
  tied.push_back(drf_user({200.0, 200.0}, {150.0, 300.0}));
  cases.push_back({"equal-shares", {1000.0, 1000.0}, tied});
  cases.push_back({"mixed-weights",
                   {900.0, 700.0},
                   {drf_user({100.0, 100.0}, {400.0, 300.0}, 1.0),
                    drf_user({100.0, 100.0}, {400.0, 300.0}, 2.0),
                    drf_user({100.0, 100.0}, {300.0, 400.0}, 3.0),
                    drf_user({100.0, 100.0}, {100.0, 50.0}, 0.5),
                    drf_user({100.0, 100.0}, {500.0, 500.0}, 4.0)}});
  for (const std::size_t m : {1u, 2u, 8u, 17u, 100u, 257u}) {
    for (const std::size_t p : {1u, 2u, 3u, 4u}) {
      cases.push_back(drf_random(m, p, 6000 + m * 10 + p));
    }
  }
  return cases;
}

/// Kernel-level DRF and sequential DRF over the cases above: eight users'
/// allocations per line, then the idle shares.
void capture_drf(std::vector<std::string>* lines) {
  const alloc::DrfAllocator drf;
  const alloc::SequentialDrfAllocator drf_seq;
  for (const DrfCase& c : drf_cases()) {
    for (const auto& [name, allocator] :
         {std::pair<const char*, const alloc::Allocator*>{"drf", &drf},
          std::pair<const char*, const alloc::Allocator*>{"drf-seq",
                                                          &drf_seq}}) {
      const alloc::AllocationResult r = allocator->allocate(c.capacity, c.users);
      const std::string tag = std::string(name) + " " + c.name;
      for (std::size_t i = 0; i < r.allocations.size(); i += 8) {
        const std::size_t last = std::min(r.allocations.size(), i + 8) - 1;
        std::string line = tag + " e" + std::to_string(i) + "-" +
                           std::to_string(last);
        for (std::size_t j = i; j <= last; ++j) {
          line += " " + hex_vector(r.allocations[j]);
        }
        lines->push_back(line);
      }
      lines->push_back(tag + " unallocated " + hex_vector(r.unallocated));
    }
  }
}

std::vector<std::string> capture_all() {
  std::vector<std::string> lines;
  capture_allocators(&lines);
  capture_engine(&lines);
  capture_edge_cases(&lines);
  capture_water_fills(&lines);
  capture_workload_draws(&lines);
  capture_synthetic_stream(&lines);
  capture_drf(&lines);
  const sim::Scenario scenario = engine_scenario();
  for (const bool actuators : {false, true}) {
    capture_policy(scenario, sim::PolicyKind::kIrt, actuators, &lines);
  }
  return lines;
}

TEST(GoldenAlloc, MatchesCheckedInGolden) {
  const std::vector<std::string> lines = capture_all();
  const char* path = RRF_GOLDEN_FILE;

  if (std::getenv("RRF_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "regenerated " << path << " (" << lines.size()
                 << " lines)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with RRF_GOLDEN_REGEN=1";
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  ASSERT_EQ(expected.size(), lines.size())
      << "golden line count changed — allocation semantics drifted";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(expected[i], lines[i])
        << "first mismatch at golden line " << (i + 1)
        << " — allocations are no longer bit-identical";
  }
}

// Attaching a flight recorder must leave the golden capture bit-identical:
// provenance collection stays off the allocation path.
TEST(GoldenAlloc, EngineCaptureIsIdenticalWithRecordingEnabled) {
  sim::SyntheticConfig syn;
  syn.nodes = 3;
  syn.vms_per_node = 5;
  syn.tenants = 4;
  syn.seed = 77;
  const sim::Scenario scenario = sim::make_synthetic_scenario(syn);

  auto capture = [&](bool record) {
    sim::EngineConfig config;
    config.policy = sim::PolicyKind::kRrf;
    config.window = 5.0;
    config.duration = 30.0;
    config.use_actuators = true;
    config.parallel_nodes = false;
    std::vector<std::string> lines;
    config.observer = [&](const sim::WindowSnapshot& snapshot) {
      for (std::size_t t = 0; t < snapshot.tenant_position.size(); ++t) {
        lines.push_back("w" + std::to_string(snapshot.window) + " t" +
                        std::to_string(t) + " " +
                        hex(snapshot.tenant_position[t]));
      }
    };
    std::ostringstream sink;
    obs::FlightRecorder recorder(sink);
    if (record) {
      recorder.write_header(sim::make_flight_header(scenario, config));
      config.flight = &recorder;
    }
    sim::run_simulation(scenario, config);
    return lines;
  };

  const std::vector<std::string> detached = capture(false);
  const std::vector<std::string> attached = capture(true);
  ASSERT_EQ(detached.size(), attached.size());
  ASSERT_FALSE(detached.empty());
  for (std::size_t i = 0; i < detached.size(); ++i) {
    ASSERT_EQ(detached[i], attached[i]) << "line " << i;
  }
}

// The hierarchical profiler must be observation-only: running the same
// simulation with profiling enabled yields bit-identical allocations
// (ProfileScope frames, the operator-new byte hook, the thread-pool
// observer and the instrumented mutexes never touch decision state).
TEST(GoldenAlloc, EngineCaptureIsIdenticalWithProfilingEnabled) {
  sim::SyntheticConfig syn;
  syn.nodes = 3;
  syn.vms_per_node = 5;
  syn.tenants = 4;
  syn.seed = 77;
  const sim::Scenario scenario = sim::make_synthetic_scenario(syn);

  auto capture = [&](bool profiled) {
    const bool before = obs::profiling_enabled();
    obs::set_profiling_enabled(profiled);
    sim::EngineConfig config;
    config.policy = sim::PolicyKind::kRrf;
    config.window = 5.0;
    config.duration = 30.0;
    config.use_actuators = true;
    config.parallel_nodes = false;
    std::vector<std::string> lines;
    config.observer = [&](const sim::WindowSnapshot& snapshot) {
      for (std::size_t t = 0; t < snapshot.tenant_position.size(); ++t) {
        lines.push_back("w" + std::to_string(snapshot.window) + " t" +
                        std::to_string(t) + " " +
                        hex(snapshot.tenant_position[t]));
      }
    };
    sim::run_simulation(scenario, config);
    obs::set_profiling_enabled(before);
    return lines;
  };

  const std::vector<std::string> unprofiled = capture(false);
  const std::vector<std::string> profiled = capture(true);
  // The profiler did see the run (sanity: the switch was actually on).
  const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
  bool saw_allocate = false;
  for (const obs::ProfileNode& n : snapshot.merged) {
    if (n.site == "rrf.hierarchical") saw_allocate = true;
  }
  EXPECT_TRUE(saw_allocate);
  obs::profile_reset();

  ASSERT_EQ(unprofiled.size(), profiled.size());
  ASSERT_FALSE(unprofiled.empty());
  for (std::size_t i = 0; i < unprofiled.size(); ++i) {
    ASSERT_EQ(unprofiled[i], profiled[i]) << "line " << i;
  }
}

// The engine capture must itself be reproducible run-to-run (guards
// against hidden global state making the golden flaky).
TEST(GoldenAlloc, CaptureIsDeterministic) {
  sim::SyntheticConfig syn;
  syn.nodes = 2;
  syn.vms_per_node = 4;
  syn.tenants = 3;
  syn.seed = 5;
  const sim::Scenario a = sim::make_synthetic_scenario(syn);
  const sim::Scenario b = sim::make_synthetic_scenario(syn);
  for (double t : {0.0, 7.5, 120.0}) {
    for (std::size_t i = 0; i < a.workloads.size(); ++i) {
      const auto da = a.workloads[i]->vm_demands_at(t);
      const auto db = b.workloads[i]->vm_demands_at(t);
      ASSERT_EQ(da.size(), db.size());
      for (std::size_t j = 0; j < da.size(); ++j) {
        EXPECT_EQ(da[j], db[j]);
      }
    }
  }
}

}  // namespace
