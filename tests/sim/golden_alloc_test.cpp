// Golden-output allocation tests.
//
// Captures bit-exact (hexfloat) allocation results — allocator-level IRT /
// IWA / hierarchical RRF outputs and engine-level per-window tenant ledger
// positions — against a checked-in golden file.  The golden was generated
// from the pre-optimization allocation path; the cached tenant-grouping,
// scratch-buffer reuse and thread-pool chunking optimizations must keep
// every number identical, which is exactly what these tests assert.
//
// Regenerate (e.g. after an *intentional* semantic change) with:
//   RRF_GOLDEN_REGEN=1 ./build/tests/test_golden_alloc
// which rewrites tests/data/golden_allocations.txt in the source tree.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/irt.hpp"
#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "common/rng.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"

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

/// Engine-level capture: per-window tenant positions for every policy,
/// with and without hypervisor actuation (serial node order), then the
/// migration and periodicity runs.
void capture_engine(std::vector<std::string>* lines) {
  sim::SyntheticConfig syn;
  syn.nodes = 3;
  syn.vms_per_node = 5;
  syn.tenants = 4;
  syn.seed = 77;
  const sim::Scenario scenario = sim::make_synthetic_scenario(syn);

  for (const bool actuators : {false, true}) {
    for (const sim::PolicyKind policy :
         {sim::PolicyKind::kTshirt, sim::PolicyKind::kWmmf,
          sim::PolicyKind::kDrf, sim::PolicyKind::kDrfSeq,
          sim::PolicyKind::kIwaOnly, sim::PolicyKind::kRrf,
          sim::PolicyKind::kRrfSp, sim::PolicyKind::kRrfLt}) {
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
              "engine " + tag + " w" + std::to_string(snapshot.window) +
              " t" + std::to_string(t) + " pos " +
              hex(snapshot.tenant_position[t]) + " dem " +
              hex(snapshot.tenant_demand[t]) + " score " +
              hex(snapshot.tenant_score[t]));
        }
      };
      const sim::SimResult result = sim::run_simulation(scenario, config);
      lines->push_back("engine " + tag + " util " +
                       hex_vector(result.mean_utilization));
    }
  }
  capture_engine_paths(lines);
}

std::vector<std::string> capture_all() {
  std::vector<std::string> lines;
  capture_allocators(&lines);
  capture_engine(&lines);
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
