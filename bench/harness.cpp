#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <ostream>
#include <utility>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/profiler.hpp"
#include "sim/synthetic.hpp"

namespace rrf::bench {

namespace {

constexpr const char* kPhaseNames[obs::kPhaseCount] = {"predict", "allocate",
                                                       "actuate", "settle"};

/// Flattens the snapshot's merged preorder tree into ';'-joined paths.
std::vector<ProfilePathNode> flatten_profile(
    const obs::ProfileSnapshot& snapshot) {
  std::vector<ProfilePathNode> out;
  std::vector<std::string> paths(snapshot.merged.size());
  out.reserve(snapshot.merged.size());
  for (std::size_t i = 0; i < snapshot.merged.size(); ++i) {
    const obs::ProfileNode& n = snapshot.merged[i];
    paths[i] = n.parent < 0
                   ? n.site
                   : paths[static_cast<std::size_t>(n.parent)] + ";" + n.site;
    ProfilePathNode node;
    node.path = paths[i];
    node.self_seconds = n.self_seconds;
    node.total_seconds = n.total_seconds;
    node.calls = n.calls;
    node.bytes = n.bytes;
    out.push_back(std::move(node));
  }
  return out;
}

/// Root totals = everything the call-tree accounts for (roots have no
/// ';' in their path).
double profile_root_total(const std::vector<ProfilePathNode>& nodes) {
  double total = 0.0;
  for (const ProfilePathNode& n : nodes) {
    if (n.path.find(';') == std::string::npos) total += n.total_seconds;
  }
  return total;
}

CellResult run_cell(const HarnessConfig& config, sim::PolicyKind policy,
                    const SweepPoint& point, bool parallel,
                    std::size_t shards) {
  sim::SyntheticConfig syn;
  syn.nodes = point.nodes;
  syn.vms_per_node = point.vms_per_node;
  syn.tenants = point.tenants;
  syn.seed = config.seed;
  const sim::Scenario scenario = sim::make_synthetic_scenario(syn);

  sim::EngineConfig engine;
  engine.policy = policy;
  engine.window = 5.0;
  engine.duration = engine.window * static_cast<double>(config.windows);
  engine.use_actuators = config.use_actuators;
  engine.parallel_nodes = parallel;
  engine.shards = shards;

  CellResult cell;
  cell.policy = policy;
  cell.point = point;
  cell.windows = config.windows;
  cell.trials = config.trials;

  using Clock = std::chrono::steady_clock;
  std::vector<double> window_wall;
  window_wall.reserve(config.trials * config.windows);
  Clock::time_point window_start;
  sim::EngineConfig timed = engine;  // copy; observer differs per trial
  std::size_t invocations = 0;

  for (std::size_t trial = 0; trial < config.warmup + config.trials;
       ++trial) {
    const bool measured = trial >= config.warmup;
    if (config.profile && trial == config.warmup) {
      // Drop warmup frames so the attribution covers exactly the
      // measured trials the wall-clock stats are pooled from.
      obs::profile_reset();
    }
    timed.observer = [&](const sim::WindowSnapshot&) {
      const Clock::time_point now = Clock::now();
      if (measured) {
        window_wall.push_back(
            std::chrono::duration<double>(now - window_start).count());
      }
      window_start = now;
    };
    window_start = Clock::now();
    const Clock::time_point trial_start = window_start;
    const sim::SimResult result = sim::run_simulation(scenario, timed);
    const double trial_wall =
        std::chrono::duration<double>(Clock::now() - trial_start).count();
    if (!measured) continue;
    // The cell's shard key: 0 for a serial run, the requested count, or
    // the count auto sharding chose (never an ambiguous auto 0).
    cell.shards = result.shards.empty() ? 0
                  : shards > 0          ? shards
                                        : result.shards.size();
    cell.total_wall_seconds += trial_wall;
    invocations += result.alloc_invocations;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      cell.phase_seconds[i] += result.phase_seconds[i];
    }
  }

  if (config.profile) {
    cell.profile_nodes = flatten_profile(obs::profile_snapshot());
    const double pooled_wall =
        std::accumulate(window_wall.begin(), window_wall.end(), 0.0);
    cell.profile_coverage =
        pooled_wall > 0.0 ? profile_root_total(cell.profile_nodes) / pooled_wall
                          : 0.0;
  }

  cell.median_round_seconds = quantile(window_wall, 0.5);
  cell.p95_round_seconds = quantile(window_wall, 0.95);
  cell.mean_round_seconds = mean(window_wall);
  cell.allocs_per_second =
      cell.total_wall_seconds > 0.0
          ? static_cast<double>(invocations) / cell.total_wall_seconds
          : 0.0;
  for (double& s : cell.phase_seconds) {
    s /= static_cast<double>(config.trials);
  }
  return cell;
}

json::Value sweep_point_json(const SweepPoint& p) {
  return json::Object{{"nodes", p.nodes},
                      {"vms_per_node", p.vms_per_node},
                      {"tenants", p.tenants}};
}

json::Array profile_nodes_json(const std::vector<ProfilePathNode>& nodes) {
  json::Array out;
  for (const ProfilePathNode& n : nodes) {
    out.push_back(json::Object{
        {"path", n.path},
        {"self_seconds", n.self_seconds},
        {"total_seconds", n.total_seconds},
        {"calls", static_cast<double>(n.calls)},
        {"bytes", static_cast<double>(n.bytes)},
    });
  }
  return out;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw DomainError(what);
}

const json::Value& require_member(const json::Value& obj,
                                  const std::string& key) {
  const json::Value* v = obj.find(key);
  check(v != nullptr, "bench report: missing key '" + key + "'");
  return *v;
}

double require_number(const json::Value& obj, const std::string& key) {
  const json::Value& v = require_member(obj, key);
  check(v.is_number(), "bench report: '" + key + "' must be a number");
  return v.as_number();
}

double require_nonneg(const json::Value& obj, const std::string& key) {
  const double d = require_number(obj, key);
  check(d >= 0.0, "bench report: '" + key + "' must be >= 0");
  return d;
}

}  // namespace

HarnessConfig quick_config() {
  HarnessConfig config;
  config.policies = sim::paper_policies();
  // Small and medium cells, then the pinned regression cell the
  // acceptance speedup is measured on: 32 nodes x 16 VMs x 16 tenants.
  config.sweep = {{4, 8, 4}, {16, 8, 8}, {32, 16, 16}};
  config.warmup = 1;
  config.trials = 5;
  config.windows = 30;
  config.label = "quick";
  return config;
}

HarnessConfig full_config() {
  HarnessConfig config = quick_config();
  config.sweep = {{4, 8, 4},   {16, 8, 8},   {32, 16, 16},
                  {32, 16, 4}, {32, 16, 64}, {64, 16, 32},
                  {128, 8, 32}};
  config.trials = 5;
  config.windows = 60;
  config.label = "full";
  return config;
}

HarnessConfig scale_config() {
  HarnessConfig config;
  config.policies = {sim::PolicyKind::kRrf};
  // 1024 nodes x 100 VMs = 102,400 VM slots; every window allocates all
  // of them, tens of milliseconds on one core.  A cell's rate is its
  // rounds over the timed trial's wall time, engine set-up included; over
  // 6 windows it wandered by 30% from one run to the next, too much to
  // resolve a 10% change.  24 windows still keep a --scale run to seconds.
  config.sweep = {{1024, 100, 32}};
  config.warmup = 1;
  config.trials = 1;
  config.windows = 24;
  config.parallel_nodes = true;
  // Serial baseline first, then two shard widths: one near a small
  // host's core count and one oversubscribed for steal-based balance.
  config.shard_counts = {0, 4, 16};
  config.label = "scale";
  return config;
}

Report run_harness(const HarnessConfig& config, std::ostream* progress) {
  RRF_REQUIRE(!config.policies.empty() && !config.sweep.empty(),
              "bench harness needs >= 1 policy and >= 1 sweep point");
  RRF_REQUIRE(config.trials > 0 && config.windows > 0,
              "bench harness needs trials and windows > 0");
  const bool was_profiling = obs::profiling_enabled();
  if (config.profile && !was_profiling) {
    obs::set_thread_name("main");
    obs::set_profiling_enabled(true);
  }
  Report report;
  report.config = config;
  report.cells.reserve(config.policies.size() * config.sweep.size());
  // One measurement per (point, policy) normally; with a shard-count
  // sweep each entry is its own measurement (0 = serial baseline).
  std::vector<std::size_t> shard_runs = config.shard_counts;
  const bool sweeping_shards = config.parallel_nodes && !shard_runs.empty();
  if (!sweeping_shards) {
    shard_runs.assign(1, 0);
  }
  for (const SweepPoint& point : config.sweep) {
    for (const sim::PolicyKind policy : config.policies) {
      for (const std::size_t shards : shard_runs) {
        const bool parallel =
            sweeping_shards ? shards > 0 : config.parallel_nodes;
        CellResult cell = run_cell(config, policy, point, parallel, shards);
        if (progress != nullptr) {
          char line[160];
          std::snprintf(line, sizeof(line),
                        "%-7s %4zux%-3zux%-3zu sh%-4zu median %9.3f ms  "
                        "p95 %9.3f ms  %10.0f allocs/s\n",
                        sim::to_string(policy).c_str(), point.nodes,
                        point.vms_per_node, point.tenants, cell.shards,
                        cell.median_round_seconds * 1e3,
                        cell.p95_round_seconds * 1e3, cell.allocs_per_second);
          *progress << line << std::flush;
        }
        report.cells.push_back(std::move(cell));
      }
    }
  }
  if (config.profile) {
    // Report-level flamegraph input: cell trees merged by path.  A
    // std::map keeps the paths sorted, which also keeps parents (shorter
    // prefixes) ahead of their children for any downstream consumer.
    std::map<std::string, ProfilePathNode> merged;
    for (const CellResult& cell : report.cells) {
      for (const ProfilePathNode& n : cell.profile_nodes) {
        ProfilePathNode& m = merged[n.path];
        m.path = n.path;
        m.self_seconds += n.self_seconds;
        m.total_seconds += n.total_seconds;
        m.calls += n.calls;
        m.bytes += n.bytes;
      }
    }
    report.profile.reserve(merged.size());
    for (auto& [path, node] : merged) report.profile.push_back(node);
    if (!was_profiling) obs::set_profiling_enabled(false);
  }
  return report;
}

json::Value report_to_json(const Report& report) {
  json::Array policies;
  for (const sim::PolicyKind p : report.config.policies) {
    policies.push_back(sim::to_string(p));
  }
  json::Array sweep;
  for (const SweepPoint& p : report.config.sweep) {
    sweep.push_back(sweep_point_json(p));
  }
  json::Array shard_counts;
  for (const std::size_t s : report.config.shard_counts) {
    shard_counts.push_back(static_cast<double>(s));
  }
  json::Array results;
  for (const CellResult& cell : report.cells) {
    json::Object phases;
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      phases.emplace_back(kPhaseNames[i], cell.phase_seconds[i]);
    }
    json::Object cell_json{
        {"policy", sim::to_string(cell.policy)},
        {"nodes", cell.point.nodes},
        {"vms_per_node", cell.point.vms_per_node},
        {"tenants", cell.point.tenants},
        {"windows", cell.windows},
        {"trials", cell.trials},
        {"shards", cell.shards},
        {"median_round_seconds", cell.median_round_seconds},
        {"p95_round_seconds", cell.p95_round_seconds},
        {"mean_round_seconds", cell.mean_round_seconds},
        {"total_wall_seconds", cell.total_wall_seconds},
        {"allocs_per_second", cell.allocs_per_second},
        {"phase_seconds", std::move(phases)},
    };
    if (report.config.profile) {
      cell_json.emplace_back(
          "profile", json::Object{{"coverage", cell.profile_coverage},
                                  {"nodes",
                                   profile_nodes_json(cell.profile_nodes)}});
    }
    results.push_back(std::move(cell_json));
  }
  json::Object doc{
      {"schema_version", kBenchSchemaVersion},
      {"generated_by", "rrf_bench"},
      {"build", common::build_info_json()},
      {"config",
       json::Object{
           {"label", report.config.label},
           {"policies", std::move(policies)},
           {"sweep", std::move(sweep)},
           {"warmup", report.config.warmup},
           {"trials", report.config.trials},
           {"windows", report.config.windows},
           {"seed", report.config.seed},
           {"use_actuators", report.config.use_actuators},
           {"parallel_nodes", report.config.parallel_nodes},
           {"profile", report.config.profile},
           {"shard_counts", std::move(shard_counts)},
       }},
      {"results", std::move(results)},
  };
  if (report.config.profile) {
    doc.emplace_back("profile", profile_nodes_json(report.profile));
  }
  return doc;
}

void validate_report_json(const json::Value& doc) {
  check(doc.is_object(), "bench report: document must be an object");
  const double version = require_number(doc, "schema_version");
  // v1 reports (no profile blocks) remain readable for comparisons.
  check(version == 1.0 ||
            version == static_cast<double>(kBenchSchemaVersion),
        "bench report: unsupported schema_version");
  check(require_member(doc, "generated_by").is_string(),
              "bench report: 'generated_by' must be a string");

  const json::Value& config = require_member(doc, "config");
  check(config.is_object(), "bench report: 'config' must be an object");
  check(require_member(config, "policies").is_array(),
              "bench report: 'config.policies' must be an array");
  require_nonneg(config, "trials");
  require_nonneg(config, "windows");

  const json::Value& results = require_member(doc, "results");
  check(results.is_array(), "bench report: 'results' must be an array");
  check(!results.as_array().empty(),
              "bench report: 'results' must not be empty");
  for (const json::Value& cell : results.as_array()) {
    check(cell.is_object(), "bench report: result cells are objects");
    const std::string& policy = require_member(cell, "policy").as_string();
    sim::policy_from_string(policy);  // throws on an unknown policy
    require_nonneg(cell, "nodes");
    require_nonneg(cell, "vms_per_node");
    require_nonneg(cell, "tenants");
    // Additive in schema v2: absent from v1 (and early v2) reports.
    if (cell.find("shards") != nullptr) require_nonneg(cell, "shards");
    const double median = require_nonneg(cell, "median_round_seconds");
    const double p95 = require_nonneg(cell, "p95_round_seconds");
    check(p95 + 1e-12 >= median,
                "bench report: p95 below median in cell " + policy);
    require_nonneg(cell, "mean_round_seconds");
    require_nonneg(cell, "total_wall_seconds");
    require_nonneg(cell, "allocs_per_second");
    const json::Value& phases = require_member(cell, "phase_seconds");
    check(phases.is_object(),
                "bench report: 'phase_seconds' must be an object");
    for (const char* name : kPhaseNames) {
      require_nonneg(phases, name);
    }
    if (const json::Value* profile = cell.find("profile")) {
      check(profile->is_object(),
            "bench report: 'profile' must be an object");
      require_nonneg(*profile, "coverage");
      const json::Value& nodes = require_member(*profile, "nodes");
      check(nodes.is_array(), "bench report: 'profile.nodes' is an array");
      check(!nodes.as_array().empty(),
            "bench report: 'profile.nodes' must not be empty");
      for (const json::Value& node : nodes.as_array()) {
        check(node.is_object(), "bench report: profile nodes are objects");
        check(require_member(node, "path").is_string() &&
                  !require_member(node, "path").as_string().empty(),
              "bench report: profile node 'path' is a non-empty string");
        require_nonneg(node, "self_seconds");
        require_nonneg(node, "total_seconds");
        require_nonneg(node, "calls");
        require_nonneg(node, "bytes");
      }
    }
  }
}

void write_collapsed_profile(std::ostream& os,
                             const std::vector<ProfilePathNode>& nodes) {
  for (const ProfilePathNode& n : nodes) {
    const auto self_us = std::llround(n.self_seconds * 1e6);
    if (self_us > 0) os << n.path << ' ' << self_us << '\n';
  }
}

std::string report_summary(const Report& report) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-8s %6s %4s %4s %6s %12s %12s %14s\n",
                "policy", "nodes", "vms", "ten", "shards", "median(ms)",
                "p95(ms)", "allocs/s");
  out += line;
  for (const CellResult& cell : report.cells) {
    std::snprintf(line, sizeof(line),
                  "%-8s %6zu %4zu %4zu %6zu %12.3f %12.3f %14.0f\n",
                  sim::to_string(cell.policy).c_str(), cell.point.nodes,
                  cell.point.vms_per_node, cell.point.tenants, cell.shards,
                  cell.median_round_seconds * 1e3,
                  cell.p95_round_seconds * 1e3, cell.allocs_per_second);
    out += line;
  }
  return out;
}

}  // namespace rrf::bench
