// rrf_sim_cli — run RRF (or any baseline) on a configurable scenario from
// the command line.
//
//   rrf_sim_cli --policy rrf --workloads tpcc,rubbos --alpha 1.0
//               --hosts 2 --duration 1200 --window 5 --csv out.csv
//   rrf_sim_cli --policy all --fill        # compare every policy
//
// Run with --help for the full flag list.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/experiments.hpp"
#include "obs/detect.hpp"
#include "obs/exposition.hpp"
#include "obs/flightrec.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"
#include "workload/profile.hpp"
#include "workload/replay.hpp"

namespace {

using namespace rrf;

struct CliOptions {
  std::string policy = "rrf";
  std::vector<wl::WorkloadKind> workloads = wl::paper_workloads();
  double alpha = 1.0;
  std::size_t hosts = 1;
  bool fill = false;
  double duration = 1200.0;
  double window = 5.0;
  std::uint64_t seed = 42;
  bool actuators = true;
  bool oracle = false;
  std::string memory = "balloon";
  std::string csv;
  /// CSV demand traces to replay as extra tenants (repeatable flag).
  std::vector<std::string> replays;
  bool sliced = false;
  /// Synthetic scenario spec "nodes,vms_per_node,tenants[,seed]"; empty =
  /// paper-trace scenario (see --workloads / --fill).
  std::string synthetic;
  /// Observability outputs (empty = the subsystem stays disabled).
  std::string trace_path;
  std::string metrics_path;
  /// Hierarchical profiler output: Chrome trace JSON if the path ends in
  /// .json, collapsed-stack flamegraph text otherwise.
  std::string profile_path;
  /// Flight-recorder output (JSONL); empty = recording off.
  std::string record_path;
  /// Ops-plane port (/metrics, /rounds, /alerts, /readyz watchdog,
  /// /profile, ...): -1 = off, 0 = ephemeral.
  int serve_ops_port = -1;
  /// Seconds to keep serving after the runs finish (CI scrapes / demos).
  double serve_hold = 0.0;
  /// /readyz stall watchdog deadline in seconds (0 disables).
  double stall_deadline = 60.0;
  /// Telemetry journal path (empty = journaling off) and its two-segment
  /// rotation bound in bytes (0 = unbounded).
  std::string journal_path;
  std::size_t journal_retention = 0;
  /// Incident bundle root (--incidents-dir); enables the incident engine.
  std::string incidents_dir;
  /// Detector selection ("all", "none" or a comma list) for the run's
  /// detector bank; non-empty also enables the incident engine
  /// (in-memory when no --incidents-dir).
  std::string detectors;
  obs::DetectConfig detect;
  /// Synthetic-scenario provisioning multiplier (--overcommit); > 1 sells
  /// more capacity than the hosts have, the seeded starvation scenario.
  double overcommit = 1.0;
  /// Shard count for the parallel node round (0 = auto).  Results are
  /// bit-identical for any value; this tunes load balance only.
  std::size_t shards = 0;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "rrf_sim_cli — multi-resource fair-sharing simulator (RRF, SC'14)\n\n"
      "  --policy <name>     " << alloc::join_policy_names("|")
      << "|all (default rrf)\n"
      "  --workloads <list>  comma list of tpcc,rubbos,kernel,hadoop;\n"
      "                      repeats allowed (default: all four, once)\n"
      "  --alpha <f>         provisioning coefficient (default 1.0)\n"
      "  --hosts <n>         number of paper hosts (default 1)\n"
      "  --fill              pack tenants (cycling --workloads) until the\n"
      "                      cluster is full instead of one tenant each\n"
      "  --duration <s>      simulated seconds (default 1200)\n"
      "  --window <s>        allocation period (default 5)\n"
      "  --seed <n>          RNG seed (default 42)\n"
      "  --no-actuators      ideal actuation (no balloon/scheduler model)\n"
      "  --oracle            allocator sees true demand (no predictor)\n"
      "  --memory <b>        balloon|hotplug|cgroup (default balloon)\n"
      "  --replay <path>     add a tenant replaying a CSV demand trace\n"
      "                      (t_seconds,cpu_ghz,ram_gb; repeatable)\n"
      "  --sliced            slice-level credit-scheduler dispatch\n"
      "  --shards <n>        shard count for the parallel node round\n"
      "                      (default 0 = auto-size to the thread pool);\n"
      "                      allocations are bit-identical for any value\n"
      "  --synthetic <spec>  use the synthetic scenario instead of paper\n"
      "                      traces; spec is nodes,vms_per_node,tenants\n"
      "                      with an optional trailing ,seed\n"
      "  --csv <path>        write per-tenant results as CSV\n"
      "  --record <path>     capture a schema-v1 flight recording (JSONL)\n"
      "                      of every allocation round; verify/diff/inspect\n"
      "                      it with rrf_inspect (single policy only)\n"
      "  --trace <path>      record allocation events; writes Chrome trace\n"
      "                      JSON (open in chrome://tracing), or JSONL if\n"
      "                      the path ends in .jsonl\n"
      "  --metrics <path>    write a metrics snapshot (counters + per-phase\n"
      "                      timing histograms); JSON, or CSV if the path\n"
      "                      ends in .csv, or Prometheus text format if it\n"
      "                      ends in .prom\n"
      "  --profile <path>    attach the hierarchical profiler (per-thread\n"
      "                      call trees, pool + lock contention telemetry);\n"
      "                      writes Chrome trace JSON if the path ends in\n"
      "                      .json, collapsed-stack flamegraph text\n"
      "                      otherwise.  Also feeds profile.* gauges into\n"
      "                      --metrics / --serve-ops output.\n"
      "  --serve-ops <p>     serve the ops plane on port <p> (0 picks an\n"
      "                      ephemeral port): /metrics (Prometheus text),\n"
      "                      /metrics.json, /healthz, /readyz (stall\n"
      "                      watchdog), /alerts, /rounds (streaming NDJSON\n"
      "                      round feed; follow it live with curl or\n"
      "                      rrf_top), /incidents and /profile.  Implies\n"
      "                      metric collection.\n"
      "  --serve-hold <s>    keep serving <s> seconds after the runs finish\n"
      "                      (default 0)\n"
      "  --stall-deadline <s> /readyz answers 503 when no round completes\n"
      "                      within <s> seconds (default 60; 0 disables)\n"
      "  --journal <path>    append a schema-v1 telemetry journal (JSONL):\n"
      "                      round summaries, alert and incident\n"
      "                      transitions; inspect with rrf_inspect journal\n"
      "  --journal-retention <bytes>  bound journal disk use via two-segment\n"
      "                      rotation (default 0 = unbounded)\n"
      "  --incidents-dir <d> enable the incident engine (multi-window SLO\n"
      "                      burn-rate + changepoint detectors over the\n"
      "                      round feed) and write one forensic bundle\n"
      "                      directory per incident under <d>; inspect\n"
      "                      with rrf_inspect incident (single policy\n"
      "                      only)\n"
      "  --detectors <list>  detector selection: all, none, or a comma\n"
      "                      list of jain,drift,starvation,throughput,\n"
      "                      changepoint,complaint,beta_drift,reciprocity\n"
      "                      (default all).  Implies the incident engine\n"
      "                      (in memory when no --incidents-dir)\n"
      "  --overcommit <f>    synthetic scenarios only: provision each VM\n"
      "                      <f>x its honest share (default 1.0); > 1\n"
      "                      oversells capacity so saturated demand\n"
      "                      starves tenants — the seeded incident demo\n"
      "  --help\n";
  std::exit(code);
}

wl::WorkloadKind parse_workload(const std::string& name) {
  if (name == "tpcc") return wl::WorkloadKind::kTpcc;
  if (name == "rubbos") return wl::WorkloadKind::kRubbos;
  if (name == "kernel") return wl::WorkloadKind::kKernelBuild;
  if (name == "hadoop") return wl::WorkloadKind::kHadoop;
  std::cerr << "unknown workload: " << name << "\n";
  usage(2);
}

/// Throws DomainError naming the flag on a malformed numeric value.
CliOptions parse(int argc, char** argv) {
  CliOptions options;
  auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      usage(2);
    }
    return argv[++i];
  };
  // Reads flag i's value into a numeric option of the same type.
  auto read = [&](int& i, auto& option) {
    const std::string flag = argv[i];
    option = tools::parse_number<std::remove_reference_t<decltype(option)>>(
        flag, next(i));
  };
  auto port = [&](int& i) -> int {
    const std::string flag = argv[i];
    return tools::parse_number<std::uint16_t>(flag, next(i));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--policy") options.policy = next(i);
    else if (arg == "--alpha") read(i, options.alpha);
    else if (arg == "--hosts") read(i, options.hosts);
    else if (arg == "--fill") options.fill = true;
    else if (arg == "--duration") read(i, options.duration);
    else if (arg == "--window") read(i, options.window);
    else if (arg == "--seed") read(i, options.seed);
    else if (arg == "--no-actuators") options.actuators = false;
    else if (arg == "--oracle") options.oracle = true;
    else if (arg == "--memory") options.memory = next(i);
    else if (arg == "--replay") options.replays.push_back(next(i));
    else if (arg == "--sliced") options.sliced = true;
    else if (arg == "--shards") read(i, options.shards);
    else if (arg == "--synthetic") options.synthetic = next(i);
    else if (arg == "--csv") options.csv = next(i);
    else if (arg == "--record") options.record_path = next(i);
    else if (arg == "--trace") options.trace_path = next(i);
    else if (arg == "--metrics") options.metrics_path = next(i);
    else if (arg == "--profile") options.profile_path = next(i);
    else if (arg == "--serve-ops") options.serve_ops_port = port(i);
    else if (arg == "--serve-hold") read(i, options.serve_hold);
    else if (arg == "--stall-deadline") read(i, options.stall_deadline);
    else if (arg == "--journal") options.journal_path = next(i);
    else if (arg == "--journal-retention") read(i, options.journal_retention);
    else if (arg == "--incidents-dir") options.incidents_dir = next(i);
    else if (arg == "--detectors") options.detectors = next(i);
    else if (arg == "--overcommit") read(i, options.overcommit);
    else if (arg == "--workloads") {
      options.workloads.clear();
      std::stringstream ss(next(i));
      std::string token;
      while (std::getline(ss, token, ',')) {
        options.workloads.push_back(parse_workload(token));
      }
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      usage(2);
    }
  }
  if (options.policy != "all") {
    tools::policy_or_exit("rrf_sim_cli", options.policy);
  }
  if (options.workloads.empty()) {
    std::cerr << "no workloads given\n";
    usage(2);
  }
  if (!options.record_path.empty() && options.policy == "all") {
    std::cerr << "--record captures one run; pick a single --policy\n";
    usage(2);
  }
  if (!options.journal_path.empty() && options.policy == "all") {
    std::cerr << "--journal captures one run; pick a single --policy\n";
    usage(2);
  }
  if (!options.detectors.empty()) {
    obs::apply_detector_flag(options.detect, options.detectors);
  }
  if ((!options.incidents_dir.empty() || !options.detectors.empty()) &&
      options.policy == "all") {
    std::cerr << "incident detection follows one run; pick a single "
                 "--policy\n";
    usage(2);
  }
  if (options.overcommit != 1.0 && options.synthetic.empty()) {
    std::cerr << "--overcommit only applies to --synthetic scenarios\n";
    usage(2);
  }
  return options;
}

sim::SyntheticConfig parse_synthetic(const std::string& spec) {
  std::vector<std::uint64_t> values;
  std::stringstream ss(spec);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    values.push_back(tools::parse_number<std::uint64_t>("--synthetic", cell));
  }
  if (values.size() < 3 || values.size() > 4) {
    std::cerr << "--synthetic wants nodes,vms_per_node,tenants[,seed]\n";
    usage(2);
  }
  sim::SyntheticConfig config;
  config.nodes = values[0];
  config.vms_per_node = values[1];
  config.tenants = values[2];
  if (values.size() == 4) config.seed = values[3];
  return config;
}

std::unique_ptr<obs::IncidentManager> make_incident_manager(
    const CliOptions& options) {
  if (options.incidents_dir.empty() && options.detectors.empty()) {
    return nullptr;
  }
  obs::IncidentConfig config;
  config.dir = options.incidents_dir;
  return std::make_unique<obs::IncidentManager>(config);
}

void print_incident_summary(const obs::IncidentManager& manager) {
  const std::vector<obs::Incident> incidents = manager.incidents();
  if (incidents.empty()) {
    std::cout << "incidents: none\n";
    return;
  }
  std::cout << "incidents: " << incidents.size() << " opened, "
            << manager.open_count() << " still open\n";
  for (const obs::Incident& incident : incidents) {
    std::cout << "  " << incident.id << " ["
              << obs::to_string(incident.severity) << "] "
              << (incident.open ? "open" : "resolved") << " w"
              << incident.opened_window;
    std::cout << " kinds=";
    for (std::size_t i = 0; i < incident.kinds.size(); ++i) {
      std::cout << (i > 0 ? "+" : "") << incident.kinds[i];
    }
    if (!incident.dir.empty()) std::cout << " bundle=" << incident.dir;
    std::cout << "\n";
  }
}

sim::EngineConfig engine_config(const CliOptions& options) {
  sim::EngineConfig engine;
  engine.duration = options.duration;
  engine.window = options.window;
  engine.use_actuators = options.actuators;
  engine.use_predictor = !options.oracle;
  engine.use_sliced_scheduler = options.sliced;
  engine.shards = options.shards;
  engine.detect = options.detect;
  if (options.memory == "balloon") {
    engine.memory_backend = hv::MemoryBackend::kBalloon;
  } else if (options.memory == "hotplug") {
    engine.memory_backend = hv::MemoryBackend::kHotplug;
  } else if (options.memory == "cgroup") {
    engine.memory_backend = hv::MemoryBackend::kCgroup;
  } else {
    std::cerr << "unknown memory backend: " << options.memory << "\n";
    usage(2);
  }
  return engine;
}

void print_alert_summary(const sim::SimResult& result) {
  if (result.alerts.empty()) {
    std::cout << "fairness alerts: none\n";
    return;
  }
  std::array<std::size_t, obs::kDetectorKindCount> by_kind{};
  for (const obs::Detection& alert : result.alerts) {
    ++by_kind[static_cast<std::size_t>(alert.kind)];
  }
  std::cout << "fairness alerts: " << result.alerts.size() << " (";
  bool first = true;
  for (std::size_t k = 0; k < obs::kDetectorKindCount; ++k) {
    if (by_kind[k] == 0) continue;
    if (!first) std::cout << ", ";
    first = false;
    std::cout << obs::to_string(static_cast<obs::DetectorKind>(k)) << "="
              << by_kind[k];
  }
  std::cout << ")\n";
}

int run(int argc, char** argv) {
  const CliOptions options = parse(argc, argv);
  const bool serve_ops = options.serve_ops_port >= 0;
  // Opened before anything runs: an unwritable path exits 2 at once.
  tools::ObservabilityOutputs outputs(options.trace_path, options.profile_path,
                                      options.metrics_path);
  tools::PendingOutput csv_out(options.csv);
  tools::enable_observability(!options.trace_path.empty(),
                              !options.metrics_path.empty() || serve_ops,
                              !options.profile_path.empty());

  std::unique_ptr<obs::OpsHub> hub;
  if (serve_ops) hub = std::make_unique<obs::OpsHub>();

  std::unique_ptr<obs::IncidentManager> incidents =
      make_incident_manager(options);

  std::unique_ptr<obs::ExpositionServer> server;
  if (serve_ops) {
    obs::ExpositionServer::Config server_config;
    server_config.port = static_cast<std::uint16_t>(options.serve_ops_port);
    server_config.ops = hub.get();
    server_config.incidents = incidents.get();
    server_config.stall_deadline_seconds = options.stall_deadline;
    server = std::make_unique<obs::ExpositionServer>(server_config);
    server->start();
  }

  sim::Scenario scenario = [&] {
    if (!options.synthetic.empty()) {
      sim::SyntheticConfig synthetic = parse_synthetic(options.synthetic);
      synthetic.overcommit = options.overcommit;
      return sim::make_synthetic_scenario(synthetic);
    }
    if (options.fill) {
      return sim::fill_scenario(options.hosts, options.workloads,
                                options.alpha, options.seed);
    }
    sim::ScenarioConfig config;
    config.workloads = options.workloads;
    config.alpha = options.alpha;
    config.hosts = options.hosts;
    config.seed = options.seed;
    return sim::build_scenario(config);
  }();
  // Replayed traces become extra single-VM tenants provisioned at their
  // average demand times alpha, placed greedily on the least-loaded host.
  for (const std::string& path : options.replays) {
    auto replay = wl::ReplayWorkload::from_csv_file(path);
    const wl::WorkloadProfile profile =
        wl::profile_workload(*replay, replay->trace_length(), 1.0);
    cluster::TenantSpec tenant;
    tenant.name = replay->name();
    cluster::VmSpec vm;
    vm.name = tenant.name + "/vm0";
    vm.provisioned = profile.average * options.alpha;
    const double peak_cores =
        profile.peak[Resource::kCpu] / wl::kCoreGhz;
    vm.vcpus = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(peak_cores)));
    tenant.vms.push_back(vm);
    const std::size_t t = scenario.cluster.add_tenant(tenant);
    scenario.workloads.push_back(std::move(replay));
    scenario.host_of.push_back({t % scenario.cluster.hosts().size()});
  }
  if (!scenario.unplaced.empty()) {
    std::cerr << "warning: " << scenario.unplaced.size()
              << " VM(s) did not fit and are excluded\n";
  }

  std::vector<sim::PolicyKind> policies;
  for (const alloc::Policy& p : alloc::policies()) {
    if (options.policy == "all" || p.name == options.policy) {
      policies.push_back(p.kind);
    }
  }

  const sim::EngineConfig engine = engine_config(options);

  std::vector<std::vector<std::string>> csv;
  csv.push_back({"policy", "tenant", "beta", "perf"});

  std::ofstream record_out;
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!options.record_path.empty()) {
    record_out = tools::open_output(options.record_path);
    recorder = std::make_unique<obs::FlightRecorder>(record_out);
  }

  std::unique_ptr<obs::TelemetryJournal> journal;
  if (!options.journal_path.empty()) {
    obs::TelemetryJournal::Options journal_options;
    journal_options.path = options.journal_path;
    journal_options.max_bytes = options.journal_retention;
    journal_options.policy = options.policy;
    for (const auto& tenant : scenario.cluster.tenants()) {
      journal_options.tenants.push_back(tenant.name);
    }
    journal = std::make_unique<obs::TelemetryJournal>(
        std::move(journal_options));
  }

  for (const sim::PolicyKind policy : policies) {
    sim::EngineConfig config = engine;
    config.policy = policy;
    if (recorder) {
      recorder->write_header(sim::make_flight_header(scenario, config));
      config.flight = recorder.get();
    }
    config.ops = hub.get();
    config.journal = journal.get();
    config.incidents = incidents.get();
    const sim::SimResult result = sim::run_simulation(scenario, config);

    TextTable table(sim::to_string(policy));
    table.header({"tenant", "beta", "perf", "mean D/S"});
    for (const auto& tenant : result.tenants) {
      table.row({tenant.name(), TextTable::num(tenant.beta(), 3),
                 TextTable::num(tenant.mean_perf(), 3),
                 TextTable::num(mean(tenant.demand_ratio_series()), 3)});
      csv.push_back({sim::to_string(policy), tenant.name(),
                     TextTable::num(tenant.beta(), 6),
                     TextTable::num(tenant.mean_perf(), 6)});
    }
    table.print(std::cout);
    std::cout << "geomeans: beta "
              << TextTable::num(result.fairness_geomean(), 3) << ", perf "
              << TextTable::num(result.perf_geomean(), 3)
              << "; utilization CPU "
              << TextTable::pct(result.mean_utilization[0]) << " RAM "
              << TextTable::pct(result.mean_utilization[1])
              << "; allocator load "
              << TextTable::pct(result.allocator_load(), 4) << "\n";
    // The engine's detector bank ran for any of these consumers.
    if (obs::metrics_enabled() || hub || journal || incidents) {
      print_alert_summary(result);
    }
    std::cout << "\n";
  }

  if (recorder) {
    recorder->finish();
    std::cout << "wrote " << options.record_path << " ("
              << recorder->rounds_recorded() << " rounds, "
              << recorder->bytes_written() << " bytes, "
              << TextTable::num(recorder->record_seconds() * 1e3, 2)
              << " ms record time)\n";
  }
  if (journal) {
    journal->finish();
    std::cout << "wrote " << options.journal_path << " ("
              << journal->rounds_recorded() << " rounds, "
              << journal->alerts_recorded() << " alert transitions, "
              << journal->incidents_recorded() << " incident transitions, "
              << journal->bytes_written() << " bytes";
    if (journal->segment() > 0) {
      std::cout << ", rotated " << journal->segment() << "x";
    }
    std::cout << ")\n";
  }
  if (incidents) print_incident_summary(*incidents);
  if (csv_out) {
    csv_out.write([&](std::ostream& out) { write_csv(out, csv); });
    std::cout << "wrote " << options.csv << "\n";
  }
  outputs.write();
  if (server) {
    if (options.serve_hold > 0.0) {
      // Flushed: a scraper commonly stops the process during the hold,
      // and the run's summary must already be on disk by then.
      std::cout << "holding the ops plane open for " << options.serve_hold
                << "s (port " << server->port() << ")" << std::endl;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.serve_hold));
    }
    server->stop();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A malformed flag value, or a scenario or engine config the library
  // rejects (--window 0, --synthetic 0,8,4, --overcommit 0), exits 2.
  try {
    return run(argc, argv);
  } catch (const DomainError& e) {
    std::cerr << "error: " << e.what() << "\n";
  } catch (const PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n";
  }
  return 2;
}
