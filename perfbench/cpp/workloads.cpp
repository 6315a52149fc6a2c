// The four workloads and their timed and traced runs.
//
// A run repeats whole passes until its time is used up.  A pass builds the
// scenario from the seed, runs every policy of the workload for a fixed
// number of windows with a per-window observer, and (paper-ops) reads the
// flight recording and journal back and replays the recording.  Each pass
// is one set-up sample; every window after a run's first is one latency
// sample, timed from one observer call to the next.
#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using rrf::sim::PolicyKind;

rrf::sim::Scenario synthetic(std::size_t nodes, std::size_t vms_per_node,
                             std::size_t tenants, std::uint64_t seed) {
  rrf::sim::SyntheticConfig config;
  config.nodes = nodes;
  config.vms_per_node = vms_per_node;
  config.tenants = tenants;
  config.seed = seed;
  return rrf::sim::make_synthetic_scenario(config);
}

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> specs;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  WorkloadSpec dense;
  dense.name = "rrf-dense";
  dense.build = [](std::uint64_t seed) { return synthetic(32, 100, 32, seed); };
  dense.policies = {PolicyKind::kRrf};
  dense.engine.use_actuators = false;
  dense.engine.parallel_nodes = false;
  dense.windows = 400;
  dense.tail_percentile = 99.0;
  dense.layer_windows = 120;
  dense.fidelity_windows = 3;
  dense.sink_windows = 40;
  specs.push_back(dense);

  WorkloadSpec wide;
  wide.name = "baselines-wide";
  wide.build = [](std::uint64_t seed) { return synthetic(256, 8, 64, seed); };
  wide.policies = {PolicyKind::kTshirt, PolicyKind::kWmmf, PolicyKind::kDrf};
  wide.engine.use_actuators = false;
  wide.engine.parallel_nodes = false;
  wide.windows = 150;
  wide.tail_percentile = 99.0;
  wide.layer_windows = 60;
  wide.fidelity_windows = 3;
  wide.sink_windows = 40;
  specs.push_back(wide);

  WorkloadSpec scale;
  scale.name = "rrf-scale-sharded";
  scale.build = [](std::uint64_t seed) {
    return synthetic(1024, 100, 32, seed);
  };
  scale.policies = {PolicyKind::kRrf};
  scale.engine.use_actuators = false;
  scale.engine.parallel_nodes = true;
  scale.engine.shards = nproc;
  scale.windows = 40;
  scale.tail_percentile = 90.0;
  scale.layer_windows = 4;
  scale.fidelity_windows = 2;
  scale.sink_windows = 2;
  specs.push_back(scale);

  WorkloadSpec paper;
  paper.name = "paper-ops";
  paper.build = [](std::uint64_t seed) {
    return rrf::sim::fill_scenario(8, rrf::wl::paper_workloads(), 1.0, seed);
  };
  paper.policies = {PolicyKind::kRrf};
  paper.engine.use_actuators = true;
  paper.engine.parallel_nodes = false;
  paper.windows = 240;
  paper.sinks = kAllSinks;
  paper.tail_percentile = 99.0;
  paper.layer_windows = 180;
  paper.fidelity_windows = 3;
  paper.sink_windows = 120;
  specs.push_back(paper);
  return specs;
}

struct PassOptions {
  unsigned sinks{0};
  bool read_back{false};
  bool count_heap{false};
  /// Windows per policy (0: the workload's own count).
  std::size_t windows{0};
  /// Policies to run (empty: all of the workload's).
  std::vector<PolicyKind> policies;
  SpanLog* spans{nullptr};
  std::string work_dir;
};

/// One run_simulation call inside a pass.
struct PolicyRun {
  std::size_t windows{0};
  std::size_t rounds_per_window{0};
  std::vector<double> window_s;  ///< windows 2.., observer to observer
  std::vector<HeapCount> window_heap;  ///< heap calls per timed window
  double first_window_s{0.0};  ///< engine set-up plus the cold window
  double wall_s{0.0};          ///< the whole run_simulation call
  // From the returned SimResult (the rest of it is not kept: a run keeps
  // every pass).
  std::array<double, rrf::obs::kPhaseCount> phase_seconds{};
  std::size_t node_rounds{0};
  std::vector<rrf::sim::ShardStats> shards;
  // Sinks.
  std::uint64_t flight_bytes{0};
  std::uint64_t journal_bytes{0};
  double record_s{0.0};
  // Read side (recording and journal loaded back, recording replayed).
  double read_s{0.0};
  bool read_ok{true};
};

struct PassResult {
  double scenario_build_s{0.0};
  double setup_s{0.0};
  std::vector<PolicyRun> runs;
  std::size_t windows_checked{0};
  std::size_t windows_failed{0};
  std::uint64_t digest{0};
  double worst_conservation{0.0};

  std::size_t timed_windows() const {
    std::size_t n = 0;
    for (const PolicyRun& run : runs) n += run.window_s.size();
    return n;
  }
  double timed_seconds() const {
    double s = 0.0;
    for (const PolicyRun& run : runs) {
      for (double w : run.window_s) s += w;
    }
    return s;
  }
  double node_rounds_per_s() const {
    double rounds = 0.0;
    for (const PolicyRun& run : runs) {
      rounds += static_cast<double>(run.window_s.size() *
                                    run.rounds_per_window);
    }
    return rounds / timed_seconds();
  }
};

/// Sinks of one run_simulation call; they live as long as the call.
struct SinkSet {
  std::ofstream flight_out;
  std::unique_ptr<rrf::obs::FlightRecorder> flight;
  std::unique_ptr<rrf::obs::TelemetryJournal> journal;
  std::unique_ptr<rrf::obs::OpsHub> hub;
  std::unique_ptr<rrf::obs::IncidentManager> incidents;
};

std::string flight_path(const PassOptions& options) {
  return (fs::path(options.work_dir) / "flight.jsonl").string();
}
std::string journal_path(const PassOptions& options) {
  return (fs::path(options.work_dir) / "journal.jsonl").string();
}

void attach_sinks(SinkSet& sinks, const PassOptions& options,
                  const rrf::sim::Scenario& scenario,
                  rrf::sim::EngineConfig& config) {
  // The auditor runs only while metric collection is on.
  rrf::obs::set_metrics_enabled((options.sinks & kAudit) != 0);
  if (options.sinks & kFlightRec) {
    sinks.flight_out.open(flight_path(options));
    if (!sinks.flight_out) {
      throw rrf::DomainError("perfbench: cannot write " +
                             flight_path(options));
    }
    sinks.flight =
        std::make_unique<rrf::obs::FlightRecorder>(sinks.flight_out);
    sinks.flight->write_header(rrf::sim::make_flight_header(scenario, config));
    config.flight = sinks.flight.get();
  }
  if (options.sinks & kJournal) {
    rrf::obs::TelemetryJournal::Options journal;
    journal.path = journal_path(options);
    journal.policy = rrf::sim::to_string(config.policy);
    for (const auto& tenant : scenario.cluster.tenants()) {
      journal.tenants.push_back(tenant.name);
    }
    sinks.journal =
        std::make_unique<rrf::obs::TelemetryJournal>(std::move(journal));
    config.journal = sinks.journal.get();
  }
  if (options.sinks & kOpsHub) {
    sinks.hub = std::make_unique<rrf::obs::OpsHub>();
    config.ops = sinks.hub.get();
  }
  if (options.sinks & kIncidents) {
    rrf::obs::IncidentConfig incidents;  // every detector enabled
    incidents.dir = (fs::path(options.work_dir) / "incidents").string();
    fs::remove_all(incidents.dir);
    sinks.incidents = std::make_unique<rrf::obs::IncidentManager>(incidents);
    config.incidents = sinks.incidents.get();
  }
}

void finish_sinks(SinkSet& sinks, PolicyRun& run) {
  if (sinks.flight) {
    sinks.flight->finish();
    sinks.flight_out.close();
    run.flight_bytes = sinks.flight->bytes_written();
    run.record_s = sinks.flight->record_seconds();
  }
  if (sinks.journal) {
    sinks.journal->finish();
    run.journal_bytes = sinks.journal->bytes_written();
  }
  rrf::obs::set_metrics_enabled(false);
}

/// Loads the recording and the journal back and replays the recording;
/// the pass is correct only when every round comes back and the replay
/// is bit-exact.
void read_back(const PassOptions& options, PolicyRun& run) {
  const std::int64_t start = now_ns();
  const rrf::obs::FlightRecording recording =
      rrf::obs::FlightRecording::load_file(flight_path(options));
  const rrf::obs::JournalData journal =
      rrf::obs::JournalData::load_file(journal_path(options));
  const rrf::sim::ReplayResult replay = rrf::sim::replay_recording(recording);
  run.read_s = seconds_between(start, now_ns());
  run.read_ok = recording.rounds.size() == run.windows &&
                journal.rounds.size() == run.windows &&
                journal.end.has_value() && replay.diff.identical &&
                replay.rounds_replayed == run.windows;
}

PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                    const PassOptions& options) {
  PassResult pass;
  const std::int64_t start = now_ns();
  const rrf::sim::Scenario scenario = spec.build(seed);
  pass.scenario_build_s = seconds_between(start, now_ns());
  WindowChecker checker(paid_shares(scenario),
                        scenario.cluster.tenants().size());

  const std::vector<PolicyKind>& policies =
      options.policies.empty() ? spec.policies : options.policies;
  const std::size_t windows =
      options.windows > 0 ? options.windows : spec.windows;
  for (const PolicyKind policy : policies) {
    PolicyRun run;
    run.windows = windows;
    run.window_s.reserve(windows);
    if (options.count_heap) run.window_heap.reserve(windows);

    rrf::sim::EngineConfig config = spec.engine;
    config.policy = policy;
    config.duration = static_cast<double>(windows) * config.window;
    SinkSet sinks;
    attach_sinks(sinks, options, scenario, config);

    std::int64_t first = 0;
    std::int64_t previous = 0;
    HeapCount previous_heap;
    std::size_t run_failed = 0;
    const bool first_run = pass.runs.empty();
    config.observer = [&](const rrf::sim::WindowSnapshot& snapshot) {
      const std::int64_t t = now_ns();
      const HeapCount heap = heap_count();
      if (previous == 0) {
        first = t;
        if (first_run) pass.setup_s = seconds_between(start, t);
      } else {
        run.window_s.push_back(seconds_between(previous, t));
        if (options.count_heap) {
          run.window_heap.push_back(HeapCount{heap.allocs - previous_heap.allocs,
                                              heap.bytes - previous_heap.bytes});
        }
        if (options.spans != nullptr) {
          options.spans->add("engine.window", -1, previous, t);
        }
      }
      previous = t;
      previous_heap = heap;
      ++pass.windows_checked;
      if (!checker.check(snapshot)) ++run_failed;
    };

    if (options.count_heap) set_heap_counting(true);
    const std::int64_t call = now_ns();
    const rrf::sim::SimResult result =
        rrf::sim::run_simulation(scenario, config);
    run.wall_s = seconds_between(call, now_ns());
    set_heap_counting(false);
    run.first_window_s = seconds_between(call, first);
    run.phase_seconds = result.phase_seconds;
    run.node_rounds = result.alloc_invocations;
    run.shards = result.shards;
    run.rounds_per_window = run.node_rounds / windows;
    finish_sinks(sinks, run);
    if (options.read_back) {
      read_back(options, run);
      if (!run.read_ok) run_failed = windows;
    }
    pass.windows_failed += run_failed;
    pass.runs.push_back(std::move(run));
  }
  pass.digest = checker.digest();
  pass.worst_conservation = checker.worst_conservation_error();
  return pass;
}

/// Cross-pass determinism and, when a digest is stored for the seed, the
/// bit-exact check: a pass that disagrees fails all its windows.
void check_digests(std::vector<PassResult>& passes,
                   const std::optional<std::uint64_t>& expected) {
  if (passes.empty()) return;
  const std::uint64_t reference = expected.value_or(passes.front().digest);
  for (PassResult& pass : passes) {
    if (pass.digest != reference) pass.windows_failed = pass.windows_checked;
  }
}

std::vector<double> pooled_windows(const std::vector<PassResult>& passes) {
  std::vector<double> all;
  for (const PassResult& pass : passes) {
    for (const PolicyRun& run : pass.runs) {
      all.insert(all.end(), run.window_s.begin(), run.window_s.end());
    }
  }
  return all;
}

template <typename F>
double median_over(const std::vector<PassResult>& passes, F&& f) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const PassResult& pass : passes) values.push_back(f(pass));
  return median(values);
}

template <typename F>
double best_over(const std::vector<PassResult>& passes, F&& f) {
  double best = -std::numeric_limits<double>::infinity();
  for (const PassResult& pass : passes) best = std::max(best, f(pass));
  return best;
}

void count_checks(const std::vector<PassResult>& passes, RunReport& report) {
  for (const PassResult& pass : passes) {
    report.attempted += pass.windows_checked;
    report.failed += pass.windows_failed;
  }
}

/// How an engine window splits between the shards and the serial part,
/// averaged over the timed windows of `passes`.  Serial runs have no
/// shards: the whole window is serial work.
struct EngineShape {
  double window_s{0.0};     ///< mean wall time of a timed window
  double busy_max_s{0.0};   ///< busiest shard's busy time per window
  double busy_mean_s{0.0};  ///< mean shard busy time per window
  double busy_sum_s{0.0};   ///< all shards' busy time per window
  std::size_t shards{0};
  std::size_t threads{1};   ///< shards that can run at once

  double serial_s() const {
    return shards > 0 ? std::max(0.0, window_s - busy_max_s) : window_s;
  }
  /// Work per window as one thread would see it.
  double work_s() const { return shards > 0 ? busy_sum_s + serial_s() : window_s; }
};

EngineShape engine_shape(const std::vector<PassResult>& passes) {
  EngineShape shape;
  double window_sum = 0.0, runs = 0.0;
  std::size_t window_count = 0;
  for (const PassResult& pass : passes) {
    for (const PolicyRun& run : pass.runs) {
      for (double w : run.window_s) window_sum += w;
      window_count += run.window_s.size();
      const auto& shards = run.shards;
      if (shards.empty()) continue;
      double max = 0.0, sum = 0.0;
      for (const rrf::sim::ShardStats& s : shards) {
        if (s.rounds == 0) continue;
        const double busy = s.busy_seconds / static_cast<double>(s.rounds);
        max = std::max(max, busy);
        sum += busy;
      }
      shape.busy_max_s += max;
      shape.busy_sum_s += sum;
      shape.busy_mean_s += sum / static_cast<double>(shards.size());
      shape.shards = shards.size();
      shape.threads =
          std::min(shards.size(), rrf::global_pool().thread_count());
      runs += 1.0;
    }
  }
  shape.window_s = window_sum / static_cast<double>(window_count);
  if (runs > 0.0) {
    shape.busy_max_s /= runs;
    shape.busy_sum_s /= runs;
    shape.busy_mean_s /= runs;
  }
  return shape;
}

/// A short untimed pass first, so the heap, the thread pool and the
/// caches are warm before the first timed one.
void warm_up(const WorkloadSpec& spec, std::uint64_t seed,
             PassOptions options) {
  options.windows = 2;
  options.read_back = false;
  options.count_heap = false;
  options.spans = nullptr;
  run_pass(spec, seed, options);
}

/// Runs passes until `seconds` are used up (at least three, so set-up
/// has a median), stopping early rather than overrunning by more than
/// half a pass.
std::vector<PassResult> run_passes(const WorkloadSpec& spec,
                                   const RunOptions& run_options,
                                   const PassOptions& options, double seconds) {
  constexpr std::size_t kMinPasses = 3;
  warm_up(spec, run_options.seed, options);
  std::vector<PassResult> passes;
  const std::int64_t start = now_ns();
  for (;;) {
    passes.push_back(run_pass(spec, run_options.seed, options));
    const double elapsed = seconds_between(start, now_ns());
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= kMinPasses && elapsed + 0.5 * per_pass >= seconds) {
      break;
    }
  }
  return passes;
}

Value pass_details(const std::vector<PassResult>& passes) {
  rrf::json::Array out;
  for (const PassResult& pass : passes) {
    rrf::json::Object o;
    o.emplace_back("scenario_build_s", pass.scenario_build_s);
    o.emplace_back("setup_s", pass.setup_s);
    o.emplace_back("node_rounds_per_s", pass.node_rounds_per_s());
    o.emplace_back("timed_windows", pass.timed_windows());
    o.emplace_back("digest", digest_hex(pass.digest));
    o.emplace_back("failed_windows", pass.windows_failed);
    out.emplace_back(std::move(o));
  }
  return Value(std::move(out));
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = make_workloads();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

void add_metric(rrf::json::Object& metrics, const std::string& name,
                double value, const char* unit) {
  rrf::json::Object m;
  m.emplace_back("value", value);
  m.emplace_back("unit", unit);
  metrics.emplace_back(name, std::move(m));
}

RunReport run_timed(const WorkloadSpec& spec, const RunOptions& options) {
  PassOptions pass_options;
  pass_options.sinks = spec.sinks;
  pass_options.read_back = spec.sinks != 0;
  pass_options.work_dir = options.work_dir;
  std::vector<PassResult> passes =
      run_passes(spec, options, pass_options, options.seconds);
  check_digests(passes, options.expect_digest);

  RunReport report;
  count_checks(passes, report);
  const std::vector<double> windows = pooled_windows(passes);
  // Neighbour load on a shared host comes in episodes that slow a whole
  // pass (by up to 1.6x on a 4-vCPU one) and only ever add time, so
  // throughput and median latency come from the least-disturbed pass; the
  // pooled tail keeps every disturbance in view.
  add_metric(report.metrics, "node_rounds_per_s",
             best_over(passes, [](const PassResult& p) {
               return p.node_rounds_per_s();
             }),
             "1/s");
  add_metric(report.metrics, "window_p50_ms",
             -best_over(passes,
                        [](const PassResult& p) {
                          std::vector<double> w;
                          for (const PolicyRun& run : p.runs) {
                            w.insert(w.end(), run.window_s.begin(),
                                     run.window_s.end());
                          }
                          return -median(w);
                        }) *
                 1e3,
             "ms");
  add_metric(report.metrics, "window_tail_ms",
             percentile(windows, spec.tail_percentile) * 1e3, "ms");
  add_metric(report.metrics, "setup_s",
             median_over(passes, [](const PassResult& p) { return p.setup_s; }),
             "s");
  add_metric(report.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  if (spec.sinks != 0) {
    add_metric(report.metrics, "replay_rounds_per_s",
               best_over(passes,
                           [](const PassResult& p) {
                             const PolicyRun& run = p.runs.front();
                             return static_cast<double>(run.windows) /
                                    run.read_s;
                           }),
               "1/s");
    add_metric(report.metrics, "sink_bytes_per_round",
               median_over(passes,
                           [](const PassResult& p) {
                             const PolicyRun& run = p.runs.front();
                             return static_cast<double>(run.flight_bytes +
                                                        run.journal_bytes) /
                                    static_cast<double>(run.windows);
                           }),
               "bytes");
  }

  rrf::json::Object tail;
  tail.emplace_back("percentile", spec.tail_percentile);
  tail.emplace_back("samples", windows.size());
  report.details.emplace_back("window_tail", std::move(tail));
  report.details.emplace_back("passes", pass_details(passes));
  report.details.emplace_back("digest", digest_hex(passes.front().digest));
  double worst = 0.0;
  for (const PassResult& p : passes) {
    worst = std::max(worst, p.worst_conservation);
  }
  report.details.emplace_back("worst_conservation_error", worst);
  return report;
}

RunReport run_traced(const WorkloadSpec& spec, const RunOptions& options) {
  RunReport report;
  SpanLog spans;
  const std::int64_t start = now_ns();

  // ---- engine: untraced and traced passes, alternating ----
  PassOptions plain;
  plain.sinks = spec.sinks;
  plain.work_dir = options.work_dir;
  PassOptions traced = plain;
  traced.count_heap = true;
  traced.spans = &spans;
  std::vector<PassResult> untraced_passes, traced_passes;
  warm_up(spec, options.seed, plain);
  do {
    untraced_passes.push_back(run_pass(spec, options.seed, plain));
    traced_passes.push_back(run_pass(spec, options.seed, traced));
  } while (seconds_between(start, now_ns()) < 0.4 * options.seconds);
  check_digests(untraced_passes, options.expect_digest);
  check_digests(traced_passes,
                options.expect_digest.value_or(untraced_passes.front().digest));
  count_checks(untraced_passes, report);
  count_checks(traced_passes, report);

  const double untraced_rate = median_over(
      untraced_passes,
      [](const PassResult& p) { return p.node_rounds_per_s(); });
  const double traced_rate = median_over(
      traced_passes, [](const PassResult& p) { return p.node_rounds_per_s(); });

  // Engine heap calls per node-round, from the traced windows.
  std::vector<double> allocs, bytes;
  double rounds_per_window = 0.0;
  for (const PassResult& pass : traced_passes) {
    for (const PolicyRun& run : pass.runs) {
      const auto rounds = static_cast<double>(run.rounds_per_window);
      rounds_per_window = rounds;
      for (std::size_t i = 0; i < run.window_heap.size(); ++i) {
        allocs.push_back(static_cast<double>(run.window_heap[i].allocs) /
                         rounds);
        bytes.push_back(static_cast<double>(run.window_heap[i].bytes) /
                        rounds);
      }
    }
  }

  // Phase timers, shard balance and set-up, from the untraced passes.
  const EngineShape shape = engine_shape(untraced_passes);
  std::array<double, rrf::obs::kPhaseCount> phase{};
  double node_rounds = 0.0, wall_threads = 0.0;
  for (const PassResult& pass : untraced_passes) {
    for (const PolicyRun& run : pass.runs) {
      for (std::size_t i = 0; i < phase.size(); ++i) {
        phase[i] += run.phase_seconds[i];
      }
      node_rounds += static_cast<double>(run.node_rounds);
      wall_threads += run.wall_s * static_cast<double>(shape.threads);
    }
  }
  const char* phase_names[] = {"predict", "allocate", "actuate", "settle"};
  double phase_total = 0.0;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    add_metric(report.metrics,
               std::string("sim.phase.") + phase_names[i] +
                   "_us_per_node_round",
               phase[i] / node_rounds * 1e6, "us");
    phase_total += phase[i];
  }
  add_metric(report.metrics, "sim.phase.coverage", phase_total / wall_threads,
             "ratio");
  add_metric(report.metrics, "sim.shard.busy_imbalance",
             shape.shards > 0 ? shape.busy_max_s / shape.busy_mean_s : 1.0,
             "ratio");
  add_metric(report.metrics, "sim.shard.serial_ms_per_window",
             shape.serial_s() * 1e3, "ms");
  add_metric(report.metrics, "sim.shard.parallel_efficiency",
             shape.work_s() /
                 (static_cast<double>(shape.threads) * shape.window_s),
             "ratio");
  add_metric(report.metrics, "sim.scenario_build_s",
             median_over(untraced_passes,
                         [](const PassResult& p) {
                           return p.scenario_build_s;
                         }),
             "s");
  add_metric(report.metrics, "sim.first_window_s",
             median_over(untraced_passes,
                         [](const PassResult& p) {
                           return p.runs.front().first_window_s;
                         }),
             "s");
  add_metric(report.metrics, "sim.engine.heap_allocs_per_node_round",
             median(allocs), "count");
  add_metric(report.metrics, "sim.engine.heap_bytes_per_node_round",
             median(bytes), "bytes");

  // ---- layer driver, proven against flight recordings of the engine ----
  const rrf::sim::Scenario scenario = spec.build(options.seed);
  std::vector<rrf::obs::FlightRecording> references;
  for (const PolicyKind policy : spec.policies) {
    rrf::sim::EngineConfig config = spec.engine;
    config.policy = policy;
    config.duration =
        static_cast<double>(spec.fidelity_windows) * config.window;
    std::stringstream stream;
    {
      rrf::obs::FlightRecorder recorder(stream);
      recorder.write_header(rrf::sim::make_flight_header(scenario, config));
      config.flight = &recorder;
      rrf::sim::run_simulation(scenario, config);
      recorder.finish();
    }
    references.push_back(rrf::obs::FlightRecording::load(stream));
  }
  set_heap_counting(true);
  const LayerReport layers =
      drive_layers(spec, scenario, spec.layer_windows, &references, spans);
  set_heap_counting(false);
  references.clear();
  report.attempted += layers.fidelity_windows;
  report.failed += layers.fidelity_failed_windows;

  const auto per = [](const SpanLog::Totals& t, double scale, double items) {
    return items > 0.0 ? static_cast<double>(t.ns) * scale / items : 0.0;
  };
  for (const char* kernel : {"rrf", "irt", "iwa", "surplus", "drf", "wmmf"}) {
    const std::string name = std::string("alloc.") + kernel;
    const SpanLog::Totals t = spans.totals(name);
    const auto calls = static_cast<double>(t.count);
    add_metric(report.metrics, name + ".us_per_call", per(t, 1e-3, calls),
               "us");
    add_metric(report.metrics, name + ".heap_allocs_per_call",
               calls > 0.0 ? static_cast<double>(t.allocs) / calls : 0.0,
               "count");
  }
  add_metric(report.metrics, "alloc.irt.reorder_ratio",
             layers.reorder_compared > 0
                 ? static_cast<double>(layers.reorder_changed) /
                       static_cast<double>(layers.reorder_compared)
                 : 0.0,
             "ratio");
  const auto vm_rounds = static_cast<double>(layers.vm_rounds);
  const auto layer_node_rounds = static_cast<double>(layers.node_rounds);
  const auto layer_windows = static_cast<double>(layers.windows);
  add_metric(report.metrics, "sim.predictor.ns_per_vm",
             per(spans.totals("sim.predictor"), 1.0, vm_rounds), "ns");
  const SpanLog::Totals demand = spans.totals("workload.demand");
  add_metric(report.metrics, "workload.demand_ns_per_vm",
             per(demand, 1.0, vm_rounds), "ns");
  add_metric(report.metrics, "workload.demand_heap_allocs_per_window",
             static_cast<double>(demand.allocs) / layer_windows, "count");
  const SpanLog::Totals actuate = spans.totals("hypervisor.actuate");
  add_metric(report.metrics, "hypervisor.actuate_us_per_node_round",
             per(actuate, 1e-3, layer_node_rounds), "us");
  add_metric(report.metrics, "hypervisor.heap_allocs_per_node_round",
             static_cast<double>(actuate.allocs) / layer_node_rounds, "count");

  // ---- sinks: each alone against none, then the read side ----
  PassOptions sink_pass;
  sink_pass.work_dir = options.work_dir;
  sink_pass.windows = spec.sink_windows;
  sink_pass.policies = {spec.policies.front()};
  std::vector<PassResult> sink_passes;
  const auto median_window = [&](unsigned sinks) {
    sink_pass.sinks = sinks;
    sink_passes.push_back(run_pass(spec, options.seed, sink_pass));
    return median(sink_passes.back().runs.front().window_s);
  };
  const double none_before = median_window(0);
  struct SinkCost {
    const char* name;
    unsigned sink;
    double window_s;
  };
  std::vector<SinkCost> costs = {{"flightrec", kFlightRec, 0.0},
                                 {"ops_hub", kOpsHub, 0.0},
                                 {"incidents", kIncidents, 0.0},
                                 {"audit", kAudit, 0.0},
                                 {"journal", kJournal, 0.0}};
  PolicyRun flight_run, journal_run;
  for (SinkCost& cost : costs) {
    cost.window_s = median_window(cost.sink);
    if (cost.sink == kFlightRec) flight_run = sink_passes.back().runs.front();
    if (cost.sink == kJournal) journal_run = sink_passes.back().runs.front();
  }
  const double none_s = 0.5 * (none_before + median_window(0));
  count_checks(sink_passes, report);
  for (const SinkCost& cost : costs) {
    add_metric(report.metrics,
               std::string("obs.") + cost.name + ".us_per_round",
               (cost.window_s - none_s) * 1e6, "us");
  }
  // Engine self time: the traced engine window minus the layer calls the
  // same window makes (averaged over the workload's policies) and minus
  // the cost of the sinks the workload attaches.
  double layer_window_s = 0.0;
  for (double s : layers.policy_window_s) layer_window_s += s;
  layer_window_s /= static_cast<double>(layers.policy_window_s.size());
  for (const SinkCost& cost : costs) {
    if (spec.sinks & cost.sink) layer_window_s += cost.window_s - none_s;
  }
  // The layer calls run serially here; on the sharded engine they are
  // spread over the shards, so compare them with the engine's work per
  // window (shard busy time plus the serial part), not its wall time.
  const double traced_work_s = engine_shape(traced_passes).work_s();
  add_metric(report.metrics, "sim.engine.self_us_per_node_round",
             (traced_work_s - layer_window_s) / rounds_per_window * 1e6,
             "us");
  const auto sink_rounds = static_cast<double>(spec.sink_windows);
  add_metric(report.metrics, "obs.flightrec.record_us_per_round",
             flight_run.record_s / sink_rounds * 1e6, "us");
  add_metric(report.metrics, "obs.flightrec.bytes_per_round",
             static_cast<double>(flight_run.flight_bytes) / sink_rounds,
             "bytes");
  add_metric(report.metrics, "obs.journal.bytes_per_round",
             static_cast<double>(journal_run.journal_bytes) / sink_rounds,
             "bytes");

  // Read side: both files were written by the passes above (the journal
  // pass ran last, so flight.jsonl is the flightrec pass's recording).
  std::int64_t t = now_ns();
  const rrf::obs::FlightRecording recording =
      rrf::obs::FlightRecording::load_file(flight_path(sink_pass));
  const double flight_load_s = seconds_between(t, now_ns());
  t = now_ns();
  const rrf::obs::JournalData journal =
      rrf::obs::JournalData::load_file(journal_path(sink_pass));
  const double journal_load_s = seconds_between(t, now_ns());
  const rrf::obs::FlightRecording copy =
      rrf::obs::FlightRecording::load_file(flight_path(sink_pass));
  t = now_ns();
  const rrf::obs::FlightDiffResult diff =
      rrf::obs::diff_recordings(recording, copy, 0.0);
  const double diff_s = seconds_between(t, now_ns());
  t = now_ns();
  const rrf::sim::ReplayResult replay = rrf::sim::replay_recording(recording);
  const double replay_s = seconds_between(t, now_ns());
  const bool read_ok = diff.identical && replay.diff.identical &&
                       recording.rounds.size() == spec.sink_windows &&
                       journal.rounds.size() == spec.sink_windows;
  report.attempted += spec.sink_windows;
  if (!read_ok) report.failed += spec.sink_windows;
  add_metric(report.metrics, "obs.flightrec.load_mb_per_s",
             static_cast<double>(flight_run.flight_bytes) / 1e6 /
                 flight_load_s,
             "MB/s");
  add_metric(report.metrics, "obs.journal.load_mb_per_s",
             static_cast<double>(journal_run.journal_bytes) / 1e6 /
                 journal_load_s,
             "MB/s");
  add_metric(report.metrics, "obs.flightrec.diff_us_per_round",
             diff_s / sink_rounds * 1e6, "us");
  add_metric(report.metrics, "sim.replay.us_per_round",
             replay_s / sink_rounds * 1e6, "us");
  add_metric(report.metrics, "trace.overhead_ratio",
             traced_rate / untraced_rate - 1.0, "ratio");

  rrf::json::Object fidelity;
  fidelity.emplace_back("windows", layers.fidelity_windows);
  fidelity.emplace_back("slots", layers.fidelity_slots);
  fidelity.emplace_back("mismatches", layers.fidelity_mismatches);
  fidelity.emplace_back("passed", layers.fidelity_mismatches == 0 &&
                                      layers.fidelity_slots > 0);
  report.details.emplace_back("fidelity", std::move(fidelity));
  rrf::json::Object rates;
  rates.emplace_back("untraced_node_rounds_per_s", untraced_rate);
  rates.emplace_back("traced_node_rounds_per_s", traced_rate);
  report.details.emplace_back("engine", std::move(rates));
  // Where an engine window's time goes: the share of each layer the
  // workload's engine calls (kernels and the surplus pass run in one
  // policy's windows only), the attached sinks and the engine shell.
  rrf::json::Object layer_share;
  const double window_ns = traced_work_s * 1e9;
  const auto policies = static_cast<double>(spec.policies.size());
  double shared = 0.0;
  const auto share = [&](const std::string& name, double ns) {
    layer_share.emplace_back(name, ns / window_ns);
    shared += ns / window_ns;
  };
  const auto span_ns = [&](const char* name) {
    return static_cast<double>(spans.totals(name).ns) / layer_windows;
  };
  share("workload.demand", span_ns("workload.demand"));
  share("sim.predictor", span_ns("sim.predictor"));
  for (const PolicyKind policy : spec.policies) {
    if (policy == PolicyKind::kTshirt) continue;
    const std::string kernel = "alloc." + rrf::sim::to_string(policy);
    share(kernel, span_ns(kernel.c_str()) / policies);
  }
  share("alloc.surplus", span_ns("alloc.surplus") / policies);
  if (spec.engine.use_actuators) {
    share("hypervisor.actuate", span_ns("hypervisor.actuate"));
  }
  for (const SinkCost& cost : costs) {
    if (spec.sinks & cost.sink) {
      share(std::string("obs.") + cost.name, (cost.window_s - none_s) * 1e9);
    }
  }
  layer_share.emplace_back("sim.engine.self", 1.0 - shared);
  report.details.emplace_back("layer_share_of_window", std::move(layer_share));
  rrf::json::Object span_info;
  span_info.emplace_back("recorded", spans.recorded());
  span_info.emplace_back("dropped", spans.dropped());
  report.details.emplace_back("spans", std::move(span_info));
  if (!options.spans_path.empty()) spans.write_jsonl(options.spans_path);
  return report;
}

}  // namespace perfbench
