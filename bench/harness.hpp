// Deterministic macro-benchmark harness for the allocation hot path.
//
// The harness sweeps (node count x VMs-per-node x tenant count) cells
// over a set of sharing policies on synthetic scenarios (sim/synthetic),
// timing every allocation window wall-clock.  Each cell runs `warmup`
// discarded trials followed by `trials` measured trials; the per-window
// samples of all measured trials are pooled into median / p95 round
// times.  Per-phase wall time comes from the engine's obs phase profiler
// (SimResult::phase_seconds).  report_to_json produces the BENCH_rrf.json
// document; validate_report_json is the schema gate shared by the bench
// binary, the unit tests and CI.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace rrf::bench {

/// Version of the emitted JSON document; bump on breaking layout changes.
/// v2 added the optional per-cell/per-report "profile" blocks (hierarchical
/// self-time attribution from obs/profiler) and integer-exact numbers.
inline constexpr int kBenchSchemaVersion = 2;

struct SweepPoint {
  std::size_t nodes;
  std::size_t vms_per_node;
  std::size_t tenants;
};

struct HarnessConfig {
  std::vector<sim::PolicyKind> policies;
  std::vector<SweepPoint> sweep;
  std::size_t warmup = 1;         ///< discarded trials per cell
  std::size_t trials = 3;         ///< measured trials per cell
  std::size_t windows = 40;       ///< allocation windows per trial
  std::uint64_t seed = 42;
  /// Model hypervisor actuation inside the timed loop.  Off by default:
  /// the harness targets the allocation hot path itself.
  bool use_actuators = false;
  /// Per-node parallelism.  Off by default for stable, scheduler-free
  /// timings; flip on to measure the thread-pool fan-out.
  bool parallel_nodes = false;
  /// Attach the hierarchical profiler to the measured trials and attribute
  /// per-phase self time into the report (schema v2 "profile" blocks).
  bool profile = false;
  /// Shard counts to sweep per cell when parallel_nodes is on: each cell
  /// is measured once per entry, where an entry of 0 means a serial
  /// baseline run (parallel off for that measurement) and an entry > 0
  /// a sharded run with that shard count.  Empty: each cell is measured
  /// once, honouring parallel_nodes as-is.
  std::vector<std::size_t> shard_counts;
  std::string label = "quick";
};

/// The CI quick sweep (seconds of wall time): all five paper policies over
/// a small / medium / the pinned 32x16 regression cell.
HarnessConfig quick_config();

/// The full sweep: adds larger node counts and a tenant-count axis.
HarnessConfig full_config();

/// The scale tier: a single 1024-node / 100k-VM RRF cell, measured
/// serially and across a shard-count sweep, so the serial-vs-sharded
/// aggregate throughput ratio falls straight out of the report.  Windows
/// and trials are dialed down — each window visits every node — and one
/// untimed warm-up trial runs first, so the timed trial starts warm.
HarnessConfig scale_config();

/// One flattened call-tree node from the profiler: `path` is the
/// ';'-joined site chain ("allocate;irt.allocate"), self/total in seconds
/// over the cell's measured trials.
struct ProfilePathNode {
  std::string path;
  double self_seconds{0.0};
  double total_seconds{0.0};
  std::uint64_t calls{0};
  std::uint64_t bytes{0};
};

/// One (policy, sweep point[, shard count]) measurement.
struct CellResult {
  sim::PolicyKind policy{};
  SweepPoint point{};
  /// Shard count the cell ran with; 0 = serial (parallel_nodes off).
  std::size_t shards{0};
  std::size_t windows{0};
  std::size_t trials{0};
  /// Pooled per-window wall-clock stats across measured trials (seconds).
  double median_round_seconds{0.0};
  double p95_round_seconds{0.0};
  double mean_round_seconds{0.0};
  double total_wall_seconds{0.0};
  /// Per-node allocator invocations per wall second.
  double allocs_per_second{0.0};
  /// Mean per-trial phase wall time (predict/allocate/actuate/settle),
  /// summed over nodes — the obs phase profiler's view.
  std::array<double, obs::kPhaseCount> phase_seconds{};
  /// Profiler attribution over the measured trials (config.profile only):
  /// fraction of pooled window wall the call-tree roots account for, and
  /// the flattened self-time tree.
  double profile_coverage{0.0};
  std::vector<ProfilePathNode> profile_nodes;
};

struct Report {
  HarnessConfig config;
  std::vector<CellResult> cells;
  /// Cell trees merged by path (config.profile only) — the report-level
  /// flamegraph input.
  std::vector<ProfilePathNode> profile;
};

/// Runs every (policy, point) cell; `progress` (optional) receives one
/// line per finished cell.
Report run_harness(const HarnessConfig& config,
                   std::ostream* progress = nullptr);

/// The BENCH_rrf.json document.
json::Value report_to_json(const Report& report);

/// Schema check; throws DomainError naming the first violation.
void validate_report_json(const json::Value& doc);

/// Collapsed-stack flamegraph text ("path self_us" per line) from a
/// flattened profile (cell- or report-level).
void write_collapsed_profile(std::ostream& os,
                             const std::vector<ProfilePathNode>& nodes);

/// Renders a human-readable summary table of the report.
std::string report_summary(const Report& report);

}  // namespace rrf::bench
