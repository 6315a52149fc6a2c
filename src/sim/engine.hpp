// The discrete-time simulation engine (paper Section VI).
//
// Every `window` seconds (default 5 s, the paper's setting) each node runs
// its local allocator on the VMs placed there, pushes the resulting share
// entitlements into the simulated hypervisor (credit weights/caps, balloon
// targets), advances the actuators, and scores each application's
// performance against its instantaneous demand.  Nodes are processed in
// parallel — the same structure as the paper's per-node domain-0 daemons.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "alloc/policy.hpp"
#include "cluster/rebalance.hpp"
#include "hypervisor/node.hpp"
#include "obs/detect.hpp"
#include "obs/round.hpp"
#include "sim/metrics.hpp"
#include "sim/predictor.hpp"
#include "sim/scenario.hpp"
#include "workload/perf_model.hpp"

namespace rrf::obs {
class FlightRecorder;
class IncidentManager;
class OpsHub;
class TelemetryJournal;
}  // namespace rrf::obs

namespace rrf::sim {

/// The policy table lives in alloc/policy.hpp; these are lookups in it.
using alloc::PolicyKind;

std::string to_string(PolicyKind policy);
/// Throws DomainError naming the valid policies when `name` is unknown.
PolicyKind policy_from_string(const std::string& name);

/// The five schemes the paper's evaluation compares (Section VI-A).
std::vector<PolicyKind> paper_policies();

/// What EngineConfig::observer sees each window: the same digest every
/// other consumer reads (obs/round.hpp).
using WindowSnapshot = obs::RoundDigest;

/// Live migration / load balancing inside a run (paper Section V's
/// "load balancing" component, made dynamic).
struct RebalanceConfig {
  bool enabled = false;
  /// Epoch length: a rebalancing decision every N >= 1 allocation windows.
  std::size_t every_windows = 60;
  cluster::RebalanceOptions options;
  /// A migrated VM runs degraded for this many windows (pre-copy rounds
  /// + stop-and-copy), at `slowdown` of its normal progress.
  std::size_t penalty_windows = 2;
  double slowdown = 0.5;
  /// EMA factor of the per-VM demand estimate the planner sees.
  double demand_ema_alpha = 0.1;
};

struct EngineConfig {
  PolicyKind policy = PolicyKind::kRrf;
  Seconds duration = 2700.0;  ///< the paper tracks 45 minutes
  Seconds window = 5.0;       ///< dynamic-allocation period
  /// Model hypervisor actuation (credit scheduler + balloon lag).  When
  /// false, entitlements take effect instantly (pure-algorithm mode).
  bool use_actuators = true;
  /// Memory actuator realising targets (Xen balloon / hotplug / cgroup).
  hv::MemoryBackend memory_backend = hv::MemoryBackend::kBalloon;
  /// Balloon rate for the balloon backend (GB/s).
  double balloon_rate_gb_s = 0.5;
  /// Slice-level credit accounting instead of the fluid closed form
  /// (full-fidelity CPU dispatch; noticeably slower).
  bool use_sliced_scheduler = false;
  /// Drive the allocator with predicted demand (as the real system must);
  /// when false the allocator sees the oracle demand of the window.
  bool use_predictor = true;
  PredictorConfig predictor;
  wl::PerfModelConfig perf;
  /// rrf-lt: EMA factor of the per-window net-contribution bank.  The
  /// bank is an exponential average of (initial shares - ledger position)
  /// per window, added to a tenant's instantaneous contribution when IRT
  /// prioritises redistribution; ~1/alpha windows of memory.
  double ltrf_alpha = 0.05;
  /// Run nodes in parallel on the global thread pool.
  bool parallel_nodes = true;
  /// Shard count for the parallel node round (sim/shard.hpp).  0 = auto:
  /// a small multiple of the pool width.  Any count is capped at the node
  /// count and yields bit-identical allocations and ledgers — the global
  /// exchange merges per-node results in canonical node order — so this
  /// only tunes load balance, never results.  Ignored when the round runs
  /// serially (parallel_nodes == false or a single node).
  std::size_t shards = 0;
  RebalanceConfig rebalance;
  /// The run's detector bank (obs/detect.hpp), the one rule engine
  /// behind every alert.  The engine builds it while metric collection
  /// is on (obs::metrics_enabled()) or an ops sink below is attached,
  /// feeds it each window's RoundSummary, and every raise lands in
  /// SimResult::alerts, the fairness.alerts counters, the tracer, the
  /// journal, the hub's /alerts document and the incident engine.
  /// Detection only reads: it never alters allocations.
  obs::DetectConfig detect;
  /// Optional flight recorder (obs/flightrec.hpp): the engine appends one
  /// round per window with per-slot demand/forecast/entitlement/actuator
  /// targets plus the IRT/IWA/rebalance provenance.  The caller writes the
  /// header (sim/flight_replay.hpp's make_flight_header) before the run
  /// and calls finish() after.  Not owned; nullptr disables capture and
  /// keeps the hot path allocation-free.
  obs::FlightRecorder* flight = nullptr;
  /// Optional live ops hub (obs/ops.hpp): the engine publishes one
  /// RoundSummary per window (per-tenant share/demand ratios, reciprocity
  /// flows, Jain, phase timings, alert counts) and refreshes the hub's
  /// /alerts document from the detector bank.  Not owned.
  obs::OpsHub* ops = nullptr;
  /// Optional durable telemetry journal (obs/journal.hpp): the engine
  /// appends the same round summaries plus every alert raise/resolve
  /// transition.  Not owned; the caller opens it (header) and calls
  /// finish() after the run.
  obs::TelemetryJournal* journal = nullptr;
  /// Optional incident engine (obs/incident.hpp): the engine feeds it the
  /// same per-window RoundSummary with the bank's detections, installs
  /// forensic-bundle providers (per-shard stats) and relays incident
  /// open/resolve transitions into the journal.  Not owned.
  obs::IncidentManager* incidents = nullptr;
  /// Optional per-window callback (custom metrics, live dashboards,
  /// convergence studies).  Called on the simulation thread after every
  /// window with the window's digest, which is only valid during the
  /// call; must not throw.
  std::function<void(const WindowSnapshot&)> observer;
};

SimResult run_simulation(const Scenario& scenario, const EngineConfig& config);

}  // namespace rrf::sim
