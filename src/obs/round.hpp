// The per-window round digest (observability subsystem).
//
// The paper judges each allocation window by a handful of per-tenant
// quantities: the ledger position S'_t(i) behind beta (Section VI-C), the
// demanded shares and the application's performance.  The engine folds
// every node's results into one RoundDigest per window, in canonical node
// order, and hands the same object to every consumer: SimResult's
// per-tenant metrics, the DetectorBank (obs/detect.hpp: the fairness
// gauges and the ops-plane RoundSummary) and EngineConfig::observer.  The
// engine owns one digest per run and refills it each window, so the
// vectors keep their capacity and a window adds no heap allocation.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "obs/trace.hpp"  // kPhaseCount

namespace rrf::obs {

/// One window's per-tenant and per-node quantities.  Per-tenant vectors
/// are indexed by tenant and in shares (the ledger domain).
struct RoundDigest {
  std::size_t window{0};
  double time{0.0};  ///< simulated seconds at the window start
  /// Ledger position S'_t(i): initial shares minus what other tenants
  /// consumed of this tenant's surplus, plus what it took of theirs.
  std::vector<double> tenant_position;
  /// Shares demanded this window (the actual demand, not the forecast).
  std::vector<double> tenant_demand;
  /// Demand-weighted perf-model score (1.0 when the tenant demanded
  /// nothing).
  std::vector<double> tenant_score;
  /// Entitlement actually handed down.  Unlike the position it drops when
  /// an oversold node cuts every slot proportionally.
  std::vector<double> tenant_granted;
  /// Tenant-funded flows: shares of this tenant's surplus others consumed,
  /// and shares it consumed of theirs (platform headroom excluded).
  std::vector<double> tenant_contributed;
  std::vector<double> tenant_gained;
  /// IRT's declared contribution Lambda(i), summed over nodes (zero for
  /// policies without trading).
  std::vector<double> tenant_lambda;
  /// Dominant-share pressure of each node's aggregate demand.
  std::vector<double> node_pressure;
  /// VM slots allocated this window.
  std::size_t slots{0};
  /// Wall seconds per phase for this window, summed over shards in shard
  /// order.
  std::array<double, kPhaseCount> phase_seconds{};

  /// Sizes every vector for the run and zeroes it, the slot count and
  /// the phase seconds; keeps capacity.
  void reset(std::size_t tenants, std::size_t nodes) {
    for (std::vector<double>* v :
         {&tenant_position, &tenant_demand, &tenant_score, &tenant_granted,
          &tenant_contributed, &tenant_gained, &tenant_lambda}) {
      v->assign(tenants, 0.0);
    }
    node_pressure.assign(nodes, 0.0);
    slots = 0;
    phase_seconds.fill(0.0);
  }
};

}  // namespace rrf::obs
