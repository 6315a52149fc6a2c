// Live ops plane: per-round telemetry summaries and the OpsHub
// publish/subscribe channel behind the ops HTTP endpoints
// (observability subsystem, see docs/OBSERVABILITY.md "Live ops plane").
//
// A RoundSummary is the operator-facing form of one window's RoundDigest
// (obs/round.hpp): per-tenant share / demand / granted ratios, the
// tenant-funded contribution and gain flows, the window's Jain index over
// share ratios, per-phase wall timings and the alert book's counts.
// The engine's DetectorBank (obs/detect.hpp) derives one per window (the
// bank exists only when metrics are on or a sink is attached, so the
// disabled path stays allocation-free) and the same JSON object flows to
// three consumers:
//  * the `/rounds` streaming endpoint (newline-delimited JSON over
//    chunked transfer, served by obs::ExpositionServer);
//  * the durable telemetry journal (obs/journal.hpp);
//  * `tools/rrf_top`, which follows `/rounds` and renders a live view.
//
// The OpsHub is the thread-safe middle: the engine publishes serialized
// round lines into a bounded in-memory ring (slow subscribers skip
// ahead, they never block the engine), stores the latest `/alerts` JSON
// document, and timestamps round completion for the `/readyz` stall
// watchdog.  Subscribers (one per streaming HTTP connection) block on a
// condition variable with a timeout so server shutdown stays prompt.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "common/json.hpp"
#include "obs/trace.hpp"  // Phase, kPhaseCount

namespace rrf::obs {

/// One tenant's slice of a round summary.  Ratios are relative to the
/// tenant's bought share total S(i); flows are raw shares this window.
struct TenantRoundStat {
  std::string name;
  double share{0.0};        ///< ledger position / S(i) this window
  double demand{0.0};       ///< demanded shares / S(i) this window
  /// Granted entitlement / S(i) this window.  Distinct from `share`: the
  /// ledger position only moves when one tenant funds another, so on an
  /// oversold node where everyone is cut proportionally `share` stays at
  /// 1.0 while `granted` drops below it — the starvation and drift
  /// detectors watch this field for exactly that reason.
  double granted{0.0};
  double contributed{0.0};  ///< tenant-funded shares handed to others
  double gained{0.0};       ///< tenant-funded shares taken from others
};

/// The operator-facing digest of one allocation window.
struct RoundSummary {
  std::size_t window{0};
  double time{0.0};  ///< simulated seconds at the window start
  /// Jain's index over this window's per-tenant share ratios (1.0 when
  /// every ratio is zero: nobody is treated unequally).
  double jain{1.0};
  /// Total VM slots allocated this window (drives allocs/sec in rrf_top).
  std::size_t slots{0};
  /// Wall seconds per phase (predict/allocate/actuate/settle), summed
  /// over all nodes, for this window alone.
  std::array<double, kPhaseCount> phase_seconds{};
  std::size_t active_alerts{0};
  std::size_t alerts_total{0};
  std::vector<TenantRoundStat> tenants;
};

/// {"t":"round",...}; the same object shape is used by the `/rounds`
/// feed and the telemetry journal.
json::Value round_summary_to_json(const RoundSummary& summary);
/// Parses a round record; throws DomainError ("ops: ...") on schema
/// violations (wrong tag, missing or mistyped fields).
RoundSummary round_summary_from_json(const json::Value& value);

/// The empty `/alerts` document, served before the engine publishes the
/// detector bank's (DetectorBank::alerts_document in obs/detect.hpp).
std::string empty_alerts_document();

class OpsHub {
 public:
  struct Config {
    /// Round lines kept for late/slow subscribers; older lines are
    /// dropped (subscribers skip ahead and count the gap).
    std::size_t ring_capacity = 256;
  };

  explicit OpsHub(Config config);
  OpsHub() : OpsHub(Config{}) {}

  OpsHub(const OpsHub&) = delete;
  OpsHub& operator=(const OpsHub&) = delete;

  /// Serializes and appends one round line, wakes subscribers and stamps
  /// the watchdog clock.  Called from the engine thread.
  void publish_round(const RoundSummary& summary);
  /// Replaces the `/alerts` document body (a serialized JSON object).
  void set_alerts_json(std::string body);

  std::string alerts_json() const;
  std::uint64_t rounds_published() const;
  /// Sequence number of the oldest line still in the ring (== next_seq()
  /// when the ring is empty).
  std::uint64_t oldest_seq() const;
  std::uint64_t next_seq() const;

  /// Copies every buffered line with sequence >= *cursor into `out`
  /// (appending) and advances *cursor past them; blocks up to `timeout`
  /// when the ring holds nothing new.  A cursor that fell behind the
  /// ring skips to the oldest retained line; the skipped count is added
  /// to *dropped when non-null.  Returns the number of lines appended.
  std::size_t wait_lines(std::uint64_t* cursor, std::vector<std::string>* out,
                         std::chrono::milliseconds timeout,
                         std::uint64_t* dropped = nullptr) const;

  /// Wall seconds since the last publish_round(); infinity before the
  /// first round (the /readyz watchdog treats "never" as stalled).
  double seconds_since_round() const;

 private:
  Config config_;
  mutable InstrumentedMutex mu_{"ops.hub"};
  mutable std::condition_variable_any cv_;
  std::deque<std::string> lines_ GUARDED_BY(mu_);
  /// Sequence number of lines_.front(); advances as the ring drops.
  std::uint64_t base_seq_ GUARDED_BY(mu_){0};
  std::uint64_t rounds_ GUARDED_BY(mu_){0};
  std::string alerts_json_ GUARDED_BY(mu_);
  bool any_round_ GUARDED_BY(mu_){false};
  std::chrono::steady_clock::time_point last_round_ GUARDED_BY(mu_){};
};

}  // namespace rrf::obs
