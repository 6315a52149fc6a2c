// Online fairness detection, the run's alert book and its fairness
// gauges.
//
// The DetectorBank is the run's only per-window consumer of fairness
// state.  The engine builds one per run whenever metrics are on or an ops
// sink is attached and feeds it each window's RoundDigest
// (obs/round.hpp).  The bank derives the window's RoundSummary from it,
// keeps each tenant's cumulative ledger (β and the tenant-funded flows)
// and runs its detectors; `/alerts`, `/rounds`, the journal, the
// fairness.* gauges and counters, the trace, SimResult::alerts and the
// IncidentManager all read it.  Its detectors follow per-period credit
// fairness (Zahedi & Freeman) and no-justified-complaints fairness
// (Dolev et al.):
//
//  * multi-window SLO burn rates — a round must be bad in BOTH a fast
//    window (default 5 rounds) and a slow window (default 50) before the
//    detector fires, so blips never page but sustained erosion pages
//    quickly.  Applied to the Jain index, the per-tenant
//    grant-vs-entitlement gap ("drift"), starvation (demand ≥
//    entitlement yet granted below half) and round wall time
//    ("throughput", against a slow EWMA baseline);
//  * an EWMA+CUSUM changepoint (Page's test) on each tenant's
//    demand-capped entitlement gap g = max(0, min(demand,1) − granted);
//  * a "justified complaint": the EWMA entitlement deficit of a tenant
//    that is a net reciprocity contributor (cumulative contributed >
//    gained) — a free rider with the same deficit does not page;
//  * two cumulative ledger rules: "beta_drift" (the mean of the tenant's
//    share ratios, its β of paper Section VI-C, drifted away from 1) and
//    "reciprocity", the complaint's mirror image: a tenant that
//    contributed next to nothing kept taking tenant-funded surplus.
//
// Detections are level-triggered ("this condition holds now").  The
// alert book turns them into edges: an alert, one (detector, tenant)
// pair, raises on the first round its detection holds and resolves once
// the detection has been absent for a whole slow_window.  The bank only
// ever reads the digest, so it cannot alter allocations.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/round.hpp"

namespace rrf::obs {

enum class DetectorKind : std::uint8_t {
  kJain,        ///< cluster Jain index burn rate
  kDrift,       ///< per-tenant entitlement gap burn rate
  kStarvation,  ///< per-tenant starvation burn rate
  kThroughput,  ///< round wall-time burn rate vs. EWMA baseline
  kChangepoint, ///< per-tenant CUSUM on the entitlement gap
  kComplaint,   ///< per-tenant justified-complaint score
  kBetaDrift,   ///< per-tenant cumulative |β − 1|
  kReciprocity, ///< per-tenant free riding on tenant-funded surplus
};
inline constexpr std::size_t kDetectorKindCount = 8;
/// Stable wire name ("jain", "drift", "starvation", "throughput",
/// "changepoint", "complaint", "beta_drift", "reciprocity").
const char* to_string(DetectorKind kind);

struct DetectConfig {
  /// Per-detector enable switches, indexed by DetectorKind.
  std::array<bool, kDetectorKindCount> enabled{true, true, true, true,
                                               true, true, true, true};
  /// Rounds skipped before any detector fires (engine warm-up).
  std::size_t warmup_rounds = 12;
  /// Burn-rate windows: a condition fires only when the bad-round
  /// fraction reaches fast_burn over the last fast_window rounds AND
  /// slow_burn over the last slow_window rounds.
  std::size_t fast_window = 5;
  std::size_t slow_window = 50;
  double fast_burn = 0.6;
  double slow_burn = 0.3;
  /// Jain index below this is a bad round for the jain detector.
  double jain_min = 0.85;
  /// Entitlement gap min(demand,1)−granted above this is a bad round
  /// for the drift detector.
  double drift_gap_max = 0.30;
  /// A round starves a tenant when demand ≥ starvation_demand and
  /// granted < starvation_share (both relative to the bought share
  /// S(i)).  The demand bar sits below 1.0 because synthetic demand
  /// waves dip under entitlement for part of every period — a tenant
  /// asking for ≥90% and granted under half is starved all the same.
  double starvation_share = 0.5;
  double starvation_demand = 0.9;
  /// A round is throughput-bad when its wall time exceeds
  /// throughput_factor × the EWMA baseline (generous: CI-noise-immune).
  double throughput_factor = 8.0;
  double baseline_alpha = 0.1;  ///< EWMA weight for the wall-time baseline
  /// EWMA weight for per-tenant gap/deficit estimators.
  double ewma_alpha = 0.2;
  /// CUSUM slack (per-round tolerated excursion) and decision threshold.
  double cusum_slack = 0.05;
  double cusum_threshold = 1.0;
  /// Justified-complaint score (EWMA entitlement deficit while a net
  /// contributor) above this fires the complaint detector.
  double complaint_min = 0.25;
  /// Cumulative |β − 1| above this fires beta_drift.
  double beta_drift_max = 0.30;
  /// reciprocity fires while the tenant's cumulative contribution stays
  /// below reciprocity_contribution_floor × S(i) and its mean
  /// tenant-funded gain per round exceeds reciprocity_gain_max × S(i).
  double reciprocity_gain_max = 0.10;
  double reciprocity_contribution_floor = 0.05;
};

/// Applies an `--detectors` flag value to `config.enabled`: "all",
/// "none", or a comma-separated list of detector names enabling exactly
/// those listed.  Throws DomainError on an unknown name and on a list
/// that names no detector (",,").
void apply_detector_flag(DetectConfig& config, const std::string& flag);

/// One detector's level-triggered verdict for the round it was observed.
struct Detection {
  DetectorKind kind{DetectorKind::kJain};
  std::int32_t tenant{-1};  ///< -1 for cluster-wide detectors
  std::string tenant_name;  ///< empty for cluster-wide detectors
  std::size_t window{0};
  double value{0.0};      ///< the measured quantity
  double threshold{0.0};  ///< the limit it crossed
};

/// One raise/resolve edge of the alert book, in the order it happened.
struct AlertTransition {
  DetectorKind kind{DetectorKind::kJain};
  std::int32_t tenant{-1};  ///< -1 for cluster-wide detectors
  std::size_t window{0};
  bool raised{true};  ///< false = absent for a whole slow_window
  double value{0.0};  ///< the last detected value
  double threshold{0.0};
};

class DetectorBank {
 public:
  /// `names` and `paid` (each tenant's bought share total S(i) > 0) are
  /// indexed by tenant (at least one); every digest must carry the same
  /// tenants.  With a `registry` the bank publishes the fairness.alerts
  /// counters (pre-registered at zero for every kind) and, every round,
  /// the fairness.* gauges of its ledger (docs/OBSERVABILITY.md lists
  /// them); nullptr publishes none.
  DetectorBank(DetectConfig config, std::vector<std::string> names,
               std::vector<double> paid, MetricsRegistry* registry = nullptr);

  /// Derives the window's summary from `digest`, evaluates every enabled
  /// detector against it, advances the alert book and publishes the
  /// gauges.  Returns the detections that hold this round
  /// (level-triggered; empty most rounds), valid until the next call.
  const std::vector<Detection>& observe_round(const RoundDigest& digest);
  /// The last observed round's detections.
  const std::vector<Detection>& detections() const { return detections_; }
  /// The last observed round's summary: each tenant's position, demand
  /// and granted shares as ratios of S(i), its raw flows, Jain's index
  /// over the share ratios (1.0 when none is positive) and the book's
  /// alert counts after the round.
  const RoundSummary& summary() const { return summary_; }

  /// Every alert raise, in order, as the detection that raised it.
  const std::vector<Detection>& raised() const { return raised_; }
  /// Alerts raised and not yet resolved.
  std::size_t active_alerts() const { return active_; }
  /// Every raise/resolve edge so far, in the order it happened.
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }
  /// Transitions with index >= `from` (a cursor the caller advances).
  std::span<const AlertTransition> transitions_since(std::size_t from) const;
  /// The `/alerts` document: active and resolved alerts (raised and
  /// resolved windows, last value vs. threshold, raise counts), raises
  /// per kind and in total.
  json::Value alerts_document() const;

  /// Estimator state snapshot for forensic bundles: per-tenant EWMA gap
  /// baseline, CUSUM level, complaint score, cumulative reciprocity
  /// flows and slow-window bad counts, plus the cluster-wide baselines.
  json::Value state_json() const;

 private:
  /// Sliding bad-round window (slow_window entries); the fast fraction
  /// is computed over the tail.
  struct BurnSeries {
    std::deque<unsigned char> bad;
    std::size_t bad_slow{0};
  };
  struct TenantState {
    BurnSeries drift;
    BurnSeries starve;
    double gap_mu{0.0};  ///< EWMA of the entitlement gap
    bool gap_mu_init{false};
    double cusum{0.0};
    double complaint{0.0};  ///< EWMA entitlement deficit
    double contributed_total{0.0};
    double gained_total{0.0};
    double share_total{0.0};  ///< sum of share ratios
    double beta{1.0};         ///< share_total / rounds
  };
  /// One (detector, tenant) alert of the book.
  struct AlertState {
    bool active{false};
    std::size_t raise_count{0};
    std::size_t raised_window{0};
    std::size_t resolved_window{0};
    std::size_t last_seen_round{0};  ///< rounds_ when last detected
    double value{0.0};
    double threshold{0.0};
  };
  /// One tenant's labelled gauges.
  struct TenantGauges {
    Gauge *beta, *drift, *reciprocity, *lambda;
  };

  void summarize(const RoundDigest& digest);
  void push_bad(BurnSeries& series, bool bad) const;
  bool burning(const BurnSeries& series) const;
  double fast_fraction(const BurnSeries& series) const;
  double slow_fraction(const BurnSeries& series) const;
  bool enabled(DetectorKind kind) const {
    return config_.enabled[static_cast<std::size_t>(kind)];
  }
  AlertState& alert(DetectorKind kind, std::int32_t tenant) {
    return book_[static_cast<std::size_t>(kind) * (names_.size() + 1) +
                 static_cast<std::size_t>(tenant + 1)];
  }
  void update_book(std::size_t window);
  void publish_gauges(const RoundDigest& digest);

  DetectConfig config_;
  std::vector<std::string> names_;
  std::vector<double> paid_;
  std::size_t rounds_{0};
  std::vector<TenantState> tenants_;
  BurnSeries jain_;
  BurnSeries throughput_;
  double wall_baseline_{0.0};
  bool wall_baseline_init_{false};
  RoundSummary summary_;
  std::vector<double> ratios_;  ///< per-tenant scratch for Jain's index
  std::vector<Detection> detections_;

  /// kDetectorKindCount × (tenants + 1) alerts, kind-major; slot 0 of
  /// each kind is the cluster-wide alert.
  std::vector<AlertState> book_;
  std::size_t active_{0};
  std::vector<Detection> raised_;
  std::vector<AlertTransition> transitions_;

  // Instruments; null (and tenant_gauges_ empty) without a registry.
  MetricsRegistry* registry_{nullptr};
  Counter* alerts_counter_{nullptr};
  std::array<Counter*, kDetectorKindCount> kind_counters_{};
  Gauge* active_gauge_{nullptr};
  Gauge* jain_gauge_{nullptr};
  Gauge* spread_gauge_{nullptr};
  Gauge* windows_gauge_{nullptr};
  Histogram* drift_hist_{nullptr};
  std::vector<TenantGauges> tenant_gauges_;
  std::vector<Gauge*> node_pressure_gauges_;
  Gauge* node_spread_gauge_{nullptr};
};

}  // namespace rrf::obs
