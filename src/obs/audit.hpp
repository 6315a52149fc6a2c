// Continuous fairness auditing (SLO watchdog).
//
// The FairnessAuditor turns the paper's post-hoc evaluation metrics into
// online, per-round SLO checks, in the spirit of online-fairness work
// (Zahedi & Freeman's per-period credit fairness; Dolev et al.'s
// "no justified complaints" violation framing).  Each allocation round the
// engine feeds it the window's RoundDigest (obs/round.hpp): per-tenant
// ledger positions, demands, tenant-funded flows, the IRT contribution
// accounting and the per-node pressure; the auditor
//
//  * publishes live gauges/histograms into a MetricsRegistry
//    (fairness.jain_index, fairness.tenant_beta{tenant=...},
//    fairness.beta_drift{...}, fairness.reciprocity_balance{...},
//    fairness.starvation_streak{...}, fairness.node_pressure{node=...}),
//  * evaluates four alert rules with hysteresis and raises structured
//    alerts through the metrics registry (fairness.alerts.* counters), the
//    event tracer (EventKind::kAlert) and the logger.
//
// Alert rules (see AuditConfig for the thresholds):
//  * jain        — Jain's index over the per-tenant cumulative betas fell
//                  below jain_min (cluster-wide fairness regression);
//  * beta_drift  — a tenant's cumulative |beta - 1| exceeded
//                  beta_drift_max (her ledger position drifted away from
//                  what she paid for);
//  * starvation  — for starvation_windows consecutive rounds a tenant
//                  demanded at least her initial share yet was granted
//                  less than starvation_ratio of it;
//  * reciprocity — a tenant whose cumulative IRT contribution is ~zero
//                  kept receiving tenant-funded surplus (broken
//                  gain-as-you-contribute, i.e. a tolerated free rider).
//
// An active alert re-arms only after the watched value recovers past its
// threshold by the hysteresis margin, so a value oscillating around the
// threshold raises once, not every round.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/round.hpp"

namespace rrf::obs {

struct AuditConfig {
  bool enabled = true;
  /// Rounds skipped before alert rules arm (predictor cold start).
  std::size_t warmup_windows = 12;
  /// Jain's index over cumulative betas below this raises `jain`.
  double jain_min = 0.85;
  /// Cumulative |beta - 1| above this raises `beta_drift`.
  double beta_drift_max = 0.30;
  /// A round starves a tenant when demand >= initial share but the granted
  /// position is below starvation_ratio * initial share.
  double starvation_ratio = 0.5;
  /// Consecutive starving rounds before `starvation` raises.
  std::size_t starvation_windows = 12;
  /// Mean tenant-funded gain per round (relative to the initial share) a
  /// near-zero contributor may receive before `reciprocity` raises.
  double reciprocity_gain_max = 0.10;
  /// A tenant counts as a non-contributor while her cumulative contribution
  /// stays below this fraction of one round's initial share.
  double reciprocity_contribution_floor = 0.05;
  /// Relative recovery margin required before an active alert clears.
  double hysteresis = 0.05;
  /// Also log_warn() each raised alert.
  bool log_alerts = true;
};

enum class AlertKind : std::uint8_t {
  kJain,
  kBetaDrift,
  kStarvation,
  kReciprocity,
};
inline constexpr std::size_t kAlertKindCount = 4;
/// Stable wire name ("jain", "beta_drift", "starvation", "reciprocity").
const char* to_string(AlertKind kind);

struct Alert {
  AlertKind kind{AlertKind::kJain};
  std::size_t window{0};
  std::int32_t tenant{-1};  ///< -1 for cluster-wide alerts
  double value{0.0};        ///< the measured quantity
  double threshold{0.0};    ///< the configured limit it crossed
};

/// One raise/resolve edge of a rule's hysteresis state machine, in the
/// order it happened.  The ops plane turns these into journal records
/// and `/alerts` document refreshes.
struct AlertTransition {
  AlertKind kind{AlertKind::kJain};
  std::int32_t tenant{-1};  ///< -1 for cluster-wide alerts
  std::size_t window{0};
  bool raised{true};  ///< false = the rule recovered past its hysteresis
  double value{0.0};
  double threshold{0.0};
};

/// Current hysteresis state of one rule that has raised at least once:
/// whether it is still active, when it last raised/resolved, the last
/// value the rule compared and how often it has raised over the run.
struct AlertStatus {
  AlertKind kind{AlertKind::kJain};
  std::int32_t tenant{-1};
  std::string tenant_name;  ///< empty for cluster-wide rules
  bool active{false};
  std::size_t raised_window{0};
  std::size_t resolved_window{0};  ///< meaningful when !active
  std::size_t raise_count{0};
  double value{0.0};  ///< last value the rule evaluated
  double threshold{0.0};
};

class FairnessAuditor {
 public:
  /// `initial_shares` is each tenant's bought share total S(i) (> 0).
  /// Instruments are published into `registry` (default: the process
  /// global).  The auditor itself does not consult metrics_enabled() —
  /// create it only when auditing is wanted.
  FairnessAuditor(AuditConfig config, std::vector<std::string> tenant_names,
                  std::vector<double> initial_shares,
                  MetricsRegistry* registry = nullptr);

  /// Reads the digest's position, demand, contributed, gained and lambda
  /// (one entry per tenant each, as RoundDigest::reset sizes them) and
  /// its node pressure (may be empty).
  void observe_round(const RoundDigest& round);

  std::size_t windows() const { return windows_; }
  /// Cumulative per-tenant beta so far.
  std::vector<double> tenant_beta() const;
  /// Jain's index over the current cumulative betas (1.0 before data).
  double jain() const;
  /// Every alert raised so far, in raise order.
  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t alert_count(AlertKind kind) const;
  /// Alerts currently active (raised and not yet recovered).
  std::size_t active_alerts() const;
  /// Every raise/resolve edge so far, in the order it happened.  The ops
  /// plane drains this after each round (see transitions_since) to feed
  /// the telemetry journal and the `/alerts` document.
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }
  /// Transitions with index >= `from` (a cursor the caller advances).
  std::span<const AlertTransition> transitions_since(std::size_t from) const;
  /// Hysteresis state of every rule that raised at least once, active
  /// rules first (each group ordered by kind, then tenant).
  std::vector<AlertStatus> alert_statuses() const;

 private:
  struct Rule {
    bool active{false};
    std::size_t raised{0};
    std::size_t raised_window{0};
    std::size_t resolved_window{0};
    double last_value{0.0};
    double last_threshold{0.0};
  };

  /// Threshold/hysteresis state machine shared by all rules.  `violated`
  /// is this round's comparison; `recovered` must use the hysteresis
  /// margin.  Returns true when the alert (re)raises this round.
  bool update_rule(Rule& rule, bool violated, bool recovered, AlertKind kind,
                   std::int32_t tenant, std::size_t window, double value,
                   double threshold);
  void publish_gauges(const RoundDigest& round);
  void raise(AlertKind kind, std::int32_t tenant, std::size_t window,
             double value, double threshold);

  AuditConfig config_;
  std::vector<std::string> names_;
  std::vector<double> initial_;
  MetricsRegistry* registry_;

  std::size_t windows_{0};
  std::vector<double> position_total_;
  std::vector<double> contributed_total_;
  std::vector<double> gained_total_;
  std::vector<std::size_t> starvation_streak_;

  Rule jain_rule_;
  std::vector<Rule> drift_rules_;
  std::vector<Rule> starvation_rules_;
  std::vector<Rule> reciprocity_rules_;
  std::vector<Alert> alerts_;
  std::vector<AlertTransition> transitions_;

  // Cached instrument references (stable for the registry's lifetime).
  Gauge* jain_gauge_;
  Gauge* spread_gauge_;
  Gauge* windows_gauge_;
  Gauge* active_gauge_;
  Histogram* drift_hist_;
  std::vector<Gauge*> beta_gauges_;
  std::vector<Gauge*> drift_gauges_;
  std::vector<Gauge*> streak_gauges_;
  std::vector<Gauge*> reciprocity_gauges_;
  std::vector<Gauge*> lambda_gauges_;
  std::vector<Gauge*> node_pressure_gauges_;
};

}  // namespace rrf::obs
