// Continuous fairness gauges.
//
// The FairnessAuditor turns the paper's post-hoc evaluation metrics into
// live gauges.  Each allocation round the engine feeds it the window's
// RoundDigest (obs/round.hpp): per-tenant ledger positions, tenant-funded
// flows, the IRT contribution accounting and the per-node pressure; the
// auditor publishes them into a MetricsRegistry as
// fairness.jain_index, fairness.tenant_beta{tenant=...},
// fairness.beta_drift{...}, fairness.reciprocity_balance{...},
// fairness.contribution_lambda{...} and fairness.node_pressure{node=...}.
//
// It raises nothing: the run's alerts come from the engine's
// DetectorBank (obs/detect.hpp), which checks the same ledger (β drift,
// reciprocity) alongside its per-window detectors.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/round.hpp"

namespace rrf::obs {

class FairnessAuditor {
 public:
  /// `initial_shares` is each tenant's bought share total S(i) (> 0),
  /// indexed like `tenant_names`.  Instruments are published into
  /// `registry` (default: the process global).  The auditor itself does
  /// not consult metrics_enabled() — create it only when gauges are
  /// wanted.
  FairnessAuditor(std::vector<std::string> tenant_names,
                  std::vector<double> initial_shares,
                  MetricsRegistry* registry = nullptr);

  /// Reads the digest's position, contributed, gained and lambda (one
  /// entry per tenant each, as RoundDigest::reset sizes them) and its
  /// node pressure (may be empty).
  void observe_round(const RoundDigest& round);

  std::size_t windows() const { return windows_; }
  /// Cumulative per-tenant beta so far.
  std::vector<double> tenant_beta() const;
  /// Jain's index over the current cumulative betas (1.0 before data).
  double jain() const;

 private:
  std::vector<std::string> names_;
  std::vector<double> initial_;
  MetricsRegistry* registry_;

  std::size_t windows_{0};
  std::vector<double> position_total_;
  std::vector<double> contributed_total_;
  std::vector<double> gained_total_;

  // Cached instrument references (stable for the registry's lifetime).
  Gauge* jain_gauge_;
  Gauge* spread_gauge_;
  Gauge* windows_gauge_;
  Histogram* drift_hist_;
  std::vector<Gauge*> beta_gauges_;
  std::vector<Gauge*> drift_gauges_;
  std::vector<Gauge*> reciprocity_gauges_;
  std::vector<Gauge*> lambda_gauges_;
  std::vector<Gauge*> node_pressure_gauges_;
};

}  // namespace rrf::obs
