#include "obs/audit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/exposition.hpp"

namespace rrf::obs {

namespace {

/// |beta - 1| edges: a drift of 2.0 means a tenant holds 3x (or -1x) what
/// she paid for — anything beyond that is pathological.
constexpr std::array<double, 8> kDriftBounds = {0.01, 0.02, 0.05, 0.1,
                                                0.2,  0.5,  1.0,  2.0};

double safe_jain(std::span<const double> xs) {
  if (xs.empty()) return 1.0;
  for (const double x : xs) {
    if (x > 0.0) return jain_index(xs);
  }
  return 1.0;  // all-zero allocations: nobody is treated unequally
}

}  // namespace

FairnessAuditor::FairnessAuditor(std::vector<std::string> tenant_names,
                                 std::vector<double> initial_shares,
                                 MetricsRegistry* registry)
    : names_(std::move(tenant_names)),
      initial_(std::move(initial_shares)),
      registry_(registry != nullptr ? registry : &metrics()) {
  RRF_REQUIRE(!initial_.empty(), "auditor needs at least one tenant");
  for (const double s : initial_) {
    RRF_REQUIRE(s > 0.0, "auditor initial shares must be positive");
  }
  RRF_REQUIRE(names_.size() == initial_.size(),
              "auditor tenant name/share count mismatch");

  const std::size_t n = initial_.size();
  position_total_.assign(n, 0.0);
  contributed_total_.assign(n, 0.0);
  gained_total_.assign(n, 0.0);

  jain_gauge_ = &registry_->gauge("fairness.jain_index");
  spread_gauge_ = &registry_->gauge("fairness.dominant_share_spread");
  windows_gauge_ = &registry_->gauge("fairness.audit_windows");
  drift_hist_ = &registry_->histogram("fairness.beta_drift_dist", kDriftBounds);
  beta_gauges_.reserve(n);
  drift_gauges_.reserve(n);
  reciprocity_gauges_.reserve(n);
  lambda_gauges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    beta_gauges_.push_back(
        &registry_->gauge(labeled("fairness.tenant_beta", {{"tenant", names_[i]}})));
    drift_gauges_.push_back(
        &registry_->gauge(labeled("fairness.beta_drift", {{"tenant", names_[i]}})));
    reciprocity_gauges_.push_back(&registry_->gauge(
        labeled("fairness.reciprocity_balance", {{"tenant", names_[i]}})));
    lambda_gauges_.push_back(&registry_->gauge(
        labeled("fairness.contribution_lambda", {{"tenant", names_[i]}})));
  }
}

std::vector<double> FairnessAuditor::tenant_beta() const {
  std::vector<double> betas(initial_.size(), 1.0);
  if (windows_ == 0) return betas;
  for (std::size_t i = 0; i < initial_.size(); ++i) {
    betas[i] = position_total_[i] /
               (static_cast<double>(windows_) * initial_[i]);
  }
  return betas;
}

double FairnessAuditor::jain() const { return safe_jain(tenant_beta()); }

void FairnessAuditor::observe_round(const RoundDigest& round) {
  const std::size_t n = initial_.size();
  for (const std::vector<double>* v :
       {&round.tenant_position, &round.tenant_contributed,
        &round.tenant_gained, &round.tenant_lambda}) {
    RRF_REQUIRE(v->size() == n, "audit round tenant count mismatch");
  }

  ++windows_;
  for (std::size_t i = 0; i < n; ++i) {
    position_total_[i] += round.tenant_position[i];
    contributed_total_[i] += round.tenant_contributed[i];
    gained_total_[i] += round.tenant_gained[i];
  }

  const std::vector<double> betas = tenant_beta();
  jain_gauge_->set(safe_jain(betas));
  windows_gauge_->set(static_cast<double>(windows_));
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    beta_gauges_[i]->set(betas[i]);
    const double drift = std::abs(betas[i] - 1.0);
    drift_gauges_[i]->set(drift);
    drift_hist_->observe(drift);
    const double denom = static_cast<double>(windows_) * initial_[i];
    reciprocity_gauges_[i]->set((gained_total_[i] - contributed_total_[i]) /
                                denom);
    const double share = round.tenant_position[i] / initial_[i];
    lo = std::min(lo, share);
    hi = std::max(hi, share);
    lambda_gauges_[i]->set(round.tenant_lambda[i]);
  }
  spread_gauge_->set(hi - lo);

  if (!round.node_pressure.empty()) {
    while (node_pressure_gauges_.size() < round.node_pressure.size()) {
      node_pressure_gauges_.push_back(&registry_->gauge(
          labeled("fairness.node_pressure",
                  {{"node", std::to_string(node_pressure_gauges_.size())}})));
    }
    double nlo = round.node_pressure[0];
    double nhi = round.node_pressure[0];
    for (std::size_t i = 0; i < round.node_pressure.size(); ++i) {
      node_pressure_gauges_[i]->set(round.node_pressure[i]);
      nlo = std::min(nlo, round.node_pressure[i]);
      nhi = std::max(nhi, round.node_pressure[i]);
    }
    registry_->gauge("fairness.node_pressure_spread").set(nhi - nlo);
  }
}

}  // namespace rrf::obs
