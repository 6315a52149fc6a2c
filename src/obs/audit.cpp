#include "obs/audit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"

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

const char* to_string(AlertKind kind) {
  switch (kind) {
    case AlertKind::kJain: return "jain";
    case AlertKind::kBetaDrift: return "beta_drift";
    case AlertKind::kStarvation: return "starvation";
    case AlertKind::kReciprocity: return "reciprocity";
  }
  return "unknown";
}

FairnessAuditor::FairnessAuditor(AuditConfig config,
                                 std::vector<std::string> tenant_names,
                                 std::vector<double> initial_shares,
                                 MetricsRegistry* registry)
    : config_(config),
      names_(std::move(tenant_names)),
      initial_(std::move(initial_shares)),
      registry_(registry != nullptr ? registry : &metrics()) {
  RRF_REQUIRE(!initial_.empty(), "auditor needs at least one tenant");
  for (const double s : initial_) {
    RRF_REQUIRE(s > 0.0, "auditor initial shares must be positive");
  }
  if (names_.empty()) {
    for (std::size_t i = 0; i < initial_.size(); ++i) {
      names_.push_back("tenant" + std::to_string(i));
    }
  }
  RRF_REQUIRE(names_.size() == initial_.size(),
              "auditor tenant name/share count mismatch");

  const std::size_t n = initial_.size();
  position_total_.assign(n, 0.0);
  contributed_total_.assign(n, 0.0);
  gained_total_.assign(n, 0.0);
  starvation_streak_.assign(n, 0);
  drift_rules_.assign(n, Rule{});
  starvation_rules_.assign(n, Rule{});
  reciprocity_rules_.assign(n, Rule{});

  // Pre-register the alert counters so a scrape sees the families at zero
  // before any alert has fired.
  registry_->counter("fairness.alerts");
  for (std::size_t k = 0; k < kAlertKindCount; ++k) {
    registry_->counter(labeled(
        "fairness.alerts", {{"kind", to_string(static_cast<AlertKind>(k))}}));
  }
  jain_gauge_ = &registry_->gauge("fairness.jain_index");
  spread_gauge_ = &registry_->gauge("fairness.dominant_share_spread");
  windows_gauge_ = &registry_->gauge("fairness.audit_windows");
  active_gauge_ = &registry_->gauge("fairness.alerts_active");
  drift_hist_ = &registry_->histogram("fairness.beta_drift_dist", kDriftBounds);
  beta_gauges_.reserve(n);
  drift_gauges_.reserve(n);
  streak_gauges_.reserve(n);
  reciprocity_gauges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    beta_gauges_.push_back(
        &registry_->gauge(labeled("fairness.tenant_beta", {{"tenant", names_[i]}})));
    drift_gauges_.push_back(
        &registry_->gauge(labeled("fairness.beta_drift", {{"tenant", names_[i]}})));
    streak_gauges_.push_back(&registry_->gauge(
        labeled("fairness.starvation_streak", {{"tenant", names_[i]}})));
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

std::size_t FairnessAuditor::alert_count(AlertKind kind) const {
  std::size_t n = 0;
  for (const Alert& a : alerts_) {
    if (a.kind == kind) ++n;
  }
  return n;
}

std::size_t FairnessAuditor::active_alerts() const {
  std::size_t n = jain_rule_.active ? 1 : 0;
  for (const Rule& r : drift_rules_) n += r.active ? 1 : 0;
  for (const Rule& r : starvation_rules_) n += r.active ? 1 : 0;
  for (const Rule& r : reciprocity_rules_) n += r.active ? 1 : 0;
  return n;
}

void FairnessAuditor::raise(AlertKind kind, std::int32_t tenant,
                            std::size_t window, double value,
                            double threshold) {
  alerts_.push_back(Alert{kind, window, tenant, value, threshold});
  registry_->counter("fairness.alerts").add(1);
  registry_->counter(labeled("fairness.alerts", {{"kind", to_string(kind)}}))
      .add(1);
  if (tracing_enabled()) {
    TraceEvent e;
    e.kind = EventKind::kAlert;
    e.resource = static_cast<std::int8_t>(kind);
    e.tenant = tenant;
    e.window = static_cast<std::int32_t>(window);
    e.value = value;
    e.value2 = threshold;
    tracer().record(e);
  }
  if (config_.log_alerts) {
    log_warn("fairness alert [", to_string(kind), "] window=", window,
             " tenant=",
             tenant >= 0 ? names_[static_cast<std::size_t>(tenant)]
                         : std::string("<cluster>"),
             " value=", value, " threshold=", threshold);
  }
}

bool FairnessAuditor::update_rule(Rule& rule, bool violated, bool recovered,
                                  AlertKind kind, std::int32_t tenant,
                                  std::size_t window, double value,
                                  double threshold) {
  rule.last_value = value;
  rule.last_threshold = threshold;
  if (!rule.active) {
    if (violated) {
      rule.active = true;
      ++rule.raised;
      rule.raised_window = window;
      transitions_.push_back(
          AlertTransition{kind, tenant, window, /*raised=*/true, value,
                          threshold});
      raise(kind, tenant, window, value, threshold);
      return true;
    }
    return false;
  }
  if (recovered) {
    rule.active = false;
    rule.resolved_window = window;
    transitions_.push_back(AlertTransition{kind, tenant, window,
                                           /*raised=*/false, value,
                                           threshold});
  }
  return false;
}

std::span<const AlertTransition> FairnessAuditor::transitions_since(
    std::size_t from) const {
  if (from >= transitions_.size()) return {};
  return std::span<const AlertTransition>(transitions_).subspan(from);
}

std::vector<AlertStatus> FairnessAuditor::alert_statuses() const {
  std::vector<AlertStatus> out;
  const auto collect = [&](const Rule& rule, AlertKind kind,
                           std::int32_t tenant) {
    if (rule.raised == 0) return;
    AlertStatus status;
    status.kind = kind;
    status.tenant = tenant;
    if (tenant >= 0) status.tenant_name = names_[static_cast<std::size_t>(tenant)];
    status.active = rule.active;
    status.raised_window = rule.raised_window;
    status.resolved_window = rule.resolved_window;
    status.raise_count = rule.raised;
    status.value = rule.last_value;
    status.threshold = rule.last_threshold;
    out.push_back(std::move(status));
  };
  collect(jain_rule_, AlertKind::kJain, -1);
  const auto collect_all = [&](const std::vector<Rule>& rules, AlertKind kind) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      collect(rules[i], kind, static_cast<std::int32_t>(i));
    }
  };
  collect_all(drift_rules_, AlertKind::kBetaDrift);
  collect_all(starvation_rules_, AlertKind::kStarvation);
  collect_all(reciprocity_rules_, AlertKind::kReciprocity);
  std::stable_sort(out.begin(), out.end(),
                   [](const AlertStatus& a, const AlertStatus& b) {
                     return a.active > b.active;
                   });
  return out;
}

void FairnessAuditor::publish_gauges(const RoundDigest& round) {
  const std::size_t n = initial_.size();
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
    streak_gauges_[i]->set(static_cast<double>(starvation_streak_[i]));
    const double denom = static_cast<double>(windows_) * initial_[i];
    reciprocity_gauges_[i]->set(
        denom > 0.0 ? (gained_total_[i] - contributed_total_[i]) / denom : 0.0);
    const double share = round.tenant_position[i] / initial_[i];
    lo = std::min(lo, share);
    hi = std::max(hi, share);
    lambda_gauges_[i]->set(round.tenant_lambda[i]);
  }
  spread_gauge_->set(n > 0 ? hi - lo : 0.0);

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

void FairnessAuditor::observe_round(const RoundDigest& round) {
  if (!config_.enabled) return;
  const std::size_t n = initial_.size();
  for (const std::vector<double>* v :
       {&round.tenant_position, &round.tenant_demand,
        &round.tenant_contributed, &round.tenant_gained,
        &round.tenant_lambda}) {
    RRF_REQUIRE(v->size() == n, "audit round tenant count mismatch");
  }

  ++windows_;
  for (std::size_t i = 0; i < n; ++i) {
    position_total_[i] += round.tenant_position[i];
    contributed_total_[i] += round.tenant_contributed[i];
    gained_total_[i] += round.tenant_gained[i];
    // A round starves tenant i when she wants at least her bought share yet
    // holds less than starvation_ratio of it.
    const bool starving =
        round.tenant_demand[i] >= initial_[i] &&
        round.tenant_position[i] < config_.starvation_ratio * initial_[i];
    starvation_streak_[i] = starving ? starvation_streak_[i] + 1 : 0;
  }

  publish_gauges(round);

  if (windows_ <= config_.warmup_windows) {
    active_gauge_->set(static_cast<double>(active_alerts()));
    return;
  }

  const std::vector<double> betas = tenant_beta();
  const double jain_now = safe_jain(betas);
  update_rule(jain_rule_, jain_now < config_.jain_min,
              jain_now >= config_.jain_min * (1.0 + config_.hysteresis),
              AlertKind::kJain, /*tenant=*/-1, round.window, jain_now,
              config_.jain_min);

  for (std::size_t i = 0; i < n; ++i) {
    const auto tenant = static_cast<std::int32_t>(i);
    const double drift = std::abs(betas[i] - 1.0);
    update_rule(drift_rules_[i], drift > config_.beta_drift_max,
                drift <= config_.beta_drift_max * (1.0 - config_.hysteresis),
                AlertKind::kBetaDrift, tenant, round.window, drift,
                config_.beta_drift_max);

    update_rule(starvation_rules_[i],
                starvation_streak_[i] >= config_.starvation_windows,
                starvation_streak_[i] == 0, AlertKind::kStarvation, tenant,
                round.window, static_cast<double>(starvation_streak_[i]),
                static_cast<double>(config_.starvation_windows));

    // Free-rider check: mean tenant-funded gain per round (relative to the
    // bought share) while the cumulative contribution stays below the floor.
    const double denom = static_cast<double>(windows_) * initial_[i];
    const double gain_rate = denom > 0.0 ? gained_total_[i] / denom : 0.0;
    const bool non_contributor =
        contributed_total_[i] <
        config_.reciprocity_contribution_floor * initial_[i];
    update_rule(
        reciprocity_rules_[i],
        non_contributor && gain_rate > config_.reciprocity_gain_max,
        !non_contributor ||
            gain_rate <= config_.reciprocity_gain_max *
                             (1.0 - config_.hysteresis),
        AlertKind::kReciprocity, tenant, round.window, gain_rate,
        config_.reciprocity_gain_max);
  }

  active_gauge_->set(static_cast<double>(active_alerts()));
}

}  // namespace rrf::obs
