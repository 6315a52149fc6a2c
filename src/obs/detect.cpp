#include "obs/detect.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/exposition.hpp"
#include "obs/trace.hpp"

namespace rrf::obs {

namespace {

constexpr std::array<const char*, kDetectorKindCount> kKindNames = {
    "jain",        "drift",     "starvation", "throughput",
    "changepoint", "complaint", "beta_drift", "reciprocity"};

/// The demand-capped entitlement gap: how far the tenant's granted share
/// trails what she both bought and asked for.  Capping demand at 1.0
/// keeps low-demand tenants (grant rightly below 1) out of the signal.
/// Watches `granted` rather than the beta ledger `share`: an oversold
/// node cuts every slot proportionally, which moves no asset between
/// tenants (the ledger stays at 1.0) yet starves all of them.
double entitlement_gap(const TenantRoundStat& t) {
  return std::max(0.0, std::min(t.demand, 1.0) - t.granted);
}

/// Jain's index over `xs`; 1.0 when no entry is positive (all-zero
/// allocations: nobody is treated unequally).
double jain_or_one(std::span<const double> xs) {
  for (const double x : xs) {
    if (x > 0.0) return jain_index(xs);
  }
  return 1.0;
}

/// |β − 1| edges: a drift of 2.0 means a tenant holds 3x (or −1x) what
/// it paid for; anything beyond that is pathological.
constexpr std::array<double, 8> kDriftBounds = {0.01, 0.02, 0.05, 0.1,
                                                0.2,  0.5,  1.0,  2.0};

}  // namespace

const char* to_string(DetectorKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

void apply_detector_flag(DetectConfig& config, const std::string& flag) {
  if (flag == "all") {
    config.enabled.fill(true);
    return;
  }
  if (flag == "none") {
    config.enabled.fill(false);
    return;
  }
  config.enabled.fill(false);
  std::istringstream in(flag);
  std::string name;
  bool named = false;
  while (std::getline(in, name, ',')) {
    if (name.empty()) continue;
    named = true;
    bool known = false;
    for (std::size_t k = 0; k < kDetectorKindCount; ++k) {
      if (name == kKindNames[k]) {
        config.enabled[k] = true;
        known = true;
        break;
      }
    }
    if (!known) {
      throw DomainError("detect: unknown detector '" + name +
                        "' (expected all, none, or a comma list of: jain, "
                        "drift, starvation, throughput, changepoint, "
                        "complaint, beta_drift, reciprocity)");
    }
  }
  if (!named) {
    throw DomainError("detect: detector list '" + flag +
                      "' names no detector (use none to disable them all)");
  }
}

DetectorBank::DetectorBank(DetectConfig config, std::vector<std::string> names,
                           std::vector<double> paid, MetricsRegistry* registry)
    : config_(config),
      names_(std::move(names)),
      paid_(std::move(paid)),
      tenants_(names_.size()),
      ratios_(names_.size()),
      book_(kDetectorKindCount * (names_.size() + 1)),
      registry_(registry) {
  RRF_REQUIRE(config_.fast_window > 0 &&
                  config_.slow_window >= config_.fast_window,
              "detect: windows need 0 < fast_window <= slow_window");
  RRF_REQUIRE(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0 &&
                  config_.baseline_alpha > 0.0 && config_.baseline_alpha <= 1.0,
              "detect: EWMA weights must be in (0, 1]");
  RRF_REQUIRE(config_.cusum_threshold > 0.0 && config_.throughput_factor > 1.0,
              "detect: thresholds must be positive");
  RRF_REQUIRE(!names_.empty(), "detect: needs at least one tenant");
  RRF_REQUIRE(names_.size() == paid_.size(),
              "detect: tenant name/share count mismatch");
  for (const double s : paid_) {
    RRF_REQUIRE(s > 0.0, "detect: bought shares must be positive");
  }
  summary_.tenants.resize(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    summary_.tenants[i].name = names_[i];
  }
  if (registry_ == nullptr) return;
  // Pre-registered so a scrape sees every family at zero before the
  // first raise.
  alerts_counter_ = &registry_->counter("fairness.alerts");
  for (std::size_t k = 0; k < kDetectorKindCount; ++k) {
    kind_counters_[k] = &registry_->counter(
        labeled("fairness.alerts", {{"kind", kKindNames[k]}}));
  }
  active_gauge_ = &registry_->gauge("fairness.alerts_active");
  active_gauge_->set(0.0);
  jain_gauge_ = &registry_->gauge("fairness.jain_index");
  spread_gauge_ = &registry_->gauge("fairness.dominant_share_spread");
  windows_gauge_ = &registry_->gauge("fairness.audit_windows");
  drift_hist_ = &registry_->histogram("fairness.beta_drift_dist", kDriftBounds);
  tenant_gauges_.reserve(names_.size());
  for (const std::string& name : names_) {
    const auto gauge = [&](const char* family) {
      return &registry_->gauge(labeled(family, {{"tenant", name}}));
    };
    tenant_gauges_.push_back({gauge("fairness.tenant_beta"),
                              gauge("fairness.beta_drift"),
                              gauge("fairness.reciprocity_balance"),
                              gauge("fairness.contribution_lambda")});
  }
}

void DetectorBank::summarize(const RoundDigest& digest) {
  const std::size_t n = names_.size();
  for (const std::vector<double>* v :
       {&digest.tenant_position, &digest.tenant_demand,
        &digest.tenant_granted, &digest.tenant_contributed,
        &digest.tenant_gained, &digest.tenant_lambda}) {
    RRF_REQUIRE(v->size() == n,
                "detect: digest tenant count differs from the bank's");
  }
  summary_.window = digest.window;
  summary_.time = digest.time;
  summary_.slots = digest.slots;
  summary_.phase_seconds = digest.phase_seconds;
  for (std::size_t t = 0; t < n; ++t) {
    TenantRoundStat& stat = summary_.tenants[t];
    stat.share = digest.tenant_position[t] / paid_[t];
    stat.demand = digest.tenant_demand[t] / paid_[t];
    stat.granted = digest.tenant_granted[t] / paid_[t];
    stat.contributed = digest.tenant_contributed[t];
    stat.gained = digest.tenant_gained[t];
    ratios_[t] = stat.share;
  }
  summary_.jain = jain_or_one(ratios_);
}

void DetectorBank::push_bad(BurnSeries& series, bool bad) const {
  series.bad.push_back(bad ? 1 : 0);
  if (bad) ++series.bad_slow;
  while (series.bad.size() > config_.slow_window) {
    if (series.bad.front() != 0) --series.bad_slow;
    series.bad.pop_front();
  }
}

double DetectorBank::fast_fraction(const BurnSeries& series) const {
  const std::size_t n = std::min(series.bad.size(), config_.fast_window);
  if (n == 0) return 0.0;
  std::size_t bad = 0;
  for (std::size_t i = series.bad.size() - n; i < series.bad.size(); ++i) {
    if (series.bad[i] != 0) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(n);
}

double DetectorBank::slow_fraction(const BurnSeries& series) const {
  if (series.bad.empty()) return 0.0;
  return static_cast<double>(series.bad_slow) /
         static_cast<double>(series.bad.size());
}

bool DetectorBank::burning(const BurnSeries& series) const {
  if (series.bad.size() < config_.fast_window) return false;
  return fast_fraction(series) >= config_.fast_burn &&
         slow_fraction(series) >= config_.slow_burn;
}

const std::vector<Detection>& DetectorBank::observe_round(
    const RoundDigest& digest) {
  summarize(digest);
  const RoundSummary& summary = summary_;
  ++rounds_;
  const bool armed = rounds_ > config_.warmup_rounds;

  detections_.clear();
  const auto detect = [&](DetectorKind kind, std::int32_t tenant,
                          double value, double threshold) {
    Detection d;
    d.kind = kind;
    d.tenant = tenant;
    if (tenant >= 0) d.tenant_name = names_[static_cast<std::size_t>(tenant)];
    d.window = summary.window;
    d.value = value;
    d.threshold = threshold;
    detections_.push_back(std::move(d));
  };

  // Cluster-wide: Jain burn rate.
  push_bad(jain_, summary.jain < config_.jain_min);
  if (armed && enabled(DetectorKind::kJain) && burning(jain_)) {
    detect(DetectorKind::kJain, -1, summary.jain, config_.jain_min);
  }

  // Cluster-wide: throughput burn rate against a slow EWMA baseline.
  double wall = 0.0;
  for (const double s : summary.phase_seconds) wall += s;
  const bool wall_bad = wall_baseline_init_ && wall_baseline_ > 0.0 &&
                        wall > config_.throughput_factor * wall_baseline_;
  push_bad(throughput_, wall_bad);
  if (armed && enabled(DetectorKind::kThroughput) && burning(throughput_)) {
    detect(DetectorKind::kThroughput, -1, wall,
           config_.throughput_factor * wall_baseline_);
  }
  // Baseline updates after classification so a regression cannot drag
  // its own yardstick along with it within the fast window.
  if (!wall_baseline_init_) {
    wall_baseline_ = wall;
    wall_baseline_init_ = wall > 0.0;
  } else {
    wall_baseline_ += config_.baseline_alpha * (wall - wall_baseline_);
  }

  // Per-tenant detectors.
  for (std::size_t i = 0; i < summary.tenants.size(); ++i) {
    const TenantRoundStat& t = summary.tenants[i];
    TenantState& state = tenants_[i];
    const auto tenant = static_cast<std::int32_t>(i);
    const double gap = entitlement_gap(t);

    push_bad(state.drift, gap > config_.drift_gap_max);
    if (armed && enabled(DetectorKind::kDrift) && burning(state.drift)) {
      detect(DetectorKind::kDrift, tenant, gap, config_.drift_gap_max);
    }

    push_bad(state.starve, t.demand >= config_.starvation_demand &&
                               t.granted < config_.starvation_share);
    if (armed && enabled(DetectorKind::kStarvation) && burning(state.starve)) {
      detect(DetectorKind::kStarvation, tenant, t.granted,
             config_.starvation_share);
    }

    // CUSUM (Page's one-sided test) on the gap against its own EWMA
    // baseline: accumulates excursions above mu + slack, drains as the
    // gap closes.  The baseline updates after the residual so a step
    // change is charged before the EWMA absorbs it.
    const double residual = gap - state.gap_mu - config_.cusum_slack;
    state.cusum = std::max(0.0, state.cusum + residual);
    if (!state.gap_mu_init) {
      state.gap_mu = gap;
      state.gap_mu_init = true;
      state.cusum = 0.0;
    } else {
      state.gap_mu += config_.ewma_alpha * (gap - state.gap_mu);
    }
    if (armed && enabled(DetectorKind::kChangepoint) &&
        state.cusum > config_.cusum_threshold) {
      detect(DetectorKind::kChangepoint, tenant, state.cusum,
             config_.cusum_threshold);
    }

    // Justified complaint: the EWMA entitlement deficit counts only
    // while the tenant is a net reciprocity contributor.
    state.contributed_total += t.contributed;
    state.gained_total += t.gained;
    state.complaint += config_.ewma_alpha * (gap - state.complaint);
    const bool net_contributor =
        state.contributed_total > state.gained_total + 1e-12;
    if (armed && enabled(DetectorKind::kComplaint) && net_contributor &&
        state.complaint > config_.complaint_min) {
      detect(DetectorKind::kComplaint, tenant, state.complaint,
             config_.complaint_min);
    }

    // Cumulative β: the mean of the tenant's per-round share ratios.
    state.share_total += t.share;
    const double rounds = static_cast<double>(rounds_);
    state.beta = state.share_total / rounds;
    const double beta_drift = std::abs(state.beta - 1.0);
    if (armed && enabled(DetectorKind::kBetaDrift) &&
        beta_drift > config_.beta_drift_max) {
      detect(DetectorKind::kBetaDrift, tenant, beta_drift,
             config_.beta_drift_max);
    }

    // Free riding: mean tenant-funded gain per round (relative to the
    // bought share) while the cumulative contribution stays near zero.
    const double paid = paid_[i];
    const double gain_rate = state.gained_total / (rounds * paid);
    const bool non_contributor =
        state.contributed_total < config_.reciprocity_contribution_floor * paid;
    if (armed && enabled(DetectorKind::kReciprocity) && non_contributor &&
        gain_rate > config_.reciprocity_gain_max) {
      detect(DetectorKind::kReciprocity, tenant, gain_rate,
             config_.reciprocity_gain_max);
    }
  }
  update_book(summary.window);
  summary_.active_alerts = active_;
  summary_.alerts_total = raised_.size();
  if (registry_ != nullptr) publish_gauges(digest);
  return detections_;
}

void DetectorBank::publish_gauges(const RoundDigest& digest) {
  const double rounds = static_cast<double>(rounds_);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& state = tenants_[i];
    const TenantGauges& gauges = tenant_gauges_[i];
    const double drift = std::abs(state.beta - 1.0);
    gauges.beta->set(state.beta);
    gauges.drift->set(drift);
    drift_hist_->observe(drift);
    gauges.reciprocity->set((state.gained_total - state.contributed_total) /
                            (rounds * paid_[i]));
    gauges.lambda->set(digest.tenant_lambda[i]);
    lo = std::min(lo, summary_.tenants[i].share);
    hi = std::max(hi, summary_.tenants[i].share);
    ratios_[i] = state.beta;
  }
  jain_gauge_->set(jain_or_one(ratios_));
  spread_gauge_->set(hi - lo);
  windows_gauge_->set(rounds);

  const std::vector<double>& pressure = digest.node_pressure;
  if (pressure.empty()) return;
  while (node_pressure_gauges_.size() < pressure.size()) {
    node_pressure_gauges_.push_back(&registry_->gauge(labeled(
        "fairness.node_pressure",
        {{"node", std::to_string(node_pressure_gauges_.size())}})));
  }
  if (node_spread_gauge_ == nullptr) {
    node_spread_gauge_ = &registry_->gauge("fairness.node_pressure_spread");
  }
  for (std::size_t i = 0; i < pressure.size(); ++i) {
    node_pressure_gauges_[i]->set(pressure[i]);
  }
  const auto [nlo, nhi] = std::minmax_element(pressure.begin(), pressure.end());
  node_spread_gauge_->set(*nhi - *nlo);
}

void DetectorBank::update_book(std::size_t window) {
  const std::size_t active_before = active_;
  for (const Detection& d : detections_) {
    AlertState& a = alert(d.kind, d.tenant);
    a.last_seen_round = rounds_;
    a.value = d.value;
    a.threshold = d.threshold;
    if (a.active) continue;
    a.active = true;
    ++a.raise_count;
    a.raised_window = window;
    ++active_;
    raised_.push_back(d);
    transitions_.push_back(AlertTransition{d.kind, d.tenant, window,
                                           /*raised=*/true, d.value,
                                           d.threshold});
    if (alerts_counter_ != nullptr) {
      alerts_counter_->add(1);
      kind_counters_[static_cast<std::size_t>(d.kind)]->add(1);
    }
    if (tracing_enabled()) {
      TraceEvent e;
      e.kind = EventKind::kAlert;
      e.resource = static_cast<std::int8_t>(d.kind);
      e.tenant = d.tenant;
      e.window = static_cast<std::int32_t>(window);
      e.value = d.value;
      e.value2 = d.threshold;
      tracer().record(e);
    }
  }
  if (active_ > 0) {
    for (std::size_t slot = 0; slot < book_.size(); ++slot) {
      AlertState& a = book_[slot];
      if (!a.active || rounds_ - a.last_seen_round < config_.slow_window) {
        continue;
      }
      a.active = false;
      a.resolved_window = window;
      --active_;
      const std::size_t per_kind = names_.size() + 1;
      transitions_.push_back(AlertTransition{
          static_cast<DetectorKind>(slot / per_kind),
          static_cast<std::int32_t>(slot % per_kind) - 1, window,
          /*raised=*/false, a.value, a.threshold});
    }
  }
  if (active_gauge_ != nullptr && active_ != active_before) {
    active_gauge_->set(static_cast<double>(active_));
  }
}

std::span<const AlertTransition> DetectorBank::transitions_since(
    std::size_t from) const {
  if (from >= transitions_.size()) return {};
  return std::span<const AlertTransition>(transitions_).subspan(from);
}

json::Value DetectorBank::alerts_document() const {
  json::Array active;
  json::Array resolved;
  std::array<std::size_t, kDetectorKindCount> counts{};
  const std::size_t per_kind = names_.size() + 1;
  for (std::size_t slot = 0; slot < book_.size(); ++slot) {
    const AlertState& a = book_[slot];
    if (a.raise_count == 0) continue;
    const std::size_t kind = slot / per_kind;
    const std::size_t column = slot % per_kind;  // 0 = cluster-wide
    counts[kind] += a.raise_count;
    json::Object entry;
    entry.emplace_back("kind", kKindNames[kind]);
    entry.emplace_back("tenant", column > 0 ? json::Value(names_[column - 1])
                                            : json::Value(nullptr));
    entry.emplace_back("raised_window", a.raised_window);
    if (!a.active) entry.emplace_back("resolved_window", a.resolved_window);
    entry.emplace_back("value", a.value);
    entry.emplace_back("threshold", a.threshold);
    entry.emplace_back("raise_count", a.raise_count);
    (a.active ? active : resolved).emplace_back(std::move(entry));
  }
  json::Object by_kind;
  for (std::size_t k = 0; k < kDetectorKindCount; ++k) {
    by_kind.emplace_back(kKindNames[k], counts[k]);
  }
  json::Object out;
  out.emplace_back("windows", rounds_);
  out.emplace_back("active", std::move(active));
  out.emplace_back("resolved", std::move(resolved));
  out.emplace_back("counts", std::move(by_kind));
  out.emplace_back("total", raised_.size());
  return out;
}

json::Value DetectorBank::state_json() const {
  json::Array tenants;
  tenants.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const TenantState& s = tenants_[i];
    tenants.push_back(json::Object{
        {"tenant", names_[i]},
        {"gap_ewma", s.gap_mu},
        {"cusum", s.cusum},
        {"complaint", s.complaint},
        {"contributed_total", s.contributed_total},
        {"gained_total", s.gained_total},
        {"drift_bad_slow", s.drift.bad_slow},
        {"starvation_bad_slow", s.starve.bad_slow},
    });
  }
  return json::Object{
      {"rounds", rounds_},
      {"wall_baseline_seconds", wall_baseline_},
      {"jain_bad_slow", jain_.bad_slow},
      {"throughput_bad_slow", throughput_.bad_slow},
      {"tenants", std::move(tenants)},
  };
}

}  // namespace rrf::obs
