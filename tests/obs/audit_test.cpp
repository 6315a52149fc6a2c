#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/exposition.hpp"

namespace rrf::obs {
namespace {

/// Auditor config with every rule effectively disarmed except the ones a
/// test re-enables — synthetic rounds tend to trip several rules at once.
AuditConfig quiet_config() {
  AuditConfig config;
  config.warmup_windows = 0;
  config.jain_min = 0.0;
  config.beta_drift_max = 1e9;
  config.starvation_windows = 1000000;
  config.reciprocity_gain_max = 1e9;
  config.log_alerts = false;
  return config;
}

/// Feeds one round where every tenant demands `demand` and holds
/// `position` shares (same value for all tenants unless vectors given).
void feed(FairnessAuditor& auditor, std::size_t window,
          std::vector<double> position, std::vector<double> demand,
          std::vector<double> contributed = {},
          std::vector<double> gained = {}) {
  RoundDigest round;
  round.reset(position.size(), 0);  // flows and lambda default to zero
  round.window = window;
  round.tenant_position = std::move(position);
  round.tenant_demand = std::move(demand);
  if (!contributed.empty()) round.tenant_contributed = std::move(contributed);
  if (!gained.empty()) round.tenant_gained = std::move(gained);
  auditor.observe_round(round);
}

TEST(ObsAudit, BetaAccumulatesAcrossRounds) {
  MetricsRegistry registry;
  FairnessAuditor auditor(quiet_config(), {"a", "b"}, {100.0, 200.0},
                          &registry);
  EXPECT_DOUBLE_EQ(auditor.jain(), 1.0);  // vacuously fair before data

  feed(auditor, 0, {100.0, 100.0}, {100.0, 200.0});
  feed(auditor, 1, {100.0, 300.0}, {100.0, 200.0});
  const std::vector<double> betas = auditor.tenant_beta();
  ASSERT_EQ(betas.size(), 2u);
  EXPECT_DOUBLE_EQ(betas[0], 1.0);            // 200 / (2 * 100)
  EXPECT_DOUBLE_EQ(betas[1], 1.0);            // 400 / (2 * 200)
  EXPECT_DOUBLE_EQ(auditor.jain(), 1.0);
  EXPECT_EQ(auditor.windows(), 2u);
  EXPECT_TRUE(auditor.alerts().empty());
}

TEST(ObsAudit, WarmupSuppressesAlertsButPublishesGauges) {
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.warmup_windows = 3;
  config.jain_min = 0.85;
  FairnessAuditor auditor(config, {"a", "b"}, {100.0, 100.0}, &registry);

  // Grossly unfair rounds, but inside the warmup window: no alerts.
  for (std::size_t w = 0; w < 3; ++w) {
    feed(auditor, w, {10.0, 190.0}, {100.0, 100.0});
  }
  EXPECT_TRUE(auditor.alerts().empty());
  const Gauge* jain = registry.find_gauge("fairness.jain_index");
  ASSERT_NE(jain, nullptr);
  EXPECT_LT(jain->value(), 0.85);  // gauges publish during warmup

  // First post-warmup round arms the rule and raises.
  feed(auditor, 3, {10.0, 190.0}, {100.0, 100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kJain), 1u);
  EXPECT_EQ(auditor.alerts().back().tenant, -1);  // cluster-wide
}

TEST(ObsAudit, StarvationFiresAfterSustainedStreakOnly) {
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.starvation_windows = 3;
  config.starvation_ratio = 0.5;
  FairnessAuditor auditor(config, {"hungry", "fed"}, {100.0, 100.0},
                          &registry);

  // hungry demands its full share yet holds 30% of it; fed is fine.
  feed(auditor, 0, {30.0, 100.0}, {120.0, 100.0});
  feed(auditor, 1, {30.0, 100.0}, {120.0, 100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kStarvation), 0u);

  feed(auditor, 2, {30.0, 100.0}, {120.0, 100.0});
  ASSERT_EQ(auditor.alert_count(AlertKind::kStarvation), 1u);
  EXPECT_EQ(auditor.alerts().back().tenant, 0);
  EXPECT_EQ(auditor.alerts().back().window, 2u);

  // Still starving: the alert stays active, it does not re-raise.
  feed(auditor, 3, {30.0, 100.0}, {120.0, 100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kStarvation), 1u);
  EXPECT_EQ(auditor.active_alerts(), 1u);

  // One satisfied round resets the streak and re-arms the rule...
  feed(auditor, 4, {100.0, 100.0}, {120.0, 100.0});
  EXPECT_EQ(auditor.active_alerts(), 0u);

  // ...so a second sustained famine raises a second alert.
  for (std::size_t w = 5; w < 8; ++w) {
    feed(auditor, w, {30.0, 100.0}, {120.0, 100.0});
  }
  EXPECT_EQ(auditor.alert_count(AlertKind::kStarvation), 2u);
}

TEST(ObsAudit, LowDemandIsNotStarvation) {
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.starvation_windows = 2;
  FairnessAuditor auditor(config, {}, {100.0}, &registry);

  // Holding 30 shares while asking for 50 (< the bought 100) is just an
  // idle tenant, not a starved one.
  for (std::size_t w = 0; w < 6; ++w) {
    feed(auditor, w, {30.0}, {50.0});
  }
  EXPECT_TRUE(auditor.alerts().empty());
  const Gauge* streak =
      registry.find_gauge(labeled("fairness.starvation_streak",
                                  {{"tenant", "tenant0"}}));
  ASSERT_NE(streak, nullptr);
  EXPECT_DOUBLE_EQ(streak->value(), 0.0);
}

TEST(ObsAudit, BetaDriftHysteresisRaisesOncePerExcursion) {
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.beta_drift_max = 0.3;
  config.hysteresis = 0.05;
  FairnessAuditor auditor(config, {"a"}, {100.0}, &registry);

  // Two over-allocated rounds: beta = 2.0, drift 1.0 > 0.3 → one raise.
  feed(auditor, 0, {200.0}, {100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);
  feed(auditor, 1, {200.0}, {100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);  // still active

  // Walk the cumulative beta back inside the hysteresis band
  // (drift <= 0.3 * 0.95): the alert clears without raising.
  std::size_t w = 2;
  while (auditor.active_alerts() > 0) {
    feed(auditor, w++, {100.0}, {100.0});
    ASSERT_LT(w, 100u);
  }
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);

  // A fresh excursion past the threshold raises a second alert.
  while (auditor.alert_count(AlertKind::kBetaDrift) < 2 && w < 200) {
    feed(auditor, w++, {300.0}, {100.0});
  }
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 2u);
}

TEST(ObsAudit, WarmupBoundaryArmsOnTheFirstPostWarmupRound) {
  // With warmup_windows = W, rounds 0..W-1 are suppressed and round W is
  // the first that can raise — off-by-one here silently eats alerts.
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.warmup_windows = 2;
  config.jain_min = 0.85;
  FairnessAuditor auditor(config, {"a", "b"}, {100.0, 100.0}, &registry);

  feed(auditor, 0, {10.0, 190.0}, {100.0, 100.0});
  feed(auditor, 1, {10.0, 190.0}, {100.0, 100.0});
  EXPECT_TRUE(auditor.alerts().empty());
  EXPECT_EQ(auditor.active_alerts(), 0u);

  feed(auditor, 2, {10.0, 190.0}, {100.0, 100.0});
  ASSERT_EQ(auditor.alert_count(AlertKind::kJain), 1u);
  EXPECT_EQ(auditor.alerts().back().window, 2u);
}

TEST(ObsAudit, BetaDriftExactlyAtThresholdDoesNotRaise) {
  // The violation comparison is strict: drift == beta_drift_max is still
  // compliant, only crossing beyond it raises.  Thresholds and positions
  // are chosen to be exactly representable in binary floating point.
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.beta_drift_max = 0.25;
  FairnessAuditor auditor(config, {"a"}, {100.0}, &registry);

  feed(auditor, 0, {125.0}, {100.0});  // beta 1.25, drift == 0.25 exactly
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 0u);
  EXPECT_EQ(auditor.active_alerts(), 0u);

  // Cumulative beta 260/200 = 1.3 → drift ≈ 0.3 > 0.25: first crossing.
  feed(auditor, 1, {135.0}, {100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);
  EXPECT_EQ(auditor.alerts().back().window, 1u);
}

TEST(ObsAudit, BetaDriftClearsOnlyPastTheHysteresisMargin) {
  // Clear threshold is beta_drift_max * (1 - hysteresis) = 0.125: a drift
  // inside (0.125, 0.25] keeps the alert active without re-raising, and
  // drift == 0.125 exactly is the first value that clears it.
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.beta_drift_max = 0.25;
  config.hysteresis = 0.5;
  FairnessAuditor auditor(config, {"a"}, {100.0}, &registry);

  feed(auditor, 0, {125.0}, {100.0});   // drift 0.25: at threshold, quiet
  feed(auditor, 1, {135.0}, {100.0});   // cumulative drift ~0.3: raises
  ASSERT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);
  EXPECT_EQ(auditor.active_alerts(), 1u);

  // Cumulative beta 356.25/300 = 1.1875 → drift 0.1875, inside the
  // hysteresis band: still active, no second raise.
  feed(auditor, 2, {96.25}, {100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);
  EXPECT_EQ(auditor.active_alerts(), 1u);

  // Cumulative beta 450/400 = 1.125 → drift 0.125 == the margin: clears.
  feed(auditor, 3, {93.75}, {100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 1u);
  EXPECT_EQ(auditor.active_alerts(), 0u);

  // A fresh excursion (cumulative beta 650/500 = 1.3) raises again.
  feed(auditor, 4, {200.0}, {100.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kBetaDrift), 2u);
  EXPECT_EQ(auditor.active_alerts(), 1u);
}

TEST(ObsAudit, ReciprocityFlagsFreeRidersNotContributors) {
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.reciprocity_gain_max = 0.10;
  config.reciprocity_contribution_floor = 0.05;
  FairnessAuditor auditor(config, {"giver", "taker"}, {100.0, 100.0},
                          &registry);

  // giver funds 20 shares/round and takes nothing back; taker consumes 20
  // tenant-funded shares/round while contributing nothing.
  feed(auditor, 0, {80.0, 120.0}, {100.0, 100.0},
       /*contributed=*/{20.0, 0.0}, /*gained=*/{0.0, 20.0});
  ASSERT_EQ(auditor.alert_count(AlertKind::kReciprocity), 1u);
  EXPECT_EQ(auditor.alerts().back().tenant, 1);

  // A tenant who gains the same amount but also contributes is reciprocal:
  // flip the roles with history — giver now takes, but her cumulative
  // contribution is far above the floor, so no alert for her.
  feed(auditor, 1, {120.0, 80.0}, {100.0, 100.0},
       /*contributed=*/{0.0, 0.0}, /*gained=*/{20.0, 0.0});
  EXPECT_EQ(auditor.alert_count(AlertKind::kReciprocity), 1u);
}

TEST(ObsAudit, PublishesGaugesAndNodePressure) {
  MetricsRegistry registry;
  FairnessAuditor auditor(quiet_config(), {"a", "b"}, {100.0, 100.0},
                          &registry);
  RoundDigest round;
  round.reset(2, 0);
  round.tenant_position = {50.0, 150.0};
  round.tenant_demand = {100.0, 100.0};
  round.tenant_lambda = {0.25, 0.75};
  round.node_pressure = {0.9, 0.4};
  auditor.observe_round(round);

  const Gauge* beta_a =
      registry.find_gauge(labeled("fairness.tenant_beta", {{"tenant", "a"}}));
  ASSERT_NE(beta_a, nullptr);
  EXPECT_DOUBLE_EQ(beta_a->value(), 0.5);
  const Gauge* spread = registry.find_gauge("fairness.dominant_share_spread");
  ASSERT_NE(spread, nullptr);
  EXPECT_DOUBLE_EQ(spread->value(), 1.0);  // 1.5 - 0.5
  const Gauge* lam =
      registry.find_gauge(labeled("fairness.contribution_lambda",
                                  {{"tenant", "b"}}));
  ASSERT_NE(lam, nullptr);
  EXPECT_DOUBLE_EQ(lam->value(), 0.75);
  const Gauge* node1 =
      registry.find_gauge(labeled("fairness.node_pressure", {{"node", "1"}}));
  ASSERT_NE(node1, nullptr);
  EXPECT_DOUBLE_EQ(node1->value(), 0.4);
  const Gauge* node_spread =
      registry.find_gauge("fairness.node_pressure_spread");
  ASSERT_NE(node_spread, nullptr);
  EXPECT_NEAR(node_spread->value(), 0.5, 1e-12);
  EXPECT_NE(registry.find_histogram("fairness.beta_drift_dist"), nullptr);
}

TEST(ObsAudit, AlertCountersLandInRegistry) {
  MetricsRegistry registry;
  AuditConfig config = quiet_config();
  config.jain_min = 0.85;
  FairnessAuditor auditor(config, {"a", "b"}, {100.0, 100.0}, &registry);
  // The alert counter families are visible (at zero) from construction, so
  // a scrape before the first incident still exports them.
  for (const char* kind : {"jain", "beta_drift", "starvation", "reciprocity"}) {
    const Counter* pre =
        registry.find_counter(labeled("fairness.alerts", {{"kind", kind}}));
    ASSERT_NE(pre, nullptr);
    EXPECT_EQ(pre->value(), 0u);
  }
  feed(auditor, 0, {10.0, 190.0}, {100.0, 100.0});
  const Counter* total = registry.find_counter("fairness.alerts");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), 1u);
  const Counter* by_kind =
      registry.find_counter(labeled("fairness.alerts", {{"kind", "jain"}}));
  ASSERT_NE(by_kind, nullptr);
  EXPECT_EQ(by_kind->value(), 1u);
}

TEST(ObsAudit, RejectsMalformedInputs) {
  MetricsRegistry registry;
  EXPECT_THROW(FairnessAuditor(quiet_config(), {}, {}, &registry),
               PreconditionError);
  EXPECT_THROW(FairnessAuditor(quiet_config(), {"a"}, {0.0}, &registry),
               PreconditionError);
  EXPECT_THROW(FairnessAuditor(quiet_config(), {"a", "b"}, {1.0}, &registry),
               PreconditionError);

  FairnessAuditor auditor(quiet_config(), {"a"}, {100.0}, &registry);
  RoundDigest round;
  round.reset(1, 0);
  round.tenant_position = {1.0, 2.0};  // size mismatch vs one tenant
  EXPECT_THROW(auditor.observe_round(round), PreconditionError);
  round.reset(1, 0);
  round.tenant_lambda.clear();  // every per-tenant field is required
  EXPECT_THROW(auditor.observe_round(round), PreconditionError);
}

TEST(ObsAudit, ToStringCoversEveryKind) {
  EXPECT_STREQ(to_string(AlertKind::kJain), "jain");
  EXPECT_STREQ(to_string(AlertKind::kBetaDrift), "beta_drift");
  EXPECT_STREQ(to_string(AlertKind::kStarvation), "starvation");
  EXPECT_STREQ(to_string(AlertKind::kReciprocity), "reciprocity");
}

}  // namespace
}  // namespace rrf::obs
