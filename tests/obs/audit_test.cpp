// The fairness audit: the FairnessAuditor's gauges, and the ledger rules
// (beta_drift, reciprocity) and alert book of the DetectorBank that
// raises the audit's alerts.
#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/detect.hpp"
#include "obs/exposition.hpp"

namespace rrf::obs {
namespace {

/// Feeds the auditor one round where the tenants hold `position` shares.
void feed(FairnessAuditor& auditor, std::size_t window,
          std::vector<double> position) {
  RoundDigest round;
  round.reset(position.size(), 0);  // flows and lambda default to zero
  round.window = window;
  round.tenant_position = std::move(position);
  auditor.observe_round(round);
}

/// Bank with only the given detector on and no warmup; every tenant
/// bought 100 shares.
DetectorBank ledger_bank(const char* detector, std::vector<std::string> names,
                         MetricsRegistry* registry = nullptr,
                         std::size_t warmup = 0) {
  DetectConfig config;
  apply_detector_flag(config, detector);
  config.warmup_rounds = warmup;
  config.fast_window = 3;
  config.slow_window = 10;
  const std::vector<double> paid(names.size(), 100.0);
  return DetectorBank(config, std::move(names), paid, registry);
}

/// One round for `ledger_bank`: per-tenant share ratios and raw
/// tenant-funded flows (demand and grant are healthy).
RoundSummary ledger_round(std::size_t window, std::vector<double> share,
                          std::vector<double> contributed = {},
                          std::vector<double> gained = {}) {
  RoundSummary summary;
  summary.window = window;
  for (std::size_t i = 0; i < share.size(); ++i) {
    TenantRoundStat t;
    t.name = "t" + std::to_string(i);
    t.share = share[i];
    t.demand = 1.0;
    t.granted = 1.0;
    if (!contributed.empty()) t.contributed = contributed[i];
    if (!gained.empty()) t.gained = gained[i];
    summary.tenants.push_back(t);
  }
  return summary;
}

std::size_t raised(const DetectorBank& bank, DetectorKind kind) {
  std::size_t n = 0;
  for (const Detection& d : bank.raised()) n += d.kind == kind ? 1 : 0;
  return n;
}

TEST(ObsAudit, BetaAccumulatesAcrossRounds) {
  MetricsRegistry registry;
  FairnessAuditor auditor({"a", "b"}, {100.0, 200.0}, &registry);
  EXPECT_DOUBLE_EQ(auditor.jain(), 1.0);  // vacuously fair before data

  feed(auditor, 0, {100.0, 100.0});
  feed(auditor, 1, {100.0, 300.0});
  const std::vector<double> betas = auditor.tenant_beta();
  ASSERT_EQ(betas.size(), 2u);
  EXPECT_DOUBLE_EQ(betas[0], 1.0);            // 200 / (2 * 100)
  EXPECT_DOUBLE_EQ(betas[1], 1.0);            // 400 / (2 * 200)
  EXPECT_DOUBLE_EQ(auditor.jain(), 1.0);
  EXPECT_EQ(auditor.windows(), 2u);
}

TEST(ObsAudit, WarmupSuppressesAlertsButPublishesGauges) {
  MetricsRegistry registry;
  FairnessAuditor auditor({"a", "b"}, {100.0, 100.0}, &registry);
  DetectorBank bank = ledger_bank("beta_drift", {"a", "b"}, &registry,
                                  /*warmup=*/3);

  // Grossly unfair rounds, but inside the warmup window: no alerts.
  for (std::size_t w = 0; w < 3; ++w) {
    feed(auditor, w, {10.0, 190.0});
    bank.observe_round(ledger_round(w, {0.1, 1.9}));
  }
  EXPECT_TRUE(bank.raised().empty());
  const Gauge* jain = registry.find_gauge("fairness.jain_index");
  ASSERT_NE(jain, nullptr);
  EXPECT_LT(jain->value(), 0.85);  // gauges publish during warmup

  // First post-warmup round arms the rule and raises, once per tenant.
  bank.observe_round(ledger_round(3, {0.1, 1.9}));
  EXPECT_EQ(raised(bank, DetectorKind::kBetaDrift), 2u);
  EXPECT_EQ(bank.raised().back().tenant_name, "b");
}

TEST(ObsAudit, BetaDriftHysteresisRaisesOncePerExcursion) {
  DetectorBank bank = ledger_bank("beta_drift", {"a"});

  // Two over-allocated rounds: beta = 2.0, drift 1.0 > 0.3 → one raise.
  bank.observe_round(ledger_round(0, {2.0}));
  EXPECT_EQ(raised(bank, DetectorKind::kBetaDrift), 1u);
  bank.observe_round(ledger_round(1, {2.0}));
  EXPECT_EQ(raised(bank, DetectorKind::kBetaDrift), 1u);  // still active

  // Walk the cumulative beta back under the threshold: the alert
  // resolves, without raising, once the drift has been absent for a
  // whole slow window.
  std::size_t w = 2;
  std::size_t quiet = 0;
  while (bank.active_alerts() > 0) {
    quiet = bank.observe_round(ledger_round(w++, {1.0})).empty() ? quiet + 1
                                                                  : 0;
    ASSERT_LT(w, 100u);
  }
  EXPECT_EQ(quiet, 10u);  // ledger_bank's slow window
  EXPECT_EQ(raised(bank, DetectorKind::kBetaDrift), 1u);
  ASSERT_EQ(bank.transitions().size(), 2u);
  EXPECT_FALSE(bank.transitions().back().raised);

  // A fresh excursion past the threshold raises a second alert.
  while (raised(bank, DetectorKind::kBetaDrift) < 2 && w < 200) {
    bank.observe_round(ledger_round(w++, {3.0}));
  }
  EXPECT_EQ(raised(bank, DetectorKind::kBetaDrift), 2u);
}

TEST(ObsAudit, WarmupBoundaryArmsOnTheFirstPostWarmupRound) {
  // With warmup_rounds = W, rounds 0..W-1 are suppressed and round W is
  // the first that can raise — off-by-one here silently eats alerts.
  DetectorBank bank = ledger_bank("beta_drift", {"a"}, nullptr,
                                  /*warmup=*/2);
  bank.observe_round(ledger_round(0, {1.9}));
  bank.observe_round(ledger_round(1, {1.9}));
  EXPECT_TRUE(bank.raised().empty());
  EXPECT_EQ(bank.active_alerts(), 0u);

  bank.observe_round(ledger_round(2, {1.9}));
  ASSERT_EQ(raised(bank, DetectorKind::kBetaDrift), 1u);
  EXPECT_EQ(bank.raised().back().window, 2u);
}

TEST(ObsAudit, BetaDriftExactlyAtThresholdDoesNotRaise) {
  // The comparison is strict: drift == beta_drift_max is still
  // compliant, only crossing beyond it raises.  β is the mean of the
  // share ratios; the values are exactly representable in binary.
  DetectConfig config;
  apply_detector_flag(config, "beta_drift");
  config.warmup_rounds = 0;
  config.beta_drift_max = 0.25;
  DetectorBank bank(config, {"a"}, {100.0});

  bank.observe_round(ledger_round(0, {1.25}));  // beta 1.25, drift 0.25
  EXPECT_TRUE(bank.raised().empty());
  EXPECT_EQ(bank.active_alerts(), 0u);

  // Cumulative beta (1.25 + 1.35) / 2 = 1.3 → drift ≈ 0.3 > 0.25.
  bank.observe_round(ledger_round(1, {1.35}));
  ASSERT_EQ(raised(bank, DetectorKind::kBetaDrift), 1u);
  EXPECT_EQ(bank.raised().back().window, 1u);
  EXPECT_NEAR(bank.raised().back().value, 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(bank.raised().back().threshold, 0.25);
}

TEST(ObsAudit, ReciprocityFlagsFreeRidersNotContributors) {
  DetectorBank bank = ledger_bank("reciprocity", {"giver", "taker"});

  // giver funds 20 shares/round and takes nothing back; taker consumes 20
  // tenant-funded shares/round (0.2 of its 100 bought) while contributing
  // nothing.
  bank.observe_round(ledger_round(0, {0.8, 1.2}, /*contributed=*/{20.0, 0.0},
                                  /*gained=*/{0.0, 20.0}));
  ASSERT_EQ(raised(bank, DetectorKind::kReciprocity), 1u);
  EXPECT_EQ(bank.raised().back().tenant, 1);
  EXPECT_EQ(bank.raised().back().tenant_name, "taker");
  EXPECT_DOUBLE_EQ(bank.raised().back().value, 0.2);

  // A tenant who gains the same amount but also contributes is reciprocal:
  // flip the roles with history — giver now takes, but her cumulative
  // contribution is far above the floor, so no alert for her.
  bank.observe_round(ledger_round(1, {1.2, 0.8}, /*contributed=*/{0.0, 0.0},
                                  /*gained=*/{20.0, 0.0}));
  EXPECT_EQ(raised(bank, DetectorKind::kReciprocity), 1u);
}

TEST(ObsAudit, PublishesGaugesAndNodePressure) {
  MetricsRegistry registry;
  FairnessAuditor auditor({"a", "b"}, {100.0, 100.0}, &registry);
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
  DetectorBank bank = ledger_bank("beta_drift", {"a", "b"}, &registry);
  // The alert counter families are visible (at zero) from construction, so
  // a scrape before the first incident still exports them.
  for (std::size_t k = 0; k < kDetectorKindCount; ++k) {
    const Counter* pre = registry.find_counter(labeled(
        "fairness.alerts",
        {{"kind", to_string(static_cast<DetectorKind>(k))}}));
    ASSERT_NE(pre, nullptr) << k;
    EXPECT_EQ(pre->value(), 0u);
  }
  bank.observe_round(ledger_round(0, {0.1, 1.0}));
  const Counter* total = registry.find_counter("fairness.alerts");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value(), 1u);
  const Counter* by_kind = registry.find_counter(
      labeled("fairness.alerts", {{"kind", "beta_drift"}}));
  ASSERT_NE(by_kind, nullptr);
  EXPECT_EQ(by_kind->value(), 1u);
  const Gauge* active = registry.find_gauge("fairness.alerts_active");
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value(), 1.0);
  // An alert that stays active is not counted again.
  bank.observe_round(ledger_round(1, {0.1, 1.0}));
  EXPECT_EQ(total->value(), 1u);
}

TEST(ObsAudit, RejectsMalformedInputs) {
  MetricsRegistry registry;
  EXPECT_THROW(FairnessAuditor({}, {}, &registry), PreconditionError);
  EXPECT_THROW(FairnessAuditor({"a"}, {0.0}, &registry), PreconditionError);
  EXPECT_THROW(FairnessAuditor({"a", "b"}, {1.0}, &registry),
               PreconditionError);

  FairnessAuditor auditor({"a"}, {100.0}, &registry);
  RoundDigest round;
  round.reset(1, 0);
  round.tenant_position = {1.0, 2.0};  // size mismatch vs one tenant
  EXPECT_THROW(auditor.observe_round(round), PreconditionError);
  round.reset(1, 0);
  round.tenant_lambda.clear();  // every per-tenant field it reads is required
  EXPECT_THROW(auditor.observe_round(round), PreconditionError);

  // The bank checks its tenant table the same way.
  EXPECT_THROW(DetectorBank(DetectConfig{}, {"a", "b"}, {1.0}),
               PreconditionError);
  EXPECT_THROW(DetectorBank(DetectConfig{}, {"a"}, {0.0}), PreconditionError);
}

TEST(ObsAudit, ToStringCoversEveryKind) {
  const std::vector<std::string> names = {
      "jain",        "drift",     "starvation", "throughput",
      "changepoint", "complaint", "beta_drift", "reciprocity"};
  ASSERT_EQ(names.size(), kDetectorKindCount);
  for (std::size_t k = 0; k < kDetectorKindCount; ++k) {
    EXPECT_EQ(to_string(static_cast<DetectorKind>(k)), names[k]);
    // Every wire name is also a valid --detectors selection.
    DetectConfig config;
    apply_detector_flag(config, names[k]);
    EXPECT_TRUE(config.enabled[k]) << names[k];
  }
}

}  // namespace
}  // namespace rrf::obs
