// DetectorBank unit tests: flag parsing, the round summary it derives
// from a digest, burn-rate gating (fast AND slow window),
// starvation/drift thresholds on the granted ratio, the CUSUM
// changepoint, the justified-complaint gate, the throughput baseline,
// the ledger rules (beta_drift, reciprocity), the alert book and the
// fairness gauges.  The /alerts document is pinned in ops_test.cpp.
#include "obs/detect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/exposition.hpp"

namespace rrf::obs {
namespace {

/// A two-tenant round: "victim" (index 0) is shaped per-test, "peer"
/// (index 1) is healthy throughout.  Both bought one share, so the
/// digest's shares are the summary's ratios.
RoundDigest make_round(std::size_t window, double granted, double demand,
                       double contributed = 0.0, double gained = 0.0) {
  RoundDigest digest;
  digest.reset(2, 0);
  digest.window = window;
  digest.time = static_cast<double>(window) * 5.0;
  digest.slots = 8;
  digest.phase_seconds = {1e-4, 1e-4, 1e-4, 1e-4};
  digest.tenant_position = {1.0, 1.0};
  digest.tenant_demand = {demand, 1.0};
  digest.tenant_granted = {granted, 1.0};
  digest.tenant_contributed = {contributed, 0.0};
  digest.tenant_gained = {gained, 0.0};
  return digest;
}

/// Small windows so tests need few rounds: armed after 2 rounds, fires
/// once 3 consecutive bad rounds cover the fast window.
DetectConfig quick_config() {
  DetectConfig config;
  config.warmup_rounds = 2;
  config.fast_window = 3;
  config.slow_window = 10;
  return config;
}

/// A bank over make_round's two tenants, each of whom bought one share.
DetectorBank make_bank(DetectConfig config = quick_config()) {
  return DetectorBank(config, {"victim", "peer"}, {1.0, 1.0});
}

bool has_kind(const std::vector<Detection>& detections, DetectorKind kind) {
  return std::any_of(detections.begin(), detections.end(),
                     [kind](const Detection& d) { return d.kind == kind; });
}

/// Shares each tenant of `ledger_bank` bought.
constexpr double kPaid = 100.0;

/// Bank with only the given detector on and no warmup; every tenant
/// bought kPaid shares.
DetectorBank ledger_bank(const char* detector, std::vector<std::string> names,
                         MetricsRegistry* registry = nullptr,
                         std::size_t warmup = 0) {
  DetectConfig config;
  apply_detector_flag(config, detector);
  config.warmup_rounds = warmup;
  config.fast_window = 3;
  config.slow_window = 10;
  const std::vector<double> paid(names.size(), kPaid);
  return DetectorBank(config, std::move(names), paid, registry);
}

/// One round for `ledger_bank`: per-tenant share ratios and raw
/// tenant-funded flows (demand and grant are healthy).
RoundDigest ledger_round(std::size_t window, const std::vector<double>& share,
                         std::vector<double> contributed = {},
                         std::vector<double> gained = {}) {
  RoundDigest digest;
  digest.reset(share.size(), 0);
  digest.window = window;
  for (std::size_t i = 0; i < share.size(); ++i) {
    digest.tenant_position[i] = share[i] * kPaid;
    digest.tenant_demand[i] = kPaid;
    digest.tenant_granted[i] = kPaid;
  }
  if (!contributed.empty()) digest.tenant_contributed = std::move(contributed);
  if (!gained.empty()) digest.tenant_gained = std::move(gained);
  return digest;
}

std::size_t raised(const DetectorBank& bank, DetectorKind kind) {
  std::size_t n = 0;
  for (const Detection& d : bank.raised()) n += d.kind == kind ? 1 : 0;
  return n;
}

double gauge(const MetricsRegistry& registry, const char* family,
             const char* tenant) {
  const Gauge* g = registry.find_gauge(labeled(family, {{"tenant", tenant}}));
  EXPECT_NE(g, nullptr) << family << " " << tenant;
  return g != nullptr ? g->value() : std::nan("");
}

TEST(DetectFlag, AllNoneAndListsSelectDetectors) {
  DetectConfig config;
  apply_detector_flag(config, "none");
  for (bool enabled : config.enabled) EXPECT_FALSE(enabled);
  apply_detector_flag(config, "all");
  for (bool enabled : config.enabled) EXPECT_TRUE(enabled);
  apply_detector_flag(config, "starvation,complaint");
  EXPECT_TRUE(config.enabled[static_cast<std::size_t>(
      DetectorKind::kStarvation)]);
  EXPECT_TRUE(
      config.enabled[static_cast<std::size_t>(DetectorKind::kComplaint)]);
  EXPECT_FALSE(config.enabled[static_cast<std::size_t>(DetectorKind::kJain)]);
  EXPECT_FALSE(config.enabled[static_cast<std::size_t>(DetectorKind::kDrift)]);
}

TEST(DetectFlag, UnknownNameThrows) {
  DetectConfig config;
  EXPECT_THROW(apply_detector_flag(config, "starvation,bogus"), DomainError);
}

TEST(DetectFlag, ListNamingNoDetectorThrows) {
  // ",," would disable every detector while still asking for them; the
  // error names the value.
  DetectConfig config;
  try {
    apply_detector_flag(config, ",,");
    FAIL() << "an empty list was accepted";
  } catch (const DomainError& e) {
    EXPECT_NE(std::string(e.what()).find("',,'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(apply_detector_flag(config, ""), DomainError);
  // Empty items next to a real name are still skipped.
  apply_detector_flag(config, ",starvation,");
  EXPECT_TRUE(config.enabled[static_cast<std::size_t>(
      DetectorKind::kStarvation)]);
}

TEST(DetectorBank, SummaryDerivesRatiosAndAlertCounts) {
  DetectConfig config = quick_config();
  apply_detector_flag(config, "reciprocity");
  config.warmup_rounds = 0;
  DetectorBank bank(config, {"a", "b"}, {100.0, 200.0});
  RoundDigest digest;
  digest.reset(2, 3);
  digest.window = 7;
  digest.time = 35.0;
  digest.slots = 12;
  digest.phase_seconds = {1e-3, 2e-3, 3e-3, 4e-3};
  digest.tenant_position = {50.0, 300.0};
  digest.tenant_demand = {150.0, 100.0};
  digest.tenant_granted = {25.0, 200.0};
  digest.tenant_contributed = {0.0, 40.0};
  digest.tenant_gained = {40.0, 0.0};
  bank.observe_round(digest);

  const RoundSummary& summary = bank.summary();
  EXPECT_EQ(summary.window, 7u);
  EXPECT_EQ(summary.time, 35.0);
  EXPECT_EQ(summary.slots, 12u);
  EXPECT_EQ(summary.phase_seconds, digest.phase_seconds);
  ASSERT_EQ(summary.tenants.size(), 2u);
  EXPECT_EQ(summary.tenants[0].name, "a");
  EXPECT_EQ(summary.tenants[0].share, 0.5);
  EXPECT_EQ(summary.tenants[0].demand, 1.5);
  EXPECT_EQ(summary.tenants[0].granted, 0.25);
  EXPECT_EQ(summary.tenants[0].gained, 40.0);  // flows stay raw shares
  EXPECT_EQ(summary.tenants[1].share, 1.5);
  EXPECT_EQ(summary.tenants[1].contributed, 40.0);
  EXPECT_EQ(summary.jain, 4.0 / (2.0 * 2.5));  // shares 0.5 and 1.5
  // a took 40 tenant-funded shares (0.4 of S(i)) and funded nothing.
  EXPECT_EQ(summary.active_alerts, 1u);
  EXPECT_EQ(summary.alerts_total, 1u);

  // No share above zero: nobody is treated unequally.
  digest.tenant_position = {0.0, 0.0};
  bank.observe_round(digest);
  EXPECT_EQ(bank.summary().jain, 1.0);
}

TEST(DetectorBank, CleanRoundsProduceNoDetections) {
  DetectorBank bank = make_bank();
  for (std::size_t w = 0; w < 40; ++w) {
    const auto detections = bank.observe_round(make_round(w, 1.0, 1.0));
    EXPECT_TRUE(detections.empty()) << "window " << w;
  }
}

TEST(DetectorBank, StarvationNeedsTheFullFastWindow) {
  DetectorBank bank = make_bank();
  // Warm up healthy, then starve: granted 0.4 of entitlement, demand 1.
  for (std::size_t w = 0; w < 10; ++w) {
    EXPECT_TRUE(bank.observe_round(make_round(w, 1.0, 1.0)).empty());
  }
  EXPECT_FALSE(has_kind(bank.observe_round(make_round(10, 0.4, 1.0)),
                        DetectorKind::kStarvation));
  EXPECT_FALSE(has_kind(bank.observe_round(make_round(11, 0.4, 1.0)),
                        DetectorKind::kStarvation));
  const auto fired = bank.observe_round(make_round(12, 0.4, 1.0));
  ASSERT_TRUE(has_kind(fired, DetectorKind::kStarvation));
  const auto it = std::find_if(
      fired.begin(), fired.end(), [](const Detection& d) {
        return d.kind == DetectorKind::kStarvation;
      });
  EXPECT_EQ(it->tenant, 0);
  EXPECT_EQ(it->tenant_name, "victim");
  EXPECT_DOUBLE_EQ(it->value, 0.4);
  // Drift rides along: the gap 1.0 - 0.4 clears drift_gap_max too.
  EXPECT_TRUE(has_kind(fired, DetectorKind::kDrift));
}

TEST(DetectorBank, LowDemandTenantsAreNotStarved) {
  DetectorBank bank = make_bank();
  // Granted under half, but the tenant only asks for a third: both the
  // starvation demand bar and the demand-capped drift gap stay quiet.
  for (std::size_t w = 0; w < 30; ++w) {
    const auto detections = bank.observe_round(make_round(w, 0.3, 0.33));
    EXPECT_FALSE(has_kind(detections, DetectorKind::kStarvation));
    EXPECT_FALSE(has_kind(detections, DetectorKind::kDrift));
  }
}

TEST(DetectorBank, WarmupSuppressesEarlyDetections) {
  DetectConfig config = quick_config();
  config.warmup_rounds = 20;
  DetectorBank bank = make_bank(config);
  for (std::size_t w = 0; w < 20; ++w) {
    EXPECT_TRUE(bank.observe_round(make_round(w, 0.1, 1.0)).empty())
        << "window " << w;
  }
  EXPECT_FALSE(bank.observe_round(make_round(20, 0.1, 1.0)).empty());
}

TEST(DetectorBank, ChangepointChargesAStepBeforeTheBaselineAbsorbsIt) {
  DetectConfig config = quick_config();
  // Isolate the CUSUM from the burn-rate detectors.
  apply_detector_flag(config, "changepoint");
  DetectorBank bank = make_bank(config);
  for (std::size_t w = 0; w < 20; ++w) {
    EXPECT_TRUE(bank.observe_round(make_round(w, 1.0, 1.0)).empty());
  }
  // Gap steps from 0 to 0.6; slack 0.05 and threshold 1.0 mean the
  // cumulative excursion crosses within a few rounds, before the
  // EWMA baseline has chased the step.
  std::size_t fired_at = 0;
  for (std::size_t w = 20; w < 30 && fired_at == 0; ++w) {
    if (has_kind(bank.observe_round(make_round(w, 0.4, 1.0)),
                 DetectorKind::kChangepoint)) {
      fired_at = w;
    }
  }
  ASSERT_GT(fired_at, 0u);
  EXPECT_LE(fired_at, 24u);
}

TEST(DetectorBank, ComplaintRequiresANetContributor) {
  DetectConfig config = quick_config();
  apply_detector_flag(config, "complaint");
  // Two banks see the same persistent deficit; only the tenant whose
  // cumulative contributed exceeds gained may complain.
  DetectorBank contributor = make_bank(config);
  DetectorBank free_rider = make_bank(config);
  bool contributor_fired = false;
  bool free_rider_fired = false;
  for (std::size_t w = 0; w < 40; ++w) {
    contributor_fired |=
        has_kind(contributor.observe_round(make_round(w, 0.5, 1.0, 10.0, 0.0)),
                 DetectorKind::kComplaint);
    free_rider_fired |=
        has_kind(free_rider.observe_round(make_round(w, 0.5, 1.0, 0.0, 10.0)),
                 DetectorKind::kComplaint);
  }
  EXPECT_TRUE(contributor_fired);
  EXPECT_FALSE(free_rider_fired);
}

TEST(DetectorBank, JainBurnRateFiresOnSustainedImbalance) {
  DetectConfig config = quick_config();
  apply_detector_flag(config, "jain");
  DetectorBank bank = make_bank(config);
  bool fired = false;
  for (std::size_t w = 0; w < 20; ++w) {
    RoundDigest digest = make_round(w, 1.0, 1.0);
    digest.tenant_position = {1.0, 0.0};  // Jain 0.5
    fired |= has_kind(bank.observe_round(digest), DetectorKind::kJain);
  }
  EXPECT_TRUE(fired);
}

TEST(DetectorBank, ThroughputComparesAgainstTheEwmaBaseline) {
  DetectConfig config = quick_config();
  apply_detector_flag(config, "throughput");
  // Pin the baseline: the default alpha chases a sustained spike fast
  // enough that rounds stop classifying as bad before the slow-window
  // burn fraction is reached in this short test.
  config.baseline_alpha = 0.01;
  DetectorBank bank = make_bank(config);
  for (std::size_t w = 0; w < 20; ++w) {
    EXPECT_TRUE(bank.observe_round(make_round(w, 1.0, 1.0)).empty());
  }
  // Rounds suddenly cost 100x the baseline wall time.
  bool fired = false;
  for (std::size_t w = 20; w < 30; ++w) {
    RoundDigest digest = make_round(w, 1.0, 1.0);
    digest.phase_seconds = {1e-2, 1e-2, 1e-2, 1e-2};
    fired |= has_kind(bank.observe_round(digest), DetectorKind::kThroughput);
  }
  EXPECT_TRUE(fired);
}

TEST(DetectorBank, TenantPopulationChangeIsRejected) {
  DetectorBank bank = make_bank();
  bank.observe_round(make_round(0, 1.0, 1.0));
  RoundDigest shrunk = make_round(1, 1.0, 1.0);
  shrunk.tenant_position.pop_back();
  EXPECT_THROW(bank.observe_round(shrunk), PreconditionError);
}

TEST(DetectorBank, StateJsonCarriesEstimatorState) {
  DetectorBank bank = make_bank();
  // Healthy rounds first so the gap baseline initializes at zero; the
  // step to a 0.5 gap then drives both the EWMA and the CUSUM positive
  // (a bank fed a constant gap from round one inits mu AT the gap and
  // never accumulates).
  for (std::size_t w = 0; w < 4; ++w) {
    bank.observe_round(make_round(w, 1.0, 1.0));
  }
  for (std::size_t w = 4; w < 8; ++w) {
    bank.observe_round(make_round(w, 0.5, 1.0));
  }
  const json::Value state = bank.state_json();
  EXPECT_DOUBLE_EQ(state.find("rounds")->as_number(), 8.0);
  const json::Value& tenants = *state.find("tenants");
  ASSERT_EQ(tenants.as_array().size(), 2u);
  const json::Value& victim = tenants.as_array()[0];
  EXPECT_EQ(victim.find("tenant")->as_string(), "victim");
  EXPECT_GT(victim.find("gap_ewma")->as_number(), 0.0);
  EXPECT_GT(victim.find("cusum")->as_number(), 0.0);
}

// ---- The ledger rules, the alert book and the fairness gauges ----

TEST(ObsAudit, BetaAccumulatesAcrossRounds) {
  MetricsRegistry registry;
  DetectorBank bank(DetectConfig{}, {"a", "b"}, {100.0, 200.0}, &registry);
  RoundDigest digest;
  digest.reset(2, 0);
  digest.tenant_position = {100.0, 100.0};
  bank.observe_round(digest);
  digest.window = 1;
  digest.tenant_position = {100.0, 300.0};
  bank.observe_round(digest);

  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.tenant_beta", "a"), 1.0);
  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.tenant_beta", "b"),
                   1.0);  // (0.5 + 1.5) / 2
  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.beta_drift", "b"), 0.0);
  EXPECT_DOUBLE_EQ(registry.find_gauge("fairness.jain_index")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.find_gauge("fairness.audit_windows")->value(),
                   2.0);
}

TEST(ObsAudit, GaugesCarryTheBetaTheDetectorCompares) {
  // The gauges are the detector's own ledger: tenant_beta is the mean of
  // the share ratios and beta_drift is |β − 1|, the value beta_drift
  // compares, bit for bit, every round.
  MetricsRegistry registry;
  DetectConfig config;
  apply_detector_flag(config, "beta_drift");
  config.warmup_rounds = 0;
  config.beta_drift_max = 0.0;  // any drift fires, so every round reports
  const std::vector<double> paid = {73.0, 131.0, 17.0};
  DetectorBank bank(config, {"a", "b", "c"}, paid, &registry);
  std::vector<double> share_total(paid.size(), 0.0);
  for (std::size_t w = 0; w < 40; ++w) {
    RoundDigest digest;
    digest.reset(paid.size(), 0);
    digest.window = w;
    for (std::size_t i = 0; i < paid.size(); ++i) {
      digest.tenant_position[i] =
          paid[i] * (0.7 + 0.1 * static_cast<double>((w * 7 + i * 3) % 11));
      share_total[i] += digest.tenant_position[i] / paid[i];
    }
    const std::vector<Detection>& detections = bank.observe_round(digest);
    for (const Detection& d : detections) {
      ASSERT_EQ(d.kind, DetectorKind::kBetaDrift);
      const std::size_t i = static_cast<std::size_t>(d.tenant);
      const char* name = d.tenant_name.c_str();
      const double beta = share_total[i] / static_cast<double>(w + 1);
      EXPECT_EQ(gauge(registry, "fairness.tenant_beta", name), beta);
      EXPECT_EQ(gauge(registry, "fairness.beta_drift", name), d.value);
      EXPECT_EQ(std::abs(beta - 1.0), d.value);
    }
    EXPECT_FALSE(detections.empty()) << "window " << w;
  }
}

TEST(ObsAudit, WarmupSuppressesAlertsButPublishesGauges) {
  MetricsRegistry registry;
  DetectorBank bank = ledger_bank("beta_drift", {"a", "b"}, &registry,
                                  /*warmup=*/3);

  // Grossly unfair rounds, but inside the warmup window: no alerts.
  for (std::size_t w = 0; w < 3; ++w) {
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
  DetectorBank bank(config, {"a"}, {kPaid});

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
  // flip the roles with history — giver now takes, but its cumulative
  // contribution is far above the floor, so no alert for it.
  bank.observe_round(ledger_round(1, {1.2, 0.8}, /*contributed=*/{0.0, 0.0},
                                  /*gained=*/{20.0, 0.0}));
  EXPECT_EQ(raised(bank, DetectorKind::kReciprocity), 1u);
}

TEST(ObsAudit, PublishesGaugesAndNodePressure) {
  MetricsRegistry registry;
  DetectorBank bank(DetectConfig{}, {"a", "b"}, {100.0, 100.0}, &registry);
  RoundDigest round;
  round.reset(2, 0);
  round.tenant_position = {50.0, 150.0};
  round.tenant_demand = {100.0, 100.0};
  round.tenant_contributed = {10.0, 0.0};
  round.tenant_gained = {0.0, 10.0};
  round.tenant_lambda = {0.25, 0.75};
  round.node_pressure = {0.9, 0.4};
  bank.observe_round(round);

  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.tenant_beta", "a"), 0.5);
  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.beta_drift", "a"), 0.5);
  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.reciprocity_balance", "a"),
                   -0.1);  // (0 gained − 10 contributed) / (1 × 100)
  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.reciprocity_balance", "b"), 0.1);
  EXPECT_DOUBLE_EQ(gauge(registry, "fairness.contribution_lambda", "b"),
                   0.75);
  const Gauge* spread = registry.find_gauge("fairness.dominant_share_spread");
  ASSERT_NE(spread, nullptr);
  EXPECT_DOUBLE_EQ(spread->value(), 1.0);  // 1.5 - 0.5
  EXPECT_DOUBLE_EQ(registry.find_gauge("fairness.audit_windows")->value(),
                   1.0);
  const Gauge* node1 =
      registry.find_gauge(labeled("fairness.node_pressure", {{"node", "1"}}));
  ASSERT_NE(node1, nullptr);
  EXPECT_DOUBLE_EQ(node1->value(), 0.4);
  const Gauge* node_spread =
      registry.find_gauge("fairness.node_pressure_spread");
  ASSERT_NE(node_spread, nullptr);
  EXPECT_NEAR(node_spread->value(), 0.5, 1e-12);
  const Histogram* drift = registry.find_histogram("fairness.beta_drift_dist");
  ASSERT_NE(drift, nullptr);
  EXPECT_EQ(drift->count(), 2u);  // one |β − 1| per tenant per round
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
  EXPECT_THROW(DetectorBank(DetectConfig{}, {}, {}), PreconditionError);
  EXPECT_THROW(DetectorBank(DetectConfig{}, {"a"}, {0.0}), PreconditionError);
  EXPECT_THROW(DetectorBank(DetectConfig{}, {"a", "b"}, {1.0}),
               PreconditionError);

  DetectorBank bank(DetectConfig{}, {"a"}, {100.0});
  RoundDigest round;
  round.reset(1, 0);
  round.tenant_position = {1.0, 2.0};  // size mismatch vs one tenant
  EXPECT_THROW(bank.observe_round(round), PreconditionError);
  round.reset(1, 0);
  round.tenant_lambda.clear();  // every per-tenant field it reads is required
  EXPECT_THROW(bank.observe_round(round), PreconditionError);
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
