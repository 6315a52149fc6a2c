// DetectorBank unit tests: flag parsing, burn-rate gating (fast AND
// slow window), starvation/drift thresholds on the granted ratio, the
// CUSUM changepoint, the justified-complaint gate and the throughput
// baseline.  The ledger rules and the alert book are pinned in
// audit_test.cpp, the /alerts document in ops_test.cpp.
#include "obs/detect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rrf::obs {
namespace {

/// A two-tenant round: "victim" (index 0) is shaped per-test, "peer"
/// (index 1) is healthy throughout.
RoundSummary make_round(std::size_t window, double granted, double demand,
                        double contributed = 0.0, double gained = 0.0) {
  RoundSummary summary;
  summary.window = window;
  summary.time = static_cast<double>(window) * 5.0;
  summary.jain = 1.0;
  summary.slots = 8;
  summary.phase_seconds = {1e-4, 1e-4, 1e-4, 1e-4};
  TenantRoundStat victim;
  victim.name = "victim";
  victim.share = 1.0;
  victim.granted = granted;
  victim.demand = demand;
  victim.contributed = contributed;
  victim.gained = gained;
  TenantRoundStat peer;
  peer.name = "peer";
  peer.share = 1.0;
  peer.granted = 1.0;
  peer.demand = 1.0;
  summary.tenants = {victim, peer};
  return summary;
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
    RoundSummary summary = make_round(w, 1.0, 1.0);
    summary.jain = 0.5;
    fired |= has_kind(bank.observe_round(summary), DetectorKind::kJain);
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
    RoundSummary summary = make_round(w, 1.0, 1.0);
    summary.phase_seconds = {1e-2, 1e-2, 1e-2, 1e-2};
    fired |=
        has_kind(bank.observe_round(summary), DetectorKind::kThroughput);
  }
  EXPECT_TRUE(fired);
}

TEST(DetectorBank, TenantPopulationChangeIsRejected) {
  DetectorBank bank = make_bank();
  bank.observe_round(make_round(0, 1.0, 1.0));
  RoundSummary shrunk = make_round(1, 1.0, 1.0);
  shrunk.tenants.pop_back();
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

}  // namespace
}  // namespace rrf::obs
