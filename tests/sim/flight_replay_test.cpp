// End-to-end flight-recorder tests: record a simulation, reload the
// recording, replay it through the engine and demand bit-identical
// allocations — plus the guard that attaching a recorder does not perturb
// the allocations themselves.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/flightrec.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"

namespace {

using namespace rrf;

sim::Scenario pinned_cell(std::size_t nodes, std::size_t vms,
                          std::size_t tenants) {
  sim::SyntheticConfig syn;
  syn.nodes = nodes;
  syn.vms_per_node = vms;
  syn.tenants = tenants;
  syn.seed = 42;
  return sim::make_synthetic_scenario(syn);
}

std::string record_text(const sim::Scenario& scenario,
                        sim::EngineConfig config) {
  std::ostringstream out;
  obs::FlightRecorder recorder(out);
  recorder.write_header(sim::make_flight_header(scenario, config));
  config.flight = &recorder;
  sim::run_simulation(scenario, config);
  recorder.finish();
  return out.str();
}

obs::FlightRecording record_run(const sim::Scenario& scenario,
                                const sim::EngineConfig& config) {
  std::istringstream in(record_text(scenario, config));
  return obs::FlightRecording::load(in);
}

TEST(FlightReplay, PinnedRrfCellReplaysBitIdentically) {
  // The pinned RRF cell shape (32 nodes x 16 VMs x 16 tenants), shortened
  // to five rounds to keep the test quick.
  const sim::Scenario scenario = pinned_cell(32, 16, 16);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 25.0;

  const obs::FlightRecording recording = record_run(scenario, config);
  ASSERT_EQ(recording.rounds.size(), 5u);

  const sim::ReplayResult replay = sim::replay_recording(recording);
  EXPECT_EQ(replay.rounds_replayed, 5u);
  EXPECT_TRUE(replay.diff.identical)
      << replay.diff.first_divergence
      << (replay.diff.notes.empty() ? "" : " / " + replay.diff.notes[0]);
}

TEST(FlightReplay, EveryPolicyReplaysBitIdentically) {
  const sim::Scenario scenario = pinned_cell(2, 6, 3);
  for (const alloc::Policy& policy : alloc::policies()) {
    sim::EngineConfig config;
    config.policy = policy.kind;
    config.window = 5.0;
    config.duration = 20.0;

    const obs::FlightRecording recording = record_run(scenario, config);
    const sim::ReplayResult replay = sim::replay_recording(recording);
    EXPECT_TRUE(replay.diff.identical)
        << policy.name << ": " << replay.diff.first_divergence;
  }
}

TEST(FlightReplay, ActuatorTargetsAndMigrationsSurviveTheRoundTrip) {
  const sim::Scenario scenario = pinned_cell(3, 6, 4);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 40.0;
  config.use_actuators = true;
  config.rebalance.enabled = true;
  config.rebalance.every_windows = 2;

  const obs::FlightRecording recording = record_run(scenario, config);
  bool saw_actuator = false;
  for (const obs::FlightRound& round : recording.rounds) {
    for (const obs::FlightNode& node : round.nodes) {
      for (const obs::FlightSlot& slot : node.slots) {
        if (slot.credit_weight >= 0.0) {
          saw_actuator = true;
          EXPECT_GE(slot.credit_cap, 0.0);
          EXPECT_GE(slot.mem_target, 0.0);
        }
      }
    }
  }
  EXPECT_TRUE(saw_actuator);

  const sim::ReplayResult replay = sim::replay_recording(recording);
  EXPECT_TRUE(replay.diff.identical) << replay.diff.first_divergence;
}

TEST(FlightReplay, RecorderAttachmentDoesNotPerturbAllocations) {
  // The golden guard for the hot path: running with a recorder attached
  // must produce bit-identical ledger positions to running without one.
  const sim::Scenario scenario = pinned_cell(3, 5, 4);
  auto positions = [&](bool attach) {
    sim::EngineConfig config;
    config.policy = sim::PolicyKind::kRrf;
    config.window = 5.0;
    config.duration = 30.0;
    config.parallel_nodes = false;  // deterministic aggregation order
    std::vector<double> out;
    config.observer = [&](const sim::WindowSnapshot& snapshot) {
      out.insert(out.end(), snapshot.tenant_position.begin(),
                 snapshot.tenant_position.end());
    };
    std::ostringstream sink;
    obs::FlightRecorder recorder(sink);
    if (attach) {
      recorder.write_header(sim::make_flight_header(scenario, config));
      config.flight = &recorder;
    }
    sim::run_simulation(scenario, config);
    return out;
  };

  const std::vector<double> detached = positions(false);
  const std::vector<double> attached = positions(true);
  ASSERT_EQ(detached.size(), attached.size());
  ASSERT_FALSE(detached.empty());
  for (std::size_t i = 0; i < detached.size(); ++i) {
    EXPECT_EQ(detached[i], attached[i]) << "position #" << i;
  }
}

TEST(FlightReplay, TruncatedRecordingsAreRefused) {
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 20.0;

  obs::FlightRecording recording = record_run(scenario, config);
  ASSERT_GE(recording.rounds.size(), 3u);
  // A missing middle round (recordings that report dropped rounds still
  // load) breaks contiguity.
  recording.rounds.erase(recording.rounds.begin() + 1);
  recording.trailer.reset();
  EXPECT_THROW(sim::replay_recording(recording), DomainError);
}

TEST(FlightReplay, KilledRecordingReplaysItsCompleteRounds) {
  // A SIGKILL during a write leaves no trailer and the last round line
  // cut in half: the complete rounds load, and replay bit-exact.
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 20.0;
  std::string text = record_text(scenario, config);
  text.erase(text.rfind('\n', text.size() - 2) + 1);  // the trailer
  const std::size_t last_round = text.rfind('\n', text.size() - 2) + 1;
  text.resize(last_round + (text.size() - last_round) / 2);

  std::istringstream in(text);
  const obs::FlightRecording recording = obs::FlightRecording::load(in);
  EXPECT_TRUE(recording.truncated_tail);
  EXPECT_FALSE(recording.trailer.has_value());
  ASSERT_EQ(recording.rounds.size(), 3u);
  const sim::ReplayResult replay = sim::replay_recording(recording);
  EXPECT_EQ(replay.rounds_replayed, 3u);
  EXPECT_TRUE(replay.diff.identical) << replay.diff.first_divergence;
}

/// `engine` with `section`.`key` set to `value`.
json::Value with_engine_field(const json::Value& engine,
                              const std::string& section, const char* key,
                              double value) {
  json::Object out = engine.as_object();
  for (auto& [name, sub] : out) {
    if (name != section) continue;
    json::Object inner = sub.as_object();
    for (auto& [k, v] : inner) {
      if (k == key) v = value;
    }
    sub = json::Value(std::move(inner));
  }
  return out;
}

TEST(FlightReplay, OutOfRangeEngineCountsAreRefused) {
  // A count that is negative, fractional or past 2^53 cannot be cast to
  // size_t; the engine section must reject it instead.
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  obs::FlightRecording recording;
  recording.header = sim::make_flight_header(scenario, sim::EngineConfig{});
  const json::Value engine = recording.header.engine;
  ASSERT_NO_THROW(sim::engine_config_from_recording(recording));
  const struct {
    const char* section;
    const char* key;
    double value;
  } bad[] = {
      {"predictor", "history", -1.0},
      {"predictor", "history", 2.5},
      {"rebalance", "every_windows", 1e300},
  };
  for (const auto& b : bad) {
    recording.header.engine =
        with_engine_field(engine, b.section, b.key, b.value);
    EXPECT_THROW(sim::engine_config_from_recording(recording), DomainError)
        << b.section << "." << b.key << " = " << b.value;
  }
}

TEST(FlightReplay, ExplainRendersTheSimDecisionChain) {
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 20.0;

  const obs::FlightRecording recording = record_run(scenario, config);
  obs::ExplainQuery query;
  query.round = 1;
  query.tenant = recording.header.tenants[0].name;
  const std::string text = obs::explain_decision(recording, query);
  EXPECT_NE(text.find("round 1"), std::string::npos);
  EXPECT_NE(text.find(recording.header.tenants[0].name), std::string::npos);
  EXPECT_NE(text.find("demand"), std::string::npos);
  EXPECT_NE(text.find("[final entitlement]"), std::string::npos);

  obs::ExplainQuery missing;
  missing.round = 9999;
  missing.tenant = query.tenant;
  EXPECT_THROW(obs::explain_decision(recording, missing), DomainError);
  obs::ExplainQuery unknown;
  unknown.round = 0;
  unknown.tenant = "no-such-tenant";
  EXPECT_THROW(obs::explain_decision(recording, unknown), DomainError);
}

}  // namespace
