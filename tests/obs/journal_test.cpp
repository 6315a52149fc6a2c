// Durable telemetry journal: write/load round-trips, two-segment
// rotation, SIGKILL forensics (truncated tail, missing end record) and
// schema-violation rejection.
#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/detect.hpp"
#include "obs/incident.hpp"

namespace rrf::obs {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  return path;
}

TelemetryJournal::Options options_for(const std::string& path,
                                      std::size_t max_bytes = 0) {
  TelemetryJournal::Options options;
  options.path = path;
  options.max_bytes = max_bytes;
  options.policy = "rrf";
  options.tenants = {"tpcc-1", "hadoop-2"};
  return options;
}

RoundSummary round_at(std::size_t window) {
  RoundSummary summary;
  summary.window = window;
  summary.time = static_cast<double>(window) * 5.0;
  summary.jain = 0.9 + 0.001 * static_cast<double>(window % 50);
  summary.slots = 8;
  TenantRoundStat stat;
  stat.name = "tpcc-1";
  stat.share = 1.1;
  stat.demand = 1.5;
  summary.tenants.push_back(stat);
  return summary;
}

JournalAlert alert_at(std::size_t window, bool raised) {
  JournalAlert alert;
  alert.kind = "starvation";
  alert.raised = raised;
  alert.tenant = 1;
  alert.tenant_name = "hadoop-2";
  alert.window = window;
  alert.value = 0.4;
  alert.threshold = 0.5;
  return alert;
}

AlertTransition transition_at(std::size_t window, bool raised) {
  AlertTransition transition;
  transition.kind = DetectorKind::kStarvation;
  transition.tenant = 1;
  transition.window = window;
  transition.raised = raised;
  transition.value = 0.4;
  transition.threshold = 0.5;
  return transition;
}

TEST(JournalTest, WriteLoadRoundTrip) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    TelemetryJournal journal(options_for(path));
    journal.record_round(round_at(0));
    journal.record_alert(transition_at(1, true), "hadoop-2");
    journal.record_round(round_at(1));
    journal.record_alert(transition_at(5, false), "hadoop-2");
    journal.finish();
    EXPECT_EQ(journal.rounds_recorded(), 2u);
    EXPECT_EQ(journal.alerts_recorded(), 2u);
    EXPECT_GT(journal.bytes_written(), 0u);
  }
  const JournalData data = JournalData::load_file(path);
  EXPECT_EQ(data.header.version, kJournalSchemaVersion);
  EXPECT_EQ(data.header.kind, "sim");
  EXPECT_EQ(data.header.policy, "rrf");
  ASSERT_EQ(data.header.tenants.size(), 2u);
  EXPECT_EQ(data.header.tenants[1], "hadoop-2");
  EXPECT_FALSE(data.header.continued);
  ASSERT_EQ(data.rounds.size(), 2u);
  EXPECT_EQ(data.rounds[0].window, 0u);
  EXPECT_EQ(data.rounds[1].window, 1u);
  ASSERT_EQ(data.alerts.size(), 2u);
  EXPECT_TRUE(data.alerts[0].raised);
  EXPECT_FALSE(data.alerts[1].raised);
  EXPECT_EQ(data.alerts[0].tenant_name, "hadoop-2");
  // The journal writes the bank's transition as the loader reads it.
  EXPECT_EQ(data.alerts[0].kind, "starvation");
  EXPECT_EQ(data.alerts[0].tenant, 1);
  EXPECT_EQ(data.alerts[0].window, 1u);
  EXPECT_EQ(data.alerts[0].value, 0.4);
  EXPECT_EQ(data.alerts[0].threshold, 0.5);
  ASSERT_TRUE(data.end.has_value());
  EXPECT_EQ(data.end->rounds, 2u);
  EXPECT_EQ(data.end->alerts, 2u);
  EXPECT_FALSE(data.truncated_tail);
}

TEST(JournalTest, DestructorFinishesForgetfulCallers) {
  const std::string path = temp_path("journal_dtor.jsonl");
  {
    TelemetryJournal journal(options_for(path));
    journal.record_round(round_at(0));
  }
  EXPECT_TRUE(JournalData::load_file(path).end.has_value());
}

TEST(JournalTest, KilledRunLeavesLoadableTrailWithoutEndRecord) {
  const std::string path = temp_path("journal_killed.jsonl");
  {
    TelemetryJournal journal(options_for(path));
    for (std::size_t w = 0; w < 5; ++w) journal.record_round(round_at(w));
    // Simulate SIGKILL: copy the flushed bytes aside before finish()
    // gets a chance to append the end record.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    journal.finish();
    // ...and also cut the final line mid-record, the torn-write signature.
    bytes.resize(bytes.size() - 10);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const JournalData data = JournalData::load_file(path);
  EXPECT_FALSE(data.end.has_value());
  EXPECT_TRUE(data.truncated_tail);
  EXPECT_EQ(data.rounds.size(), 4u);  // the torn 5th line is discarded
}

TEST(JournalTest, RotationKeepsTheRecentHalfAndChainsSegments) {
  const std::string path = temp_path("journal_rotate.jsonl");
  std::size_t rounds_written = 0;
  {
    // ~260 bytes per round record; 4 KiB budget forces several rotations.
    TelemetryJournal journal(options_for(path, 4096));
    for (std::size_t w = 0; w < 64; ++w, ++rounds_written) {
      journal.record_round(round_at(w));
    }
    journal.finish();
    EXPECT_GT(journal.segment(), 0u);
    std::ifstream prev(path + ".1");
    EXPECT_TRUE(prev.good()) << "rotation must leave a <path>.1 segment";
  }
  const JournalData data = JournalData::load_file(path);
  // Both loaded segments merge into one contiguous, recent window range.
  ASSERT_GE(data.rounds.size(), 2u);
  EXPECT_LT(data.rounds.size(), rounds_written);
  for (std::size_t i = 1; i < data.rounds.size(); ++i) {
    EXPECT_EQ(data.rounds[i].window, data.rounds[i - 1].window + 1);
  }
  EXPECT_EQ(data.rounds.back().window, rounds_written - 1);
  EXPECT_TRUE(data.header.continued);
  ASSERT_TRUE(data.end.has_value());
}

TEST(JournalTest, StaleRotationSegmentIsRemovedOnFreshOpen) {
  const std::string path = temp_path("journal_stale.jsonl");
  {
    std::ofstream stale(path + ".1");
    stale << "{\"garbage\":true}\n";
  }
  {
    TelemetryJournal journal(options_for(path));
    journal.record_round(round_at(0));
    journal.finish();
  }
  // The stale .1 from "a previous run" must not merge into this journal.
  std::ifstream prev(path + ".1");
  EXPECT_FALSE(prev.good());
  EXPECT_EQ(JournalData::load_file(path).rounds.size(), 1u);
}

TEST(JournalTest, KillInsideTheRotationWindowStillLoads) {
  // SIGKILL between rename(path -> path.1) and reopening the active
  // segment leaves only the rotated file; the loader must recover it.
  const std::string path = temp_path("journal_rotation_window.jsonl");
  {
    TelemetryJournal journal(options_for(path, 4096));
    for (std::size_t w = 0; w < 64; ++w) journal.record_round(round_at(w));
    journal.finish();
  }
  std::remove((path + ".1").c_str());
  ASSERT_EQ(std::rename(path.c_str(), (path + ".1").c_str()), 0);
  const JournalData data = JournalData::load_file(path);
  EXPECT_GE(data.rounds.size(), 1u);
  ASSERT_EQ(data.notes.size(), 1u);
  EXPECT_NE(data.notes[0].find("killed mid-rotation"), std::string::npos);
}

TEST(JournalTest, FailedRotationThrowsAndKeepsTheActiveSegment) {
  // A non-empty directory at `<path>.1` makes every rename onto it fail.
  const std::string path = temp_path("journal_rotation_blocked.jsonl");
  const std::filesystem::path blocker = path + ".1";
  std::filesystem::remove_all(blocker);
  std::filesystem::create_directories(blocker / "occupied");
  std::size_t written = 0;
  {
    TelemetryJournal journal(options_for(path, 4096));
    try {
      for (std::size_t w = 0; w < 64; ++w, ++written) {
        journal.record_round(round_at(w));
      }
      FAIL() << "rotation onto a directory was not reported";
    } catch (const DomainError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cannot rotate " + path + " to " + path + ".1"),
                std::string::npos)
          << what;
    }
  }
  std::filesystem::remove_all(blocker);
  // Nothing was truncated: the active segment holds every round written.
  const JournalData data = JournalData::load_file(path);
  ASSERT_GT(written, 0u);
  EXPECT_EQ(data.rounds.size(), written);
  EXPECT_EQ(data.rounds.back().window, written - 1);
  EXPECT_FALSE(data.header.continued);
}

TEST(JournalTest, MidFileCorruptionThrows) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  {
    TelemetryJournal journal(options_for(path));
    journal.record_round(round_at(0));
    journal.record_round(round_at(1));
    journal.finish();
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  in.close();
  ASSERT_GE(lines.size(), 4u);
  lines[1] = "{\"t\":\"round\",CORRUPT";  // not the final line -> error
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << "\n";
  out.close();
  EXPECT_THROW(JournalData::load_file(path), DomainError);
}

TEST(JournalTest, SchemaViolationsThrow) {
  const std::string path = temp_path("journal_schema.jsonl");
  // Wrong schema tag.
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"schema":"not-telemetry","version":1,"kind":"sim",)"
        << R"("policy":"rrf","tenants":[],"segment":0,"continued":false})"
        << "\n";
  }
  EXPECT_THROW(JournalData::load_file(path), DomainError);
  // Unsupported version.
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"schema":"rrf-telemetry","version":99,"kind":"sim",)"
        << R"("policy":"rrf","tenants":[],"segment":0,"continued":false})"
        << "\n";
  }
  EXPECT_THROW(JournalData::load_file(path), DomainError);
  // Unknown record tag after a valid header.
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"schema":"rrf-telemetry","version":1,"kind":"sim",)"
        << R"("policy":"rrf","tenants":[],"segment":0,"continued":false})"
        << "\n"
        << R"({"t":"mystery"})" << "\n"
        << R"({"t":"end","rounds":0,"alerts":0})" << "\n";
  }
  EXPECT_THROW(JournalData::load_file(path), DomainError);
  // Records after the end marker.
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"schema":"rrf-telemetry","version":1,"kind":"sim",)"
        << R"("policy":"rrf","tenants":[],"segment":0,"continued":false})"
        << "\n"
        << R"({"t":"end","rounds":0,"alerts":0})" << "\n"
        << R"({"t":"end","rounds":0,"alerts":0})" << "\n";
  }
  EXPECT_THROW(JournalData::load_file(path), DomainError);
  EXPECT_THROW(JournalData::load_file(path + ".does-not-exist"), DomainError);
}

TEST(JournalTest, AlertJsonRoundTrip) {
  const JournalAlert in = alert_at(7, true);
  const JournalAlert out = journal_alert_from_json(journal_alert_to_json(in));
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.raised, in.raised);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.tenant_name, in.tenant_name);
  EXPECT_EQ(out.window, in.window);
  EXPECT_DOUBLE_EQ(out.value, in.value);
  EXPECT_DOUBLE_EQ(out.threshold, in.threshold);
}

JournalIncident incident_at(std::size_t window, bool opened) {
  JournalIncident incident;
  incident.id = "inc-0001";
  incident.opened = opened;
  incident.window = window;
  incident.severity = opened ? "major" : "critical";
  incident.kinds = {"starvation", "drift"};
  incident.dir = "/var/run/rrf/incidents/inc-0001";
  return incident;
}

TEST(JournalTest, IncidentJsonRoundTrip) {
  const JournalIncident in = incident_at(9, true);
  const JournalIncident out =
      journal_incident_from_json(journal_incident_to_json(in));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.opened, in.opened);
  EXPECT_EQ(out.window, in.window);
  EXPECT_EQ(out.severity, in.severity);
  EXPECT_EQ(out.kinds, in.kinds);
  EXPECT_EQ(out.dir, in.dir);
}

IncidentEvent event_at(std::size_t window, bool opened) {
  IncidentEvent event;
  event.id = "inc-0001";
  event.opened = opened;
  event.window = window;
  event.severity =
      opened ? IncidentSeverity::kMajor : IncidentSeverity::kCritical;
  event.kinds = {"starvation", "drift"};
  event.dir = "/var/run/rrf/incidents/inc-0001";
  return event;
}

TEST(JournalTest, IncidentRecordsPersistAndCountInTheEndRecord) {
  const std::string path = temp_path("journal_incidents.jsonl");
  {
    TelemetryJournal journal(options_for(path));
    journal.record_round(round_at(0));
    journal.record_incident(event_at(12, true));
    journal.record_round(round_at(1));
    journal.record_incident(event_at(40, false));
    journal.finish();
    EXPECT_EQ(journal.incidents_recorded(), 2u);
  }
  const JournalData data = JournalData::load_file(path);
  ASSERT_EQ(data.incidents.size(), 2u);
  EXPECT_TRUE(data.incidents[0].opened);
  EXPECT_EQ(data.incidents[0].window, 12u);
  EXPECT_EQ(data.incidents[0].kinds,
            (std::vector<std::string>{"starvation", "drift"}));
  EXPECT_FALSE(data.incidents[1].opened);
  EXPECT_EQ(data.incidents[1].severity, "critical");
  ASSERT_TRUE(data.end.has_value());
  EXPECT_EQ(data.end->incidents, 2u);
}

TEST(JournalTest, HeaderCarriesBuildProvenance) {
  const std::string path = temp_path("journal_build.jsonl");
  {
    TelemetryJournal journal(options_for(path));
    journal.record_round(round_at(0));
    journal.finish();
  }
  const JournalData data = JournalData::load_file(path);
  ASSERT_TRUE(data.header.build.is_object());
  EXPECT_NE(data.header.build.find("compiler"), nullptr);
  EXPECT_NE(data.header.build.find("build_type"), nullptr);
}

}  // namespace
}  // namespace rrf::obs
