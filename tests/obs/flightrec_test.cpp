#include "obs/flightrec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/journal.hpp"
#include "obs/provenance.hpp"

namespace rrf::obs {
namespace {

FlightHeader make_header() {
  FlightHeader header;
  header.kind = "sim";
  header.policy = "rrf";
  header.window = 5.0;
  header.duration = 20.0;
  header.pricing = ResourceVector{100.0, 200.0};
  header.hosts = {ResourceVector{30.0, 15.0}, ResourceVector{30.0, 15.0}};
  FlightTenant tenant;
  tenant.name = "acme";
  tenant.metric = "throughput";
  FlightVm vm;
  vm.name = "acme-vm0";
  vm.vcpus = 4;
  vm.provisioned = ResourceVector{10.0, 5.0};
  vm.max_mem_gb = 15.0;
  vm.host = 1;
  tenant.vms.push_back(vm);
  header.tenants.push_back(tenant);
  return header;
}

FlightRound make_round(std::size_t index) {
  FlightRound round;
  round.round = index;
  round.time = static_cast<double>(index) * 5.0;
  FlightNode node;
  node.node = 1;
  FlightSlot slot;
  slot.tenant = 0;
  slot.vm = 0;
  slot.share = ResourceVector{1000.0, 1000.0};
  // Awkward doubles on purpose: the round-trip must be bit-exact.
  slot.demand = ResourceVector{0.1 + static_cast<double>(index), 1.0 / 3.0};
  slot.forecast = ResourceVector{0.30000000000000004, 1e-17};
  slot.entitlement = ResourceVector{999.9999999999999, 1234.5};
  slot.credit_weight = 512.000000001;
  slot.credit_cap = 7.598249999999999;
  slot.mem_target = 2.5875;
  node.slots.push_back(slot);
  node.has_irt = true;
  FlightIrtTenant irt;
  irt.tenant = 0;
  irt.lambda = 300.0;
  irt.share = ResourceVector{1000.0, 1000.0};
  irt.demand = ResourceVector{800.0, 1600.0};
  irt.grant = ResourceVector{800.0, 1200.0};
  node.irt.push_back(irt);
  node.irt_types.push_back(ProvenanceIrtType{2, 1, 300.0});
  FlightIwa iwa;
  iwa.tenant = 0;
  iwa.vm_grant = {ResourceVector{800.0, 1200.0}};
  iwa.headroom = ResourceVector{0.0, 0.0};
  node.iwa.push_back(iwa);
  round.nodes.push_back(node);
  if (index == 1) {
    round.migrations.push_back(FlightMigration{0, 0, 1, 0, 3.25});
    round.pressure_before = {0.9, 0.4};
    round.pressure_after = {0.7, 0.6};
  }
  return round;
}

TEST(Flightrec, RecorderStreamRoundTripsBitExact) {
  std::ostringstream out;
  {
    FlightRecorder recorder(out);
    recorder.write_header(make_header());
    recorder.record_round(make_round(0));
    recorder.record_round(make_round(1));
    recorder.finish();
    EXPECT_EQ(recorder.rounds_recorded(), 2u);
    EXPECT_EQ(recorder.bytes_written(), out.str().size());
  }

  std::istringstream in(out.str());
  const FlightRecording recording = FlightRecording::load(in);
  EXPECT_EQ(recording.header.kind, "sim");
  EXPECT_EQ(recording.header.policy, "rrf");
  EXPECT_EQ(recording.header.tenants.size(), 1u);
  EXPECT_EQ(recording.header.tenants[0].vms[0].host, 1u);
  ASSERT_EQ(recording.rounds.size(), 2u);
  ASSERT_TRUE(recording.trailer.has_value());
  EXPECT_EQ(recording.trailer->rounds, 2u);
  EXPECT_EQ(recording.trailer->dropped, 0u);

  const FlightSlot& slot = recording.rounds[0].nodes[0].slots[0];
  const FlightRound expected_round = make_round(0);
  const FlightSlot& expected = expected_round.nodes[0].slots[0];
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(slot.demand[k], expected.demand[k]);
    EXPECT_EQ(slot.forecast[k], expected.forecast[k]);
    EXPECT_EQ(slot.entitlement[k], expected.entitlement[k]);
  }
  EXPECT_EQ(slot.credit_weight, expected.credit_weight);
  EXPECT_EQ(slot.credit_cap, expected.credit_cap);
  EXPECT_EQ(slot.mem_target, expected.mem_target);

  const FlightNode& node = recording.rounds[0].nodes[0];
  ASSERT_TRUE(node.has_irt);
  EXPECT_EQ(node.irt[0].lambda, 300.0);
  ASSERT_EQ(node.irt_types.size(), 1u);
  EXPECT_EQ(node.irt_types[0].redistributed, 300.0);
  ASSERT_EQ(node.iwa.size(), 1u);
  EXPECT_EQ(node.iwa[0].vm_grant[0][1], 1200.0);

  ASSERT_EQ(recording.rounds[1].migrations.size(), 1u);
  EXPECT_EQ(recording.rounds[1].migrations[0].cost_gb, 3.25);
  EXPECT_EQ(recording.rounds[1].pressure_before,
            (std::vector<double>{0.9, 0.4}));

  // A loaded recording re-serializes to the identical byte stream.
  std::ostringstream out2;
  {
    FlightRecorder recorder(out2);
    recorder.write_recording(recording);
  }
  EXPECT_EQ(out.str(), out2.str());

  // Trailers from older builds could report rounds dropped to a byte
  // budget; they still load.
  std::string older = out.str();
  older.replace(older.find("\"dropped\":0"), 11, "\"dropped\":3");
  std::istringstream older_in(older);
  EXPECT_EQ(FlightRecording::load(older_in).trailer->dropped, 3u);
}

TEST(Flightrec, LoadRejectsSchemaViolations) {
  std::ostringstream out;
  {
    FlightRecorder recorder(out);
    recorder.write_header(make_header());
    recorder.record_round(make_round(0));
    recorder.finish();
  }
  const std::string good = out.str();

  auto expect_load_error = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(FlightRecording::load(in), DomainError) << text;
  };

  // Wrong schema tag.
  std::string bad = good;
  bad.replace(bad.find("rrf-flightrec"), 13, "bogus-flightre");
  expect_load_error(bad);

  // Unsupported version.
  bad = good;
  bad.replace(bad.find("\"version\":1"), 11, "\"version\":9");
  expect_load_error(bad);

  // Unknown kind.
  bad = good;
  bad.replace(bad.find("\"kind\":\"sim\""), 12, "\"kind\":\"xim\"");
  expect_load_error(bad);

  // Mistyped field (string where a number is required).
  bad = good;
  bad.replace(bad.find("\"window\":5"), 10, "\"window\":\"\"");
  expect_load_error(bad);

  // Data after the trailer.
  expect_load_error(good + "{\"round\":1}\n");

  // Trailer round count disagreeing with the stream.
  bad = good;
  bad.replace(bad.find("\"trailer\":{\"rounds\":1"), 21,
              "\"trailer\":{\"rounds\":7");
  expect_load_error(bad);

  // Empty stream.
  expect_load_error("");
}

/// The lines of `text`, without their newlines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(RecordStream, BothLoadersApplyOneFramingRule) {
  // A clean stream of each format: header, two records, close line.
  std::ostringstream flight;
  {
    FlightRecorder recorder(flight);
    recorder.write_header(make_header());
    recorder.record_round(make_round(0));
    recorder.record_round(make_round(1));
  }
  const std::string path = ::testing::TempDir() + "/framing_journal.jsonl";
  std::remove(path.c_str());
  {
    TelemetryJournal::Options options;
    options.path = path;
    options.policy = "rrf";
    options.tenants = {"acme"};
    TelemetryJournal journal(options);
    RoundSummary round;
    journal.record_round(round);
    round.window = 1;
    journal.record_round(round);
  }
  std::ifstream journal_in(path);
  const std::string journal((std::istreambuf_iterator<char>(journal_in)),
                            std::istreambuf_iterator<char>());

  struct Loaded {
    std::size_t rounds;
    bool truncated_tail;
  };
  const auto load_flight = [](const std::string& text) {
    std::istringstream in(text);
    const FlightRecording recording = FlightRecording::load(in);
    return Loaded{recording.rounds.size(), recording.truncated_tail};
  };
  const auto load_journal = [&](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
    const JournalData data = JournalData::load_file(path);
    return Loaded{data.rounds.size(), data.truncated_tail};
  };

  // Each case edits the clean stream's four lines.  A loading case
  // expects its round count and whether a cut tail was dropped.
  using Lines = std::vector<std::string>;
  struct Case {
    const char* name;
    std::string (*edit)(Lines);
    bool loads;
    std::size_t rounds;
    bool truncated_tail;
  };
  const Case cases[] = {
      {"clean",
       [](Lines l) {
         return l[0] + "\n" + l[1] + "\n" + l[2] + "\n" + l[3] + "\n";
       },
       true, 2, false},
      {"cut final line",
       [](Lines l) {
         return l[0] + "\n" + l[1] + "\n" + l[2].substr(0, l[2].size() / 2);
       },
       true, 1, true},
      {"cut line before the last",
       [](Lines l) {
         return l[0] + "\n" + l[1].substr(0, l[1].size() / 2) + "\n" + l[2] +
                "\n";
       },
       false, 0, false},
      {"complete record after the close line",
       [](Lines l) {
         return l[0] + "\n" + l[1] + "\n" + l[2] + "\n" + l[3] + "\n" + l[2] +
                "\n";
       },
       false, 0, false},
      {"wrong schema tag",
       [](Lines l) {
         l[0].replace(l[0].find("\"rrf-"), 5, "\"xyz-");
         return l[0] + "\n" + l[1] + "\n";
       },
       false, 0, false},
      {"wrong version",
       [](Lines l) {
         l[0].replace(l[0].find("\"version\":1"), 11, "\"version\":2");
         return l[0] + "\n" + l[1] + "\n";
       },
       false, 0, false},
      {"empty stream", [](Lines) { return std::string(); }, false, 0, false},
  };
  const std::function<Loaded(const std::string&)> loaders[] = {load_flight,
                                                               load_journal};
  const std::string streams[] = {flight.str(), journal};
  for (const Case& c : cases) {
    for (std::size_t f = 0; f < 2; ++f) {
      SCOPED_TRACE(std::string(c.name) +
                   (f == 0 ? ", flightrec" : ", journal"));
      const std::string text = c.edit(lines_of(streams[f]));
      if (!c.loads) {
        EXPECT_THROW(loaders[f](text), DomainError);
        continue;
      }
      const Loaded loaded = loaders[f](text);
      EXPECT_EQ(loaded.rounds, c.rounds);
      EXPECT_EQ(loaded.truncated_tail, c.truncated_tail);
    }
  }
}

TEST(Flightrec, LoadRejectsMoreResourceTypesThanTheLimit) {
  std::ostringstream out;
  {
    FlightRecorder recorder(out);
    recorder.write_header(make_header());
    recorder.record_round(make_round(0));
    recorder.finish();
  }
  std::string bad = out.str();
  const std::size_t at = bad.find("\"pricing\":[");
  ASSERT_NE(at, std::string::npos);
  bad.insert(at + 11, "1,2,3,");  // five pricing components
  std::istringstream in(bad);
  try {
    FlightRecording::load(in);
    FAIL() << "a five-type pricing vector was accepted";
  } catch (const DomainError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pricing"), std::string::npos) << what;
    EXPECT_NE(what.find("limit of 4"), std::string::npos) << what;
  }
}

TEST(Flightrec, DiffReportsFirstDivergenceAndTenantDeltas) {
  FlightRecording a;
  a.header = make_header();
  a.rounds = {make_round(0), make_round(1)};

  FlightRecording b = a;
  EXPECT_TRUE(diff_recordings(a, b).identical);

  // Perturb round 1's entitlement by 0.5 shares.
  b.rounds[1].nodes[0].slots[0].entitlement[0] += 0.5;
  const FlightDiffResult diff = diff_recordings(a, b);
  EXPECT_FALSE(diff.identical);
  ASSERT_TRUE(diff.first_divergent_round.has_value());
  EXPECT_EQ(*diff.first_divergent_round, 1u);
  EXPECT_NE(diff.first_divergence.find("entitlement"), std::string::npos);
  ASSERT_EQ(diff.tenant_deltas.size(), 1u);
  EXPECT_EQ(diff.tenant_deltas[0].name, "acme");
  EXPECT_NEAR(diff.tenant_deltas[0].max_abs, 0.5, 1e-12);

  // The same pair compares identical under a looser tolerance.
  EXPECT_TRUE(diff_recordings(a, b, 0.6).identical);
  EXPECT_FALSE(diff_recordings(a, b, 0.4).identical);
}

TEST(Flightrec, ProvenanceScopeInstallsAndRestoresTheSink) {
  EXPECT_EQ(provenance_sink(), nullptr);
  ProvenanceRound outer;
  {
    ProvenanceScope scope(&outer);
    EXPECT_EQ(provenance_sink(), &outer);
    ProvenanceRound inner;
    {
      ProvenanceScope nested(&inner);
      EXPECT_EQ(provenance_sink(), &inner);
      provenance_sink()->has_irt = true;
    }
    EXPECT_EQ(provenance_sink(), &outer);
    EXPECT_TRUE(inner.has_irt);
  }
  EXPECT_EQ(provenance_sink(), nullptr);

  // Entering a scope clears any state left from a previous round.
  outer.has_irt = true;
  outer.irt.emplace_back();
  outer.iwa.push_back(FlightIwa{});
  {
    ProvenanceScope scope(&outer);
    EXPECT_FALSE(outer.has_irt);
    EXPECT_TRUE(outer.irt.empty());
    EXPECT_TRUE(outer.iwa.empty());
  }
}

}  // namespace
}  // namespace rrf::obs
