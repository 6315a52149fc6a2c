#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"

namespace rrf::obs {
namespace {

TraceEvent make_event(EventKind kind, std::int32_t window) {
  TraceEvent e;
  e.kind = kind;
  e.node = 1;
  e.tenant = 2;
  e.vm = 3;
  e.window = window;
  e.resource = 0;
  e.value = 4.5;
  e.value2 = -1.25;
  return e;
}

/// write_jsonl() output, one parsed object per line.
std::vector<json::Value> jsonl_lines(const EventTracer& tracer_) {
  std::stringstream buffer;
  tracer_.write_jsonl(buffer);
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(buffer, line)) lines.push_back(json::Value::parse(line));
  return lines;
}

double num(const json::Value& line, const char* key) {
  const json::Value* v = line.find(key);
  EXPECT_NE(v, nullptr) << key;
  return v != nullptr ? v->as_number() : -999.0;
}

std::string kind_of(const json::Value& line) {
  const json::Value* v = line.find("kind");
  EXPECT_NE(v, nullptr);
  return v != nullptr ? v->as_string() : std::string();
}

TEST(ObsTrace, EventsComeBackOldestFirstWithStampedTimes) {
  EventTracer tracer_(16);
  for (int i = 0; i < 5; ++i) {
    tracer_.record(make_event(EventKind::kIrtTrade, i));
  }
  const auto events = tracer_.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].window, static_cast<std::int32_t>(i));
    EXPECT_GE(events[i].ts_us, 0.0);
    if (i > 0) {
      EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
    }
  }
}

TEST(ObsTrace, RingWrapsAroundKeepingTheNewest) {
  EventTracer tracer_(8);
  for (int i = 0; i < 20; ++i) {
    tracer_.record(make_event(EventKind::kIwaAdjust, i));
  }
  EXPECT_EQ(tracer_.recorded(), 20u);
  EXPECT_EQ(tracer_.dropped(), 12u);
  const auto events = tracer_.events();
  ASSERT_EQ(events.size(), 8u);
  // The surviving events are the last 8, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].window, static_cast<std::int32_t>(12 + i));
  }
}

TEST(ObsTrace, JsonlExportAfterWrapHoldsExactlyTheSurvivors) {
  // After the ring wraps, the JSONL export must contain exactly the
  // surviving (newest) events, oldest first — not stale pre-wrap slots.
  EventTracer tracer_(8);
  for (int i = 0; i < 21; ++i) {
    tracer_.record(make_event(EventKind::kIrtTrade, i));
  }
  EXPECT_EQ(tracer_.recorded(), 21u);
  EXPECT_EQ(tracer_.dropped(), 13u);

  const auto parsed = jsonl_lines(tracer_);
  ASSERT_EQ(parsed.size(), 8u);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(kind_of(parsed[i]), "irt_trade");
    EXPECT_EQ(num(parsed[i], "window"), static_cast<double>(13 + i));
    EXPECT_EQ(num(parsed[i], "value"), 4.5);
    if (i > 0) {
      EXPECT_GE(num(parsed[i], "ts_us"), num(parsed[i - 1], "ts_us"));
    }
  }

  // A second wrap cycle after the export keeps the accounting exact.
  for (int i = 21; i < 30; ++i) {
    tracer_.record(make_event(EventKind::kIwaAdjust, i));
  }
  const auto parsed2 = jsonl_lines(tracer_);
  ASSERT_EQ(parsed2.size(), 8u);
  EXPECT_EQ(num(parsed2.front(), "window"), 22.0);
  EXPECT_EQ(num(parsed2.back(), "window"), 29.0);
}

TEST(ObsTrace, ClearEmptiesTheRing) {
  EventTracer tracer_(8);
  tracer_.record(make_event(EventKind::kMigration, 0));
  tracer_.clear();
  EXPECT_EQ(tracer_.recorded(), 0u);
  EXPECT_TRUE(tracer_.events().empty());
}

TEST(ObsTrace, ConcurrentRecordLosesNothingBelowCapacity) {
  EventTracer tracer_(100000);
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kPerTask = 2000;
  global_pool().parallel_for(kTasks, [&](std::size_t t) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      tracer_.record(make_event(EventKind::kIrtTrade,
                                static_cast<std::int32_t>(t)));
    }
  });
  EXPECT_EQ(tracer_.recorded(), kTasks * kPerTask);
  EXPECT_EQ(tracer_.dropped(), 0u);
  EXPECT_EQ(tracer_.events().size(), kTasks * kPerTask);
}

TEST(ObsTrace, JsonlRoundTripsEveryField) {
  EventTracer tracer_(16);
  TraceEvent phase_event;
  phase_event.kind = EventKind::kPhase;
  phase_event.phase = static_cast<std::int8_t>(Phase::kAllocate);
  phase_event.dur_us = 123.5;
  phase_event.node = 7;
  phase_event.window = 42;
  tracer_.record(phase_event);
  tracer_.record(make_event(EventKind::kBalloonTransfer, 9));

  const auto parsed = jsonl_lines(tracer_);
  ASSERT_EQ(parsed.size(), 2u);

  EXPECT_EQ(kind_of(parsed[0]), "phase");
  EXPECT_EQ(num(parsed[0], "phase"), static_cast<double>(Phase::kAllocate));
  EXPECT_EQ(num(parsed[0], "dur_us"), 123.5);
  EXPECT_EQ(num(parsed[0], "node"), 7.0);
  EXPECT_EQ(num(parsed[0], "window"), 42.0);
  // record() stamps the recording thread's OS id and it round-trips.
  EXPECT_EQ(num(parsed[0], "tid"), static_cast<double>(os_thread_id()));

  EXPECT_EQ(kind_of(parsed[1]), "balloon_transfer");
  EXPECT_EQ(num(parsed[1], "tenant"), 2.0);
  EXPECT_EQ(num(parsed[1], "vm"), 3.0);
  EXPECT_EQ(num(parsed[1], "window"), 9.0);
  EXPECT_EQ(num(parsed[1], "resource"), 0.0);
  EXPECT_EQ(num(parsed[1], "phase"), -1.0);
  EXPECT_EQ(num(parsed[1], "value"), 4.5);
  EXPECT_EQ(num(parsed[1], "value2"), -1.25);
}

TEST(ObsTrace, JsonlAndChromeKeepFullPrecision) {
  // Phases last a few microseconds, so a timestamp past the first second
  // needs more than 6 significant digits.
  EventTracer tracer_(4);
  TraceEvent e = make_event(EventKind::kIrtTrade, 1);
  e.ts_us = 1234567.891;
  e.value = 0.1234567891;
  tracer_.record(e);

  const auto parsed = jsonl_lines(tracer_);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(num(parsed[0], "ts_us"), 1234567.891);
  EXPECT_EQ(num(parsed[0], "value"), 0.1234567891);

  std::ostringstream chrome;
  tracer_.write_chrome_trace(chrome);
  EXPECT_NE(chrome.str().find("\"ts\":1234567.891"), std::string::npos)
      << chrome.str();
  EXPECT_NO_THROW(json::Value::parse(chrome.str()));
}

TEST(ObsTrace, ChromeTraceRendersPhasesAsSlicesAndEventsAsInstants) {
  EventTracer tracer_(16);
  TraceEvent phase_event;
  phase_event.kind = EventKind::kPhase;
  phase_event.phase = static_cast<std::int8_t>(Phase::kPredict);
  phase_event.dur_us = 10.0;
  phase_event.node = 3;
  tracer_.record(phase_event);
  tracer_.record(make_event(EventKind::kIrtTrade, 1));

  std::ostringstream os;
  tracer_.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"predict\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"irt_trade\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // The tid is the real OS thread id of the recording thread; the node id
  // moved into args.
  const std::string tid_member =
      "\"tid\":" + std::to_string(os_thread_id());
  EXPECT_NE(text.find(tid_member), std::string::npos);
  if (os_thread_id() != 3) {
    EXPECT_EQ(text.find("\"tid\":3,"), std::string::npos);
  }
  EXPECT_NE(text.find("\"node\":3"), std::string::npos);
}

TEST(ObsTrace, EventKindNamesRoundTrip) {
  // Every kind exports under its own wire name, so a reader can map each
  // JSONL line back to exactly one kind.
  const std::vector<EventKind> kinds = {
      EventKind::kAllocRoundBegin, EventKind::kAllocRoundEnd,
      EventKind::kIrtTrade,        EventKind::kIwaAdjust,
      EventKind::kBalloonTarget,   EventKind::kBalloonTransfer,
      EventKind::kMigration,       EventKind::kPhase,
      EventKind::kAlert,           EventKind::kContractViolation};
  EventTracer tracer_(16);
  for (const EventKind kind : kinds) tracer_.record(make_event(kind, 0));
  const auto parsed = jsonl_lines(tracer_);
  ASSERT_EQ(parsed.size(), kinds.size());
  std::set<std::string> names;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(kind_of(parsed[i]), to_string(kinds[i]));
    EXPECT_NE(kind_of(parsed[i]), "unknown");
    names.insert(kind_of(parsed[i]));
  }
  EXPECT_EQ(names.size(), kinds.size());
}

TEST(ObsTrace, PhaseClockRecordsDurationEventAndHistogram) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool tracing_before = tracing_enabled();
  const bool metrics_before = metrics_enabled();
  set_tracing_enabled(true);
  set_metrics_enabled(true);
  tracer().clear();
  const Histogram& allocate = phase_histogram(metrics(), Phase::kAllocate);
  const Histogram& actuate = phase_histogram(metrics(), Phase::kActuate);
  const std::uint64_t allocate_before = allocate.count();
  const std::uint64_t actuate_before = actuate.count();

  PhaseClock::Seconds seconds{};
  {
    PhaseClock clock(Phase::kAllocate, /*window=*/5, seconds);
    ASSERT_TRUE(clock.per_node());
    for (const std::int32_t node : {2, 3}) {
      clock.node_begin();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      clock.node_end(node);
    }
    clock.next(Phase::kActuate);
    clock.node_begin();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    clock.node_end(2);
  }  // ~PhaseClock() ends the last phase

  set_tracing_enabled(tracing_before);
  set_metrics_enabled(metrics_before);

  EXPECT_GT(seconds[static_cast<std::size_t>(Phase::kAllocate)], 0.0);
  EXPECT_GT(seconds[static_cast<std::size_t>(Phase::kActuate)], 0.0);
  EXPECT_EQ(seconds[static_cast<std::size_t>(Phase::kPredict)], 0.0);
  EXPECT_EQ(allocate.count(), allocate_before + 2);
  EXPECT_EQ(actuate.count(), actuate_before + 1);
  const auto events = tracer().events();
  ASSERT_GE(events.size(), 3u);
  // Each node's read ends its slice and starts the next one, across the
  // phase boundary too.
  const TraceEvent* slices[] = {&events[events.size() - 3],
                                &events[events.size() - 2], &events.back()};
  const std::int32_t nodes[] = {2, 3, 2};
  const Phase phases[] = {Phase::kAllocate, Phase::kAllocate,
                          Phase::kActuate};
  for (std::size_t i = 0; i < 3; ++i) {
    const TraceEvent& e = *slices[i];
    EXPECT_EQ(e.kind, EventKind::kPhase);
    EXPECT_EQ(e.node, nodes[i]);
    EXPECT_EQ(e.window, 5);
    EXPECT_EQ(e.phase, static_cast<std::int8_t>(phases[i]));
    EXPECT_GE(e.dur_us, 0.0);
    if (i > 0) {
      EXPECT_NEAR(slices[i - 1]->ts_us + slices[i - 1]->dur_us, e.ts_us, 1e-3);
    }
  }
  // A phase's seconds are its nodes' slices.
  EXPECT_NEAR(
      (slices[0]->dur_us + slices[1]->dur_us) * 1e-6,
      seconds[static_cast<std::size_t>(Phase::kAllocate)], 1e-9);
  EXPECT_NEAR(slices[2]->dur_us * 1e-6,
              seconds[static_cast<std::size_t>(Phase::kActuate)], 1e-9);
  tracer().clear();
}

TEST(ObsTrace, PhaseClockWithEverySinkOffTimesPhasesOnly) {
  const bool tracing_before = tracing_enabled();
  const bool metrics_before = metrics_enabled();
  const bool profiling_before = profiling_enabled();
  set_tracing_enabled(false);
  set_metrics_enabled(false);
  set_profiling_enabled(false);
  PhaseClock::Seconds seconds{};
  bool per_node = true;
  {
    PhaseClock clock(Phase::kPredict, /*window=*/0, seconds);
    per_node = clock.per_node();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    clock.next(Phase::kSettle);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    clock.stop();
    clock.stop();  // idempotent
  }
  set_profiling_enabled(profiling_before);
  set_metrics_enabled(metrics_before);
  set_tracing_enabled(tracing_before);

  EXPECT_FALSE(per_node);
  EXPECT_GE(seconds[static_cast<std::size_t>(Phase::kPredict)], 1e-3);
  EXPECT_GE(seconds[static_cast<std::size_t>(Phase::kSettle)], 1e-3);
  EXPECT_EQ(seconds[static_cast<std::size_t>(Phase::kAllocate)], 0.0);
}

TEST(ObsTrace, TracingSwitchDefaultsOffAndRoundTrips) {
  const bool before = tracing_enabled();
  set_tracing_enabled(true);
  EXPECT_TRUE(tracing_enabled());
  set_tracing_enabled(false);
  EXPECT_FALSE(tracing_enabled());
  set_tracing_enabled(before);
}

}  // namespace
}  // namespace rrf::obs
