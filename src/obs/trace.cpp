#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"  // os_thread_id, thread names

namespace rrf::obs {

namespace {

/// Names the calling pool worker's track ("pool/worker-N") on its first
/// event, so a trace labels every worker with or without the profiler.
void name_calling_worker() {
  thread_local bool named = false;
  if (named) return;
  named = true;
  if (const std::optional<std::size_t> worker = pool_worker_index()) {
    name_pool_worker(*worker);
  }
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kAllocRoundBegin: return "alloc_round_begin";
    case EventKind::kAllocRoundEnd: return "alloc_round_end";
    case EventKind::kIrtTrade: return "irt_trade";
    case EventKind::kIwaAdjust: return "iwa_adjust";
    case EventKind::kBalloonTarget: return "balloon_target";
    case EventKind::kBalloonTransfer: return "balloon_transfer";
    case EventKind::kMigration: return "migration";
    case EventKind::kPhase: return "phase";
    case EventKind::kAlert: return "alert";
    case EventKind::kContractViolation: return "contract_violation";
  }
  return "unknown";
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kPredict: return "predict";
    case Phase::kAllocate: return "allocate";
    case Phase::kActuate: return "actuate";
    case Phase::kSettle: return "settle";
  }
  return "unknown";
}

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  RRF_REQUIRE(capacity > 0, "tracer capacity must be positive");
  ring_.reserve(std::min<std::size_t>(capacity, 1024));
}

double EventTracer::now_us() const {
  return to_us(std::chrono::steady_clock::now());
}

double EventTracer::to_us(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

void EventTracer::record(TraceEvent e) {
  if (e.ts_us < 0.0) e.ts_us = now_us();
  if (e.tid < 0) e.tid = os_thread_id();
  name_calling_worker();
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::uint64_t EventTracer::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

std::uint64_t EventTracer::dropped() const {
  MutexLock lock(mu_);
  return recorded_ - ring_.size();
}

std::vector<TraceEvent> EventTracer::events() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void EventTracer::clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

void EventTracer::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& e : events()) {
    const json::Value line = json::Object{
        {"kind", to_string(e.kind)},
        {"ts_us", e.ts_us},
        {"dur_us", e.dur_us},
        {"tid", e.tid},
        {"node", e.node},
        {"tenant", e.tenant},
        {"vm", e.vm},
        {"window", e.window},
        {"resource", static_cast<int>(e.resource)},
        {"phase", static_cast<int>(e.phase)},
        {"value", e.value},
        {"value2", e.value2}};
    os << line.dump() << '\n';
  }
}

void EventTracer::write_chrome_trace(std::ostream& os) const {
  ChromeTraceWriter trace(os);
  // Tracks are real OS threads, so label the ones the profiler knows
  // about ("main", "pool/worker-N").
  for (const auto& [tid, name] : profiled_thread_names()) {
    trace.thread_name(tid, name);
  }
  for (const TraceEvent& e : events()) {
    const int tid = e.tid >= 0 ? e.tid : 0;
    if (e.kind == EventKind::kPhase) {
      const char* name =
          e.phase >= 0 && e.phase < static_cast<int>(kPhaseCount)
              ? to_string(static_cast<Phase>(e.phase))
              : "phase";
      trace.slice(name, "phase", e.ts_us, e.dur_us, tid,
                  json::Object{{"node", e.node}, {"window", e.window}});
    } else {
      trace.instant(to_string(e.kind), "event", e.ts_us, tid,
                    json::Object{{"node", e.node},
                                 {"tenant", e.tenant},
                                 {"vm", e.vm},
                                 {"window", e.window},
                                 {"resource", static_cast<int>(e.resource)},
                                 {"value", e.value},
                                 {"value2", e.value2}});
    }
  }
  trace.finish();
}

EventTracer& tracer() {
  static EventTracer instance;
  return instance;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(os) {
  os_ << "{\"traceEvents\":[\n";
}

void ChromeTraceWriter::finish() { os_ << "\n]}\n"; }

void ChromeTraceWriter::emit(const json::Value& event) {
  os_ << separator_ << event.dump();
  separator_ = ",\n";
}

void ChromeTraceWriter::thread_name(std::int32_t tid,
                                    const std::string& name) {
  emit(json::Object{{"name", "thread_name"},
                    {"ph", "M"},
                    {"pid", 0},
                    {"tid", tid},
                    {"args", json::Object{{"name", name}}}});
}

void ChromeTraceWriter::slice(const std::string& name, const char* cat,
                              double ts_us, double dur_us, std::int32_t tid,
                              const json::Value& args) {
  emit(json::Object{{"name", name},
                    {"cat", cat},
                    {"ph", "X"},
                    {"ts", ts_us},
                    {"dur", dur_us},
                    {"pid", 0},
                    {"tid", tid},
                    {"args", args}});
}

void ChromeTraceWriter::instant(const std::string& name, const char* cat,
                                double ts_us, std::int32_t tid,
                                const json::Value& args) {
  emit(json::Object{{"name", name},
                    {"cat", cat},
                    {"ph", "i"},
                    {"s", "t"},
                    {"ts", ts_us},
                    {"pid", 0},
                    {"tid", tid},
                    {"args", args}});
}

}  // namespace rrf::obs
