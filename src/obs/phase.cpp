#include "obs/phase.hpp"

#include <string>

namespace rrf::obs {

Histogram& phase_histogram(MetricsRegistry& registry, Phase phase) {
  return registry.histogram(
      "phase." + std::string(to_string(phase)) + ".seconds",
      default_seconds_bounds());
}

void PhaseClock::node_end(std::int32_t node) {
  const TimePoint now = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(now - last_).count();
  profile_.reset();  // close the node's profiler frame at the same edge
  if (metrics_enabled()) {
    // One stable histogram reference per phase; the registry outlives us.
    static Histogram* const hists[kPhaseCount] = {
        &phase_histogram(metrics(), Phase::kPredict),
        &phase_histogram(metrics(), Phase::kAllocate),
        &phase_histogram(metrics(), Phase::kActuate),
        &phase_histogram(metrics(), Phase::kSettle),
    };
    hists[static_cast<std::size_t>(phase_)]->observe(seconds);
  }
  if (tracing_enabled()) {
    TraceEvent e;
    e.kind = EventKind::kPhase;
    e.phase = static_cast<std::int8_t>(phase_);
    e.ts_us = tracer().to_us(last_);
    e.dur_us = seconds * 1e6;
    e.node = node;
    e.window = window_;
    tracer().record(e);
  }
  last_ = now;
}

}  // namespace rrf::obs
