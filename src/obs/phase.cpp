#include "obs/phase.hpp"

#include <string>

namespace rrf::obs {

Histogram& phase_histogram(MetricsRegistry& registry, Phase phase) {
  return registry.histogram(
      "phase." + std::string(to_string(phase)) + ".seconds",
      default_seconds_bounds());
}

void PhaseClock::end(std::chrono::steady_clock::time_point now) {
  running_ = false;
  const double seconds = std::chrono::duration<double>(now - start_).count();
  profile_.reset();  // close the phase's profiler frame at the same edge
  seconds_[static_cast<std::size_t>(phase_)] += seconds;
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
    e.ts_us = tracer().to_us(start_);
    e.dur_us = seconds * 1e6;
    e.node = node_;
    e.window = window_;
    tracer().record(e);
  }
}

}  // namespace rrf::obs
