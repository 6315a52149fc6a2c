// RAII phase-timing scopes for the allocation round
// (predict → allocate → actuate → settle).
//
// A PhaseScope measures wall time from construction to stop()/destruction.
// The elapsed seconds are always added to the optional accumulator (this is
// how the engine keeps each node's per-window phase seconds, and through
// them SimResult's per-phase totals, without a second timer), and
// additionally:
//  * observed into the `phase.<name>.seconds` histogram when metrics are
//    enabled;
//  * recorded as a kPhase duration event when tracing is enabled (these
//    render as slices in chrome://tracing, one track per node);
//  * opened as a ProfileScope frame when profiling is enabled, so every
//    phase is a root (or parent) node in the hierarchical profile.
#pragma once

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace rrf::obs {

/// `phase.<name>.seconds` histogram in `registry` (default time bounds).
Histogram& phase_histogram(MetricsRegistry& registry, Phase phase);

class PhaseScope {
 public:
  explicit PhaseScope(Phase phase, std::int32_t node = -1,
                      std::int32_t window = -1,
                      double* accumulate_seconds = nullptr)
      : phase_(phase),
        node_(node),
        window_(window),
        accumulate_(accumulate_seconds),
        profile_(to_string(phase)),
        start_(std::chrono::steady_clock::now()) {}

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() { stop(); }

  /// Ends the measurement (idempotent); returns the elapsed seconds.
  double stop();

 private:
  Phase phase_;
  std::int32_t node_;
  std::int32_t window_;
  double* accumulate_;
  ProfileScope profile_;  ///< the phase's frame in the call-tree profile
  std::chrono::steady_clock::time_point start_;
  bool stopped_{false};
  double seconds_{0.0};
};

}  // namespace rrf::obs
