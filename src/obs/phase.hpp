// Phase timing for the allocation round (predict → allocate → actuate →
// settle).
//
// A PhaseClock times one node round's consecutive phases with a single
// steady_clock read per boundary: the read that ends one phase starts the
// next.  At every boundary the phase just ended
//  * adds its seconds to the caller's per-phase accumulator (this is how
//    the engine keeps each node's per-window phase seconds, and through
//    them SimResult's per-phase totals, without a second timer);
//  * is observed into the `phase.<name>.seconds` histogram when metrics
//    are enabled;
//  * is recorded as a kPhase duration event when tracing is enabled
//    (these render as slices in chrome://tracing, one track per node);
//  * closes its ProfileScope frame when profiling is enabled, and the next
//    phase opens its own, so every phase is a root (or parent) node in the
//    hierarchical profile.
#pragma once

#include <array>
#include <chrono>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace rrf::obs {

/// `phase.<name>.seconds` histogram in `registry` (default time bounds).
Histogram& phase_histogram(MetricsRegistry& registry, Phase phase);

class PhaseClock {
 public:
  using Seconds = std::array<double, kPhaseCount>;

  /// Starts timing `first` on node `node` in window `window`; each ended
  /// phase adds its seconds to `seconds[phase]`.
  PhaseClock(Phase first, std::int32_t node, std::int32_t window,
             Seconds& seconds)
      : node_(node), window_(window), seconds_(seconds) {
    begin(first, std::chrono::steady_clock::now());
  }

  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  ~PhaseClock() { stop(); }

  /// Ends the current phase and starts `phase` at the same instant.
  void next(Phase phase) {
    const auto now = std::chrono::steady_clock::now();
    end(now);
    begin(phase, now);
  }

  /// Ends the current phase (idempotent).
  void stop() {
    if (running_) end(std::chrono::steady_clock::now());
  }

 private:
  void begin(Phase phase, std::chrono::steady_clock::time_point now) {
    phase_ = phase;
    start_ = now;
    running_ = true;
    profile_.emplace(to_string(phase));
  }
  void end(std::chrono::steady_clock::time_point now);

  std::int32_t node_;
  std::int32_t window_;
  Seconds& seconds_;
  Phase phase_{Phase::kPredict};
  bool running_{false};
  std::chrono::steady_clock::time_point start_;
  std::optional<ProfileScope> profile_;  ///< the phase's profiler frame
};

}  // namespace rrf::obs
