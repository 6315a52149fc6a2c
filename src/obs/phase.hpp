// Phase timing for the allocation round (predict → allocate → actuate →
// settle).
//
// A PhaseClock times one shard's window, which runs each phase over every
// node of the shard before the next phase starts.  It reads steady_clock
// once per phase boundary: the read that ends one phase starts the next,
// so a window of four phases costs five reads per shard, whatever the
// shard's node count.  Each ended phase adds its seconds to the caller's
// per-phase accumulator (this is how the engine keeps each shard's
// per-window phase seconds, and through them SimResult's per-phase
// totals, without a second timer).
//
// While tracing, metrics or profiling is on (per_node()), the clock also
// times each node's part of a phase on its own: node_begin() opens the
// node's profiler frame and node_end() reads the clock once more.  The
// phase then ends at its last node's read, so the per-node times add up
// to the phase's seconds.  Each node's part
//  * is observed into the `phase.<name>.seconds` histogram when metrics
//    are enabled;
//  * is recorded as a kPhase duration event when tracing is enabled
//    (these render as slices in chrome://tracing, one per node round);
//  * is a profiler frame named after the phase when profiling is enabled,
//    nested in whatever frame the shard runs under.
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
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Starts timing `first` in window `window`; each ended phase adds its
  /// seconds to `seconds[phase]`.
  PhaseClock(Phase first, std::int32_t window, Seconds& seconds)
      : window_(window),
        seconds_(seconds),
        per_node_(tracing_enabled() || metrics_enabled() ||
                  profiling_enabled()) {
    begin(first, std::chrono::steady_clock::now());
  }

  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  ~PhaseClock() { stop(); }

  /// Whether each node's part of a phase is timed on its own (tracing,
  /// metrics or profiling was on when the clock started).
  bool per_node() const { return per_node_; }

  /// Ends the current phase and starts `phase` at the same instant.
  void next(Phase phase) {
    const TimePoint now = boundary();
    end(now);
    begin(phase, now);
  }

  /// Ends the current phase (idempotent).
  void stop() {
    if (running_) end(boundary());
  }

  /// Opens a node's part of the current phase (per_node() only).
  void node_begin() { profile_.emplace(to_string(phase_)); }

  /// Ends node `node`'s part of the current phase with one clock read
  /// (per_node() only): it spans from the previous read to this one.
  void node_end(std::int32_t node);

 private:
  /// The instant the current phase ends: a fresh read, or with per-node
  /// timing its last node's read.
  TimePoint boundary() const {
    return per_node_ ? last_ : std::chrono::steady_clock::now();
  }
  void begin(Phase phase, TimePoint now) {
    phase_ = phase;
    start_ = now;
    last_ = now;
    running_ = true;
  }
  void end(TimePoint now) {
    running_ = false;
    seconds_[static_cast<std::size_t>(phase_)] +=
        std::chrono::duration<double>(now - start_).count();
  }

  std::int32_t window_;
  Seconds& seconds_;
  bool per_node_;
  Phase phase_{Phase::kPredict};
  bool running_{false};
  TimePoint start_;  ///< the current phase's first read
  TimePoint last_;   ///< the latest read
  std::optional<ProfileScope> profile_;  ///< the node's profiler frame
};

}  // namespace rrf::obs
