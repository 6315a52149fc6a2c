// Process-wide metrics registry (observability subsystem, see
// docs/OBSERVABILITY.md).
//
// Three instrument kinds, all safe for concurrent use after registration:
//  * Counter   — monotonically increasing uint64 (relaxed atomic add);
//  * Gauge     — last-write-wins double;
//  * Histogram — fixed upper-bound buckets, atomic per-bucket counts plus
//                sum/min/max, good enough for latency quantiles.
//
// Registration (counter()/gauge()/histogram()) takes a shared_mutex; the
// returned references are stable for the registry's lifetime, so hot call
// sites cache them (typically in a function-local static against the global
// registry) and pay only the atomic increment afterwards.
//
// The whole subsystem is off by default: instrumentation sites guard on
// metrics_enabled(), which is a single relaxed atomic load — and compiles
// to a constant `false` (dead-stripping the instrumentation) when the
// library is built with -DRRF_OBS_COMPILED_IN=0.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/instrumented_mutex.hpp"

#ifndef RRF_OBS_COMPILED_IN
#define RRF_OBS_COMPILED_IN 1
#endif

namespace rrf::obs {

/// Compile-time master switch.  When false every enabled() query is a
/// constant false and the optimizer removes the instrumentation entirely —
/// the "no-op sink" build used to bound observability overhead.
inline constexpr bool kCompiledIn = RRF_OBS_COMPILED_IN != 0;

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `upper_bounds` are ascending inclusive upper
/// edges; an implicit overflow bucket catches everything beyond the last.
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;
  double max() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Bucket-interpolated quantile estimate, q in [0, 1].
  double quantile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of every instrument, for exporters that need to
/// iterate the registry without holding its lock (Prometheus exposition,
/// snapshot files).  Instruments keep registration order (sorted by name).
struct MetricsSnapshot {
  struct HistogramData {
    std::uint64_t count{0};
    double sum{0.0};
    double min{0.0};
    double max{0.0};
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1, last = overflow
    /// Bucket-interpolated quantile estimate over the snapshotted counts.
    double quantile(double q) const;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; references stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is only consulted on first registration.
  Histogram& histogram(const std::string& name,
                       std::span<const double> upper_bounds);

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Zeroes every instrument (instruments stay registered).
  void reset();

  /// Consistent point-in-time copy of every instrument.
  MetricsSnapshot snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void write_json(std::ostream& os) const;
  /// One `kind,name,field,value` row per datum, values printed by
  /// format_sample.
  void write_csv(std::ostream& os) const;

 private:
  // The maps are guarded; the pointed-to instruments are all-atomic and
  // deliberately not (hot sites bump them lock-free via stable refs).
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

/// The process-global registry instrumentation sites write to.
MetricsRegistry& metrics();

/// A sample value as the text exports print it: common/json's shortest
/// round-trip number, with the non-finite values spelled as Prometheus
/// does (+Inf, -Inf, NaN).
std::string format_sample(double value);

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

/// Master runtime switch for metric collection (off by default).
inline bool metrics_enabled() {
  if constexpr (!kCompiledIn) return false;
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// Shared bucket-interpolation core behind Histogram::quantile and
/// MetricsSnapshot::HistogramData::quantile: estimates the q-quantile
/// (q in [0, 1]) from per-bucket counts, using min/max to pin the open
/// first and overflow buckets.  `buckets` has bounds.size() + 1 entries.
double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> buckets,
                          std::uint64_t count, double min, double max,
                          double q);

/// Exponential 1 µs … 10 s edges — the default for timing histograms.
std::span<const double> default_seconds_bounds();
/// Exponential 1e-3 … 1e4 edges for share/GB magnitudes.
std::span<const double> default_magnitude_bounds();

}  // namespace rrf::obs
