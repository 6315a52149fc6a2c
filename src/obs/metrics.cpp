#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <mutex>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace rrf::obs {

namespace {

/// Relaxed atomic min/max via CAS (doubles have no fetch_min).
void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// One number as common/json prints it: shortest round-trip, null when
/// not finite (the min and max of an empty histogram are +-inf).
std::string num(double v) { return json::Value(v).dump(); }

}  // namespace

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  RRF_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> buckets,
                          std::uint64_t count, double min, double max,
                          double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double next = cumulative + static_cast<double>(buckets[i]);
    if (rank <= next || i + 1 == buckets.size()) {
      // Interpolate inside the bucket; the open-ended overflow bucket and
      // the first bucket fall back to their finite edge.
      const double lo =
          i == 0 ? std::min(min, bounds.empty() ? min : bounds[0])
                 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : max;
      if (buckets[i] == 0) return hi;
      const double frac = (rank - cumulative) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return max;
}

double Histogram::quantile(double q) const {
  return histogram_quantile(bounds_, bucket_counts(), count(), min(), max(),
                            q);
}

double MetricsSnapshot::HistogramData::quantile(double q) const {
  return histogram_quantile(bounds, buckets, count, min, max, q);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  {
    SharedMutexReadLock lock(mu_);
    if (const auto it = counters_.find(name); it != counters_.end()) {
      return *it->second;
    }
  }
  SharedMutexWriteLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  {
    SharedMutexReadLock lock(mu_);
    if (const auto it = gauges_.find(name); it != gauges_.end()) {
      return *it->second;
    }
  }
  SharedMutexWriteLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> upper_bounds) {
  {
    SharedMutexReadLock lock(mu_);
    if (const auto it = histograms_.find(name); it != histograms_.end()) {
      return *it->second;
    }
  }
  SharedMutexWriteLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(upper_bounds);
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  SharedMutexReadLock lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  SharedMutexReadLock lock(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  SharedMutexReadLock lock(mu_);
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

void MetricsRegistry::reset() {
  SharedMutexWriteLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  SharedMutexReadLock lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.count = h->count();
    data.sum = h->sum();
    data.min = h->min();
    data.max = h->max();
    data.bounds = h->bounds();
    data.buckets = h->bucket_counts();
    out.histograms.emplace_back(name, std::move(data));
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  SharedMutexReadLock lock(mu_);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n    " : ",\n    ") << json::escape(name) << ": "
       << json::Value(c->value()).dump();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n    " : ",\n    ") << json::escape(name) << ": "
       << num(g->value());
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ") << json::escape(name)
       << ": {\"count\": " << json::Value(h->count()).dump()
       << ", \"sum\": " << num(h->sum()) << ", \"min\": " << num(h->min())
       << ", \"max\": " << num(h->max()) << ", \"mean\": " << num(h->mean())
       << ", \"p50\": " << num(h->quantile(0.5))
       << ", \"p95\": " << num(h->quantile(0.95))
       << ", \"p99\": " << num(h->quantile(0.99)) << ", \"bounds\": [";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      os << (i ? ", " : "") << num(bounds[i]);
    }
    os << "], \"buckets\": [";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      os << (i ? ", " : "") << json::Value(counts[i]).dump();
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  SharedMutexReadLock lock(mu_);
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_) {
    os << "counter," << name << ",value," << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge," << name << ",value," << format_sample(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h->count() << "\n";
    const auto row = [&](const char* field, double value) {
      os << "histogram," << name << ',' << field << ','
         << format_sample(value) << "\n";
    };
    row("sum", h->sum());
    row("mean", h->mean());
    row("min", h->min());
    row("max", h->max());
    row("p50", h->quantile(0.5));
    row("p95", h->quantile(0.95));
    row("p99", h->quantile(0.99));
  }
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

std::string format_sample(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  std::string out;
  json::append_number(out, value);
  return out;
}

std::span<const double> default_seconds_bounds() {
  static const std::array<double, 15> bounds = {
      1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
      1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0};
  return bounds;
}

std::span<const double> default_magnitude_bounds() {
  static const std::array<double, 15> bounds = {
      1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
      10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4};
  return bounds;
}

}  // namespace rrf::obs
