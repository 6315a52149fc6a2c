#include "sim/predictor.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace rrf::sim {

DemandPredictor::DemandPredictor(std::size_t resource_types,
                                 PredictorConfig config)
    : config_(config),
      ewma_(resource_types),
      last_prediction_(resource_types),
      history_(resource_types) {
  RRF_REQUIRE(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0,
              "EWMA alpha must be in (0, 1]");
  RRF_REQUIRE(config.error_window >= 1, "error window must be >= 1");
  under_errors_.assign(resource_types * config.error_window, 0.0);
  if (config.enable_periodicity) {
    RRF_REQUIRE(config.min_period >= 2, "min_period must be >= 2");
    RRF_REQUIRE(config.history >= 4 * config.min_period,
                "history too short for the period search");
    RRF_REQUIRE(config.redetect_every >= 1, "redetect_every must be >= 1");
  }
}

void DemandPredictor::observe(const ResourceVector& actual) {
  RRF_REQUIRE(actual.size() == ewma_.size(), "arity mismatch");
  const std::size_t window = config_.error_window;
  // rrf-hot-path: begin(predictor.observe)
  for (std::size_t k = 0; k < ewma_.size(); ++k) {
    // Track how badly the previous forecast undershot (relative); only
    // meaningful when a forecast was actually issued since the last
    // observation.
    if (has_prediction_) {
      const double under =
          actual[k] > last_prediction_[k] && actual[k] > 0.0
              ? (actual[k] - last_prediction_[k]) / actual[k]
              : 0.0;
      under_errors_[k * window + under_next_] = under;
      if (obs::metrics_enabled()) {
        // Relative undershoot of the previous forecast, 0 when it covered
        // the demand.  Bounded by 1, so ratio-scaled buckets.
        static constexpr std::array<double, 6> kUnderBounds = {
            0.01, 0.05, 0.1, 0.2, 0.5, 1.0};
        static obs::Histogram& underprediction = obs::metrics().histogram(
            "predictor.underprediction", kUnderBounds);
        underprediction.observe(under);
      }
    }
    ewma_[k] = observations_ == 0
                   ? actual[k]
                   : config_.ewma_alpha * actual[k] +
                         (1.0 - config_.ewma_alpha) * ewma_[k];
  }
  if (has_prediction_) {
    // The slot just written becomes the newest; once every slot is
    // filled the next write overwrites the oldest.
    under_next_ = under_next_ + 1 == window ? 0 : under_next_ + 1;
    under_count_ = std::min(under_count_ + 1, window);
  }
  ++observations_;
  has_prediction_ = false;
  if (obs::metrics_enabled()) {
    static obs::Counter& observations =
        obs::metrics().counter("predictor.observations");
    observations.add();
  }
  // rrf-hot-path: end(predictor.observe)
  if (config_.enable_periodicity) {
    for (std::size_t k = 0; k < ewma_.size(); ++k) {
      auto& series = history_[k];
      series.push_back(actual[k]);
      if (series.size() > config_.history) {
        series.erase(series.begin());
      }
    }
    if (observations_ % config_.redetect_every == 0) {
      maybe_redetect_period();
    }
  }
}

void DemandPredictor::maybe_redetect_period() {
  // Search the aggregate (sum over types) history for the lag with the
  // highest autocorrelation.
  const std::size_t n = history_.front().size();
  if (n < 4 * config_.min_period) return;

  std::vector<double> aggregate(n, 0.0);
  for (const auto& series : history_) {
    for (std::size_t t = 0; t < n; ++t) aggregate[t] += series[t];
  }

  const std::size_t max_lag = n / 2;
  std::size_t best_lag = 0;
  double best_corr = config_.period_confidence;
  for (std::size_t lag = config_.min_period; lag <= max_lag; ++lag) {
    const std::span<const double> head(aggregate.data(), n - lag);
    const std::span<const double> tail(aggregate.data() + lag, n - lag);
    const double corr = pearson(head, tail);
    if (corr > best_corr) {
      best_corr = corr;
      best_lag = lag;
    }
  }
  period_ = best_lag;  // 0 when nothing confident was found
  if (obs::metrics_enabled() && best_lag > 0) {
    static obs::Counter& detections =
        obs::metrics().counter("predictor.period_detections");
    detections.add();
  }
}

ResourceVector DemandPredictor::predict() const {
  const std::size_t window = config_.error_window;
  ResourceVector out(ewma_.size());
  // rrf-hot-path: begin(predictor.predict)
  for (std::size_t k = 0; k < ewma_.size(); ++k) {
    double pad = config_.base_padding;
    if (under_count_ > 0) {
      // Adaptive padding: the worst recent undershoot is added on top of
      // the base pad (CloudScale's "reactive error correction" spirit).
      // The filled slots are [0, under_count_) of the type's ring.
      const double* errors = under_errors_.data() + k * window;
      pad += *std::max_element(errors, errors + under_count_);
    }
    pad = std::min(pad, config_.max_padding);

    double base = ewma_[k];
    if (period_ > 0 && history_[k].size() > period_) {
      // Blend in the value one period ago (which is what the *next*
      // window looked like one cycle earlier): anticipates ramps the
      // EWMA can only follow.
      const double seasonal =
          history_[k][history_[k].size() - period_];
      base = 0.5 * base + 0.5 * seasonal;
    }
    out[k] = base * (1.0 + pad);
  }
  // rrf-hot-path: end(predictor.predict)
  last_prediction_ = out;
  has_prediction_ = true;
  return out;
}

}  // namespace rrf::sim
