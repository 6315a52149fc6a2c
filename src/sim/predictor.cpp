#include "sim/predictor.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace rrf::sim {

PredictorBank::PredictorBank(std::size_t types, std::size_t rows,
                             PredictorConfig config)
    : config_(config),
      types_(types),
      rows_(rows),
      ewma_(types * rows, 0.0),
      forecast_(types * rows, 0.0),
      under_next_(rows, 0),
      issued_(rows, 0),
      observations_(rows, 0),
      period_(rows, 0) {
  RRF_REQUIRE(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0,
              "EWMA alpha must be in (0, 1]");
  RRF_REQUIRE(config.error_window >= 1, "error window must be >= 1");
  under_.assign(types * config.error_window * rows, 0.0);
  if (config.enable_periodicity) {
    RRF_REQUIRE(config.min_period >= 2, "min_period must be >= 2");
    RRF_REQUIRE(config.history >= 4 * config.min_period,
                "history too short for the period search");
    RRF_REQUIRE(config.redetect_every >= 1, "redetect_every must be >= 1");
    history_.assign(rows * types * config.history, 0.0);
    aggregate_.assign(config.history, 0.0);
  }
}

void PredictorBank::predict(std::span<double> out, bool issue_unobserved) {
  RRF_REQUIRE(out.size() == types_ * rows_, "arity mismatch");
  const std::size_t n = rows_;
  const std::size_t window = config_.error_window;
  const std::size_t history = config_.history;
  // rrf-hot-path: begin(predictor.predict)
  for (std::size_t k = 0; k < types_; ++k) {
    double* forecast = out.data() + k * n;
    // Adaptive padding: the worst recent undershoot is added on top of
    // the base pad (CloudScale's "reactive error correction" spirit).
    const double* ring = under_.data() + k * window * n;
    std::copy_n(ring, n, forecast);
    for (std::size_t s = 1; s < window; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        forecast[i] = std::max(forecast[i], ring[s * n + i]);
      }
    }
    const double* ewma = ewma_.data() + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double pad =
          std::min(config_.base_padding + forecast[i], config_.max_padding);
      double base = ewma[i];
      const std::size_t period = period_[i];
      if (period > 0 && std::min(observations_[i], history) > period) {
        // Blend in the value one period ago (which is what the *next*
        // window looked like one cycle earlier): anticipates ramps the
        // EWMA can only follow.
        const double seasonal =
            history_[(i * types_ + k) * history +
                     (observations_[i] - period) % history];
        base = 0.5 * base + 0.5 * seasonal;
      }
      forecast[i] = base * (1.0 + pad);
    }
  }
  std::copy(out.begin(), out.end(), forecast_.begin());
  for (std::size_t i = 0; i < n; ++i) {
    issued_[i] = issue_unobserved || observations_[i] > 0 ? 1 : 0;
  }
  // rrf-hot-path: end(predictor.predict)
}

void PredictorBank::observe(std::span<const double> actual) {
  RRF_REQUIRE(actual.size() == types_ * rows_, "arity mismatch");
  const std::size_t n = rows_;
  const std::size_t window = config_.error_window;
  const double alpha = config_.ewma_alpha;
  if (obs::metrics_enabled()) record_metrics(actual);
  // rrf-hot-path: begin(predictor.observe)
  for (std::size_t k = 0; k < types_; ++k) {
    const double* observed = actual.data() + k * n;
    const double* forecast = forecast_.data() + k * n;
    double* ewma = ewma_.data() + k * n;
    double* ring = under_.data() + k * window * n;
    for (std::size_t i = 0; i < n; ++i) {
      const double a = observed[i];
      // Track how badly the previous forecast undershot (relative); only
      // recorded when a forecast was issued since the last observation.
      const double under = a > forecast[i] && a > 0.0
                               ? (a - forecast[i]) / a
                               : 0.0;
      double& slot = ring[under_next_[i] * n + i];
      slot = issued_[i] != 0 ? under : slot;
      ewma[i] = observations_[i] == 0
                    ? a
                    : alpha * a + (1.0 - alpha) * ewma[i];
    }
  }
  if (config_.enable_periodicity) push_history(actual);
  for (std::size_t i = 0; i < n; ++i) {
    if (issued_[i] != 0) {
      // The slot just written becomes the newest; once every slot is
      // filled the next write overwrites the oldest.
      under_next_[i] = under_next_[i] + 1 == window ? 0 : under_next_[i] + 1;
    }
    ++observations_[i];
    issued_[i] = 0;
  }
  // rrf-hot-path: end(predictor.observe)
  if (config_.enable_periodicity) {
    for (std::size_t i = 0; i < n; ++i) {
      if (observations_[i] % config_.redetect_every == 0) redetect_period(i);
    }
  }
}

void PredictorBank::record_metrics(std::span<const double> actual) const {
  // Relative undershoot of the previous forecast, 0 when it covered the
  // demand.  Bounded by 1, so ratio-scaled buckets.
  static constexpr std::array<double, 6> kUnderBounds = {0.01, 0.05, 0.1,
                                                         0.2,  0.5,  1.0};
  static obs::Histogram& underprediction =
      obs::metrics().histogram("predictor.underprediction", kUnderBounds);
  static obs::Counter& observations =
      obs::metrics().counter("predictor.observations");
  for (std::size_t i = 0; i < rows_; ++i) {
    if (issued_[i] == 0) continue;
    for (std::size_t k = 0; k < types_; ++k) {
      const double a = actual[k * rows_ + i];
      const double forecast = forecast_[k * rows_ + i];
      underprediction.observe(a > forecast && a > 0.0 ? (a - forecast) / a
                                                      : 0.0);
    }
  }
  observations.add(rows_);
}

void PredictorBank::push_history(std::span<const double> actual) {
  const std::size_t history = config_.history;
  for (std::size_t i = 0; i < rows_; ++i) {
    const std::size_t slot = observations_[i] % history;
    for (std::size_t k = 0; k < types_; ++k) {
      history_[(i * types_ + k) * history + slot] = actual[k * rows_ + i];
    }
  }
}

void PredictorBank::redetect_period(std::size_t row) {
  // Search the aggregate (sum over types) history for the lag with the
  // highest autocorrelation.
  const std::size_t history = config_.history;
  const std::size_t n = std::min(observations_[row], history);
  if (n < 4 * config_.min_period) return;

  // The ring read oldest first, so the series is in time order.
  const std::size_t oldest = observations_[row] - n;
  std::fill_n(aggregate_.begin(), n, 0.0);
  for (std::size_t k = 0; k < types_; ++k) {
    const double* series = history_.data() + (row * types_ + k) * history;
    for (std::size_t t = 0; t < n; ++t) {
      aggregate_[t] += series[(oldest + t) % history];
    }
  }

  const std::size_t max_lag = n / 2;
  std::size_t best_lag = 0;
  double best_corr = config_.period_confidence;
  for (std::size_t lag = config_.min_period; lag <= max_lag; ++lag) {
    const std::span<const double> head(aggregate_.data(), n - lag);
    const std::span<const double> tail(aggregate_.data() + lag, n - lag);
    const double corr = pearson(head, tail);
    if (corr > best_corr) {
      best_corr = corr;
      best_lag = lag;
    }
  }
  period_[row] = best_lag;  // 0 when nothing confident was found
  if (obs::metrics_enabled() && best_lag > 0) {
    static obs::Counter& detections =
        obs::metrics().counter("predictor.period_detections");
    detections.add();
  }
}

void PredictorBank::copy_row(std::size_t to, const PredictorBank& source,
                             std::size_t from) {
  RRF_REQUIRE(source.types_ == types_ &&
                  source.config_.error_window == config_.error_window &&
                  source.config_.enable_periodicity ==
                      config_.enable_periodicity &&
                  source.config_.history == config_.history,
              "predictor banks of different shapes");
  RRF_REQUIRE(to < rows_ && from < source.rows_, "row out of range");
  const std::size_t window = config_.error_window;
  for (std::size_t k = 0; k < types_; ++k) {
    ewma_[k * rows_ + to] = source.ewma_[k * source.rows_ + from];
    forecast_[k * rows_ + to] = source.forecast_[k * source.rows_ + from];
    for (std::size_t s = 0; s < window; ++s) {
      under_[(k * window + s) * rows_ + to] =
          source.under_[(k * window + s) * source.rows_ + from];
    }
  }
  under_next_[to] = source.under_next_[from];
  issued_[to] = source.issued_[from];
  observations_[to] = source.observations_[from];
  period_[to] = source.period_[from];
  const std::size_t span = types_ * config_.history;
  if (config_.enable_periodicity) {
    std::copy_n(source.history_.begin() + static_cast<std::ptrdiff_t>(from * span),
                span,
                history_.begin() + static_cast<std::ptrdiff_t>(to * span));
  }
}

DemandPredictor::DemandPredictor(std::size_t resource_types,
                                 PredictorConfig config)
    : bank_(resource_types, 1, config) {
  RRF_REQUIRE(resource_types <= ResourceVector::kInlineCapacity,
              "a predicted vector holds at most " +
                  std::to_string(ResourceVector::kInlineCapacity) +
                  " resource types");
}

void DemandPredictor::observe(const ResourceVector& actual) {
  RRF_REQUIRE(actual.size() == bank_.types(), "arity mismatch");
  bank_.observe(actual.values());
}

ResourceVector DemandPredictor::predict() const {
  std::array<double, ResourceVector::kInlineCapacity> forecast{};
  ResourceVector out(bank_.types());
  bank_.predict(std::span<double>(forecast.data(), out.size()),
                /*issue_unobserved=*/true);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = forecast[k];
  return out;
}

}  // namespace rrf::sim
