#include "sim/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rrf::sim {
namespace {

TEST(Predictor, ConvergesOnConstantDemand) {
  DemandPredictor p;
  const ResourceVector d{10.0, 4.0};
  for (int i = 0; i < 50; ++i) p.observe(d);
  const ResourceVector forecast = p.predict();
  // Converged EWMA plus the base pad (5%).
  EXPECT_NEAR(forecast[0], 10.5, 0.05);
  EXPECT_NEAR(forecast[1], 4.2, 0.02);
}

TEST(Predictor, ZeroBeforeFirstObservation) {
  DemandPredictor p;
  EXPECT_TRUE(p.predict().approx_equal(ResourceVector{0.0, 0.0}, 1e-12));
  EXPECT_EQ(p.observations(), 0u);
}

TEST(Predictor, TracksStepChange) {
  DemandPredictor p;
  for (int i = 0; i < 20; ++i) p.observe(ResourceVector{2.0, 2.0});
  for (int i = 0; i < 20; ++i) p.observe(ResourceVector{10.0, 10.0});
  const ResourceVector forecast = p.predict();
  EXPECT_GT(forecast[0], 9.0);
}

TEST(Predictor, AdaptivePaddingGrowsOnUnderPrediction) {
  PredictorConfig config;
  config.base_padding = 0.0;
  DemandPredictor p(2, config);
  // Oscillating demand keeps the forecast under the peaks.
  for (int i = 0; i < 30; ++i) {
    p.predict();  // record a forecast so the error is measured
    p.observe(ResourceVector{i % 2 == 0 ? 10.0 : 2.0, 4.0});
  }
  // The pad must now cover a good part of the recent undershoot.
  p.observe(ResourceVector{2.0, 4.0});
  const ResourceVector forecast = p.predict();
  EXPECT_GT(forecast[0], 4.0);  // well above the bare EWMA of ~6 * small
}

TEST(Predictor, PaddingIsCapped) {
  PredictorConfig config;
  config.max_padding = 0.10;
  DemandPredictor p(2, config);
  for (int i = 0; i < 30; ++i) {
    p.predict();
    p.observe(ResourceVector{i % 2 == 0 ? 100.0 : 0.1, 4.0});
  }
  const ResourceVector forecast = p.predict();
  // Even with terrible undershoots, pad <= 10% of the EWMA.
  EXPECT_LT(forecast[0], 100.0 * 1.1);
}

/// The forecast arithmetic the predictor had before its error history
/// moved into rings: one deque of recent undershoots per type, trimmed
/// to `error_window`, and the max over it added to the pad.
class DequeReference {
 public:
  DequeReference(std::size_t p, PredictorConfig config)
      : config_(config), ewma_(p), errors_(p), last_(p) {}

  void observe(const ResourceVector& actual) {
    for (std::size_t k = 0; k < ewma_.size(); ++k) {
      if (has_prediction_) {
        const double under = actual[k] > last_[k] && actual[k] > 0.0
                                 ? (actual[k] - last_[k]) / actual[k]
                                 : 0.0;
        errors_[k].push_back(under);
        if (errors_[k].size() > config_.error_window) errors_[k].pop_front();
      }
      ewma_[k] = observations_ == 0
                     ? actual[k]
                     : config_.ewma_alpha * actual[k] +
                           (1.0 - config_.ewma_alpha) * ewma_[k];
    }
    ++observations_;
    has_prediction_ = false;
  }

  ResourceVector predict() {
    ResourceVector out(ewma_.size());
    for (std::size_t k = 0; k < ewma_.size(); ++k) {
      double pad = config_.base_padding;
      if (!errors_[k].empty()) {
        pad += *std::max_element(errors_[k].begin(), errors_[k].end());
      }
      pad = std::min(pad, config_.max_padding);
      out[k] = ewma_[k] * (1.0 + pad);
    }
    last_ = out;
    has_prediction_ = true;
    return out;
  }

 private:
  PredictorConfig config_;
  ResourceVector ewma_;
  std::vector<std::deque<double>> errors_;
  ResourceVector last_;
  bool has_prediction_{false};
  std::size_t observations_{0};
};

bool same_bits(const ResourceVector& a, const ResourceVector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

TEST(Predictor, RingReproducesTheDequeForecastsBitForBit) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}}) {
    PredictorConfig config;
    config.error_window = window;
    config.max_padding = 0.9;  // keep the max over the window visible
    DemandPredictor ring(3, config);
    DequeReference reference(3, config);
    Rng rng(11 + window);
    // Many times the window, with some windows observed without a
    // forecast in between (those record no error).
    for (int i = 0; i < 200; ++i) {
      if (i % 7 != 3) {
        const ResourceVector a = ring.predict();
        const ResourceVector b = reference.predict();
        ASSERT_TRUE(same_bits(a, b))
            << "window " << window << " step " << i << ": " << a << " vs "
            << b;
      }
      const ResourceVector actual{rng.uniform(0.0, 10.0),
                                  rng.uniform(0.0, 4.0),
                                  i % 5 == 0 ? 0.0 : rng.uniform(1.0, 2.0)};
      ring.observe(actual);
      reference.observe(actual);
    }
    EXPECT_EQ(ring.observations(), 200u);
  }
}

TEST(PeriodicPredictor, DetectsSquareWavePeriod) {
  PredictorConfig config;
  config.enable_periodicity = true;
  config.min_period = 4;
  DemandPredictor p(2, config);
  // Period-20 square wave.
  for (int i = 0; i < 200; ++i) {
    const double v = (i / 10) % 2 == 0 ? 10.0 : 2.0;
    p.observe(ResourceVector{v, v});
  }
  EXPECT_NEAR(static_cast<double>(p.detected_period()), 20.0, 1.0);
}

TEST(PeriodicPredictor, AnticipatesRampsBetterThanEwma) {
  PredictorConfig ewma_only;
  PredictorConfig periodic;
  periodic.enable_periodicity = true;
  periodic.min_period = 4;
  DemandPredictor a(2, ewma_only);
  DemandPredictor b(2, periodic);

  // Period-20 square wave; accumulate absolute forecast errors over the
  // last cycles (after the period is locked in).
  double err_a = 0.0, err_b = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double v = (i / 10) % 2 == 0 ? 10.0 : 2.0;
    const ResourceVector actual{v, v};
    if (i > 200) {
      err_a += std::abs(a.predict()[0] - v);
      err_b += std::abs(b.predict()[0] - v);
    }
    a.observe(actual);
    b.observe(actual);
  }
  EXPECT_LT(err_b, 0.8 * err_a);
}

TEST(PeriodicPredictor, NoPeriodOnNoise) {
  PredictorConfig config;
  config.enable_periodicity = true;
  config.min_period = 4;
  config.period_confidence = 0.6;
  DemandPredictor p(2, config);
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    p.observe(ResourceVector{rng.uniform(0.0, 10.0), 4.0});
  }
  EXPECT_EQ(p.detected_period(), 0u);
}

TEST(PeriodicPredictor, ValidatesConfig) {
  PredictorConfig bad;
  bad.enable_periodicity = true;
  bad.min_period = 1;
  EXPECT_THROW(DemandPredictor(2, bad), PreconditionError);
  PredictorConfig short_history;
  short_history.enable_periodicity = true;
  short_history.history = 8;
  short_history.min_period = 8;
  EXPECT_THROW(DemandPredictor(2, short_history), PreconditionError);
  PredictorConfig never_redetect;
  never_redetect.enable_periodicity = true;
  never_redetect.redetect_every = 0;
  EXPECT_THROW(DemandPredictor(2, never_redetect), PreconditionError);
}

TEST(Predictor, ValidatesInput) {
  PredictorConfig bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(DemandPredictor(2, bad), PreconditionError);
  DemandPredictor p;
  EXPECT_THROW(p.observe(ResourceVector{1.0, 1.0, 1.0}), PreconditionError);
}

}  // namespace
}  // namespace rrf::sim
