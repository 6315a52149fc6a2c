#include "sim/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

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

/// The forecast arithmetic the predictor had before its state moved into
/// rings and per-type arrays: one deque of recent undershoots per type,
/// trimmed to `error_window`, with the max over it added to the pad, and
/// (periodicity on) one growing-then-trimmed history vector per type.
class DequeReference {
 public:
  DequeReference(std::size_t p, PredictorConfig config)
      : config_(config), ewma_(p), errors_(p), last_(p), history_(p) {}

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
    if (config_.enable_periodicity) {
      for (std::size_t k = 0; k < ewma_.size(); ++k) {
        history_[k].push_back(actual[k]);
        if (history_[k].size() > config_.history) {
          history_[k].erase(history_[k].begin());
        }
      }
      if (observations_ % config_.redetect_every == 0) redetect();
    }
  }

  /// `issue` false: the forecast is not recorded (the engine's rule for
  /// a VM it has not observed yet).
  ResourceVector predict(bool issue = true) {
    ResourceVector out(ewma_.size());
    for (std::size_t k = 0; k < ewma_.size(); ++k) {
      double pad = config_.base_padding;
      if (!errors_[k].empty()) {
        pad += *std::max_element(errors_[k].begin(), errors_[k].end());
      }
      pad = std::min(pad, config_.max_padding);
      double base = ewma_[k];
      if (period_ > 0 && history_[k].size() > period_) {
        base = 0.5 * base + 0.5 * history_[k][history_[k].size() - period_];
      }
      out[k] = base * (1.0 + pad);
    }
    if (issue) {
      last_ = out;
      has_prediction_ = true;
    }
    return out;
  }

  std::size_t observations() const { return observations_; }
  std::size_t period() const { return period_; }

 private:
  void redetect() {
    const std::size_t n = history_.front().size();
    if (n < 4 * config_.min_period) return;
    std::vector<double> aggregate(n, 0.0);
    for (const auto& series : history_) {
      for (std::size_t t = 0; t < n; ++t) aggregate[t] += series[t];
    }
    std::size_t best_lag = 0;
    double best_corr = config_.period_confidence;
    for (std::size_t lag = config_.min_period; lag <= n / 2; ++lag) {
      const double corr =
          pearson(std::span<const double>(aggregate.data(), n - lag),
                  std::span<const double>(aggregate.data() + lag, n - lag));
      if (corr > best_corr) {
        best_corr = corr;
        best_lag = lag;
      }
    }
    period_ = best_lag;
  }

  PredictorConfig config_;
  ResourceVector ewma_;
  std::vector<std::deque<double>> errors_;
  ResourceVector last_;
  bool has_prediction_{false};
  std::size_t observations_{0};
  std::vector<std::vector<double>> history_;
  std::size_t period_{0};
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

/// A periodic demand with noise: a square wave of period 12 on type 0, a
/// ramp of period 9 on type 1, noise on type 2 (zero every fifth step).
ResourceVector wave(int step, Rng& rng) {
  return ResourceVector{(step / 6) % 2 == 0 ? rng.uniform(8.0, 10.0)
                                            : rng.uniform(0.0, 2.0),
                        static_cast<double>(step % 9) + rng.uniform(0.0, 0.5),
                        step % 5 == 0 ? 0.0 : rng.uniform(1.0, 2.0)};
}

/// Row `row` of a type-major bank array as a vector.
ResourceVector row_of(const std::vector<double>& values, std::size_t rows,
                      std::size_t row) {
  ResourceVector out(values.size() / rows);
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = values[k * rows + row];
  return out;
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

  // The batched bank: VMs join at different windows (a joining VM copies
  // a fresh row), one moves to a second bank mid-run as a migration
  // would, and every joined row matches its own reference.
  constexpr std::size_t kRows = 5;
  const std::array<int, kRows> join = {0, 3, 7, 12, 40};
  constexpr int kMoveAt = 90;  // row 2 of bank a -> row 0 of bank b
  for (const bool periodic : {false, true}) {
    for (const std::size_t window : {std::size_t{1}, std::size_t{3},
                                     std::size_t{8}}) {
      PredictorConfig config;
      config.error_window = window;
      config.max_padding = 0.9;
      config.enable_periodicity = periodic;
      config.history = 40;  // wraps well before the end
      config.min_period = 4;
      config.redetect_every = 5;
      const PredictorBank fresh(3, 1, config);
      PredictorBank a(3, kRows, config);
      PredictorBank b(3, 2, config);
      std::vector<DequeReference> ref_a(kRows, DequeReference(3, config));
      std::vector<DequeReference> ref_b(2, DequeReference(3, config));
      std::vector<double> out_a(3 * kRows), out_b(3 * 2);
      std::vector<double> seen_a(3 * kRows), seen_b(3 * 2);
      Rng rng(29 + window);
      std::size_t compared = 0;
      std::size_t periods = 0;
      for (int step = 0; step < 200; ++step) {
        for (std::size_t r = 0; r < kRows; ++r) {
          if (step == join[r]) a.copy_row(r, fresh, 0);
        }
        if (step == 0) b.copy_row(1, fresh, 0);
        if (step == kMoveAt) {
          b.copy_row(0, a, 2);
          ref_b[0] = ref_a[2];
          a.copy_row(2, fresh, 0);  // a new VM takes the freed row
          ref_a[2] = DequeReference(3, config);
        }
        // The engine issues no forecast for an unobserved VM; the
        // one-VM form does.  Exercise both, and skip some forecasts.
        const bool issue_unobserved = step % 2 == 0;
        if (step % 7 != 3) {
          a.predict(out_a, issue_unobserved);
          if (step >= kMoveAt) b.predict(out_b, issue_unobserved);
          for (std::size_t r = 0; r < kRows; ++r) {
            if (step < join[r]) continue;
            const bool issue =
                issue_unobserved || ref_a[r].observations() > 0;
            const ResourceVector expected = ref_a[r].predict(issue);
            ASSERT_TRUE(same_bits(row_of(out_a, kRows, r), expected))
                << "a row " << r << " window " << window << " step " << step
                << (periodic ? " periodic" : "");
            ++compared;
          }
          for (std::size_t r = 0; r < 2 && step >= kMoveAt; ++r) {
            const bool issue =
                issue_unobserved || ref_b[r].observations() > 0;
            ASSERT_TRUE(
                same_bits(row_of(out_b, 2, r), ref_b[r].predict(issue)))
                << "b row " << r << " window " << window << " step " << step
                << (periodic ? " periodic" : "");
            ++compared;
          }
        }
        for (std::size_t r = 0; r < kRows; ++r) {
          const ResourceVector d = wave(step + static_cast<int>(r), rng);
          for (std::size_t k = 0; k < 3; ++k) seen_a[k * kRows + r] = d[k];
          if (step >= join[r]) ref_a[r].observe(d);
        }
        a.observe(seen_a);
        if (step >= kMoveAt) {
          for (std::size_t r = 0; r < 2; ++r) {
            const ResourceVector d = wave(step + 3 * static_cast<int>(r), rng);
            for (std::size_t k = 0; k < 3; ++k) seen_b[k * 2 + r] = d[k];
            ref_b[r].observe(d);
          }
          b.observe(seen_b);
        }
        for (std::size_t r = 0; r < kRows; ++r) {
          if (step < join[r]) continue;
          ASSERT_EQ(a.observations(r), ref_a[r].observations());
          ASSERT_EQ(a.detected_period(r), ref_a[r].period());
          if (a.detected_period(r) > 0) ++periods;
        }
      }
      EXPECT_GT(compared, 700u);
      // Periodicity on: the search ran and locked onto a period.
      EXPECT_EQ(periods > 0, periodic) << "window " << window;
    }
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
