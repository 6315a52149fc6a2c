// Resource demand prediction (paper Section V mentions demand prediction as
// part of the prototype; CloudScale-style EWMA with adaptive padding).
//
// The allocator runs at the start of each window, so it must act on a
// *forecast* of the window's demand.  We keep an EWMA of observed demand
// plus a padding term driven by recent under-prediction errors: chronic
// under-estimates grow the pad, calm periods shrink it.
#pragma once

#include <vector>

#include "common/resource_vector.hpp"
#include "common/types.hpp"

namespace rrf::sim {

struct PredictorConfig {
  double ewma_alpha = 0.35;     ///< weight of the newest observation
  double base_padding = 0.05;   ///< relative headroom always added
  double max_padding = 0.50;    ///< cap on the adaptive pad
  std::size_t error_window = 8; ///< windows of under-prediction history

  /// Periodicity detection (CloudScale-style signature prediction).  When
  /// enabled, the predictor searches the observation history for a
  /// dominant period by autocorrelation; if one is found with correlation
  /// above `period_confidence`, the forecast blends the EWMA with the
  /// value observed one period ago — which anticipates cyclical ramps
  /// (e.g. RUBBoS) instead of lagging them.
  bool enable_periodicity = false;
  std::size_t history = 256;          ///< observations kept for the search
  std::size_t min_period = 8;         ///< in windows
  double period_confidence = 0.6;     ///< minimum autocorrelation
  std::size_t redetect_every = 32;    ///< observations between searches
};

/// Per-VM multi-resource demand predictor.
class DemandPredictor {
 public:
  explicit DemandPredictor(std::size_t resource_types = kDefaultResourceCount,
                           PredictorConfig config = {});

  /// Feeds the demand actually observed in the window just finished.
  void observe(const ResourceVector& actual);

  /// Forecast for the next window.  Before any observation, returns zero
  /// (callers typically seed with the provisioned capacity instead).
  ResourceVector predict() const;

  std::size_t observations() const { return observations_; }

  /// Detected period in windows; 0 when periodicity is disabled or no
  /// confident period has been found yet.
  std::size_t detected_period() const { return period_; }

 private:
  PredictorConfig config_;
  ResourceVector ewma_;
  /// Recent relative under-prediction per type (0 when over-predicted):
  /// one ring of `error_window` slots per type, type k at
  /// [k * error_window, (k + 1) * error_window).  Every type records an
  /// error on the same observations, so one fill count and one write
  /// position serve all rings.
  std::vector<double> under_errors_;
  std::size_t under_count_{0};
  std::size_t under_next_{0};
  /// Cache of the latest forecast, compared against the next observation
  /// to measure under-prediction; logically not part of observable state.
  mutable ResourceVector last_prediction_;
  /// True when a forecast was issued after the most recent observation.
  mutable bool has_prediction_{false};
  std::size_t observations_{0};

  // --- periodicity state ---
  void maybe_redetect_period();
  /// Ring buffer of the last `history` aggregate demands (sum over types
  /// drives detection; per-type history feeds the forecast).
  std::vector<std::vector<double>> history_;  // [type][t], newest last
  std::size_t period_{0};
};

}  // namespace rrf::sim
