// Resource demand prediction (paper Section V mentions demand prediction as
// part of the prototype; CloudScale-style EWMA with adaptive padding).
//
// The allocator runs at the start of each window, so it must act on a
// *forecast* of the window's demand.  We keep an EWMA of observed demand
// plus a padding term driven by recent under-prediction errors: chronic
// under-estimates grow the pad, calm periods shrink it.
//
// The arithmetic exists once, in PredictorBank: one node's predictors as
// per-type arrays over its VMs, so predict and observe are one loop per
// type.  DemandPredictor is the same kernel for a single VM.
#pragma once

#include <span>
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

/// The demand predictors of `rows` VMs under one config, as one batched
/// kernel.  Every per-type value is an array over the rows, and the
/// demand arrays predict() and observe() exchange are type-major: entry
/// k * rows() + i is row i's value of resource type k.
class PredictorBank {
 public:
  PredictorBank(std::size_t types, std::size_t rows, PredictorConfig config);

  std::size_t types() const { return types_; }

  /// Every row's forecast for the next window into `out`.  A forecast is
  /// issued — the row's next observation measures its undershoot — for
  /// each row already observed, and for the others too when
  /// `issue_unobserved` (their forecast is zero).
  void predict(std::span<double> out, bool issue_unobserved);

  /// Feeds every row the demand observed in the window just finished.
  void observe(std::span<const double> actual);

  std::size_t observations(std::size_t row) const {
    return observations_[row];
  }

  /// Row's detected period in windows; 0 when periodicity is disabled or
  /// no confident period has been found yet.
  std::size_t detected_period(std::size_t row) const { return period_[row]; }

  /// Overwrites row `to` with row `from` of `source`, which must have the
  /// same types and config: a migrated VM takes its predictor along.
  void copy_row(std::size_t to, const PredictorBank& source, std::size_t from);

 private:
  void record_metrics(std::span<const double> actual) const;
  void push_history(std::span<const double> actual);
  void redetect_period(std::size_t row);

  PredictorConfig config_;
  std::size_t types_;
  std::size_t rows_;
  std::vector<double> ewma_;      ///< [type][row]
  std::vector<double> forecast_;  ///< last forecast, [type][row]
  /// Recent relative under-prediction (0 when over-predicted), one ring
  /// of `error_window` slots per type and row, laid out [type][slot][row].
  /// A row records an error for every type on the same observations, so
  /// one write position per row serves its rings.  Unfilled slots hold +0
  /// and every error is >= +0, so the maximum over the whole ring is the
  /// maximum over its filled slots.
  std::vector<double> under_;
  std::vector<std::size_t> under_next_;
  /// 1 when a forecast was issued after the row's latest observation.
  std::vector<unsigned char> issued_;
  std::vector<std::size_t> observations_;

  // --- periodicity state ---
  /// The last `history` observations per row and type, [row][type][slot]:
  /// observation j lands in slot j % history.
  std::vector<double> history_;
  std::vector<std::size_t> period_;
  /// The period search's aggregate series (sum over types, oldest first).
  std::vector<double> aggregate_;
};

/// Multi-resource demand predictor for one VM: a one-row PredictorBank.
class DemandPredictor {
 public:
  explicit DemandPredictor(std::size_t resource_types = kDefaultResourceCount,
                           PredictorConfig config = {});

  /// Feeds the demand actually observed in the window just finished.
  void observe(const ResourceVector& actual);

  /// Forecast for the next window.  Before any observation, returns zero
  /// (callers typically seed with the provisioned capacity instead).
  ResourceVector predict() const;

  std::size_t observations() const { return bank_.observations(0); }

  /// Detected period in windows; 0 when periodicity is disabled or no
  /// confident period has been found yet.
  std::size_t detected_period() const { return bank_.detected_period(0); }

 private:
  /// Issuing a forecast is logically not part of the observable state.
  mutable PredictorBank bank_;
};

}  // namespace rrf::sim
