#include "common/pricing.hpp"

namespace rrf {

PricingModel::PricingModel(ResourceVector unit_prices)
    : unit_prices_(std::move(unit_prices)) {
  for (std::size_t k = 0; k < unit_prices_.size(); ++k) {
    RRF_REQUIRE(unit_prices_[k] > 0.0, "unit prices must be positive");
  }
}

PricingModel PricingModel::paper_default() {
  // 1 core = 3.07 GHz = 300 shares -> 300 / 3.07 shares per GHz.
  return PricingModel({300.0 / 3.07, 200.0});
}

PricingModel PricingModel::example_default() {
  return PricingModel({100.0, 200.0});
}

Share PricingModel::value_of(const ResourceVector& capacity) const {
  return shares_for(capacity).sum();
}

double PricingModel::payment_for(const ResourceVector& capacity,
                                 double currency_per_share) const {
  return value_of(capacity) * currency_per_share;
}

}  // namespace rrf
