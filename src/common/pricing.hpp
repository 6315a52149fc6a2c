// Pricing / share model: the economic layer of RRF.
//
// The paper (Section III-B) normalizes multiple resource types into a single
// currency, *shares*, via per-unit market prices.  Two mappings are defined:
//   f1: payment -> shares      (what a tenant's money buys)
//   f2: shares  -> resource    (what the hypervisor realises)
// The paper's evaluation prices 1 CPU core (3.07 GHz) at 300 shares and
// 1 GB RAM at 200 shares, matching the EC2 CPU:RAM price ratio reported in
// [Williams et al., VEE'11].
#pragma once

#include "common/error.hpp"
#include "common/resource_vector.hpp"
#include "common/types.hpp"

namespace rrf {

class PricingModel {
 public:
  /// `unit_prices[k]` = shares per unit of resource k (e.g. per GHz, per GB).
  explicit PricingModel(ResourceVector unit_prices);

  /// The paper's evaluation pricing: 1 CPU core (3.07 GHz) = 300 shares and
  /// 1 GB RAM = 200 shares, i.e. ~97.7 shares/GHz and 200 shares/GB.
  static PricingModel paper_default();

  /// Pricing used in the paper's worked examples (Example 1 / Table II):
  /// 1 GHz = 100 shares, 1 GB = 200 shares.
  static PricingModel example_default();

  std::size_t resource_count() const { return unit_prices_.size(); }
  const ResourceVector& unit_prices() const { return unit_prices_; }

  /// f1 applied per resource type: capacity vector -> share vector.
  ResourceVector shares_for(const ResourceVector& capacity) const {
    ResourceVector out = capacity;
    return out.hadamard(unit_prices_);
  }

  /// f2 applied per resource type: share vector -> capacity vector.
  ResourceVector capacity_for(const ResourceVector& shares) const {
    RRF_REQUIRE(shares.size() == unit_prices_.size(),
                "share vector arity mismatch");
    ResourceVector out(shares.size());
    for (std::size_t k = 0; k < shares.size(); ++k) {
      out[k] = shares[k] / unit_prices_[k];
    }
    return out;
  }

  /// Aggregate share value of a capacity vector (a tenant's *asset*).
  Share value_of(const ResourceVector& capacity) const;

  /// Monetary payment for a capacity vector given a price-per-share.
  double payment_for(const ResourceVector& capacity,
                     double currency_per_share = 1.0) const;

 private:
  ResourceVector unit_prices_;
};

}  // namespace rrf
