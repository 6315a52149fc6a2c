// ResourceVector: a small dense vector over resource types (CPU, RAM, ...).
//
// This is the central value type of the library: demands, shares,
// allocations, contributions and capacities are all ResourceVectors.  The
// algorithms are generic over the number of resource types p, but p is
// at most kInlineCapacity (4): the components live inside the object, so
// a ResourceVector is trivially copyable (40 bytes) and never touches the
// heap.  A larger arity is rejected with PreconditionError; input readers
// check the limit first and report it against the offending field.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rrf {

class ResourceVector {
 public:
  /// The largest arity: every component is stored inline.
  static constexpr std::size_t kInlineCapacity = 4;

  /// Zero vector with `p` resource types (default: CPU + RAM).
  explicit ResourceVector(std::size_t p = kDefaultResourceCount)
      : size_(checked_arity(p)) {}

  /// Construct from explicit per-type values, e.g. `{6.0, 3.0}`.
  ResourceVector(std::initializer_list<double> init)
      : ResourceVector(std::span<const double>(init.begin(), init.size())) {}

  /// Construct from an existing range of values.
  explicit ResourceVector(std::span<const double> init)
      : size_(checked_arity(init.size())) {
    RRF_REQUIRE(size_ > 0, "a resource vector needs >= 1 type");
    std::copy_n(init.begin(), size_, values_.begin());
  }

  /// Vector with the same value in every component.
  static ResourceVector uniform(std::size_t p, double value);

  std::size_t size() const { return size_; }

  double operator[](std::size_t k) const {
    RRF_ASSERT(k < size_);
    return values_[k];
  }
  double& operator[](std::size_t k) {
    RRF_ASSERT(k < size_);
    return values_[k];
  }
  double operator[](Resource r) const {
    return (*this)[static_cast<std::size_t>(r)];
  }
  double& operator[](Resource r) {
    return (*this)[static_cast<std::size_t>(r)];
  }

  std::span<const double> values() const { return {values_.data(), size_}; }

  // ---- arithmetic (element-wise) ----
  ResourceVector& operator+=(const ResourceVector& o) {
    check_same_size(o);
    for (std::size_t k = 0; k < size_; ++k) values_[k] += o.values_[k];
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) {
    check_same_size(o);
    for (std::size_t k = 0; k < size_; ++k) values_[k] -= o.values_[k];
    return *this;
  }
  ResourceVector& operator*=(double s) {
    for (std::size_t k = 0; k < size_; ++k) values_[k] *= s;
    return *this;
  }
  ResourceVector& operator/=(double s);
  /// Element-wise product.
  ResourceVector& hadamard(const ResourceVector& o) {
    check_same_size(o);
    for (std::size_t k = 0; k < size_; ++k) values_[k] *= o.values_[k];
    return *this;
  }

  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    return a += b;
  }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) {
    return a -= b;
  }
  friend ResourceVector operator*(ResourceVector a, double s) { return a *= s; }
  friend ResourceVector operator*(double s, ResourceVector a) { return a *= s; }
  friend ResourceVector operator/(ResourceVector a, double s) { return a /= s; }

  friend bool operator==(const ResourceVector& a, const ResourceVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t k = 0; k < a.size_; ++k) {
      if (a.values_[k] != b.values_[k]) return false;
    }
    return true;
  }

  // ---- reductions ----
  /// Sum of all components (e.g. total shares when the vector is in shares).
  double sum() const {
    double total = 0.0;
    for (std::size_t k = 0; k < size_; ++k) total += values_[k];
    return total;
  }
  /// Smallest / largest component.
  double min() const;
  double max() const;
  /// Index of the largest component of `this / reference` — the *dominant*
  /// resource in DRF terms.  `reference` is typically the system capacity.
  std::size_t dominant(const ResourceVector& reference) const;
  /// max_k (this[k] / reference[k]); the (unweighted) dominant share.
  double dominant_share(const ResourceVector& reference) const;

  // ---- element-wise comparisons ----
  bool all_le(const ResourceVector& o, double eps = 0.0) const;
  bool all_ge(const ResourceVector& o, double eps = 0.0) const;
  bool all_nonneg(double eps = 0.0) const;
  bool approx_equal(const ResourceVector& o, double eps = 1e-9) const;

  // ---- element-wise builders ----
  static ResourceVector elementwise_min(const ResourceVector& a,
                                        const ResourceVector& b);
  static ResourceVector elementwise_max(const ResourceVector& a,
                                        const ResourceVector& b);
  /// Clamp every component into [lo, hi] (component-wise bounds).
  ResourceVector clamped(const ResourceVector& lo,
                         const ResourceVector& hi) const;
  /// max(this - o, 0) per component: the surplus of `this` over `o`.
  ResourceVector surplus_over(const ResourceVector& o) const;
  /// max(o - this, 0) per component: the deficit of `this` under `o`.
  ResourceVector deficit_under(const ResourceVector& o) const;

  /// "⟨6 GHz, 3 GB⟩"-style rendering; unit labels optional.
  std::string to_string(int precision = 2) const;
  /// "<2.5, 1e-12>": every value in the shortest form that reads back as
  /// the same double (std::to_chars).
  std::string to_exact_string() const;

 private:
  static std::size_t checked_arity(std::size_t p) {
    RRF_REQUIRE(p <= kInlineCapacity,
                std::to_string(p) + " resource types exceed the limit of " +
                    std::to_string(kInlineCapacity));
    return p;
  }

  void check_same_size(const ResourceVector& o) const {
    RRF_REQUIRE(size_ == o.size_,
                "resource vectors must have the same arity");
  }

  std::size_t size_;
  /// Components [0, size_); the rest stay zero.
  std::array<double, kInlineCapacity> values_{};
};

static_assert(std::is_trivially_copyable_v<ResourceVector>);

std::ostream& operator<<(std::ostream& os, const ResourceVector& v);

}  // namespace rrf
