#include "common/resource_vector.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/float_eq.hpp"

namespace rrf {

ResourceVector ResourceVector::uniform(std::size_t p, double value) {
  ResourceVector v(p);
  std::fill(v.values_.begin(), v.values_.begin() + p, value);
  return v;
}

ResourceVector& ResourceVector::operator/=(double s) {
  RRF_REQUIRE(!is_exact_zero(s), "division by zero scalar");
  for (std::size_t k = 0; k < size_; ++k) values_[k] /= s;
  return *this;
}

double ResourceVector::min() const {
  return *std::min_element(values_.begin(), values_.begin() + size_);
}

double ResourceVector::max() const {
  return *std::max_element(values_.begin(), values_.begin() + size_);
}

std::size_t ResourceVector::dominant(const ResourceVector& reference) const {
  check_same_size(reference);
  std::size_t best = 0;
  double best_ratio = -1.0;
  for (std::size_t k = 0; k < size_; ++k) {
    RRF_REQUIRE(reference.values_[k] > 0.0,
                "dominant share needs a positive reference capacity");
    const double ratio = values_[k] / reference.values_[k];
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = k;
    }
  }
  return best;
}

double ResourceVector::dominant_share(const ResourceVector& reference) const {
  const std::size_t k = dominant(reference);
  return values_[k] / reference.values_[k];
}

bool ResourceVector::all_le(const ResourceVector& o, double eps) const {
  check_same_size(o);
  for (std::size_t k = 0; k < size_; ++k) {
    if (values_[k] > o.values_[k] + eps) return false;
  }
  return true;
}

bool ResourceVector::all_ge(const ResourceVector& o, double eps) const {
  return o.all_le(*this, eps);
}

bool ResourceVector::all_nonneg(double eps) const {
  return std::all_of(values_.begin(), values_.begin() + size_,
                     [eps](double v) { return v >= -eps; });
}

bool ResourceVector::approx_equal(const ResourceVector& o, double eps) const {
  if (size_ != o.size_) return false;
  for (std::size_t k = 0; k < size_; ++k) {
    if (std::abs(values_[k] - o.values_[k]) > eps) return false;
  }
  return true;
}

ResourceVector ResourceVector::elementwise_min(const ResourceVector& a,
                                               const ResourceVector& b) {
  a.check_same_size(b);
  ResourceVector out(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    out.values_[k] = std::min(a.values_[k], b.values_[k]);
  }
  return out;
}

ResourceVector ResourceVector::elementwise_max(const ResourceVector& a,
                                               const ResourceVector& b) {
  a.check_same_size(b);
  ResourceVector out(a.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    out.values_[k] = std::max(a.values_[k], b.values_[k]);
  }
  return out;
}

ResourceVector ResourceVector::clamped(const ResourceVector& lo,
                                       const ResourceVector& hi) const {
  check_same_size(lo);
  check_same_size(hi);
  ResourceVector out(size());
  for (std::size_t k = 0; k < size(); ++k) {
    out.values_[k] = std::clamp(values_[k], lo.values_[k], hi.values_[k]);
  }
  return out;
}

ResourceVector ResourceVector::surplus_over(const ResourceVector& o) const {
  check_same_size(o);
  ResourceVector out(size());
  for (std::size_t k = 0; k < size(); ++k) {
    out.values_[k] = std::max(0.0, values_[k] - o.values_[k]);
  }
  return out;
}

ResourceVector ResourceVector::deficit_under(const ResourceVector& o) const {
  return o.surplus_over(*this);
}

std::string ResourceVector::to_string(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed << "<";
  for (std::size_t k = 0; k < size_; ++k) {
    if (k != 0) os << ", ";
    os << values_[k];
  }
  os << ">";
  return os.str();
}

std::string ResourceVector::to_exact_string() const {
  std::string out = "<";
  for (std::size_t k = 0; k < size_; ++k) {
    if (k != 0) out += ", ";
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), values_[k]).ptr);
  }
  return out + ">";
}

std::ostream& operator<<(std::ostream& os, const ResourceVector& v) {
  return os << v.to_string();
}

}  // namespace rrf
