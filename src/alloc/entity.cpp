#include "alloc/entity.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rrf::alloc {

ResourceVector AllocationResult::total() const {
  RRF_REQUIRE(!allocations.empty(), "empty allocation result");
  ResourceVector t(allocations.front().size());
  for (const auto& a : allocations) t += a;
  return t;
}

namespace {

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

bool finite_nonneg(const ResourceVector& v) {
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (!finite_nonneg(v[k])) return false;
  }
  return true;
}

}  // namespace

void validate_entities(const ResourceVector& capacity,
                       std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities to allocate to");
  RRF_REQUIRE(finite_nonneg(capacity),
              "capacity must be finite and non-negative");
  for (const auto& e : entities) {
    RRF_REQUIRE(e.initial_share.size() == capacity.size(),
                "entity share arity must match capacity");
    RRF_REQUIRE(e.demand.size() == capacity.size(),
                "entity demand arity must match capacity");
    RRF_REQUIRE(finite_nonneg(e.initial_share),
                "initial shares must be finite and non-negative");
    RRF_REQUIRE(finite_nonneg(e.demand),
                "demands must be finite and non-negative");
    RRF_REQUIRE(finite_nonneg(e.weight),
                "weights must be finite and non-negative");
  }
}

void validate_columns(const ResourceVector& capacity, std::size_t entities,
                      std::span<const double> share,
                      std::span<const double> demand) {
  RRF_REQUIRE(entities > 0, "no entities to allocate to");
  RRF_REQUIRE(finite_nonneg(capacity),
              "capacity must be finite and non-negative");
  RRF_REQUIRE(share.size() == capacity.size() * entities,
              "entity share arity must match capacity");
  RRF_REQUIRE(demand.size() == capacity.size() * entities,
              "entity demand arity must match capacity");
  bool shares_ok = true;
  bool demands_ok = true;
  for (const double v : share) shares_ok &= finite_nonneg(v);
  for (const double v : demand) demands_ok &= finite_nonneg(v);
  RRF_REQUIRE(shares_ok, "initial shares must be finite and non-negative");
  RRF_REQUIRE(demands_ok, "demands must be finite and non-negative");
}

ResourceVector total_demand(std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities");
  ResourceVector t(entities.front().demand.size());
  for (const auto& e : entities) t += e.demand;
  return t;
}

ResourceVector total_share(std::span<const AllocationEntity> entities) {
  RRF_REQUIRE(!entities.empty(), "no entities");
  ResourceVector t(entities.front().initial_share.size());
  for (const auto& e : entities) t += e.initial_share;
  return t;
}

}  // namespace rrf::alloc
